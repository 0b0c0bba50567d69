import json
import os
import subprocess
import sys

import pytest

import mobosat
from mobosat.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, EXIT_TRUNCATED, main

BIOBJECTIVE = """\
min: 3 x1 3 x2 1 x3 2 x4 1 ;
min: -4 x1 -5 x2 -5 x3 -7 x4 22 ;
"""

INFEASIBLE = """\
min: 1 x2 ;
1 x1 >= 1 ;
-1 x1 >= 0 ;
"""


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.pbmo"
    path.write_text(BIOBJECTIVE)
    return path


def run_cli(*args, env=None):
    """Run ``python -m mobosat.cli`` in a child process.

    The child's ``PYTHONPATH`` is the directory holding the ``mobosat``
    package this process imported, so it runs the same code whether mobosat
    is installed or imported from a checkout.  ``env`` defaults to this
    process's environment.
    """
    env = dict(os.environ if env is None else env,
               PYTHONPATH=os.path.dirname(os.path.dirname(mobosat.__file__)))
    return subprocess.run([sys.executable, "-m", "mobosat.cli", *args],
                          capture_output=True, text=True, env=env)


class TestSolve:
    def test_exact_mode(self, instance_file, tmp_path):
        out = tmp_path / "result.json"
        code = main(["solve", "--mode", "exact", str(instance_file), "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert sorted(map(tuple, data["images"])) == [
            (1, 22), (2, 17), (3, 15), (4, 10), (7, 5), (10, 1)]

    def test_interval_configuration(self, instance_file, tmp_path):
        out = tmp_path / "result.json"
        code = main(["solve", "--mode", "interval", "--ratio", "2", "--target-ratio", "2",
                     str(instance_file), "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert sorted(map(tuple, data["lower_bounds"])) == [(1, 16), (2, 8), (4, 4), (8, 1)]
        assert data["warranted_ratio"] == "2/1"

    def test_ratio_accepts_fraction_forms(self, instance_file, tmp_path):
        for text in ("2", "2.0", "4/2"):
            out = tmp_path / f"r{text.replace('/', '_')}.json"
            code = main(["solve", "--mode", "coeff", "--ratio", text,
                         "--target-ratio", text, str(instance_file), "--out", str(out)])
            assert code == EXIT_OK

    def test_trace_file(self, instance_file, tmp_path):
        out, trace = tmp_path / "r.json", tmp_path / "t.csv"
        main(["solve", "--mode", "coeff", "--ratio", "4", "--divisor", "3",
              "--target-ratio", "2", str(instance_file),
              "--out", str(out), "--trace", str(trace)])
        lines = trace.read_text().strip().splitlines()
        assert lines[0].startswith("seq,ratio,")
        assert len(lines) == 3  # header + two iterations

    def test_infeasible_exit_code(self, tmp_path):
        path = tmp_path / "bad.pbmo"
        path.write_text(INFEASIBLE)
        assert main(["solve", str(path), "--out", str(tmp_path / "o.json")]) == EXIT_INFEASIBLE

    def test_truncated_exit_code(self, instance_file, tmp_path):
        code = main(["solve", "--mode", "interval", "--ratio", "2",
                     "--time-limit", "1e-9", str(instance_file),
                     "--out", str(tmp_path / "o.json")])
        assert code == EXIT_TRUNCATED

    @pytest.mark.parametrize("command", ["solve", "enumerate-efficient"])
    @pytest.mark.parametrize("limit", ["0", "-1", "nan"])
    def test_non_positive_or_nan_time_limit_is_an_error(self, command, limit,
                                                         instance_file, tmp_path):
        code = main([command, str(instance_file), f"--time-limit={limit}",
                     "--out", str(tmp_path / "o.json")])
        assert code == EXIT_ERROR
        assert not (tmp_path / "o.json").exists()

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "ugly.pbmo"
        path.write_text("max: 1 x1 ;\n")
        assert main(["solve", str(path)]) == EXIT_ERROR

    def test_missing_file(self):
        assert main(["solve", "/nonexistent/really.pbmo"]) == EXIT_ERROR


class TestDeterminism:
    def test_byte_identical_json(self, instance_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["solve", "--mode", "coeff", "--ratio", "11", "--divisor", "10",
                str(instance_file)]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestOtherCommands:
    def test_enumerate_efficient(self, instance_file, tmp_path):
        out = tmp_path / "eff.json"
        assert main(["enumerate-efficient", str(instance_file), "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["complete"] and len(data["solutions"]) == 6

    def test_generate_and_oracle(self, tmp_path):
        inst = tmp_path / "gen.pbmo"
        assert main(["generate", "-n", "10", "-m", "4", "-p", "2",
                     "--seed", "7", "--out", str(inst)]) == EXIT_OK
        text1 = inst.read_text()
        assert main(["generate", "-n", "10", "-m", "4", "-p", "2",
                     "--seed", "7", "--out", str(inst)]) == EXIT_OK
        assert inst.read_text() == text1
        out = tmp_path / "oracle.json"
        assert main(["oracle", str(inst), "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["feasible_count"] > 0 and data["pareto_front"]

    def test_generate_batch(self, tmp_path):
        outdir = tmp_path / "batch"
        assert main(["generate", "-n", "8", "-m", "2", "-p", "2", "--seed", "1",
                     "--count", "3", "--out", str(outdir)]) == EXIT_OK
        assert len(list(outdir.glob("*.pbmo"))) == 3

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_generate_count_below_one_is_an_error(self, count, tmp_path, capsys):
        outdir = tmp_path / "batch"
        assert main(["generate", "-n", "8", "-m", "2", "-p", "2",
                     "--count", count, "--out", str(outdir)]) == EXIT_ERROR
        assert main(["generate", "-n", "8", "-m", "2", "-p", "2", "--count", count]) == EXIT_ERROR
        assert "--count" in capsys.readouterr().err
        assert not outdir.exists()

    def test_oracle_refuses_above_cap(self, tmp_path):
        inst = tmp_path / "big.pbmo"
        main(["generate", "-n", "30", "-m", "5", "-p", "2", "--out", str(inst)])
        assert main(["oracle", str(inst), "--max-vars", "24"]) == EXIT_ERROR

    def test_evaluate(self, tmp_path):
        a, r = tmp_path / "a.json", tmp_path / "r.json"
        a.write_text("[[2,2]]")
        r.write_text("[[1,4],[2,2],[4,1]]")
        out = tmp_path / "report.json"
        assert main(["evaluate", str(a), str(r), "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["epsilon_vs_reference"] == "2/1"
        assert data["epsilon_vs_reference_float"] == 2.0

    def test_evaluate_rejects_ragged_points(self, tmp_path, capsys):
        # an empty reference used to let a ragged file reach the indicators
        a, r = tmp_path / "a.json", tmp_path / "r.json"
        a.write_text("[[1,2],[3]]")
        r.write_text("[]")
        assert main(["evaluate", str(a), str(r)]) == EXIT_ERROR
        assert "error: points must be" in capsys.readouterr().err

    def test_help_lists_flags(self):
        result = run_cli("solve", "--help")
        assert result.returncode == 0
        for flag in ("--mode", "--ratio", "--divisor", "--target-ratio",
                     "--time-limit", "--out", "--trace"):
            assert flag in result.stdout

    def test_log_env_variable(self, instance_file, tmp_path):
        result = run_cli("solve", str(instance_file), "--out", str(tmp_path / "o.json"),
                         env={"PATH": "/usr/bin:/bin", "MOBO_MCS_LOG": "INFO"})
        assert result.returncode == 0
        assert "iteration" in result.stderr
