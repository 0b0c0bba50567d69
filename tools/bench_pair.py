"""Benchmark this checkout against a parent checkout, in alternating runs.

Usage, from the root of this checkout:

    python3 tools/bench_pair.py PARENT_CHECKOUT --out BENCH_<n>.json

For each workload that ``BENCHMARK.json`` lists, the tool runs ``PAIRS``
pairs of ``perfbench/run.py --trace 0`` runs, one per side, alternating
which side goes first; then one ``--trace 1`` run per side gives the
per-layer counters.  Every run uses the benchmark's own run length and is a
single process, and only one runs at a time.  The output holds, per
workload and side, each metric's min, quartiles and median over the
untraced runs (with the runs themselves), the traced run's metrics and
whether every output was correct; per workload and end-to-end metric, the
pairs in which the change did better, the parent's interquartile range
and the distance between the medians (parent minus change for a
lower-is-better metric); per workload, whether the traced runs' deterministic
counters (``COUNTERS``) are equal on both sides, and the names of any that
differ, so a change meant to keep the search shows that it did; and both
checkouts' git SHAs, the Python version and the number of usable cores.
A gain is shown when the change does better in at least nine pairs in ten
and the medians differ by more than the parent's interquartile range; each
metric's pair summary says so in ``gain_shown``.

Before the first pair, ``python -m compileall -q src perfbench`` runs in
both checkouts (it writes bytecode even under ``PYTHONDONTWRITEBYTECODE``),
so ``setup_s``, which includes importing ``mobosat``, does not favour the
side that happens to hold cached bytecode.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
# alternating parent/change pairs per workload: the fewest that can show a
# gain won in nine pairs out of ten
PAIRS = 10
# per-round counters of a traced run that depend only on the search, not on
# the host's speed
COUNTERS = ("sat.solve_calls", "sat.decisions", "sat.conflicts", "sat.propagations",
            "encode.vars", "mcs.found")
# lines of a failed run's stderr to show
STDERR_TAIL = 20


def _sha(checkout: Path) -> str:
    """The checkout's HEAD commit, marked ``+dirty`` when its tracked files differ."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    sha = git("rev-parse", "HEAD")
    return sha + "+dirty" if git("status", "--porcelain", "--untracked-files=no") else sha


def _run(side: str, checkout: Path, workload: str, seed: int, seconds: float,
         trace: int) -> dict:
    """One benchmark process; its report (the last line it prints).  A run
    that fails prints its side, workload, pair index (its seed) and the tail
    of its stderr before the error is raised."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-STDERR_TAIL:])
        print(f"{side} run of {workload}, pair {seed}, trace {trace}: exit {done.returncode}\n"
              f"{tail}", file=sys.stderr)
        done.check_returncode()
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": report["correct"], "failed": report["failed"],
            "attempted": report["attempted"],
            "metrics": {k: v["value"] for k, v in report["metrics"].items()}}


def _summary(runs: list) -> dict:
    def stats(values: list) -> dict:
        q1, median, q3 = statistics.quantiles(values, n=4)
        return {"min": min(values), "q1": q1, "median": median, "q3": q3, "runs": values}

    return {
        "correct": all(r["correct"] and not r["failed"] for r in runs),
        "metrics": {k: stats([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]},
    }


def _pairs(parent: list, change: list, better: str) -> dict:
    """How the change's runs compare with the parent's, pair by pair."""
    sign = 1 if better == "lower" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4)
    change_better = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    median_gain = sign * (statistics.median(parent) - statistics.median(change))
    return {"change_better": change_better,
            "pairs": len(parent),
            "parent_iqr": q3 - q1,
            "median_gain": median_gain,
            "gain_shown": change_better >= 0.9 * len(parent) and median_gain > q3 - q1}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args()
    bench = json.loads((HERE / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": HERE}
    result = {
        "sha": {side: _sha(path) for side, path in sides.items()},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": seconds,
        "runs_per_side": PAIRS,
        "workloads": {},
    }
    for path in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=path, check=True)
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {side: [] for side in sides}
        for i in range(PAIRS):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                runs[side].append(_run(side, sides[side], workload, i + 1, seconds, trace=0))
                print(workload, side, i + 1, runs[side][-1]["metrics"], file=sys.stderr)
        traced = {side: _run(side, path, workload, 1, seconds, trace=1)["metrics"]
                  for side, path in sides.items()}
        differ = [k for k in COUNTERS if traced["parent"].get(k) != traced["change"].get(k)]
        result["workloads"][workload] = {
            **{side: {**_summary(runs[side]), "traced": traced[side]} for side in sides},
            "counters_equal": not differ,
            "counters_differ": differ,
        }
        result["workloads"][workload]["pairs"] = {
            m["name"]: _pairs([r["metrics"][m["name"]] for r in runs["parent"]],
                              [r["metrics"][m["name"]] for r in runs["change"]], m["better"])
            for m in bench["end_to_end"]
        }
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
