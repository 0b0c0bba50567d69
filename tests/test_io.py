import itertools
import json
from fractions import Fraction

import pytest

from mobosat.engine import ApproxResult, solve_exact
from mobosat.io import (
    ParseError,
    generate_mscp,
    parse_pbmo,
    parse_point_file,
    result_to_dict,
    write_pbmo,
    write_result,
)
from mobosat.model import image, is_feasible
from mobosat.oracle import brute_force_pareto

TRIANGLE = """\
* two objectives over three variables
min: 2 x1 1 x2 -1 x3 1 ;
min: -1 x1 1 x2 2 x3 1 ;
1 x1 1 x2 1 x3 >= 2 ;
"""


class TestParse:
    def test_triangle_example(self, two_obj_triangle):
        instance = parse_pbmo(TRIANGLE)
        assert instance.num_vars == 3
        for bits in itertools.product((0, 1), repeat=3):
            assert is_feasible(instance, bits) == is_feasible(two_obj_triangle, bits)
            if is_feasible(instance, bits):
                assert image(instance, bits) == image(two_obj_triangle, bits)

    def test_single_objective_with_constraints(self, ladder_example):
        text = "min: 3 x1 2 x2 2 x3 ;\n1 x1 1 x2 >= 1 ;\n-1 x2 1 x3 >= 0 ;\n"
        instance = parse_pbmo(text)
        report = brute_force_pareto(instance)
        assert report.pareto_front == ((3,),)

    def test_empty_constraint_section(self):
        instance = parse_pbmo("min: 1 x1 2 x2 ;\n")
        assert instance.constraints == ()
        assert instance.num_vars == 2

    def test_relations_rewritten(self):
        instance = parse_pbmo("min: 1 x1 ;\n1 x1 1 x2 <= 1 ;\n1 x1 = 1 ;\n")
        # x1 = 1 forces x1; x1 + x2 <= 1 then forces x2 = 0
        assert all(is_feasible(instance, bits) == (bits[0] == 1 and bits[1] == 0)
                   for bits in itertools.product((0, 1), repeat=2))

    def test_maximization_rejected(self):
        with pytest.raises(ParseError, match="maximization"):
            parse_pbmo("max: 1 x1 ;\n")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_pbmo("min: 1 x1 2 x1 ;\n")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError, match=";"):
            parse_pbmo("min: 1 x1\n")

    def test_overflow_rejected(self):
        with pytest.raises(ParseError, match="64-bit"):
            parse_pbmo(f"min: {2**63} x1 ;\n")

    def test_negative_objective_minimum_rejected(self):
        with pytest.raises(ParseError):
            parse_pbmo("min: -3 x1 1 ;\n")

    def test_error_carries_position(self):
        try:
            parse_pbmo("min: 1 x1 ;\n1 y2 >= 1 ;\n")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected a parse error")

    @pytest.mark.parametrize("line, column", [
        ("  1 y2 >= 1 ;", 5),
        ("   1    x1   >=   y ;", 19),
    ])
    def test_error_column_counts_raw_whitespace(self, line, column):
        with pytest.raises(ParseError) as info:
            parse_pbmo(f"min: 1 x1 ;\n{line}\n")
        assert (info.value.line, info.value.column) == (2, column)

    def test_objective_required(self):
        with pytest.raises(ParseError, match="objective") as info:
            parse_pbmo("1 x1 >= 1 ;\n")
        assert (info.value.line, info.value.column) == (None, None)  # a document-level error


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", [
        "two_obj_triangle", "ladder_example", "unconstrained_biobjective"])
    def test_semantics_preserved(self, fixture, request):
        instance = request.getfixturevalue(fixture)
        parsed = parse_pbmo(write_pbmo(instance))
        assert parsed.num_vars == instance.num_vars
        for bits in itertools.product((0, 1), repeat=instance.num_vars):
            assert is_feasible(parsed, bits) == is_feasible(instance, bits)
            assert image(parsed, bits) == image(instance, bits)

    def test_write_is_stable(self, two_obj_triangle):
        once = write_pbmo(two_obj_triangle)
        assert once == write_pbmo(parse_pbmo(once))


class TestGenerator:
    def test_structure(self):
        instance = generate_mscp(10, 4, 3, seed=7)
        assert instance.num_vars == 10
        assert len(instance.constraints) == 4
        for con in instance.constraints:
            assert len(con.lhs.terms) == 5
            assert all(c == 1 for c, _ in con.lhs.terms)
            assert con.bound == 1
            assert len({l.var for _, l in con.lhs.terms}) == 5

    def test_first_objective_all_ones(self):
        instance = generate_mscp(10, 4, 3, seed=7)
        assert all(c == 1 for c, _ in instance.objectives[0].terms)
        assert len(instance.objectives[0].terms) == 10
        for obj in instance.objectives[1:]:
            assert all(1 <= c <= 100 for c, _ in obj.terms)

    def test_deterministic(self):
        a = write_pbmo(generate_mscp(12, 5, 2, seed=3))
        b = write_pbmo(generate_mscp(12, 5, 2, seed=3))
        assert a == b
        c = write_pbmo(generate_mscp(12, 5, 2, seed=4))
        assert a != c

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            generate_mscp(4, 1, 1, seed=0)


class TestResults:
    def _result(self, two_obj_triangle):
        return solve_exact(two_obj_triangle)

    def test_empty_result_serialization(self):
        empty = ApproxResult((), (), None, False, False, ())
        data = json.loads(write_result(empty))
        assert data["images"] == [] and data["lower_bounds"] == []
        assert data["warranted_ratio"] is None
        assert data["schema"] == 1

    def test_front_rows(self, two_obj_triangle):
        data = json.loads(write_result(self._result(two_obj_triangle)))
        assert sorted(map(tuple, data["images"])) == [(1, 4), (2, 2), (4, 1)]
        assert data["warranted_ratio"] == "1/1"

    def test_trace_sequence_strictly_increasing(self, unconstrained_biobjective):
        from mobosat.engine import RatioSchedule, core_solve
        result = core_solve(unconstrained_biobjective,
                            RatioSchedule(start=Fraction(4), divisor=Fraction(2)))
        seqs = [row["seq"] for row in result_to_dict(result)["trace"]]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_json_deterministic_but_csv_carries_wall_clock(self, two_obj_triangle):
        r1, r2 = self._result(two_obj_triangle), self._result(two_obj_triangle)
        assert write_result(r1) == write_result(r2)
        csv_text = write_result(r1, "csv").decode()
        assert csv_text.splitlines()[0] == \
            "seq,ratio,mcs_count,new_images,new_lower_bounds,objective_clauses,completed,wall_s"

    def test_unknown_format(self, two_obj_triangle):
        with pytest.raises(ValueError):
            write_result(self._result(two_obj_triangle), "xml")


class TestPointFiles:
    def test_bare_array(self):
        assert parse_point_file("[[1,2],[3,4]]") == [(1, 2), (3, 4)]

    def test_result_document(self, two_obj_triangle):
        text = write_result(solve_exact(two_obj_triangle)).decode()
        points = parse_point_file(text)
        assert sorted(points) == [(1, 4), (2, 2), (4, 1)]

    def test_rejects_unknown_shape(self):
        with pytest.raises(ValueError):
            parse_point_file('{"foo": 1}')

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '{"images": 3}', "[[1, null]]",
                                      "[[1, true]]", '[["1", 2]]', "[[1.5, 2]]", "[[-1, 2]]",
                                      "[[1, 2], [3]]", "[[]]"])
    def test_rejects_malformed_points(self, text):
        with pytest.raises(ValueError, match="list of nonnegative integer lists"):
            parse_point_file(text)
