"""Instance files, benchmark generation, and result serialization.

The ``.pbmo`` grammar is OPB-flavored and line-based:

* comment lines start with ``*``;
* one objective per line: ``min: <int> <var> ... <int> <var> [<int>] ;``
  where the optional trailing bare integer is a constant term;
* constraints: ``<int> <var> ... <rel> <int> ;`` with ``<rel>`` one of
  ``>=``, ``<=``, ``=`` (rewritten to ``>=`` on parsing);
* variables are ``x<positive int>``; tokens are whitespace-separated and
  every statement ends with a ``;`` token.

Coefficients may be negative in the file; parsing normalizes them away.
All magnitudes are checked against 64-bit limits so downstream arithmetic
can assume it never wraps.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import random
import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .engine import ApproxResult
from .model import Instance, LinearExpr, Literal, PBConstraint, normalize_expression, normalize_objective

INT64_MAX = 2**63 - 1
RESULT_SCHEMA = 1

_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")
_INT_RE = re.compile(r"^[+-]?[0-9]+$")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _check_width(value: int, line: int, col: int) -> int:
    if abs(value) > INT64_MAX:
        raise ParseError(f"integer {value} exceeds 64-bit range", line, col)
    return value


def _parse_terms(tokens: List[Tuple[str, int]], line: int):
    """Parse ``<int> <var>`` pairs with an optional trailing bare integer."""
    terms = []
    constant = 0
    seen = set()
    i = 0
    while i < len(tokens):
        tok, col = tokens[i]
        if not _INT_RE.match(tok):
            raise ParseError(f"expected integer coefficient, got {tok!r}", line, col)
        coeff = _check_width(int(tok), line, col)
        if i + 1 >= len(tokens):
            constant = coeff
            i += 1
            break
        var_tok, var_col = tokens[i + 1]
        match = _VAR_RE.match(var_tok)
        if match is None:
            if _INT_RE.match(var_tok):
                raise ParseError("only one trailing constant is allowed", line, var_col)
            raise ParseError(f"expected variable like x3, got {var_tok!r}", line, var_col)
        var = int(match.group(1))
        if var in seen:
            raise ParseError(f"duplicate variable x{var} in term list", line, var_col)
        seen.add(var)
        terms.append((coeff, Literal(var)))
        i += 2
    total = sum(abs(c) for c, _ in terms) + abs(constant)
    _check_width(total, line, 0)
    return terms, constant


def parse_pbmo(text: str) -> Instance:
    """Parse a .pbmo document into a normalized instance."""
    objectives: List[LinearExpr] = []
    constraints: List[PBConstraint] = []
    max_var = 0
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if not stripped or stripped.startswith("*"):
            continue
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", raw_line)]
        if tokens[-1][0] != ";":
            raise ParseError("statement must end with ';'", lineno, len(raw_line))
        tokens = tokens[:-1]
        if not tokens:
            raise ParseError("empty statement", lineno, 1)
        head, head_col = tokens[0]
        if head in ("max:", "max"):
            raise ParseError("maximization objectives are not supported", lineno, head_col)
        if head == "min:":
            terms, constant = _parse_terms(tokens[1:], lineno)
            try:
                expr = normalize_objective(terms, constant)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, head_col) from None
            objectives.append(expr)
            max_var = max([max_var] + [l.var for _, l in expr.terms])
            continue
        # constraint: terms, relation, bound
        rel_idx = next((i for i, (tok, _) in enumerate(tokens) if tok in (">=", "<=", "=")), None)
        if rel_idx is None:
            raise ParseError("constraint needs a relation (>=, <= or =)", lineno, 1)
        relation, rel_col = tokens[rel_idx]
        if rel_idx != len(tokens) - 2:
            raise ParseError("exactly one integer bound must follow the relation", lineno, rel_col)
        bound_tok, bound_col = tokens[-1]
        if not _INT_RE.match(bound_tok):
            raise ParseError(f"expected integer bound, got {bound_tok!r}", lineno, bound_col)
        bound = _check_width(int(bound_tok), lineno, bound_col)
        terms, constant = _parse_terms(tokens[:rel_idx], lineno)
        if constant:
            raise ParseError("constraints may not carry a constant term", lineno, rel_col)
        geq_forms = []
        if relation in (">=", "="):
            geq_forms.append((terms, bound))
        if relation in ("<=", "="):
            geq_forms.append(([(-c, l) for c, l in terms], -bound))
        for raw_terms, raw_bound in geq_forms:
            lhs, new_bound = normalize_expression(raw_terms, raw_bound)
            max_var = max([max_var] + [l.var for _, l in lhs.terms])
            constraint = PBConstraint(lhs, new_bound)
            if not constraint.trivial:
                constraints.append(constraint)
    if not objectives:
        raise ParseError("no objective found (need at least one 'min:' line)", 0, 0)
    return Instance(
        num_vars=max_var,
        constraints=tuple(constraints),
        objectives=tuple(objectives),
    )


def _format_expr(expr: LinearExpr, bound: Optional[int]) -> str:
    """Render terms with positive variables only (negated literals fold out)."""
    parts = []
    constant_shift = 0
    for coeff, lit in expr.terms:
        if lit.negated:
            parts.append(f"{-coeff} x{lit.var}")
            constant_shift += coeff
        else:
            parts.append(f"{coeff} x{lit.var}")
    if bound is None:
        constant = expr.constant + constant_shift
        if constant:
            parts.append(str(constant))
        return " ".join(parts) + " ;"
    return " ".join(parts) + f" >= {bound - constant_shift} ;"


def write_pbmo(instance: Instance, comment: str = "") -> str:
    """Serialize an instance; parsing the output reproduces its semantics."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"* {part}")
    lines.append(f"* #variable= {instance.num_vars} #constraint= {len(instance.constraints)} "
                 f"#objective= {instance.num_objectives}")
    for expr in instance.objectives:
        lines.append("min: " + _format_expr(expr, None))
    for con in instance.constraints:
        lines.append(_format_expr(con.lhs, con.bound))
    return "\n".join(lines) + "\n"


def generate_mscp(n: int, m: int, p: int, seed: int) -> Instance:
    """Random multi-objective set covering instance.

    Every constraint covers 5 distinct variables with unit coefficients and
    bound 1; objective 1 is all-ones, the others draw coefficients uniformly
    from [1, 100].  Deterministic for a given (n, m, p, seed).
    """
    if n < 5:
        raise ValueError("need at least 5 variables for 5-literal covering constraints")
    if m < 0 or p < 1:
        raise ValueError("need m >= 0 and p >= 1")
    rng = random.Random(seed)

    def sample5() -> List[int]:
        # explicit partial Fisher-Yates so the stream is pinned to randrange
        pool = list(range(1, n + 1))
        picked = []
        for i in range(5):
            j = rng.randrange(i, n)
            pool[i], pool[j] = pool[j], pool[i]
            picked.append(pool[i])
        return sorted(picked)

    constraints = []
    for _ in range(m):
        vars5 = sample5()
        lhs = LinearExpr(tuple((1, Literal(v)) for v in vars5))
        constraints.append(PBConstraint(lhs, 1))
    objectives = [LinearExpr(tuple((1, Literal(v)) for v in range(1, n + 1)))]
    for _ in range(1, p):
        coeffs = [rng.randrange(1, 101) for _ in range(n)]
        objectives.append(LinearExpr(tuple((coeffs[v - 1], Literal(v)) for v in range(1, n + 1))))
    return Instance(num_vars=n, constraints=tuple(constraints), objectives=tuple(objectives))


def _ratio_str(ratio: Optional[Fraction]) -> Optional[str]:
    if ratio is None:
        return None
    return f"{ratio.numerator}/{ratio.denominator}"


def result_to_dict(result: ApproxResult) -> dict:
    """JSON-ready dict; deterministic for identical runs (no wall-clock)."""
    return {
        "schema": RESULT_SCHEMA,
        "images": [list(img) for img in result.images],
        "assignments": [list(rec.assignment) for rec in result.records],
        "lower_bounds": [list(q) for q in result.lower_bounds],
        "warranted_ratio": _ratio_str(result.warranted_ratio),
        "truncated": result.truncated,
        "infeasible": result.infeasible,
        "trace": [
            {
                "seq": t.seq,
                "ratio": _ratio_str(t.ratio),
                "new_images": [list(img) for img in t.new_images],
                "new_lower_bounds": [list(q) for q in t.new_lower_bounds],
                "mcs_count": t.mcs_count,
                "objective_clauses": t.objective_clauses,
                "completed": t.completed,
            }
            for t in result.trace
        ],
    }


TRACE_CSV_COLUMNS = [
    "seq", "ratio", "mcs_count", "new_images", "new_lower_bounds",
    "objective_clauses", "completed", "wall_s",
]


def _json_bytes(payload: dict) -> bytes:
    """``payload`` as compact key-sorted JSON plus a newline: the same bytes on every run."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def write_result(result: ApproxResult, format: str = "json") -> bytes:
    """Serialize a result: deterministic JSON, or a flat per-iteration CSV.

    The CSV carries wall-clock seconds per iteration and is therefore not
    byte-stable across runs; the JSON is.
    """
    if format == "json":
        return _json_bytes(result_to_dict(result))
    if format == "csv":
        buffer = _stdio.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(TRACE_CSV_COLUMNS)
        for t in result.trace:
            writer.writerow([
                t.seq,
                _ratio_str(t.ratio),
                t.mcs_count,
                ";".join(",".join(str(c) for c in img) for img in t.new_images),
                ";".join(",".join(str(c) for c in q) for q in t.new_lower_bounds),
                t.objective_clauses,
                int(t.completed),
                f"{t.wall_s:.6f}",
            ])
        return buffer.getvalue().encode("utf-8")
    raise ValueError(f"unknown result format {format!r}")


def parse_point_file(text: str) -> List[Tuple[int, ...]]:
    """Points from JSON: a list of nonnegative integer lists of one nonzero
    length, bare or as a result document's ``images``.  The indicators divide
    by coordinates, so a negative one would give a meaningless ratio and
    hypervolume, and compare points coordinate by coordinate."""
    data = json.loads(text)
    points = data.get("images") if isinstance(data, dict) else data
    # type(c) is int: JSON true/false are not coordinates
    if not isinstance(points, list) or not all(
            isinstance(q, list) and all(type(c) is int and c >= 0 for c in q) for q in points):
        raise ValueError("points must be a list of nonnegative integer lists, "
                         "bare or under 'images'")
    lengths = {len(q) for q in points}
    if len(lengths) > 1 or 0 in lengths:
        raise ValueError("points must be a list of nonnegative integer lists "
                         "of one nonzero length")
    return [tuple(q) for q in points]
