"""CNF encodings of pseudo-Boolean sums and unary objective-value ladders.

A ``UnarySum`` materializes, lazily and per requested bound, literals
``geq(b)`` meaning "the weighted sum is >= b".  Internally it is a memoized
ite-style decision DAG over the terms (largest weights first); bounds are
canonicalized to the next attainable suffix sum, so structurally equal
subproblems share nodes across every requested threshold.  Full equivalence
is emitted for each node, so in every model the output literals mirror the
sum exactly in both directions.

``ObjectiveLadder`` wraps a ``UnarySum`` for one objective and hands out
threshold literals ``y(d) <-> f(x) < d``.  Pseudo-Boolean ``>=`` constraints
reuse the same machinery with the root literal asserted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from .model import Instance, LinearExpr, PBConstraint
from .sat import SatSolver

TRUE = True
FALSE = False


class Encoder:
    """Owns constant literals and clause accounting for one solver."""

    def __init__(self, solver: SatSolver):
        self.solver = solver
        self._true_lit: Optional[int] = None
        self.constraint_clauses = 0
        self.objective_clauses = 0
        self.literals_emitted = 0

    @property
    def approx_bytes(self) -> int:
        """Rough encoder memory footprint, for advisory cap enforcement."""
        return 16 * self.literals_emitted + 64 * (self.constraint_clauses + self.objective_clauses)

    def true_lit(self) -> int:
        if self._true_lit is None:
            var = self.solver.new_var()
            self.solver.add_clause([var])
            self._true_lit = var
        return self._true_lit

    def false_lit(self) -> int:
        return -self.true_lit()


class _ClauseSink:
    """Collects emitted clauses into the solver and counts them."""

    def __init__(self, encoder: Encoder, objective: bool):
        self.encoder = encoder
        self.objective = objective
        self.emitted = 0

    def add(self, lits: Sequence[int]) -> None:
        self.encoder.solver.add_clause(lits)
        self.emitted += 1
        self.encoder.literals_emitted += len(lits)
        if self.objective:
            self.encoder.objective_clauses += 1
        else:
            self.encoder.constraint_clauses += 1


def _next_reachable(mask: int, bound: int) -> int:
    """Smallest set bit of ``mask`` at position >= bound, or -1."""
    shifted = mask >> bound
    if shifted == 0:
        return -1
    return (shifted & -shifted).bit_length() - 1 + bound


class UnarySum:
    """Lazy unary representation of ``sum w_j * l_j`` over Boolean literals."""

    def __init__(self, encoder: Encoder, terms: Sequence[Tuple[int, int]], objective: bool = False):
        # terms: (weight, signed literal), weights >= 1; sorted for determinism
        # and good node sharing (big weights near the root).
        self.encoder = encoder
        self.sink = _ClauseSink(encoder, objective)
        self.terms = sorted(terms, key=lambda t: (-t[0], abs(t[1]), t[1] < 0))
        n = len(self.terms)
        self.suffix_mask: List[int] = [0] * (n + 1)
        self.suffix_max: List[int] = [0] * (n + 1)
        self.suffix_mask[n] = 1  # only the empty sum
        for j in range(n - 1, -1, -1):
            w = self.terms[j][0]
            mask = self.suffix_mask[j + 1]
            self.suffix_mask[j] = mask | (mask << w)
            self.suffix_max[j] = self.suffix_max[j + 1] + w
        self._memo: Dict[Tuple[int, int], object] = {}

    @property
    def max_sum(self) -> int:
        return self.suffix_max[0]

    def reachable_sums(self) -> List[int]:
        """All attainable values of the sum, ascending."""
        mask = self.suffix_mask[0]
        return [v for v in range(mask.bit_length()) if (mask >> v) & 1]

    @property
    def clauses_emitted(self) -> int:
        return self.sink.emitted

    def geq(self, bound: int):
        """Literal equivalent to ``sum >= bound`` (or the constants True/False)."""
        if bound <= 0:
            return TRUE
        if bound > self.max_sum:
            return FALSE
        return self._build(0, bound)

    def _build(self, j: int, bound: int):
        if bound <= 0:
            return TRUE
        if bound > self.suffix_max[j]:
            return FALSE
        bound = _next_reachable(self.suffix_mask[j], bound)
        key = (j, bound)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        weight, lit = self.terms[j]
        hi = self._build(j + 1, bound - weight)  # branch: lit true
        lo = self._build(j + 1, bound)  # branch: lit false
        add = self.sink.add
        if hi is TRUE and lo is FALSE:
            out = lit
        elif hi is TRUE:
            # out <-> lit | lo
            out = self.encoder.solver.new_var()
            add([-lit, out])
            add([-lo, out])
            add([-out, lit, lo])
        elif lo is FALSE:
            # out <-> lit & hi
            out = self.encoder.solver.new_var()
            add([-out, lit])
            add([-out, hi])
            add([-lit, -hi, out])
        else:
            # out <-> (lit ? hi : lo); lo implies hi, which tightens two clauses
            out = self.encoder.solver.new_var()
            add([-out, -lit, hi])
            add([-out, lit, lo])
            add([out, -lit, -hi])
            add([out, lit, -lo])
            add([-out, hi])
            add([-lo, out])
        self._memo[key] = out
        return out


class TotalizerSum:
    """Eager unary representation: merge sub-sums pairwise, totalizer style.

    Every node carries one output literal per attainable nonzero value of
    its sub-sum, with equivalence in both directions plus the intra-node
    ladder (``sum >= v`` implies ``sum >= v'`` for smaller v').  Terms are
    sorted by weight so equal coefficients merge with few distinct values.
    Small when the weights take few distinct values, as after coefficient
    rounding; on many distinct weights the lazy ``UnarySum`` is smaller even
    when every threshold is requested.
    """

    def __init__(self, encoder: Encoder, terms: Sequence[Tuple[int, int]], objective: bool = False):
        self.encoder = encoder
        self.sink = _ClauseSink(encoder, objective)
        ordered = sorted(terms, key=lambda t: (t[0], abs(t[1]), t[1] < 0))
        # leaf nodes: (sorted values, {value: literal})
        nodes: List[Tuple[List[int], Dict[int, int]]] = [
            ([w], {w: lit}) for w, lit in ordered
        ]
        if not nodes:
            nodes = [([], {})]
        while len(nodes) > 1:
            merged = []
            for i in range(0, len(nodes) - 1, 2):
                merged.append(self._merge(nodes[i], nodes[i + 1]))
            if len(nodes) % 2:
                merged.append(nodes[-1])
            nodes = merged
        self.values, self.outputs = nodes[0]

    def _merge(self, a, b):
        solver = self.encoder.solver
        add = self.sink.add
        avals, alits = a
        bvals, blits = b
        values = sorted({va + vb for va in [0] + avals for vb in [0] + bvals} - {0})
        out = {v: solver.new_var() for v in values}

        def next_in(vals: List[int], x: int):
            idx = bisect_right(vals, x)
            return vals[idx] if idx < len(vals) else None

        for va in [0] + avals:
            for vb in [0] + bvals:
                total = va + vb
                if total > 0:
                    # sum_a >= va and sum_b >= vb  =>  sum >= va+vb
                    clause = [out[total]]
                    if va:
                        clause.append(-alits[va])
                    if vb:
                        clause.append(-blits[vb])
                    add(clause)
                nxt = next_in(values, total)
                if nxt is not None:
                    # sum_a <= va and sum_b <= vb  =>  sum < next value
                    clause = [-out[nxt]]
                    na = next_in(avals, va)
                    nb = next_in(bvals, vb)
                    if na is not None:
                        clause.append(alits[na])
                    if nb is not None:
                        clause.append(blits[nb])
                    add(clause)
        for smaller, larger in zip(values, values[1:]):
            add([-out[larger], out[smaller]])
        return values, out

    @property
    def max_sum(self) -> int:
        return self.values[-1] if self.values else 0

    def reachable_sums(self) -> List[int]:
        return [0] + list(self.values)

    @property
    def clauses_emitted(self) -> int:
        return self.sink.emitted

    def geq(self, bound: int):
        if bound <= 0:
            return TRUE
        idx = bisect_left(self.values, bound)
        if idx == len(self.values):
            return FALSE
        return self.outputs[self.values[idx]]


class ObjectiveLadder:
    """Threshold literals ``y(d) <-> f(x) < d`` for one objective.

    Variables fixed at decision level 0 are substituted into the constant
    before the sum structure is built, shrinking the encoding.  Threshold
    literals are created lazily and idempotently; thresholds at or below the
    attainable minimum are the constant-false literal, those above the
    attainable maximum the constant-true literal.
    """

    def __init__(self, encoder: Encoder, index: int, expr: LinearExpr,
                 fixed: Sequence[int] = (), eager: bool = False):
        self.encoder = encoder
        self.index = index
        self.expr = expr
        fixed_set = set(fixed)
        constant = expr.constant
        terms: List[Tuple[int, int]] = []
        for coeff, lit in expr.terms:
            signed = lit.to_signed()
            if signed in fixed_set:
                constant += coeff
            elif -signed in fixed_set:
                pass  # term is 0 for every model
            else:
                terms.append((coeff, signed))
        self.constant = constant
        sum_cls = TotalizerSum if eager else UnarySum
        self.sum = sum_cls(encoder, terms, objective=True)
        self._thresholds: Dict[int, int] = {}

    @property
    def clauses_emitted(self) -> int:
        return self.sum.clauses_emitted

    def reachable_values(self) -> List[int]:
        """Attainable objective values (over all assignments), ascending."""
        return [self.constant + s for s in self.sum.reachable_sums()]

    @property
    def max_value(self) -> int:
        return self.constant + self.sum.max_sum

    def encode_lt(self, d: int) -> int:
        """Return the literal for ``f(x) < d``, emitting clauses on first use."""
        if d < 0:
            raise ValueError(f"threshold must be >= 0, got {d}")
        lit = self._thresholds.get(d)
        if lit is not None:
            return lit
        g = self.sum.geq(d - self.constant)
        if g is TRUE:
            lit = self.encoder.false_lit()  # sum always >= d - constant
        elif g is FALSE:
            lit = self.encoder.true_lit()
        else:
            lit = -g
        self._thresholds[d] = lit
        return lit


def encode_pb_geq(encoder: Encoder, constraint: PBConstraint) -> int:
    """Emit hard clauses equivalent to ``constraint``; returns clause count."""
    sink_before = encoder.constraint_clauses
    bound = constraint.bound
    terms = [(c, lit.to_signed()) for c, lit in constraint.lhs.terms]
    total = sum(c for c, _ in terms)
    if bound <= 0:
        return 0
    if bound > total:
        encoder.solver.add_clause([])
        encoder.constraint_clauses += 1
        return encoder.constraint_clauses - sink_before
    if bound == total:
        for _, lit in terms:
            encoder.solver.add_clause([lit])
            encoder.constraint_clauses += 1
        return encoder.constraint_clauses - sink_before
    if bound == 1:
        encoder.solver.add_clause([lit for _, lit in terms])
        encoder.constraint_clauses += 1
        return encoder.constraint_clauses - sink_before
    s = UnarySum(encoder, terms, objective=False)
    g = s.geq(bound)
    if g is TRUE:
        pass
    elif g is FALSE:
        encoder.solver.add_clause([])
        encoder.constraint_clauses += 1
    else:
        encoder.solver.add_clause([g])
        encoder.constraint_clauses += 1
    return encoder.constraint_clauses - sink_before


def encode_instance_constraints(encoder: Encoder, instance: Instance) -> int:
    """Allocate decision variables and emit all constraint clauses."""
    solver = encoder.solver
    while solver.num_vars < instance.num_vars:
        solver.new_var()
    emitted = 0
    for constraint in instance.constraints:
        if constraint.trivial:
            continue
        emitted += encode_pb_geq(encoder, constraint)
    return emitted


def encode_objective(encoder: Encoder, index: int, expr: LinearExpr,
                     fixed: Sequence[int] = (), eager: bool = False) -> ObjectiveLadder:
    """Build the unary structure for one (possibly approximate) objective.

    ``eager`` selects the pairwise-merge totalizer, which materializes every
    attainable value up front; the default is the lazy per-threshold form.
    """
    return ObjectiveLadder(encoder, index, expr, fixed, eager=eager)
