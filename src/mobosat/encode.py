"""CNF encodings of pseudo-Boolean sums and unary objective-value ladders.

A ``UnarySum`` materializes, lazily and per requested bound, literals
``geq(b)`` meaning "the weighted sum is >= b".  Internally it is a memoized
ite-style decision DAG over the terms (largest weights first); bounds are
canonicalized to the next attainable suffix sum, so structurally equal
subproblems share nodes across every requested threshold.  Full equivalence
is emitted for each node, so in every model the output literals mirror the
sum exactly in both directions.

``ObjectiveLadder`` hands out threshold literals ``y(d) <-> f(x) < d`` for
one objective from a lazy ``UnarySum``.  An ``eager`` ladder, whose caller
will request every attainable threshold, builds the generalized totalizer
(``TotalizerSum``) instead when its exact clause count is at most the DAG's
bound of 6 clauses per (term index, attainable nonzero suffix sum) node.
A ladder reads the literals fixed at the root from its own solver.
Pseudo-Boolean ``>=`` constraints reuse the DAG with the root asserted.
Every clause goes through ``Encoder.add``, the one clause sink.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from .model import Instance, LinearExpr, PBConstraint
from .sat import SatSolver, SolveBudgetExceeded

TRUE = True
FALSE = False


class Encoder:
    """Owns constant literals, the clause sink and objective clause accounting
    for one solver."""

    def __init__(self, solver: SatSolver):
        self.solver = solver
        self._true_lit: Optional[int] = None
        self.objective_clauses = 0

    def add(self, lits: Sequence[int], objective: bool) -> None:
        """Add one clause to the solver, counting it when ``objective``.

        Raises SolveBudgetExceeded before the clause once the solver's
        deadline has passed, so no build, eager or lazy, outlasts the budget.
        """
        solver = self.solver
        if solver.deadline is not None and time.monotonic() > solver.deadline:
            raise SolveBudgetExceeded()
        solver.add_clause(lits)
        if objective:
            self.objective_clauses += 1

    def true_lit(self) -> int:
        if self._true_lit is None:
            var = self.solver.new_var()
            self.add([var], objective=False)
            self._true_lit = var
        return self._true_lit


def _next_reachable(mask: int, bound: int) -> int:
    """Smallest set bit of ``mask`` at position >= bound, or -1."""
    shifted = mask >> bound
    if shifted == 0:
        return -1
    return (shifted & -shifted).bit_length() - 1 + bound


def _bits(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, ascending."""
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


class UnarySum:
    """Lazy unary representation of ``sum w_j * l_j`` over Boolean literals."""

    def __init__(self, encoder: Encoder, terms: Sequence[Tuple[int, int]], objective: bool = False):
        # terms: (weight, signed literal), weights >= 1; sorted for determinism
        # and good node sharing (big weights near the root).
        self.encoder = encoder
        self.objective = objective
        self.terms = sorted(terms, key=lambda t: (-t[0], abs(t[1]), t[1] < 0))
        n = len(self.terms)
        self.suffix_mask: List[int] = [0] * (n + 1)
        self.suffix_mask[n] = 1  # only the empty sum
        for j in range(n - 1, -1, -1):
            w = self.terms[j][0]
            mask = self.suffix_mask[j + 1]
            self.suffix_mask[j] = mask | (mask << w)
        self._memo: Dict[Tuple[int, int], object] = {}

    def reachable_sums(self) -> List[int]:
        """All attainable values of the sum, ascending."""
        return _bits(self.suffix_mask[0])

    @property
    def clause_bound(self) -> int:
        """Most clauses this DAG can emit, every threshold requested: one node
        per (term index, attainable nonzero suffix sum), at most 6 each."""
        return 6 * sum(m.bit_count() - 1 for m in self.suffix_mask[:-1])

    def geq(self, bound: int):
        """Literal equivalent to ``sum >= bound`` (or the constants True/False)."""
        return self._build(0, bound)

    def _build(self, j: int, bound: int):
        if bound <= 0:
            return TRUE
        bound = _next_reachable(self.suffix_mask[j], bound)
        if bound < 0:
            return FALSE  # above the largest attainable suffix sum
        key = (j, bound)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        weight, lit = self.terms[j]
        hi = self._build(j + 1, bound - weight)  # branch: lit true
        lo = self._build(j + 1, bound)  # branch: lit false
        add, objective = self.encoder.add, self.objective
        if hi is TRUE and lo is FALSE:
            out = lit
        elif hi is TRUE:
            # out <-> lit | lo
            out = self.encoder.solver.new_var()
            add([-lit, out], objective)
            add([-lo, out], objective)
            add([-out, lit, lo], objective)
        elif lo is FALSE:
            # out <-> lit & hi
            out = self.encoder.solver.new_var()
            add([-out, lit], objective)
            add([-out, hi], objective)
            add([-lit, -hi, out], objective)
        else:
            # out <-> (lit ? hi : lo); lo implies hi, which tightens two clauses
            out = self.encoder.solver.new_var()
            add([-out, -lit, hi], objective)
            add([-out, lit, lo], objective)
            add([out, -lit, -hi], objective)
            add([out, lit, -lo], objective)
            add([-out, hi], objective)
            add([-lo, out], objective)
        self._memo[key] = out
        return out


class TotalizerSum:
    """Eager unary representation: merge sub-sums pairwise, totalizer style.

    Every node carries one output literal per attainable nonzero value of
    its sub-sum, with equivalence in both directions plus the intra-node
    ladder (``sum >= v`` implies ``sum >= v'`` for smaller v').  Terms are
    sorted by weight so equal coefficients merge with few distinct values.
    Building one lays out the merge tree and every node's attainable sums,
    which give the exact ``clause_count``, and emits nothing; ``emit`` writes
    the clauses from that tree.  The count follows the number of distinct
    partial sums: small after coefficient rounding, large on many weights.
    """

    def __init__(self, encoder: Encoder, terms: Sequence[Tuple[int, int]], objective: bool = False):
        self.encoder = encoder
        self.objective = objective
        self.leaves = sorted(terms, key=lambda t: (t[0], abs(t[1]), t[1] < 0))
        # Node i < len(leaves) is leaf i (a lone node with mask 1 if there is
        # none); every later node merges two earlier ones, neighbours paired
        # level by level.  A mask holds the node's attainable sums, bit 0 too.
        self.masks = [1 | 1 << w for w, _ in self.leaves] or [1]
        self.merges: List[Tuple[int, int]] = []
        self.clause_count = 0
        level = list(range(len(self.masks)))
        while len(level) > 1:
            paired = []
            for a, b in zip(level[0::2], level[1::2]):
                merged = 0
                for v in _bits(self.masks[a]):
                    merged |= self.masks[b] << v
                self.merges.append((a, b))
                self.masks.append(merged)
                paired.append(len(self.masks) - 1)
                self.clause_count += (2 * self.masks[a].bit_count() * self.masks[b].bit_count()
                                      + merged.bit_count() - 4)
            level = paired + level[2 * len(paired):]
        self.outputs: Dict[int, int] = {}

    def emit(self) -> None:
        """Emit the merge tree's clauses, ``clause_count`` of them."""
        nodes = [{w: lit} for w, lit in self.leaves] or [{}]
        for a, b in self.merges:
            nodes.append(self._merge(nodes[a], nodes[b], self.masks[len(nodes)]))
        self.outputs = nodes[-1]

    def _merge(self, a: Dict[int, int], b: Dict[int, int], mask: int) -> Dict[int, int]:
        """Output literals ``{v: sum >= v}`` of the node merging ``a`` and ``b``,
        whose attainable sums are ``mask``; keys ascend, as in ``a`` and ``b``."""
        add, objective = self.encoder.add, self.objective
        values = _bits(mask)
        out = {v: self.encoder.solver.new_var() for v in values[1:]}
        after = dict(zip(values, values[1:]))
        avals, bvals = [0, *a], [0, *b]
        for va, na in zip(avals, avals[1:] + [None]):
            for vb, nb in zip(bvals, bvals[1:] + [None]):
                total = va + vb
                if total > 0:
                    # sum_a >= va and sum_b >= vb  =>  sum >= va+vb
                    clause = [out[total]]
                    if va:
                        clause.append(-a[va])
                    if vb:
                        clause.append(-b[vb])
                    add(clause, objective)
                if total in after:
                    # sum_a <= va and sum_b <= vb  =>  sum < next value
                    clause = [-out[after[total]]]
                    if na is not None:
                        clause.append(a[na])
                    if nb is not None:
                        clause.append(b[nb])
                    add(clause, objective)
        for smaller, larger in zip(values[1:], values[2:]):
            add([-out[larger], out[smaller]], objective)
        return out

    def reachable_sums(self) -> List[int]:
        return _bits(self.masks[-1])

    def geq(self, bound: int):
        if bound <= 0:
            return TRUE
        value = _next_reachable(self.masks[-1], bound)
        return FALSE if value < 0 else self.outputs[value]


class ObjectiveLadder:
    """Threshold literals ``y(d) <-> f(x) < d`` for one objective.

    Literals the solver has fixed at decision level 0 (``add_clause``
    propagates each unit it adds) are substituted into the constant before
    the sum structure is built, shrinking the encoding.  Threshold literals
    are created lazily; asking again for a threshold returns the same literal
    and emits nothing, because the sum memoizes its nodes (``UnarySum``) or
    holds every output (``TotalizerSum``) and the encoder its constants.
    Thresholds at or below the attainable minimum are the constant-false
    literal, those above the attainable maximum the constant-true literal.
    An ``eager`` ladder emits the totalizer at once when it is no larger than
    the DAG's bound.
    """

    def __init__(self, encoder: Encoder, expr: LinearExpr, eager: bool = False):
        self.encoder = encoder
        fixed = set(encoder.solver.fixed_literals())
        constant = expr.constant
        terms: List[Tuple[int, int]] = []
        for coeff, lit in expr.terms:
            signed = lit.to_signed()
            if signed in fixed:
                constant += coeff
            elif -signed in fixed:
                pass  # term is 0 for every model
            else:
                terms.append((coeff, signed))
        self.constant = constant
        self.sum = UnarySum(encoder, terms, objective=True)
        if eager:
            totalizer = TotalizerSum(encoder, terms, objective=True)
            if totalizer.clause_count <= self.sum.clause_bound:
                totalizer.emit()
                self.sum = totalizer

    def reachable_values(self) -> List[int]:
        """Attainable objective values (over all assignments), ascending."""
        return [self.constant + s for s in self.sum.reachable_sums()]

    def encode_lt(self, d: int) -> int:
        """Return the literal for ``f(x) < d``, emitting clauses on first use."""
        if d < 0:
            raise ValueError(f"threshold must be >= 0, got {d}")
        g = self.sum.geq(d - self.constant)
        if g is TRUE:
            return -self.encoder.true_lit()  # sum always >= d - constant
        if g is FALSE:
            return self.encoder.true_lit()
        return -g


def encode_pb_geq(encoder: Encoder, constraint: PBConstraint) -> None:
    """Emit hard clauses equivalent to ``constraint``."""
    bound = constraint.bound
    terms = [(c, lit.to_signed()) for c, lit in constraint.lhs.terms]
    total = sum(c for c, _ in terms)
    if bound <= 0:
        return
    if bound > total:
        encoder.add([], objective=False)
    elif bound == total:
        for _, lit in terms:
            encoder.add([lit], objective=False)
    elif bound == 1:
        encoder.add([lit for _, lit in terms], objective=False)
    else:
        # 1 < bound < total: the DAG's root is a literal, not a constant
        encoder.add([UnarySum(encoder, terms).geq(bound)], objective=False)


def encode_instance_constraints(encoder: Encoder, instance: Instance) -> None:
    """Allocate decision variables and emit all constraint clauses."""
    solver = encoder.solver
    while solver.num_vars < instance.num_vars:
        solver.new_var()
    for constraint in instance.constraints:
        encode_pb_geq(encoder, constraint)


def encode_objective(encoder: Encoder, index: int, expr: LinearExpr,
                     eager: bool = False) -> ObjectiveLadder:
    """Build the unary structure for one (possibly approximate) objective.

    ``eager`` means the caller will request every attainable threshold; the
    ladder then builds the smaller of the totalizer and the DAG (see
    ``ObjectiveLadder``).  The default is the lazy per-threshold DAG.
    ``index``, the objective's position, is accepted and not used.
    """
    return ObjectiveLadder(encoder, expr, eager=eager)
