"""Objective threshold ladders on the solver's linear sums, and CNF encodings
of pseudo-Boolean sums.

``ObjectiveLadder`` hands out threshold literals ``y(d) <-> f(x) < d`` for
one objective.  It is a thin front end over one linear sum of the solver
(``SatSolver.new_linear``), which propagates the thresholds natively: a
ladder emits no clause, and creates a threshold variable on the first
request of each attainable bound.  That is the one objective encoding; the
solver itself may rebuild a busy sum over partial sums at a restart
(``SatSolver._split``).

A ``UnarySum`` materializes, lazily and per requested bound, literals
``geq(b)`` meaning "the weighted sum is >= b".  Internally it is a memoized
ite-style decision DAG over the terms (largest weights first); bounds are
canonicalized to the next attainable suffix sum, so structurally equal
subproblems share nodes across every requested threshold.  Full equivalence
is emitted for each node, so in every model the output literals mirror the
sum exactly in both directions.  Pseudo-Boolean ``>=`` constraints use the
DAG with the root asserted, straight into ``SatSolver.add_clause``;
``threshold_cnf`` uses it to write a linear sum's thresholds as CNF for
``SatSolver.to_dimacs``.  Only the solver reads its deadline: constraint
clauses are never refused, and a ladder stops when ``SatSolver.threshold``
does.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .model import Instance, LinearExpr, PBConstraint
from .sat import SatSolver, _bits, _mask

TRUE = True
FALSE = False
# most clauses one variable elimination may add to a dump (threshold_cnf):
# enough to define every threshold of a sum of four small terms over the
# terms alone
_ELIM_GROWTH = 32


class Encoder:
    """Owns the constant-true literal of one solver."""

    def __init__(self, solver: SatSolver):
        self.solver = solver
        self._true_lit: Optional[int] = None

    @property
    def objective_clauses(self) -> int:
        """Threshold literals created in the solver (perfbench's count)."""
        return self.solver.num_thresholds

    def true_lit(self) -> int:
        if self._true_lit is None:
            var = self.solver.new_var()
            self.solver.add_clause([var])
            self._true_lit = var
        return self._true_lit


def _next_reachable(mask: int, bound: int) -> int:
    """Smallest set bit of ``mask`` at position >= bound, or -1."""
    shifted = mask >> bound
    if shifted == 0:
        return -1
    return (shifted & -shifted).bit_length() - 1 + bound


class UnarySum:
    """Lazy unary representation of ``sum w_j * l_j`` over Boolean literals.

    ``new_var()`` returns a fresh variable and ``add(clause)`` takes each
    clause the DAG emits.
    """

    def __init__(self, new_var: Callable[[], int], add: Callable[[List[int]], None],
                 terms: Sequence[Tuple[int, int]]):
        # terms: (weight, signed literal), weights >= 1; sorted for determinism
        # and good node sharing (big weights near the root).
        self.new_var = new_var
        self.add = add
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
        add = self.add
        if hi is TRUE and lo is FALSE:
            out = lit
        elif hi is TRUE:
            # out <-> lit | lo
            out = self.new_var()
            add([-lit, out])
            add([-lo, out])
            add([-out, lit, lo])
        elif lo is FALSE:
            # out <-> lit & hi
            out = self.new_var()
            add([-out, lit])
            add([-out, hi])
            add([-lit, -hi, out])
        else:
            # out <-> (lit ? hi : lo); lo implies hi, which tightens two clauses
            out = self.new_var()
            add([-out, -lit, hi])
            add([-out, lit, lo])
            add([out, -lit, -hi])
            add([out, lit, -lo])
            add([-out, hi])
            add([-lo, out])
        self._memo[key] = out
        return out


def threshold_cnf(num_vars: int, terms: Sequence[Tuple[int, int]],
                  thresholds: Sequence[Tuple[int, int]]) -> Tuple[int, List[List[int]]]:
    """CNF defining each threshold variable ``y`` of ``(b, y)`` as
    ``sum < b`` over ``(weight, signed literal)`` terms.

    The clauses tie ``y`` to the negated ``UnarySum`` output of ``b``.  Then
    each DAG variable, newest first, is eliminated by resolution unless that
    adds more than ``_ELIM_GROWTH`` clauses (bounded variable elimination,
    Een & Biere, SAT 2005).  A dump serves brute-force checks of small
    formulas, and on a sum of a few terms this leaves the thresholds defined
    over the terms alone; on a large sum the DAG stays.  The variables left
    are numbered from ``num_vars + 1``.  Returns the new variable count and
    the clauses.
    """
    clauses: List[List[int]] = []
    top = [num_vars]

    def new_var() -> int:
        top[0] += 1
        return top[0]

    dag = UnarySum(new_var, clauses.append, terms)
    for b, y in thresholds:
        g = dag.geq(b)  # a literal: 0 < b <= the sum's largest value
        clauses.append([y, g])
        clauses.append([-y, -g])
    return _eliminate(num_vars, top[0], clauses)


def _eliminate(keep: int, top: int, clauses: List[List[int]]) -> Tuple[int, List[List[int]]]:
    """Eliminate the variables ``keep+1..top`` of ``clauses``, newest first,
    each one only when its non-tautological resolvents outnumber the clauses
    they replace by at most ``_ELIM_GROWTH``; renumber the survivors from
    ``keep + 1``."""
    store: Dict[int, frozenset] = {}  # clause id -> clause, ids in creation order
    occurs: Dict[int, set] = {}
    ids = itertools.count()

    def attach(clause) -> None:
        idx = next(ids)
        store[idx] = clause
        for lit in clause:
            occurs.setdefault(lit, set()).add(idx)

    for cl in clauses:
        attach(frozenset(cl))
    survivors = []
    for var in range(top, keep, -1):
        pos = [store[i] for i in occurs.get(var, ())]
        neg = [store[i] for i in occurs.get(-var, ())]
        resolvents = set()
        for p in pos:
            for n in neg:
                r = (p - {var}) | (n - {-var})
                if not any(-lit in r for lit in r):
                    resolvents.add(r)
        if len(resolvents) > len(pos) + len(neg) + _ELIM_GROWTH:
            survivors.append(var)
            continue
        for idx in occurs.pop(var, set()) | occurs.pop(-var, set()):
            for lit in store.pop(idx):
                occurs.get(lit, set()).discard(idx)
        for r in sorted(resolvents, key=sorted):
            attach(r)
    rename = {var: keep + k for k, var in enumerate(sorted(survivors), start=1)}

    def renamed(lit: int) -> int:
        var = rename.get(abs(lit), abs(lit))
        return var if lit > 0 else -var

    out = [sorted((renamed(lit) for lit in cl), key=lambda l: (abs(l), l < 0))
           for _, cl in sorted(store.items())]
    return keep + len(survivors), out


class ObjectiveLadder:
    """Threshold literals ``y(d) <-> f(x) < d`` for one objective.

    Literals the solver has fixed at decision level 0 (``add_clause``
    propagates each unit it adds) are substituted into the constant before
    the linear sum is made, so the attainable values and the thresholds are
    those of the remaining terms.  A threshold is canonicalized to the next
    attainable sum and its variable created on first request; asking again
    returns the same literal.  Thresholds at or below the attainable minimum
    are the constant-false literal, those above the attainable maximum the
    constant-true literal.  An ``eager`` ladder creates every attainable
    threshold at once.  Creating a threshold past the solver's deadline
    raises SolveBudgetExceeded.
    """

    def __init__(self, encoder: Encoder, expr: LinearExpr, eager: bool = False):
        self.encoder = encoder
        solver = encoder.solver
        fixed = set(solver.fixed_literals())
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
        self.mask = _mask(terms)
        self.linear = solver.new_linear(terms)
        if eager:
            for s in _bits(self.mask)[1:]:
                solver.threshold(self.linear, s)

    def reachable_values(self) -> List[int]:
        """Attainable objective values (over all assignments), ascending."""
        return [self.constant + s for s in _bits(self.mask)]

    def encode_lt(self, d: int) -> int:
        """Return the literal for ``f(x) < d``, creating it on first use."""
        if d < 0:
            raise ValueError(f"threshold must be >= 0, got {d}")
        if d <= self.constant:
            return -self.encoder.true_lit()  # f >= constant >= d always
        bound = _next_reachable(self.mask, d - self.constant)
        if bound < 0:
            return self.encoder.true_lit()  # every attainable value is below d
        return self.encoder.solver.threshold(self.linear, bound)


def encode_pb_geq(encoder: Encoder, constraint: PBConstraint) -> None:
    """Emit hard clauses equivalent to ``constraint``."""
    bound = constraint.bound
    terms = [(c, lit.to_signed()) for c, lit in constraint.lhs.terms]
    total = sum(c for c, _ in terms)
    if bound <= 0:
        return
    add = encoder.solver.add_clause
    if bound > total:
        add([])
    elif bound == total:
        for _, lit in terms:
            add([lit])
    elif bound == 1:
        add([lit for _, lit in terms])
    else:
        # 1 < bound < total: the DAG's root is a literal, not a constant
        dag = UnarySum(encoder.solver.new_var, add, terms)
        add([dag.geq(bound)])


def encode_instance_constraints(encoder: Encoder, instance: Instance) -> None:
    """Allocate decision variables and emit all constraint clauses."""
    solver = encoder.solver
    while solver.num_vars < instance.num_vars:
        solver.new_var()
    for constraint in instance.constraints:
        encode_pb_geq(encoder, constraint)


def encode_objective(encoder: Encoder, index: int, expr: LinearExpr,
                     eager: bool = False) -> ObjectiveLadder:
    """The threshold ladder of one (possibly approximate) objective.

    ``eager`` means the caller will request every attainable threshold; the
    ladder then creates them all at once (see ``ObjectiveLadder``).
    ``index``, the objective's position, is accepted and not used.
    """
    return ObjectiveLadder(encoder, expr, eager=eager)
