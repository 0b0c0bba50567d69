"""Core domain types for multi-objective Boolean optimization.

Instances are made of pseudo-Boolean ``>=`` constraints and ``p`` linear
objectives with non-negative integer coefficients over literals.  Objective
vectors live in ``Z^p_{>=0}`` and are compared by weak Pareto dominance.
Everything here is an immutable value; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Tuple

Point = Tuple[int, ...]


@dataclass(frozen=True, order=True)
class Literal:
    """A Boolean literal: a 1-based variable index with a polarity."""

    var: int
    negated: bool = False

    def __post_init__(self) -> None:
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")

    def negation(self) -> "Literal":
        return Literal(self.var, not self.negated)

    def to_signed(self) -> int:
        """DIMACS-style signed integer (-v for a negated literal)."""
        return -self.var if self.negated else self.var

    @staticmethod
    def from_signed(lit: int) -> "Literal":
        if lit == 0:
            raise ValueError("0 is not a literal")
        return Literal(abs(lit), lit < 0)


@dataclass(frozen=True)
class LinearExpr:
    """A linear expression ``sum coeff_j * literal_j + constant``.

    After normalization every coefficient is >= 1, there is at most one
    term per variable, and the constant is >= 0.
    """

    terms: Tuple[Tuple[int, Literal], ...]
    constant: int = 0

    def __post_init__(self) -> None:
        seen = set()
        for coeff, lit in self.terms:
            if coeff < 1:
                raise ValueError(f"coefficient must be >= 1 after normalization, got {coeff}")
            if lit.var in seen:
                raise ValueError(f"duplicate variable x{lit.var} in expression")
            seen.add(lit.var)
        if self.constant < 0:
            raise ValueError(f"constant must be >= 0, got {self.constant}")

    @property
    def lower_bound(self) -> int:
        return self.constant

    @property
    def upper_bound(self) -> int:
        return self.constant + sum(c for c, _ in self.terms)

    def variables(self) -> Tuple[int, ...]:
        return tuple(lit.var for _, lit in self.terms)


@dataclass(frozen=True)
class PBConstraint:
    """A pseudo-Boolean constraint ``lhs >= bound`` with non-negative coefficients."""

    lhs: LinearExpr
    bound: int

    def __post_init__(self) -> None:
        if self.lhs.constant != 0:
            raise ValueError("constraint left-hand side must have constant 0")

    @property
    def trivial(self) -> bool:
        """True when every assignment satisfies the constraint."""
        return self.bound <= 0

    @property
    def unsatisfiable(self) -> bool:
        return self.bound > self.lhs.upper_bound


@dataclass(frozen=True)
class Instance:
    """A multi-objective Boolean optimization instance.

    ``lower_bounds[k]`` is the objective constant and ``upper_bounds[k]`` the
    constant plus the coefficient sum (or a tighter proven bound supplied by
    the caller).
    """

    num_vars: int
    constraints: Tuple[PBConstraint, ...]
    objectives: Tuple[LinearExpr, ...]
    lower_bounds: Tuple[int, ...] = field(default=())
    upper_bounds: Tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("an instance needs at least one objective")
        if not self.lower_bounds:
            object.__setattr__(self, "lower_bounds", tuple(f.lower_bound for f in self.objectives))
        if not self.upper_bounds:
            object.__setattr__(self, "upper_bounds", tuple(f.upper_bound for f in self.objectives))
        if len(self.lower_bounds) != len(self.objectives) or len(self.upper_bounds) != len(self.objectives):
            raise ValueError("bounds must match the number of objectives")
        for lo, hi in zip(self.lower_bounds, self.upper_bounds):
            if not 0 <= lo <= hi:
                raise ValueError(f"objective bounds must satisfy 0 <= {lo} <= {hi}")
        for expr in self.objectives:
            for _, lit in expr.terms:
                if lit.var > self.num_vars:
                    raise ValueError(f"x{lit.var} exceeds declared variable count {self.num_vars}")
        for con in self.constraints:
            for _, lit in con.lhs.terms:
                if lit.var > self.num_vars:
                    raise ValueError(f"x{lit.var} exceeds declared variable count {self.num_vars}")

    @property
    def num_objectives(self) -> int:
        return len(self.objectives)


@dataclass(frozen=True)
class SolutionRecord:
    """A feasible assignment together with its image under the original objectives."""

    assignment: Tuple[int, ...]
    image: Point


def _literal_value(lit: Literal, assignment: Sequence[int]) -> int:
    value = assignment[lit.var - 1]
    return 1 - value if lit.negated else value


def evaluate(expr: LinearExpr, assignment: Sequence[int]) -> int:
    """Value of ``expr`` under ``assignment`` (0/1 values indexed by var-1)."""
    total = expr.constant
    for coeff, lit in expr.terms:
        if _literal_value(lit, assignment):
            total += coeff
    return total


def satisfies(constraint: PBConstraint, assignment: Sequence[int]) -> bool:
    return evaluate(constraint.lhs, assignment) >= constraint.bound


def image(instance: Instance, assignment: Sequence[int]) -> Point:
    return tuple(evaluate(f, assignment) for f in instance.objectives)


def is_feasible(instance: Instance, assignment: Sequence[int]) -> bool:
    return all(satisfies(c, assignment) for c in instance.constraints)


def weakly_dominates(z: Sequence[int], z2: Sequence[int]) -> bool:
    """True iff ``z_k <= z2_k`` for every coordinate."""
    if len(z) != len(z2):
        raise ValueError(f"point lengths differ: {len(z)} vs {len(z2)}")
    return all(a <= b for a, b in zip(z, z2))


def dominates(z: Sequence[int], z2: Sequence[int]) -> bool:
    """Weak dominance plus inequality somewhere."""
    return weakly_dominates(z, z2) and tuple(z) != tuple(z2)


def nondominated_filter(items: Iterable, key: Callable = None) -> list:
    """Keep the elements not dominated by any other element.

    Equal points collapse to the earliest inserted one.  ``key`` maps an
    element to its point (identity by default), so the same filter serves
    point sets and record sets keyed by image.
    """
    if key is None:
        key = lambda item: item
    kept: list = []
    for candidate in items:
        cpoint = key(candidate)
        if any(weakly_dominates(key(other), cpoint) for other in kept):
            continue
        kept = [other for other in kept if not dominates(cpoint, key(other))]
        kept.append(candidate)
    return kept


def normalize_terms(raw_terms: Iterable[Tuple[int, Literal]]) -> Tuple[Tuple[Tuple[int, Literal], ...], int]:
    """Merge duplicate variables and flip negative coefficients.

    A term ``-c*l`` with ``c > 0`` becomes ``c*negate(l) - c``; the collected
    ``-c`` offsets are returned so the caller can fold them into a bound or
    an objective constant.  Terms are returned sorted by variable.
    """
    net: dict[int, int] = {}
    offset = 0
    for coeff, lit in raw_terms:
        if lit.negated:
            # c*~x == c - c*x
            offset += coeff
            net[lit.var] = net.get(lit.var, 0) - coeff
        else:
            net[lit.var] = net.get(lit.var, 0) + coeff
    terms = []
    for var in sorted(net):
        coeff = net[var]
        if coeff > 0:
            terms.append((coeff, Literal(var)))
        elif coeff < 0:
            # -|c|*x == |c|*~x - |c|
            terms.append((-coeff, Literal(var, True)))
            offset += coeff
    return tuple(terms), offset


def normalize_expression(
    raw_terms: Iterable[Tuple[int, Literal]], bound: int
) -> Tuple[LinearExpr, int]:
    """Rewrite a ``>=`` constraint so that all coefficients are non-negative.

    Returns the normalized left-hand side and the adjusted bound; the
    satisfying set is preserved.  A resulting bound <= 0 means the constraint
    is trivially satisfied (callers drop it).
    """
    terms, offset = normalize_terms(raw_terms)
    return LinearExpr(terms, 0), bound - offset


def normalize_objective(raw_terms: Iterable[Tuple[int, Literal]], constant: int = 0) -> LinearExpr:
    """Normalize an objective; raises if its minimum value would be negative."""
    terms, offset = normalize_terms(raw_terms)
    new_constant = constant + offset
    if new_constant < 0:
        raise ValueError(
            f"objective takes negative values (minimum {new_constant}); not supported"
        )
    return LinearExpr(terms, new_constant)
