"""Enumeration drivers: single-pass MCS enumeration and the two
re-approximation drivers (coefficient rounding and interval thinning).

The single-pass enumerator pulls one MCS at a time, records the witness
and its image under the original objectives, adds the representative point
to the lower-bound set and blocks the region it weakly dominates.

Both drivers run it inside one iteration loop, which owns the ratio
schedule, the record and lower-bound filters, the trace and the stop rules.
A driver only prepares each iteration:

* the coefficient driver builds a fresh solver (clause addition is
  monotone, so retracting an iteration's state means starting over),
  rounds the objectives onto the ratio's weight grid and blocks the regions
  around known solutions under that rounding; an identity rounding proves
  the front exact;
* the interval driver encodes the original objectives once into one
  growing solver, thins the threshold domains to the ratio's grid, and
  permanently blocks the regions at the images of the previous iteration's
  finds; an iteration that finds nothing new proves the front exact.

When the solver outlives the iteration, the loop guards the enumerator's
region blocks with a selector and retires it when the iteration ends, so
iteration-scoped state never outlives its iteration.  A wall-clock budget
is honored between solver calls (and interrupts long calls), returning
partial results flagged as truncated with the ratio warranted by the last
completed iteration.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .approx import approx_coefficients, as_ratio, compute_domain
from .encode import Encoder, encode_instance_constraints, encode_objective
from .mcs import McsInvariantError, SoftSet, check_witness_bounds, extract_mcs
from .model import (
    Instance,
    LinearExpr,
    Point,
    SolutionRecord,
    evaluate,
    nondominated_filter,
    weakly_dominates,
)
from .sat import SatSolver, SolveBudgetExceeded

log = logging.getLogger("mobosat.engine")


@dataclass(frozen=True)
class RatioSchedule:
    """How the approximation ratio evolves across iterations.

    ``start`` and ``target`` are ratios (1 + epsilon); epsilon is divided by
    ``divisor`` after each iteration and snaps to 0 once below ``floor``.
    """

    start: Fraction
    divisor: Fraction = Fraction(10)
    floor: Fraction = Fraction(1, 10000)
    target: Fraction = Fraction(1)
    budget_s: Optional[float] = None
    memory_cap_mb: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", as_ratio(self.start))
        object.__setattr__(self, "divisor", Fraction(self.divisor))
        object.__setattr__(self, "floor", Fraction(self.floor))
        object.__setattr__(self, "target", as_ratio(self.target))
        if self.divisor <= 1:
            raise ValueError(f"divisor must be > 1, got {self.divisor}")
        if not self.start >= self.target >= 1:
            raise ValueError("need start ratio >= target ratio >= 1")
        if self.budget_s is not None and self.budget_s <= 0:
            raise ValueError("time budget must be positive")
        if self.memory_cap_mb is not None and self.memory_cap_mb <= 0:
            raise ValueError("memory cap must be positive")


def update_ratio(schedule: RatioSchedule, ratio: Fraction) -> Fraction:
    """Next ratio: epsilon / divisor, snapped to 0 below the floor, never below target."""
    eps = Fraction(ratio) - 1
    eps = eps / schedule.divisor
    if eps < schedule.floor:
        eps = Fraction(0)
    eps = max(eps, schedule.target - 1)
    return 1 + eps


class Budget:
    """Cooperative wall-clock budget plus an advisory encoder memory cap."""

    def __init__(self, seconds: Optional[float] = None,
                 memory_cap_mb: Optional[float] = None):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.memory_cap_bytes = None if memory_cap_mb is None else memory_cap_mb * 2**20

    def exceeded(self, encoder: Optional[Encoder] = None) -> bool:
        if self.deadline is not None and time.monotonic() > self.deadline:
            return True
        return (self.memory_cap_bytes is not None and encoder is not None
                and encoder.approx_bytes > self.memory_cap_bytes)

    @classmethod
    def of(cls, schedule: "RatioSchedule") -> "Budget":
        return cls(schedule.budget_s, schedule.memory_cap_mb)


@dataclass(frozen=True)
class IterationTrace:
    seq: int
    ratio: Fraction
    new_images: Tuple[Point, ...]
    new_lower_bounds: Tuple[Point, ...]
    mcs_count: int
    objective_clauses: int
    completed: bool
    wall_s: float


@dataclass(frozen=True)
class ApproxResult:
    records: Tuple[SolutionRecord, ...]
    lower_bounds: Tuple[Point, ...]
    warranted_ratio: Optional[Fraction]
    truncated: bool
    infeasible: bool
    trace: Tuple[IterationTrace, ...]

    @property
    def images(self) -> Tuple[Point, ...]:
        return tuple(rec.image for rec in self.records)


_INFEASIBLE = ApproxResult((), (), None, False, True, ())


@dataclass
class PreparedObjective:
    """One objective wired into a solver: expression, thresholds, literal lookup."""

    expr: LinearExpr
    domain: Tuple[int, ...]
    encode_lt: Callable[[int], int]


@dataclass
class McsApproxOutcome:
    records: List[SolutionRecord]
    lower_bounds: List[Point]
    completed: bool
    mcs_count: int


def _assignment_from_model(model: Sequence[int], num_vars: int) -> Tuple[int, ...]:
    return tuple(1 if model[v] == 1 else 0 for v in range(1, num_vars + 1))


def _build_softs(prepared: Sequence[PreparedObjective]) -> SoftSet:
    per_objective = []
    for prep in prepared:
        per_objective.append(tuple((d, prep.encode_lt(d)) for d in prep.domain))
    return SoftSet(tuple(per_objective))


def mcs_approx(
    solver: SatSolver,
    prepared: Sequence[PreparedObjective],
    instance: Instance,
    budget: Budget,
    guard: Optional[int] = None,
    complete: bool = False,
) -> McsApproxOutcome:
    """Enumerate MCSs until exhaustion or budget, blocking each one.

    Records carry the witness assignment and its image under the *original*
    objectives; lower bounds are the representative points.  Region blocks
    are guarded by ``guard`` when given (so the caller can retire them).
    """
    softs = _build_softs(prepared)
    records: List[SolutionRecord] = []
    reps: List[Point] = []
    assumptions = [guard] if guard is not None else []
    while True:
        if budget.exceeded():
            return McsApproxOutcome(records, reps, False, len(reps))
        try:
            mcs = extract_mcs(solver, softs, assumptions, deadline=budget.deadline)
        except SolveBudgetExceeded:
            return McsApproxOutcome(records, reps, False, len(reps))
        if mcs is None:
            return McsApproxOutcome(records, reps, True, len(reps))
        assignment = _assignment_from_model(mcs.model, instance.num_vars)
        approx_values = tuple(evaluate(prep.expr, assignment) for prep in prepared)
        check_witness_bounds(mcs, approx_values, complete=complete)
        rep = mcs.representative
        if any(weakly_dominates(prev, rep) for prev in reps):
            raise McsInvariantError(
                f"representative {rep} weakly dominated by an already blocked point"
            )
        image = tuple(evaluate(f, assignment) for f in instance.objectives)
        records.append(SolutionRecord(assignment, image))
        reps.append(rep)
        block = [prep.encode_lt(rep[k]) for k, prep in enumerate(prepared)]
        if guard is not None:
            block = [-guard] + block
        solver.add_clause(block)
        log.debug("mcs %d: rep=%s image=%s", len(reps), rep, image)


def _constrained_solver(instance: Instance,
                        seed: int) -> Tuple[SatSolver, Encoder, Tuple[int, ...]]:
    """A fresh solver holding the constraints, its encoder, and the literals
    fixed at the root.  ``solver.ok`` is False when root propagation refutes
    the constraints."""
    solver = SatSolver(seed)
    encoder = Encoder(solver)
    encode_instance_constraints(encoder, instance)
    encoder.true_lit()  # pin the constant-true var at a fixed index
    solver.propagate_root()
    return solver, encoder, tuple(sorted(solver.fixed_literals()))


def _complete_ladder(encoder: Encoder, index: int, expr: LinearExpr,
                     fixed: Sequence[int]) -> PreparedObjective:
    """Eager ladder of ``expr`` whose domain is every attainable value plus
    one past the largest."""
    ladder = encode_objective(encoder, index, expr, fixed, eager=True)
    reachable = ladder.reachable_values()
    domain = tuple(reachable) + (reachable[-1] + 1,)
    for d in domain:
        ladder.encode_lt(d)
    return PreparedObjective(expr, domain, ladder.encode_lt)


@dataclass
class _Iteration:
    """What one re-approximation iteration enumerates over."""

    solver: SatSolver
    encoder: Encoder
    prepared: List[PreparedObjective]
    seeds: List[Point]  # lower bounds known before enumerating
    shared: bool  # the solver outlives the iteration: guard its region blocks
    complete: bool  # every attainable value is a threshold
    proves_exact: Callable[[McsApproxOutcome], bool]


def _reapproximate(instance: Instance, schedule: RatioSchedule, budget: Budget,
                   prepare: Callable[..., Optional[_Iteration]], name: str) -> ApproxResult:
    """The iteration loop of the re-approximation drivers.

    ``prepare(ratio, records, fresh)`` wires up one iteration, given the
    nondominated records so far and those the previous iteration added; it
    returns None when the budget ran out while encoding.  The lower bounds
    and the ratio are committed only by an iteration whose enumeration
    completed.
    """
    records: List[SolutionRecord] = []
    fresh: List[SolutionRecord] = []
    lower_committed: List[Point] = []
    warranted: Optional[Fraction] = None
    trace: List[IterationTrace] = []
    truncated = False
    ratio = schedule.start
    while True:
        t0 = time.monotonic()
        step = prepare(ratio, records, fresh)
        if step is None:
            truncated = True
            break
        guard = step.solver.new_var() if step.shared else None
        outcome = mcs_approx(step.solver, step.prepared, instance, budget,
                             guard=guard, complete=step.complete)
        if guard is not None:
            step.solver.add_clause([-guard])  # retire the iteration's region blocks
        records = nondominated_filter(records + outcome.records, key=lambda r: r.image)
        lower_iter = nondominated_filter(step.seeds + outcome.lower_bounds)
        trace.append(IterationTrace(
            seq=len(trace) + 1,
            ratio=ratio,
            new_images=tuple(rec.image for rec in outcome.records),
            new_lower_bounds=tuple(outcome.lower_bounds),
            mcs_count=outcome.mcs_count,
            objective_clauses=step.encoder.objective_clauses,
            completed=outcome.completed,
            wall_s=time.monotonic() - t0,
        ))
        log.info("%s iteration %d at ratio %s: %d new records, completed=%s",
                 name, len(trace), ratio, len(outcome.records), outcome.completed)
        if not outcome.completed:
            truncated = True
            break
        lower_committed = lower_iter
        warranted = ratio
        if step.proves_exact(outcome):
            warranted = Fraction(1)
            break
        if ratio <= schedule.target:
            break
        if budget.exceeded(step.encoder):
            truncated = True
            break
        fresh = outcome.records
        ratio = update_ratio(schedule, ratio)
    return ApproxResult(
        records=tuple(records),
        lower_bounds=tuple(lower_committed),
        warranted_ratio=warranted,
        truncated=truncated,
        infeasible=False,
        trace=tuple(trace),
    )


def core_solve(instance: Instance, schedule: RatioSchedule, seed: int = 0) -> ApproxResult:
    """Coefficient-based re-approximation driver.

    Each iteration rounds every objective onto the current ratio's weight
    grid and encodes the rounded objectives, with complete threshold
    domains, into a fresh solver.  It blocks the regions weakly dominated by
    the rounded images of known solutions, which also seed its lower bounds,
    and runs the MCS enumerator.  Stops when the rounding is the identity
    (the front is then exact), the target ratio is warranted, or the budget
    runs out.
    """
    budget = Budget.of(schedule)
    base: Optional[tuple] = _constrained_solver(instance, seed)
    if not base[0].ok:
        return _INFEASIBLE

    def prepare(ratio, records, fresh):
        nonlocal base
        # the first iteration takes the solver of the feasibility check
        solver, encoder, fixed = base or _constrained_solver(instance, seed)
        base = None
        prepared: List[PreparedObjective] = []
        exact = True
        for k, f in enumerate(instance.objectives):
            if budget.exceeded(encoder):
                return None
            rounding = approx_coefficients(f, ratio)
            exact = exact and rounding.exact
            prepared.append(_complete_ladder(encoder, k, rounding.approx, fixed))
        seeds: List[Point] = []
        for rec in records:
            z = tuple(evaluate(prep.expr, rec.assignment) for prep in prepared)
            solver.add_clause([prep.encode_lt(z[k]) for k, prep in enumerate(prepared)])
            seeds.append(z)
        return _Iteration(solver, encoder, prepared, seeds, shared=False, complete=True,
                          proves_exact=lambda outcome: exact)

    return _reapproximate(instance, schedule, budget, prepare, "coeff")


def intre_solve(instance: Instance, schedule: RatioSchedule, seed: int = 0) -> ApproxResult:
    """Interval-based re-approximation driver.

    The original objectives are encoded once into one growing solver; each
    iteration computes the threshold grid for the current ratio, lazily
    encodes new thresholds, and permanently blocks the regions weakly
    dominated by the images of the previous iteration's finds.  The images
    of all records seed its lower bounds.  Stops when an iteration finds
    nothing new (the records then are the exact Pareto front), the target is
    warranted, or the budget runs out.
    """
    budget = Budget.of(schedule)
    solver, encoder, fixed = _constrained_solver(instance, seed)
    if not solver.ok:
        return _INFEASIBLE
    ladders = [encode_objective(encoder, k, f, fixed) for k, f in enumerate(instance.objectives)]

    def prepare(ratio, records, fresh):
        prepared: List[PreparedObjective] = []
        for k, ladder in enumerate(ladders):
            if budget.exceeded(encoder):
                return None
            domain = compute_domain(instance.lower_bounds[k], instance.upper_bounds[k], ratio)
            for d in domain:
                ladder.encode_lt(d)
            prepared.append(PreparedObjective(instance.objectives[k], domain, ladder.encode_lt))
        for rec in fresh:
            solver.add_clause([ladder.encode_lt(rec.image[k]) for k, ladder in enumerate(ladders)])
        return _Iteration(solver, encoder, prepared, [rec.image for rec in records],
                          shared=True, complete=(ratio == 1),
                          proves_exact=lambda outcome: not outcome.records)

    return _reapproximate(instance, schedule, budget, prepare, "interval")


def solve_exact(instance: Instance, budget_s: Optional[float] = None,
                seed: int = 0) -> ApproxResult:
    """Enumerate the exact Pareto front (single pass with complete domains)."""
    schedule = RatioSchedule(start=Fraction(1), budget_s=budget_s)
    return core_solve(instance, schedule, seed=seed)


def enumerate_efficient_set(
    instance: Instance, budget_s: Optional[float] = None, seed: int = 0
) -> Tuple[Tuple[SolutionRecord, ...], bool]:
    """All efficient solutions (exact mode), repeats of an image included.

    Replaces the single region block with p clauses that forbid points
    dominated by the representative while allowing the representative
    itself, plus one clause forbidding the witness assignment.  Returns the
    records and whether enumeration ran to exhaustion.
    """
    budget = Budget(budget_s)
    solver, encoder, fixed = _constrained_solver(instance, seed)
    if not solver.ok:
        return (), True
    prepared = [_complete_ladder(encoder, k, f, fixed) for k, f in enumerate(instance.objectives)]
    softs = _build_softs(prepared)
    records: List[SolutionRecord] = []
    while True:
        if budget.exceeded():
            return tuple(records), False
        try:
            mcs = extract_mcs(solver, softs, deadline=budget.deadline)
        except SolveBudgetExceeded:
            return tuple(records), False
        if mcs is None:
            return tuple(records), True
        assignment = _assignment_from_model(mcs.model, instance.num_vars)
        image = tuple(evaluate(f, assignment) for f in instance.objectives)
        records.append(SolutionRecord(assignment, image))
        rep = mcs.representative
        dominated_lits = [prep.encode_lt(rep[k]) for k, prep in enumerate(prepared)]
        for q, prep in enumerate(prepared):
            succ = prep.domain[prep.domain.index(rep[q]) + 1]
            solver.add_clause(dominated_lits + [prep.encode_lt(succ)])
        solver.add_clause([
            -(v + 1) if assignment[v] else (v + 1) for v in range(instance.num_vars)
        ])
