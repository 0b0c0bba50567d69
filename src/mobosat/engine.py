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
  the front exact.  Unless the rounding is the identity, each witness is
  then checked by ``model.is_feasible`` and walked to a point that
  dominates it (``_Walk.run``): from its image, with no start solve, a loop
  of solves under assumptions alone, a bound on the objectives' sum and
  one threshold per original objective, in a walk solver of the
  iteration's own that holds the constraints alone, so a walk that ends
  before the deadline ends on a Pareto-optimal point of the instance, and
  the extraction solver carries none of the walk's sums;
* the interval driver encodes the original objectives once into one
  growing solver, thins the threshold domains to the ratio's grid, and
  permanently blocks the regions at the images of the previous iteration's
  finds; an iteration that finds nothing new proves the front exact.

When the solver outlives the iteration, the loop guards the enumerator's
region blocks with a selector and retires it when the iteration ends, so
iteration-scoped state never outlives its iteration.  A wall-clock budget
becomes the ``deadline`` of every solver a run builds: ``_constrained_solver``
sets it once the constraints are encoded and propagated at the root, so
constraint encoding stays outside the budget.  Past it, solving and
creating a threshold alike raise SolveBudgetExceeded, and the run returns
partial results flagged as truncated with the ratio warranted by the last
completed iteration.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from . import model
from .approx import approx_coefficients, as_ratio, compute_domain
from .encode import Encoder, encode_instance_constraints, encode_objective
from .mcs import (
    LadderSoftSet,
    Mcs,
    McsInvariantError,
    PreparedObjective,
    check_witness_bounds,
    extract_mcs,
)
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


EPS_FLOOR = Fraction(1, 10000)  # a smaller epsilon snaps to 0 (exact)


@dataclass(frozen=True)
class RatioSchedule:
    """How the approximation ratio evolves across iterations.

    ``start`` and ``target`` are ratios (1 + epsilon); epsilon is divided by
    ``divisor`` after each iteration and snaps to 0 once below ``EPS_FLOOR``.
    """

    start: Fraction
    divisor: Fraction = Fraction(10)
    target: Fraction = Fraction(1)
    budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", as_ratio(self.start))
        object.__setattr__(self, "divisor", Fraction(self.divisor))
        object.__setattr__(self, "target", as_ratio(self.target))
        if self.divisor <= 1:
            raise ValueError(f"divisor must be > 1, got {self.divisor}")
        if not self.start >= self.target >= 1:
            raise ValueError("need start ratio >= target ratio >= 1")
        _check_budget(self.budget_s)


def _check_budget(budget_s: Optional[float]) -> None:
    """Reject a budget that is not a positive number of seconds, NaN included."""
    if budget_s is not None and not budget_s > 0:
        raise ValueError(f"time budget must be positive, got {budget_s}")


def _deadline(budget_s: Optional[float]) -> Optional[float]:
    """The ``time.monotonic()`` instant at which a run starting now must end."""
    return None if budget_s is None else time.monotonic() + budget_s


def update_ratio(schedule: RatioSchedule, ratio: Fraction) -> Fraction:
    """Next ratio: epsilon / divisor, snapped to 0 below EPS_FLOOR, never below target."""
    eps = Fraction(ratio) - 1
    eps = eps / schedule.divisor
    if eps < EPS_FLOOR:
        eps = Fraction(0)
    eps = max(eps, schedule.target - 1)
    return 1 + eps


@dataclass(frozen=True)
class IterationTrace:
    """One iteration of a re-approximation driver.

    ``objective_clauses`` counts the threshold literals created in the
    iteration's solvers, over every linear sum, up to the end of the
    iteration: those of the extraction solver plus those of the walk solver,
    if any (the solvers' linear sums propagate them without clauses; the
    field keeps its name in schema 1).  A complete domain creates only the
    thresholds asked for: those next to each clause-D witness's value and
    those of the region blocks in the extraction solver, and in the walk
    solver at most p + 1 per walk step, one per objective and one bound on
    the objectives' sum.
    """

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
class McsApproxOutcome:
    records: List[SolutionRecord]
    lower_bounds: List[Point]
    completed: bool


def _region(prepared: Sequence[PreparedObjective], point: Point) -> List[int]:
    """The clause that blocks the region ``point`` weakly dominates: some
    objective below its coordinate."""
    return [prep.encode_lt(d) for prep, d in zip(prepared, point)]


def _record(instance: Instance, values: Sequence[int]) -> SolutionRecord:
    """The record of a solver model: its assignment of the instance's
    variables and the image under the *original* objectives."""
    assignment = tuple(1 if v == 1 else 0 for v in values[1:instance.num_vars + 1])
    return SolutionRecord(assignment, model.image(instance, assignment))


def _witnesses(solver: SatSolver, prepared: Sequence[PreparedObjective], instance: Instance,
               assumptions: Sequence[int], complete: bool) -> Iterator[Tuple[Mcs, SolutionRecord]]:
    """Extract MCSs over the prepared thresholds until none is left, each with
    the record of its checked witness.  The caller blocks each MCS before
    asking for the next; SolveBudgetExceeded passes through."""
    softs = LadderSoftSet(tuple(prepared))
    while (mcs := extract_mcs(solver, softs, assumptions)) is not None:
        record = _record(instance, mcs.model)
        check_witness_bounds(mcs, [evaluate(prep.expr, record.assignment) for prep in prepared],
                             complete=complete)
        yield mcs, record


@dataclass
class _Walk:
    """Where CoRe walks its witnesses: a solver holding the instance's
    constraints alone, ``below[j](d)``, the literal of ``f_j < d`` for each
    original objective, and ``total(d)``, that of "the objectives' sum is
    below ``d``"."""

    solver: SatSolver
    below: Tuple[Callable[[int], int], ...]
    total: Callable[[int], int]

    @classmethod
    def build(cls, instance: Instance, deadline: Optional[float]) -> _Walk:
        solver, encoder = _constrained_solver(instance, deadline)
        objectives = instance.objectives
        total = model.normalize_objective([t for f in objectives for t in f.terms],
                                          sum(f.constant for f in objectives))
        below = tuple(encode_objective(encoder, k, f).encode_lt for k, f in enumerate(objectives))
        return cls(solver, below, encode_objective(encoder, len(objectives), total).encode_lt)

    def run(self, instance: Instance, witness: SolutionRecord) -> Tuple[SolutionRecord, int]:
        """Walk ``witness`` to a record whose image dominates it, and the walk's steps.

        A witness that violates a constraint (``model.is_feasible``) raises
        McsInvariantError.  From the witness's image, with no solve before
        it, each step from image ``z`` solves under the assumptions "the
        objectives' sum is below ``sum(z)``" and ``f_j < z_j + 1`` for every
        objective: for integer images these ask for a point that dominates
        ``z`` (the Pareto-MCS step of Terra-Neves, Lynce & Manquinho, SAT
        2017), with no clause and no selector.  A step's model must set every
        assumption true, and its record must dominate ``z``; a breach raises
        McsInvariantError.  The walk stops at the first unsatisfiable step, on
        a Pareto-optimal point of the instance, or at the deadline, on the
        last record.
        """
        if not model.is_feasible(instance, witness.assignment):
            raise McsInvariantError(f"the witness {witness.assignment} violates a constraint")
        last, steps = witness, 0
        try:
            while True:
                z = last.image
                wanted = [self.total(sum(z))] + [lt(d + 1) for lt, d in zip(self.below, z)]
                if not self.solver.solve(wanted):
                    break
                if not all(self.solver.model_value(lit) for lit in wanted):
                    raise McsInvariantError(f"a walk step's model falsifies an assumption of {z}")
                record = _record(instance, self.solver.model)
                if record.image == z or not weakly_dominates(record.image, z):
                    raise McsInvariantError(f"walk step from {z} to {record.image} does not "
                                            "dominate it")
                last, steps = record, steps + 1
        except SolveBudgetExceeded:
            pass
        return last, steps


def mcs_approx(solver: SatSolver, prepared: Sequence[PreparedObjective], instance: Instance,
               guard: Optional[int] = None, complete: bool = False,
               walk: Optional[_Walk] = None) -> McsApproxOutcome:
    """Enumerate MCSs until exhaustion or the solver's deadline, blocking each one.

    Records carry the witness assignment and its image under the *original*
    objectives; lower bounds are the representative points.  With ``walk``,
    each witness is first walked from its image to a record that dominates
    it, by solves under assumptions in the walk solver alone
    (``_Walk.run``): the enumerating solver makes the same solves with or
    without it.  Region blocks are guarded by ``guard`` when given (so the
    caller can retire them).  Each MCS logs one DEBUG line with the work it
    took, summed over both solvers: solve calls, conflicts, propagations,
    clause-D rounds and walk steps.
    """
    records: List[SolutionRecord] = []
    reps: List[Point] = []
    assumptions = [guard] if guard is not None else []
    solvers = (solver,) if walk is None else (solver, walk.solver)

    def work() -> List[int]:
        return [sum(s.stats[k] for s in solvers)
                for k in ("solve_calls", "conflicts", "propagations")]

    before = work()
    try:
        for mcs, record in _witnesses(solver, prepared, instance, assumptions, complete):
            rep = mcs.representative
            if any(weakly_dominates(prev, rep) for prev in reps):
                raise McsInvariantError(
                    f"representative {rep} weakly dominated by an already blocked point"
                )
            steps = 0
            if walk is not None:
                record, steps = walk.run(instance, record)
            records.append(record)
            reps.append(rep)
            solver.add_clause([-a for a in assumptions] + _region(prepared, rep))
            after = work()
            log.debug("mcs %d: rep=%s image=%s solves=%d conflicts=%d propagations=%d "
                      "rounds=%d walk=%d", len(reps), rep, record.image,
                      *(a - b for a, b in zip(after, before)), mcs.rounds, steps)
            before = after
    except SolveBudgetExceeded:
        return McsApproxOutcome(records, reps, False)
    return McsApproxOutcome(records, reps, True)


def _constrained_solver(instance: Instance,
                        deadline: Optional[float]) -> Tuple[SatSolver, Encoder]:
    """A fresh solver holding the constraints, propagated at the root and
    bound by ``deadline``, and its encoder.  ``solver.ok`` is False when root
    propagation refutes the constraints."""
    solver = SatSolver()
    encoder = Encoder(solver)
    encode_instance_constraints(encoder, instance)
    encoder.true_lit()  # pin the constant-true var at a fixed index
    solver.propagate_root()
    solver.deadline = deadline
    return solver, encoder


def _complete_ladder(encoder: Encoder, index: int, expr: LinearExpr) -> PreparedObjective:
    """Ladder of ``expr`` whose domain is every attainable value plus one
    past the largest.  It creates no threshold: extraction asks for those
    next to each witness's value, and region blocks for theirs."""
    ladder = encode_objective(encoder, index, expr)
    reachable = ladder.reachable_values()
    return PreparedObjective(expr, tuple(reachable) + (reachable[-1] + 1,), ladder.encode_lt)


@dataclass
class _Iteration:
    """What one re-approximation iteration enumerates over."""

    solver: SatSolver
    prepared: List[PreparedObjective]
    seeds: List[Point]  # lower bounds known before enumerating
    shared: bool  # the solver outlives the iteration: guard its region blocks
    complete: bool  # every attainable value is a threshold
    proves_exact: Callable[[McsApproxOutcome], bool]
    walk: Optional[_Walk] = None  # where witnesses are walked, if anywhere


def _reapproximate(instance: Instance, schedule: RatioSchedule,
                   prepare: Callable[..., _Iteration], name: str) -> ApproxResult:
    """The iteration loop of the re-approximation drivers.

    ``prepare(ratio, records, fresh)`` wires up one iteration, given the
    nondominated records so far and those the previous iteration added; it
    raises SolveBudgetExceeded when the deadline passes while encoding.  The
    lower bounds and the ratio are committed only by an iteration whose
    enumeration completed.
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
        try:
            step = prepare(ratio, records, fresh)
        except SolveBudgetExceeded:
            truncated = True
            break
        guard = step.solver.new_var() if step.shared else None
        outcome = mcs_approx(step.solver, step.prepared, instance,
                             guard=guard, complete=step.complete, walk=step.walk)
        if guard is not None:
            step.solver.add_clause([-guard])  # retire the iteration's region blocks
        records = nondominated_filter(records + outcome.records, key=lambda r: r.image)
        lower_iter = nondominated_filter(step.seeds + outcome.lower_bounds)
        trace.append(IterationTrace(
            seq=len(trace) + 1,
            ratio=ratio,
            new_images=tuple(rec.image for rec in outcome.records),
            new_lower_bounds=tuple(outcome.lower_bounds),
            mcs_count=len(outcome.lower_bounds),
            objective_clauses=step.solver.num_thresholds + (
                step.walk.solver.num_thresholds if step.walk else 0),
            completed=outcome.completed,
            wall_s=time.monotonic() - t0,
        ))
        log.info("%s iteration %d at ratio %s: %d new records, completed=%s",
                 name, len(trace), ratio, len(outcome.records), outcome.completed)
        if not outcome.completed:
            truncated = True
            break
        if not records:  # a completed iteration finds a record whenever one exists
            return _INFEASIBLE
        lower_committed = lower_iter
        warranted = ratio
        if step.proves_exact(outcome):
            warranted = Fraction(1)
            break
        if ratio <= schedule.target:
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


def core_solve(instance: Instance, schedule: RatioSchedule) -> ApproxResult:
    """Coefficient-based re-approximation driver.

    Each iteration rounds every objective onto the current ratio's weight
    grid and encodes the rounded objectives, with complete threshold
    domains whose thresholds are created as extraction asks for them, into
    a fresh solver.  It blocks the regions weakly dominated by
    the rounded images of known solutions, which also seed its lower bounds,
    and runs the MCS enumerator.  Unless the rounding is the identity, the
    iteration also builds a walk solver over the constraints alone, with
    ladders of the original objectives and their sum, checks each witness
    with ``model.is_feasible`` and walks it there, from its image, with no
    start solve, by solves under a bound on the sum and one threshold per
    objective, to a Pareto-optimal point that dominates it.  Stops when the
    rounding is the identity (the front is then exact), the target ratio is
    warranted, or the budget runs out.
    """
    deadline = _deadline(schedule.budget_s)
    base: Optional[tuple] = _constrained_solver(instance, deadline)
    if not base[0].ok:
        return _INFEASIBLE

    def prepare(ratio, records, fresh):
        nonlocal base
        # the first iteration takes the solver of the feasibility check
        solver, encoder = base or _constrained_solver(instance, deadline)
        base = None
        prepared: List[PreparedObjective] = []
        exact = True
        for k, f in enumerate(instance.objectives):
            rounding = approx_coefficients(f, ratio)
            exact = exact and rounding.exact
            prepared.append(_complete_ladder(encoder, k, rounding.approx))
        seeds: List[Point] = []
        for rec in records:
            z = tuple(evaluate(prep.expr, rec.assignment) for prep in prepared)
            solver.add_clause(_region(prepared, z))
            seeds.append(z)
        return _Iteration(solver, prepared, seeds, shared=False, complete=True,
                          proves_exact=lambda outcome: exact,
                          walk=None if exact else _Walk.build(instance, deadline))

    return _reapproximate(instance, schedule, prepare, "coeff")


def intre_solve(instance: Instance, schedule: RatioSchedule) -> ApproxResult:
    """Interval-based re-approximation driver.

    The original objectives are encoded once into one growing solver; each
    iteration computes the threshold grid for the current ratio, lazily
    encodes new thresholds, and permanently blocks the regions weakly
    dominated by the images of the previous iteration's finds.  The images
    of all records seed its lower bounds.  Stops when an iteration finds
    nothing new (the records then are the exact Pareto front), the target is
    warranted, or the budget runs out.
    """
    deadline = _deadline(schedule.budget_s)
    solver, encoder = _constrained_solver(instance, deadline)
    if not solver.ok:
        return _INFEASIBLE
    ladders = [encode_objective(encoder, k, f) for k, f in enumerate(instance.objectives)]

    def prepare(ratio, records, fresh):
        prepared = []
        for f, ladder in zip(instance.objectives, ladders):
            domain = compute_domain(f.lower_bound, f.upper_bound, ratio)
            # the whole grid up front: creating it on demand moves the search,
            # and with it the lower bounds of an iteration
            for d in domain:
                ladder.encode_lt(d)
            prepared.append(PreparedObjective(f, domain, ladder.encode_lt))
        for rec in fresh:
            solver.add_clause(_region(prepared, rec.image))
        return _Iteration(solver, prepared, [rec.image for rec in records],
                          shared=True, complete=(ratio == 1),
                          proves_exact=lambda outcome: not outcome.records)

    return _reapproximate(instance, schedule, prepare, "interval")


def solve_exact(instance: Instance, budget_s: Optional[float] = None) -> ApproxResult:
    """Enumerate the exact Pareto front (single pass with complete domains)."""
    schedule = RatioSchedule(start=Fraction(1), budget_s=budget_s)
    return core_solve(instance, schedule)


def enumerate_efficient_set(
    instance: Instance, budget_s: Optional[float] = None
) -> Tuple[Tuple[SolutionRecord, ...], bool]:
    """All efficient solutions (exact mode), repeats of an image included.

    Replaces the single region block with p clauses that forbid points
    dominated by the representative while allowing the representative
    itself, plus one clause forbidding the witness assignment.  Returns the
    records and whether enumeration ran to exhaustion.
    """
    _check_budget(budget_s)
    solver, encoder = _constrained_solver(instance, _deadline(budget_s))
    if not solver.ok:
        return (), True
    records: List[SolutionRecord] = []
    try:
        prepared = [_complete_ladder(encoder, k, f) for k, f in enumerate(instance.objectives)]
        # complete ladders on the original objectives: image == representative
        for mcs, record in _witnesses(solver, prepared, instance, (), complete=True):
            records.append(record)
            dominated_lits = _region(prepared, mcs.representative)
            for prep, succ in zip(prepared, mcs.successor):
                solver.add_clause(dominated_lits + [prep.encode_lt(succ)])
            solver.add_clause([-(v + 1) if a else v + 1 for v, a in enumerate(record.assignment)])
    except SolveBudgetExceeded:
        return tuple(records), False
    return tuple(records), True
