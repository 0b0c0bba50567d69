"""The benchmark's workloads: which instances, which entry point, what target.

Instances are generated, written as ``.pbmo`` and parsed back before any
solver call, the way the command line loads them.  Two families:

* set covering, from ``mobosat.io.generate_mscp``, on fixed instances that
  the roadmap names;
* conflicting objectives, from ``conflict_instance`` below: every objective
  weighs every variable, on a literal of random polarity, so the objectives
  pull against each other and the fronts are large.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

from mobosat import engine, io
from mobosat.model import Instance, Literal, PBConstraint, normalize_expression, normalize_objective

from checks import cover_front, enumerated_front, is_feasible

COVER_ARGS = ((16, 6, 3, 3), (20, 6, 2, 5))
# the anytime workloads' pool: the first feasible draws of this stream
POOL_SEED, POOL_VARS, POOL_SIZE = "anytime", 11, 4
TARGET = Fraction(11, 10)


def conflict_instance(n: int, seed: int, p: int = 3) -> Instance:
    """A random instance with ``p`` conflicting objectives over ``n`` variables.

    Weights 1..50 on literals of random polarity; two to four PB constraints
    of width 2..6 with coefficients in -50..50 (zero excluded).  A bound is
    drawn from the lower half of its left side's range, so a constraint
    cuts off some assignments but rarely fixes a variable.
    """
    rng = random.Random(seed)
    objectives = []
    for _ in range(p):
        terms = [(rng.randint(1, 50), Literal(v, rng.random() < 0.5)) for v in range(1, n + 1)]
        objectives.append(normalize_objective(terms))
    constraints = []
    for _ in range(rng.randint(2, 4)):
        width = rng.randint(2, 6)
        variables = rng.sample(range(1, n + 1), width)
        raw = [(rng.choice([c for c in range(-50, 51) if c]), Literal(v)) for v in variables]
        least = sum(c for c, _ in raw if c < 0)
        largest = sum(c for c, _ in raw if c > 0)
        lhs, bound = normalize_expression(raw, rng.randint(least + 1, (least + largest) // 2))
        constraints.append(PBConstraint(lhs, bound))
    return Instance(num_vars=n, constraints=tuple(constraints), objectives=tuple(objectives))


def conflict_pool() -> List[Instance]:
    """The first ``POOL_SIZE`` feasible draws of the conflicting-objective family."""
    rng = random.Random(POOL_SEED)
    pool: List[Instance] = []
    while len(pool) < POOL_SIZE:
        instance = conflict_instance(POOL_VARS, rng.getrandbits(32))
        if is_feasible(instance):
            pool.append(instance)
    return pool


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    solve: Callable[[Instance], "engine.ApproxResult"]
    exact: bool

    def generate(self) -> List[Instance]:
        """The workload's instances.

        They do not depend on the run's seed: renaming a pool's variables by
        seed was tried, and it moved the solve time of the same instances by
        up to a third, more than the bounds the benchmark can hold.
        """
        if self.family == "cover":
            return [io.generate_mscp(*args) for args in COVER_ARGS]
        return conflict_pool()

    def reference_front(self, instance: Instance) -> set:
        if self.family == "cover":
            return cover_front(instance)
        return enumerated_front(instance)


def _exact(instance: Instance):
    return engine.solve_exact(instance)


def _intre(instance: Instance):
    return engine.intre_solve(instance, engine.RatioSchedule(start=101, divisor=10, target=TARGET))


def _core(instance: Instance):
    return engine.core_solve(instance, engine.RatioSchedule(start=11, divisor=10, target=TARGET))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-cover", "cover", _exact, True),
        Workload("anytime-intre", "conflict", _intre, False),
        Workload("anytime-core", "conflict", _core, False),
    )
}


def roundtrip(instance: Instance, path) -> Instance:
    """Write ``instance`` as ``.pbmo`` to ``path`` and parse it back."""
    path.write_text(io.write_pbmo(instance))
    return io.parse_pbmo(path.read_text())
