"""Fingerprint a checkout's results and solver counters, to compare two commits.

Usage:

    python3 tools/fingerprint.py [CHECKOUT]

Imports ``mobosat`` from ``CHECKOUT/src`` and the anytime benchmark pool
from ``CHECKOUT/perfbench/workloads.py``; ``CHECKOUT`` defaults to the
checkout holding this file.  Prints one line per case: a sha256 prefix of
the result JSON (of the efficient records for ``enumerate_efficient_set``),
then the counters summed over every solver the case built, then the
threshold literals (``Encoder.objective_clauses``) summed over every
encoder it built.

The two ``core(11)->11`` cases run CoRe's ratio-11 iteration on covering
instances large enough to restart (5 and 11 restarts), which no other case
does.  At those restarts the solver splits busy linear sums over partial
sums (``SatSolver._split``): six sums in all, and the second case also
reaches a busy sum too varied in its weights to split.

A change that must not alter search or results prints the same lines as
its parent:

    python3 tools/fingerprint.py > new.txt
    python3 tools/fingerprint.py ../parent > old.txt
    diff old.txt new.txt
"""

import argparse
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

COUNTERS = ("solve_calls", "decisions", "conflicts", "propagations", "restarts")
SMALL_COVER = ((8, 3, 2), (10, 4, 2), (10, 4, 3), (12, 5, 2), (12, 4, 3), (14, 5, 2), (14, 6, 3))


def _cases(engine, io, workloads):
    """(name, thunk) pairs; a thunk returns the bytes to hash."""

    def result_json(solve, instance, schedule):
        return lambda: io.write_result(solve(instance, schedule), "json")

    def efficient(instance):
        return lambda: repr(engine.enumerate_efficient_set(instance)).encode()

    for i, instance in enumerate(workloads.conflict_pool()):
        yield (f"pool{i} core(11,10)", result_json(
            engine.core_solve, instance,
            engine.RatioSchedule(start=11, divisor=10, target=workloads.TARGET)))
        yield (f"pool{i} intre(101,10)", result_json(
            engine.intre_solve, instance,
            engine.RatioSchedule(start=101, divisor=10, target=workloads.TARGET)))
    for args in workloads.COVER_ARGS:
        instance = io.generate_mscp(*args)
        yield f"cover{args} exact", lambda instance=instance: io.write_result(
            engine.solve_exact(instance), "json")
    yield "cover(20, 6, 2, 5) core(11,10)->1", result_json(
        engine.core_solve, io.generate_mscp(20, 6, 2, 5),
        engine.RatioSchedule(start=11, divisor=10))
    for n, m, p in SMALL_COVER:
        for seed in (1, 2):
            instance = io.generate_mscp(n, m, p, seed)
            tag = f"cover{(n, m, p, seed)}"
            schedule = engine.RatioSchedule(start=Fraction(2))
            yield f"{tag} core(2)", result_json(engine.core_solve, instance, schedule)
            yield f"{tag} intre(2)", result_json(engine.intre_solve, instance, schedule)
            yield f"{tag} efficient", efficient(instance)
    for args in ((30, 10, 3, 2), (40, 14, 3, 1)):
        yield f"cover{args} core(11)->11", result_json(
            engine.core_solve, io.generate_mscp(*args),
            engine.RatioSchedule(start=11, divisor=10, target=11))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parent.parent))
    root = Path(parser.parse_args().checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from mobosat import engine, io
    from mobosat.encode import Encoder
    from mobosat.sat import SatSolver

    import workloads

    built = []
    encoders = []

    def record(cls, into):
        init = cls.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            into.append(self)

        cls.__init__ = recording_init

    record(SatSolver, built)
    record(Encoder, encoders)
    for name, thunk in _cases(engine, io, workloads):
        built.clear()
        encoders.clear()
        digest = hashlib.sha256(thunk()).hexdigest()[:16]
        totals = [sum(s.stats[c] for s in built) for c in COUNTERS]
        totals.append(sum(s.num_vars for s in built))
        totals.append(sum(s.num_clauses for s in built))
        totals.append(sum(len(s.learnt_idxs) for s in built))
        totals.append(sum(e.objective_clauses for e in encoders))
        print(name, digest, *totals)


if __name__ == "__main__":
    main()
