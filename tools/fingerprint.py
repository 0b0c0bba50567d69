"""Fingerprint a checkout's results and solver counters, to compare two commits.

Usage:

    python3 tools/fingerprint.py [CHECKOUT]

Imports ``mobosat`` from ``CHECKOUT/src`` and the anytime benchmark pool
from ``CHECKOUT/perfbench/workloads.py``; ``CHECKOUT`` defaults to the
checkout holding this file.  Prints one line per case: a sha256 prefix of
the result JSON (of the efficient records for ``enumerate_efficient_set``);
one of the outcome alone, that is the sorted images, the sorted lower
bounds, the warranted ratio and the truncated flag (the sorted records and
whether enumeration ran to exhaustion for ``enumerate_efficient_set``);
one of the sorted lower bounds L and the warranted ratio alone (whether
enumeration ran to exhaustion for ``enumerate_efficient_set``); then the
counters summed over every solver the case built, the last of them its
threshold literals (``SatSolver.num_thresholds``).

The two ``core(11)->11`` cases run CoRe's ratio-11 iteration on covering
instances large enough to restart (5 and 11 restarts), which no other case
does.  At those restarts the solver splits busy linear sums over partial
sums (``SatSolver._split``): six sums in all, and the second case also
reaches a busy sum of more than two distinct weights, which stays whole.

A change that must not alter search or results prints the same lines as
its parent:

    python3 tools/fingerprint.py > new.txt
    python3 ../parent/tools/fingerprint.py ../parent > old.txt
    diff old.txt new.txt

Run each checkout's own copy of this file, as above: it reads the solver's
attributes, and a checkout from before the solver kept its learnt clauses
in ``learnts`` names them by ``learnt_idxs``, which this copy cannot read.

A change that moves the search but not the results may change the result
digest and the counters, since the JSON also holds the order in which
records were found and each iteration's threshold count; the outcome
digest, the second column, must stay.  Where the records depend on which
witness an MCS returns, as CoRe's walked records can, the outcome digest
may move too; L and the ratio must not, so the third digest, the tenth
field from the end of each line, must stay:

    diff <(awk '{print $(NF-9)}' old.txt) <(awk '{print $(NF-9)}' new.txt)
"""

import argparse
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

COUNTERS = ("solve_calls", "decisions", "conflicts", "propagations", "restarts")
SMALL_COVER = ((8, 3, 2), (10, 4, 2), (10, 4, 3), (12, 5, 2), (12, 4, 3), (14, 5, 2), (14, 6, 3))


def _cases(engine, io, workloads):
    """(name, thunk) pairs; a thunk returns the bytes to hash, the outcome
    and the part of the outcome that bounds the front."""

    def result_json(solve, instance, schedule):
        def run():
            result = solve(instance, schedule)
            bounds = sorted(result.lower_bounds), result.warranted_ratio
            return io.write_result(result, "json"), (
                sorted(result.images), *bounds, result.truncated), bounds
        return run

    def efficient(instance):
        def run():
            records, complete = engine.enumerate_efficient_set(instance)
            return repr((records, complete)).encode(), (
                sorted((r.assignment, r.image) for r in records), complete), complete
        return run

    for i, instance in enumerate(workloads.conflict_pool()):
        yield (f"pool{i} core(11,10)", result_json(
            engine.core_solve, instance,
            engine.RatioSchedule(start=11, divisor=10, target=workloads.TARGET)))
        yield (f"pool{i} intre(101,10)", result_json(
            engine.intre_solve, instance,
            engine.RatioSchedule(start=101, divisor=10, target=workloads.TARGET)))
    for args in workloads.COVER_ARGS:
        instance = io.generate_mscp(*args)
        yield f"cover{args} exact", result_json(engine.solve_exact, instance, None)
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
    from mobosat.sat import SatSolver

    import workloads

    built = []
    init = SatSolver.__init__

    def recording_init(solver, *args, **kwargs):
        init(solver, *args, **kwargs)
        built.append(solver)

    SatSolver.__init__ = recording_init
    for name, thunk in _cases(engine, io, workloads):
        built.clear()
        data, outcome, bounds = thunk()
        digests = [hashlib.sha256(b).hexdigest()[:16]
                   for b in (data, repr(outcome).encode(), repr(bounds).encode())]
        totals = [sum(s.stats[c] for s in built) for c in COUNTERS]
        totals.append(sum(s.num_vars for s in built))
        totals.append(sum(s.num_clauses for s in built))
        totals.append(sum(len(s.learnts) for s in built))
        totals.append(sum(s.num_thresholds for s in built))
        print(name, *digests, *totals)


if __name__ == "__main__":
    main()
