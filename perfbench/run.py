"""Benchmark of mobosat: time to the exact front and to a warranted ratio.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-cover --seed 1 --seconds 30 --trace 0

One run sets up the workload's instances (generate, write as ``.pbmo``,
parse), then solves every instance once per round, in whole rounds, until
the next round would end past ``--seconds``; a fixed Python loop timed
before every solve gauges the host's speed, and each round's solve time is
scaled by it to a reference speed.  It then checks every output
against a reference front computed apart from the solver, and prints one
JSON object as its last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` installs spans around the library's public functions and
reports per-layer metrics.  The instances do not depend on ``--seed``; it
only names the run's output files.  See README.md in this directory.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# median time of _host_loop on the reference machine (see README.md)
HOST_LOOP_REF_S = 0.030


def _import_library() -> float:
    """Put the checkout's ``src`` first on the path and import mobosat."""
    if not (ROOT / "src" / "mobosat" / "__init__.py").is_file():
        sys.exit(f"error: no mobosat sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import mobosat  # noqa: F401

    return time.perf_counter() - _PROCESS_T0


def _setup(workload, out_dir: Path):
    """Generate and round-trip the instances; median times over the repeats."""
    from workloads import roundtrip

    gen, rt = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        raw = workload.generate()
        t1 = time.perf_counter()
        parsed = [roundtrip(inst, out_dir / f"{workload.name}-{i}.pbmo") for i, inst in enumerate(raw)]
        t2 = time.perf_counter()
        gen.append(t1 - t0)
        rt.append(t2 - t1)
    totals = [g + r for g, r in zip(gen, rt)]
    return parsed, statistics.median(gen), statistics.median(rt), statistics.median(totals)


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def step(self, x):
        return self.a + x if x & 1 else self.b - x


def _host_loop() -> float:
    """Time a fixed pure-Python loop that calls no mobosat code.

    The loop is the benchmark's gauge of the host's speed at this moment:
    attribute loads, method calls, list indexing and dict updates, as in the
    solver's inner loops.  It takes about ``HOST_LOOP_REF_S`` on this
    benchmark's reference machine.
    """
    t0 = time.perf_counter()
    items = [_Item(i, 3 * i) for i in range(64)]
    table, acc = {}, 0
    for i in range(60000):
        acc += items[i & 63].step(i)
        table[i & 1023] = acc & 255
        if table.get((7 * i) & 1023, 0) > 100:
            acc -= 1
    return time.perf_counter() - t0


def _solve_rounds(workload, instances, seconds: float, tracer):
    """Whole rounds over the instances.

    Returns per-operation times, the host loop's times and the outputs, all
    by round.  The host loop runs right before every solve.
    """
    times, loops, outputs, errors = [], [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = len(times)
        round_times, round_loops, results = [], [], []
        for instance in instances:
            round_loops.append(_host_loop())
            t0 = time.perf_counter()
            try:
                result = workload.solve(instance)
            except Exception as exc:  # an operation that raises counts as failed
                result = None
                errors.append(f"{type(exc).__name__}: {exc}")
            round_times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_operation()
            results.append(result)
        times.append(round_times)
        loops.append(round_loops)
        outputs.append(results)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(times) > seconds:
            return times, loops, outputs, errors


def _median_round(times) -> float:
    """Median over the run's rounds of one round's total solve (wall) time."""
    return statistics.median(sum(round_times) for round_times in times)


def _scaled_median_round(times, loops) -> float:
    """Median over the rounds of the round's solve time at the reference speed.

    On a shared host, outside load moves every process's speed by up to
    1.9x, in spells of seconds to minutes, often longer than a run.  Each
    round's total solve time is scaled by ``HOST_LOOP_REF_S`` over the mean
    time of the host loop taken within that round, so that a round run
    during a fast or a slow spell reads about what it would at the
    reference speed.  See "Noise" in README.md for the measurements.
    """
    return statistics.median(
        sum(round_times) * HOST_LOOP_REF_S / statistics.fmean(round_loops)
        for round_times, round_loops in zip(times, loops)
    )


def _check(workload, instances, outputs, tracer):
    """Check every output; identical outputs of one instance are checked once."""
    from checks import check_result
    from mobosat import io, quality
    from workloads import TARGET

    if tracer is not None:
        tracer.round = -1
    failed, wrong, ratios, problems = 0, 0, [], []
    for i, instance in enumerate(instances):
        front = workload.reference_front(instance)
        verdicts = {}
        for results in outputs:
            result = results[i]
            if result is None:
                failed += 1
                continue
            key = io.write_result(result)
            if key not in verdicts:
                found, eps = [], None
                if result.truncated:
                    found.append("truncated")
                else:
                    found, eps = check_result(instance, result, front, workload.exact,
                                              TARGET, quality.epsilon_indicator)
                verdicts[key] = found
                if eps is not None:
                    ratios.append(eps)
                if found:
                    problems.append(f"instance {i}: " + "; ".join(found))
            if verdicts[key]:
                failed += 1
                wrong += any(p != "truncated" for p in verdicts[key])
    return failed, wrong == 0, ratios, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    instances, generate_s, roundtrip_s, setup_rep_s = _setup(workload, out_dir)
    tracer = None
    if args.trace:
        from spans import UNITS, Tracer

        tracer = Tracer()
        tracer.install()
    times, loops, outputs, errors = _solve_rounds(workload, instances, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, correct, ratios, problems = _check(workload, instances, outputs, tracer)
    for line in errors + problems:
        print(line, file=sys.stderr)

    if args.trace:
        tracer.uninstall()
        metrics = {"io.generate_s": (generate_s, "s"), "io.pbmo_roundtrip_s": (roundtrip_s, "s")}
        for key, value in tracer.summary(len(times)).items():
            metrics[key] = (value, UNITS.get(key, "count"))
        metrics["trace.solve_s"] = (_scaled_median_round(times, loops), "s")
        metrics["trace.wall_solve_s"] = (_median_round(times), "s")
        metrics["host.loop_s"] = (statistics.median(t for r in loops for t in r), "s")
        if not tracer.counts_repeat(len(times)):
            print("per-layer counts differ between rounds", file=sys.stderr)
        tracer.dump(out_dir / f"spans-{workload.name}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": (import_s + setup_rep_s, "s"),
            "solve_s": (_scaled_median_round(times, loops), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "aposteriori_ratio": (float(max(ratios, default=0)), "ratio"),
        }
    report = {
        "correct": correct,
        "attempted": len(instances) * len(times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(report)
    (out_dir / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(f"{workload.name}: {len(times)} rounds of {len(instances)} instances, "
          f"round times {', '.join(f'{sum(t):.3f}' for t in times)} s, "
          f"median {_median_round(times):.3f} s; host loop median "
          f"{statistics.median(t for r in loops for t in r) * 1000:.1f} ms", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
