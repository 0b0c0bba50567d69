"""Spans around calls into mobosat's public functions, taken from outside.

``Tracer.install`` replaces public functions and methods of ``mobosat`` by
wrappers that record a span per call: name, start, end and parent.  The
drivers import several helpers by name, so a helper is replaced both in the
module that defines it and in ``mobosat.engine``.  ``SatSolver.solve`` is
wrapped on the class and its spans carry the deltas of ``self.stats``.
Spans stay in memory; ``summary`` turns them into per-layer metrics and
``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from typing import Dict, List, Optional

import mobosat
from mobosat import approx, encode, engine, mcs, model, quality, sat

_SAT_COUNTERS = ("propagations", "conflicts", "decisions")
# units of the metrics that are not counts
UNITS = {
    "encode.ladder_s": "s",
    "sat.solve_s": "s",
    "sat.props_per_s": "1/s",
    "sat.conflicts_per_s": "1/s",
    "mcs.extract_self_s": "s",
    "mcs.solves_per_mcs": "ratio",
    "engine.build_s": "s",
    "engine.enumerate_s": "s",
    "engine.mcs_per_record": "ratio",
    "approx.s": "s",
    "model.filter_s": "s",
    "quality.eps_s": "s",
}
_TIMES = {k for k, unit in UNITS.items() if unit in ("s", "1/s")}


class Span:
    __slots__ = ("name", "start", "end", "parent", "children_s", "data")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children_s = 0.0
        self.data: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Records spans and per-operation counts; one tracer per process."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._originals: List[tuple] = []
        self.encoders: List[encode.Encoder] = []
        self.round = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        span.data["round"] = self.round
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.duration
        self.spans.append(span)

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Replace the traced functions; ``uninstall`` puts them back."""

        def on_extract(span, args, result):
            span.data["found"] = result is not None

        def on_driver(span, args, result):
            span.data["iterations"] = len(result.trace)
            span.data["records"] = len(result.records)
            span.data["lower_bounds"] = len(result.lower_bounds)

        by_name = [
            ("engine.driver", engine, ("solve_exact", "core_solve", "intre_solve"), None, on_driver),
            ("engine.mcs_approx", engine, ("mcs_approx",), None, None),
            ("encode.objective", encode, ("encode_objective",), engine, None),
            ("mcs.extract", mcs, ("extract_mcs",), engine, on_extract),
            ("approx", approx, ("approx_coefficients", "compute_domain"), engine, None),
            ("model.filter", model, ("nondominated_filter",), engine, None),
            ("quality.eps", quality, ("epsilon_indicator",), None, None),
        ]
        for name, home, attrs, importer, after in by_name:
            for attr in attrs:
                wrapped = self._wrap(name, getattr(home, attr), after)
                self._patch(home, attr, wrapped)
                if importer is not None:
                    self._patch(importer, attr, wrapped)
                if getattr(mobosat, attr, None) is not None:
                    self._patch(mobosat, attr, wrapped)

        tracer = self
        solve = sat.SatSolver.solve

        @functools.wraps(solve)
        def traced_solve(solver, *args, **kwargs):
            before = [solver.stats[c] for c in _SAT_COUNTERS]
            span = tracer._open("sat.solve")
            try:
                return solve(solver, *args, **kwargs)
            finally:
                tracer._close(span)
                for c, b in zip(_SAT_COUNTERS, before):
                    span.data[c] = solver.stats[c] - b

        self._patch(sat.SatSolver, "solve", traced_solve)

        encode_lt = encode.ObjectiveLadder.encode_lt

        @functools.wraps(encode_lt)
        def traced_encode_lt(ladder, d):
            # most calls are lookups of a threshold already built: keep a
            # span only for the calls that emitted clauses
            before = ladder.encoder.objective_clauses
            start = time.perf_counter()
            parent = tracer._stack[-1] if tracer._stack else None
            result = encode_lt(ladder, d)
            if ladder.encoder.objective_clauses != before:
                span = Span("encode.threshold", start, parent)
                span.data["round"] = tracer.round
                span.end = time.perf_counter()
                if parent is not None:
                    parent.children_s += span.duration
                tracer.spans.append(span)
            return result

        self._patch(encode.ObjectiveLadder, "encode_lt", traced_encode_lt)

        init = encode.Encoder.__init__

        @functools.wraps(init)
        def traced_init(encoder, solver):
            init(encoder, solver)
            tracer.encoders.append(encoder)

        self._patch(encode.Encoder, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def end_operation(self) -> None:
        """Fold the sizes of the encoders the operation built into its driver span."""
        driver = next((s for s in reversed(self.spans)
                       if s.name == "engine.driver" and s.parent is None), None)
        if driver is not None:
            driver.data["objective_clauses"] = sum(e.objective_clauses for e in self.encoders)
            driver.data["vars"] = sum(e.solver.num_vars for e in self.encoders)
        self.encoders = []

    # -- reporting ---------------------------------------------------------

    def round_metrics(self, round_no: int) -> Dict[str, float]:
        """Per-layer totals of one round."""
        spans = [s for s in self.spans if s.data["round"] == round_no]
        m: Dict[str, float] = {}

        def total(name, attr="duration"):
            return sum(getattr(s, attr) for s in spans if s.name == name)

        def count(name, key=None):
            return sum((s.data[key] if key else 1) for s in spans if s.name == name)

        top = [s for s in spans if s.name == "engine.driver" and s.parent is None]
        m["encode.ladders_built"] = count("encode.objective")
        m["encode.ladder_s"] = total("encode.objective") + total("encode.threshold")
        m["encode.objective_clauses"] = sum(s.data["objective_clauses"] for s in top)
        m["encode.vars"] = sum(s.data["vars"] for s in top)
        m["sat.solve_calls"] = count("sat.solve")
        m["sat.solve_s"] = total("sat.solve")
        for c in _SAT_COUNTERS:
            m[f"sat.{c}"] = count("sat.solve", c)
        m["sat.props_per_s"] = m["sat.propagations"] / m["sat.solve_s"]
        m["sat.conflicts_per_s"] = m["sat.conflicts"] / m["sat.solve_s"]
        extracts = [s for s in spans if s.name == "mcs.extract"]
        found = [s for s in extracts if s.data["found"]]
        found_ids = {id(s) for s in found}
        m["mcs.extract_calls"] = len(extracts)
        m["mcs.found"] = len(found)
        m["mcs.extract_self_s"] = sum(s.self_s for s in extracts)
        solves_in_found = sum(1 for s in spans if s.name == "sat.solve" and id(s.parent) in found_ids)
        m["mcs.solves_per_mcs"] = solves_in_found / max(len(found), 1)
        m["engine.iterations"] = sum(s.data.get("iterations", 0) for s in top)
        m["engine.build_s"] = total("engine.driver", "self_s")
        m["engine.enumerate_s"] = total("engine.mcs_approx")
        m["engine.records"] = sum(s.data.get("records", 0) for s in top)
        m["engine.lower_bounds"] = sum(s.data.get("lower_bounds", 0) for s in top)
        m["engine.mcs_per_record"] = len(found) / max(m["engine.records"], 1)
        m["approx.s"] = total("approx")
        m["model.filter_s"] = total("model.filter")
        return m

    def summary(self, rounds: int) -> Dict[str, float]:
        """Counts of the first round (they repeat exactly); median times over the rounds."""
        per_round = [self.round_metrics(r) for r in range(rounds)]
        out = dict(per_round[0])
        for key in out:
            if key in _TIMES:
                out[key] = statistics.median(m[key] for m in per_round)
        out["sat.props_per_s"] = out["sat.propagations"] / out["sat.solve_s"]
        out["sat.conflicts_per_s"] = out["sat.conflicts"] / out["sat.solve_s"]
        out["quality.eps_s"] = sum(s.duration for s in self.spans if s.name == "quality.eps")
        return out

    def counts_repeat(self, rounds: int) -> bool:
        """True when every counter reads the same in every round."""
        per_round = [self.round_metrics(r) for r in range(rounds)]
        keys = [k for k in per_round[0] if k not in _TIMES]
        return all(m[k] == per_round[0][k] for m in per_round for k in keys)

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent)), **s.data}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))
