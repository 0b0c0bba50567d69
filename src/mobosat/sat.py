"""Self-contained incremental CDCL SAT solver.

MiniSat-style core: two-literal watching, first-UIP learning, VSIDS
branching, phase saving (all-false initial polarity), Luby restarts and
activity-based learnt-clause reduction.  Clause addition is monotone (no
deletion API for problem clauses); callers rebuild a fresh solver when they
need to retract anything other than assumptions.

The solver is fully deterministic: identical call histories yield identical
models.  Literals at the API boundary are DIMACS-style signed integers.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence


class SolveBudgetExceeded(Exception):
    """Raised when a solve call runs past its deadline."""


def _to_code(lit: int) -> int:
    # internal encoding: var<<1 for positive, var<<1|1 for negated
    if lit > 0:
        return lit << 1
    return (-lit << 1) | 1


def _from_code(code: int) -> int:
    var = code >> 1
    return -var if code & 1 else var


class _VarOrder:
    """Indexed binary max-heap over variable activities (deterministic)."""

    def __init__(self, activity: List[float]):
        self.activity = activity
        self.heap: List[int] = []
        self.pos: List[int] = []

    def _lt(self, a: int, b: int) -> bool:
        return self.activity[a] > self.activity[b]

    def _up(self, i: int) -> None:
        heap, pos = self.heap, self.pos
        x = heap[i]
        while i > 0:
            parent = (i - 1) >> 1
            if self._lt(x, heap[parent]):
                heap[i] = heap[parent]
                pos[heap[i]] = i
                i = parent
            else:
                break
        heap[i] = x
        pos[x] = i

    def _down(self, i: int) -> None:
        heap, pos = self.heap, self.pos
        x = heap[i]
        size = len(heap)
        while True:
            left = 2 * i + 1
            if left >= size:
                break
            right = left + 1
            child = right if right < size and self._lt(heap[right], heap[left]) else left
            if self._lt(heap[child], x):
                heap[i] = heap[child]
                pos[heap[i]] = i
                i = child
            else:
                break
        heap[i] = x
        pos[x] = i

    def grow(self, var: int) -> None:
        while len(self.pos) <= var:
            self.pos.append(-1)

    def insert(self, var: int) -> None:
        if self.pos[var] < 0:
            self.pos[var] = len(self.heap)
            self.heap.append(var)
            self._up(self.pos[var])

    def contains(self, var: int) -> bool:
        return self.pos[var] >= 0

    def update(self, var: int) -> None:
        if self.pos[var] >= 0:
            self._up(self.pos[var])

    def pop(self) -> int:
        heap, pos = self.heap, self.pos
        top = heap[0]
        last = heap.pop()
        pos[top] = -1
        if heap:
            heap[0] = last
            pos[last] = 0
            self._down(0)
        return top

    def empty(self) -> bool:
        return not self.heap


def _luby(i: int) -> int:
    # Luby restart sequence: 1,1,2,1,1,2,4,...
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


class SatSolver:
    """Incremental CNF solver: grow clauses monotonically, solve under assumptions."""

    VAR_DECAY = 0.95
    CLA_DECAY = 0.999
    RESTART_BASE = 100

    def __init__(self, seed: int = 0, check_models: bool = False):
        self.seed = seed
        self.check_models = check_models
        self.ok = True
        # var-indexed arrays (index 0 unused)
        self.assigns: List[int] = [0]  # 0 undef, 1 true, -1 false
        self.litval: List[int] = [0, 0]  # indexed by literal code
        self.level: List[int] = [0]
        self.reason: List[int] = [-1]
        self.activity: List[float] = [0.0]
        self.phase: List[int] = [0]  # saved polarity, 0 -> assign false first
        # literal-code-indexed watch lists: watches[code] holds (clause, blocker)
        # pairs to visit when literal `code` becomes false
        self.watches: List[List] = [[], []]
        self.clauses: List[Optional[List[int]]] = []
        self.learnt_idxs: List[int] = []
        self.cla_activity: dict = {}
        self.num_original_clauses = 0
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.order = _VarOrder(self.activity)
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.max_learnts = 0.0
        self.model: List[int] = []
        self.stats = {
            "solve_calls": 0,
            "decisions": 0,
            "conflicts": 0,
            "propagations": 0,
            "restarts": 0,
            "learnt_deleted": 0,
        }

    # ------------------------------------------------------------------
    # variables and clauses

    @property
    def num_vars(self) -> int:
        return len(self.assigns) - 1

    @property
    def num_clauses(self) -> int:
        return self.num_original_clauses

    def new_var(self) -> int:
        var = len(self.assigns)
        self.assigns.append(0)
        self.level.append(0)
        self.reason.append(-1)
        act = 0.0
        if self.seed:
            # tiny, deterministic seed-dependent perturbation of the initial order
            act = ((var * 1103515245 + self.seed * 12345) % 1000003) * 1e-12
        self.activity.append(act)
        self.phase.append(0)
        self.litval.append(0)
        self.litval.append(0)
        self.watches.append([])
        self.watches.append([])
        self.order.grow(var)
        self.order.insert(var)
        return var

    def _value_code(self, code: int) -> int:
        val = self.assigns[code >> 1]
        return -val if code & 1 else val

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause of signed literals.  An empty clause makes the formula unsat."""
        self._cancel_until(0)
        if not self.ok:
            return
        codes = []
        seen = {}
        tautology = False
        for lit in lits:
            code = _to_code(lit)
            var = code >> 1
            if var > self.num_vars:
                raise ValueError(f"unknown variable {var}; call new_var first")
            prev = seen.get(var)
            if prev is None:
                seen[var] = code
                codes.append(code)
            elif prev != code:
                tautology = True
        if tautology:
            return
        # root-level simplification
        filtered = []
        for code in codes:
            val = self._value_code(code)
            if val == 1:
                return  # already satisfied forever
            if val == 0:
                filtered.append(code)
        if not filtered:
            self.ok = False
            return
        if len(filtered) == 1:
            self._unchecked_enqueue(filtered[0], -1)
            if self._propagate() != -1:
                self.ok = False
            return
        self._attach(filtered, learnt=False)

    def _attach(self, codes: List[int], learnt: bool) -> int:
        idx = len(self.clauses)
        self.clauses.append(codes)
        self.watches[codes[0]].append((idx, codes[1]))
        self.watches[codes[1]].append((idx, codes[0]))
        if learnt:
            self.learnt_idxs.append(idx)
            self.cla_activity[idx] = self.cla_inc
        else:
            self.num_original_clauses += 1
        return idx

    # ------------------------------------------------------------------
    # assignment / propagation

    def _unchecked_enqueue(self, code: int, reason_idx: int) -> None:
        var = code >> 1
        self.assigns[var] = -1 if code & 1 else 1
        self.litval[code] = 1
        self.litval[code ^ 1] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason_idx
        self.trail.append(code)

    def _propagate(self) -> int:
        litval = self.litval
        clauses = self.clauses
        watches = self.watches
        trail = self.trail
        confl = -1
        props = 0
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            props += 1
            fl = p ^ 1  # literal that just became false
            ws = watches[fl]
            i = j = 0
            n = len(ws)
            while i < n:
                entry = ws[i]
                i += 1
                if litval[entry[1]] == 1:
                    ws[j] = entry
                    j += 1
                    continue
                idx = entry[0]
                cl = clauses[idx]
                if cl is None:
                    continue  # deleted learnt, drop watcher lazily
                if cl[0] == fl:
                    cl[0] = cl[1]
                    cl[1] = fl
                first = cl[0]
                fval = litval[first]
                if fval == 1:
                    ws[j] = (idx, first)
                    j += 1
                    continue
                found = False
                for k in range(2, len(cl)):
                    lk = cl[k]
                    if litval[lk] != -1:
                        cl[1] = lk
                        cl[k] = fl
                        watches[lk].append((idx, first))
                        found = True
                        break
                if found:
                    continue
                ws[j] = (idx, first)
                j += 1
                if fval == -1:
                    # conflict: keep remaining watchers, stop
                    while i < n:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    self.qhead = len(trail)
                    confl = idx
                else:
                    self._unchecked_enqueue(first, idx)
            del ws[j:]
            if confl != -1:
                break
        self.stats["propagations"] += props
        return confl

    def _cancel_until(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        bound = self.trail_lim[target]
        litval = self.litval
        order = self.order
        for pos in range(len(self.trail) - 1, bound - 1, -1):
            code = self.trail[pos]
            var = code >> 1
            self.phase[var] = 0 if code & 1 else 1
            self.assigns[var] = 0
            litval[code] = 0
            litval[code ^ 1] = 0
            self.reason[var] = -1
            if not order.contains(var):
                order.insert(var)
        del self.trail[bound:]
        del self.trail_lim[target:]
        self.qhead = len(self.trail)

    # ------------------------------------------------------------------
    # conflict analysis

    def _bump_var(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, len(self.activity)):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
        self.order.update(var)

    def _bump_clause(self, idx: int) -> None:
        if idx in self.cla_activity:
            self.cla_activity[idx] += self.cla_inc
            if self.cla_activity[idx] > 1e20:
                for key in self.cla_activity:
                    self.cla_activity[key] *= 1e-20
                self.cla_inc *= 1e-20

    def _analyze(self, confl: int) -> tuple[List[int], int]:
        learnt = [0]
        seen = bytearray(self.num_vars + 1)
        counter = 0
        p = -1
        idx = len(self.trail) - 1
        current = len(self.trail_lim)
        while True:
            cl = self.clauses[confl]
            self._bump_clause(confl)
            for q in cl if p == -1 else cl[1:]:
                var = q >> 1
                if not seen[var] and self.level[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if self.level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[idx] >> 1]:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            seen[p >> 1] = 0
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[p >> 1]
        learnt[0] = p ^ 1
        # cheap clause minimization: drop literals implied by the rest
        if len(learnt) > 1:
            minimized = [learnt[0]]
            for q in learnt[1:]:
                reason_idx = self.reason[q >> 1]
                if reason_idx == -1:
                    minimized.append(q)
                    continue
                if any(not seen[r >> 1] and self.level[r >> 1] > 0
                       for r in self.clauses[reason_idx] if r != (q ^ 1)):
                    minimized.append(q)
                else:
                    seen[q >> 1] = 0
            learnt = minimized
        if len(learnt) == 1:
            bt = 0
        else:
            # move the highest-level literal to position 1
            max_i = 1
            for i in range(2, len(learnt)):
                if self.level[learnt[i] >> 1] > self.level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt = self.level[learnt[1] >> 1]
        return learnt, bt

    def _reduce_db(self) -> None:
        locked = set()
        for idx in self.learnt_idxs:
            cl = self.clauses[idx]
            if cl is not None and self.reason[cl[0] >> 1] == idx and self._value_code(cl[0]) == 1:
                locked.add(idx)
        live = [idx for idx in self.learnt_idxs if self.clauses[idx] is not None]
        live.sort(key=lambda idx: (self.cla_activity.get(idx, 0.0), idx))
        target = len(live) // 2
        removed = 0
        kept = []
        for idx in live:
            cl = self.clauses[idx]
            if removed < target and idx not in locked and len(cl) > 2:
                self.clauses[idx] = None
                self.cla_activity.pop(idx, None)
                removed += 1
            else:
                kept.append(idx)
        self.learnt_idxs = kept
        self.stats["learnt_deleted"] += removed

    # ------------------------------------------------------------------
    # search

    def _pick_branch(self) -> int:
        order = self.order
        assigns = self.assigns
        while not order.empty():
            var = order.pop()
            if assigns[var] == 0:
                return (var << 1) | (0 if self.phase[var] else 1)
        return -1

    def solve(self, assumptions: Sequence[int] = (), deadline: Optional[float] = None) -> bool:
        """Solve under unit assumptions.

        Returns True with a complete model, or False (unsatisfiable under the
        assumptions).  Raises SolveBudgetExceeded once ``deadline``
        (time.monotonic seconds) has passed; the clock is read before every
        propagation pass, so a call overruns by at most one pass.
        """
        self.stats["solve_calls"] += 1
        self._cancel_until(0)
        if not self.ok:
            return False
        if self._propagate() != -1:
            self.ok = False
            return False
        assume_codes = []
        for lit in assumptions:
            code = _to_code(lit)
            if code >> 1 > self.num_vars:
                raise ValueError(f"unknown assumption variable {code >> 1}")
            assume_codes.append(code)
        if self.max_learnts <= 0:
            self.max_learnts = max(1000.0, self.num_original_clauses / 3.0)
        conflicts_left = self.RESTART_BASE * _luby(self.stats["restarts"])
        while True:
            if deadline is not None and time.monotonic() > deadline:
                self._cancel_until(0)
                raise SolveBudgetExceeded()
            confl = self._propagate()
            if confl != -1:
                self.stats["conflicts"] += 1
                conflicts_left -= 1
                if not self.trail_lim:
                    self.ok = False
                    return False
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                if len(learnt) == 1:
                    self._unchecked_enqueue(learnt[0], -1)
                else:
                    idx = self._attach(learnt, learnt=True)
                    self._unchecked_enqueue(learnt[0], idx)
                self.var_inc /= self.VAR_DECAY
                self.cla_inc /= self.CLA_DECAY
                continue
            if conflicts_left <= 0:
                self.stats["restarts"] += 1
                self._cancel_until(0)
                conflicts_left = self.RESTART_BASE * _luby(self.stats["restarts"])
                continue
            if len(self.learnt_idxs) - len(self.trail) > self.max_learnts:
                self._reduce_db()
                self.max_learnts *= 1.1
            if len(self.trail_lim) < len(assume_codes):
                code = assume_codes[len(self.trail_lim)]
                val = self._value_code(code)
                if val == 1:
                    self.trail_lim.append(len(self.trail))  # dummy level
                    continue
                if val == -1:
                    self._cancel_until(0)
                    return False
                self.trail_lim.append(len(self.trail))
                self._unchecked_enqueue(code, -1)
                continue
            code = self._pick_branch()
            if code == -1:
                self.model = list(self.assigns)
                self._cancel_until(0)
                if self.check_models:
                    self._verify_model(assume_codes)
                return True
            self.stats["decisions"] += 1
            self.trail_lim.append(len(self.trail))
            self._unchecked_enqueue(code, -1)

    # ------------------------------------------------------------------
    # results and helpers

    def _verify_model(self, assume_codes) -> None:
        model = self.model
        for code in assume_codes:
            value = model[code >> 1]
            if (value == -1) != bool(code & 1):
                raise AssertionError(f"model violates assumption {_from_code(code)}")
        learnt = set(self.learnt_idxs)
        for idx, cl in enumerate(self.clauses):
            if cl is None or idx in learnt:
                continue
            for code in cl:
                value = model[code >> 1]
                if (value == -1) == bool(code & 1):
                    break
            else:
                raise AssertionError(
                    f"model violates clause {[_from_code(c) for c in cl]}")

    def model_value(self, lit: int) -> bool:
        """Value of a signed literal in the last model."""
        if not self.model:
            raise RuntimeError("no model available")
        val = self.model[abs(lit)]
        return val == 1 if lit > 0 else val == -1

    def model_assignment(self, num_vars: Optional[int] = None) -> tuple:
        """The last model as a 0/1 tuple for variables 1..num_vars."""
        if not self.model:
            raise RuntimeError("no model available")
        n = num_vars if num_vars is not None else self.num_vars
        return tuple(1 if self.model[v] == 1 else 0 for v in range(1, n + 1))

    def propagate_root(self) -> bool:
        """Run unit propagation at level 0; False means the formula is unsat."""
        self._cancel_until(0)
        if not self.ok:
            return False
        if self._propagate() != -1:
            self.ok = False
            return False
        return True

    def fixed_literals(self) -> List[int]:
        """Signed literals forced at decision level 0 (call propagate_root first)."""
        if self.trail_lim:
            bound = self.trail_lim[0]
        else:
            bound = len(self.trail)
        return [_from_code(code) for code in self.trail[:bound]]

    def to_dimacs(self) -> str:
        """Dump the problem clauses (not learnts) in DIMACS CNF format."""
        learnt = set(self.learnt_idxs) | set(self.cla_activity)
        body = []
        if not self.trail_lim:
            for code in self.trail:
                body.append(f"{_from_code(code)} 0")
        for idx, cl in enumerate(self.clauses):
            if cl is None or idx in learnt:
                continue
            body.append(" ".join(str(_from_code(c)) for c in cl) + " 0")
        header = f"p cnf {self.num_vars} {len(body)}"
        return "\n".join([header] + body) + "\n"
