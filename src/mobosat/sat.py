"""Self-contained incremental CDCL SAT solver.

MiniSat-style core: two-literal watching, first-UIP learning, VSIDS
branching, phase saving (all-false initial polarity) and Luby restarts.
There is no learnt-clause reduction: every learnt clause is kept for the
solver's lifetime.  Clause addition is monotone (no deletion API for problem
clauses); callers rebuild a fresh solver when they need to retract anything
other than assumptions.

The solver is fully deterministic: identical call histories yield identical
models.  Literals at the API boundary are DIMACS-style signed integers.

The fast paths rely on four invariants:

- the literal a reason clause implies sits at ``cl[0]``: ``_propagate``
  moves the false watched literal to ``cl[1]`` before it implies ``cl[0]``,
  and ``_analyze`` resolves on ``cl[1:]``;
- a binary clause's blocker is always its other literal, so ``_propagate``
  reads the blocker's value to decide unit or conflict and never seeks a
  new watch in it;
- heap ties are broken by heap layout, so any change to what enters the
  branching heap, or in which order (the order analysis bumps a clause's
  literals included), changes the search;
- outside ``solve`` the solver is at decision level 0: every exit of
  ``solve`` (a model, UNSAT, a false assumption, SolveBudgetExceeded, a bad
  assumption) happens at or cancels to level 0 first, so ``add_clause``,
  ``propagate_root``, ``fixed_literals`` and ``to_dimacs`` never backtrack.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence


class SolveBudgetExceeded(Exception):
    """Raised once the solver's ``deadline`` has passed: by ``solve``, and by
    the encoders before they emit a clause into the solver."""


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
        self.pos: List[int] = [-1]  # heap index per var, -1 when out

    def insert(self, codes: Iterable[int]) -> None:
        """Insert the variables of the literal ``codes``, in order, skipping
        those already in the heap."""
        heap, pos = self.heap, self.pos
        for code in codes:
            x = code >> 1
            if pos[x] >= 0:
                continue
            pos[x] = len(heap)
            heap.append(x)
            self.update(x)

    def update(self, var: int) -> None:
        """Sift ``var`` up after its activity grew, if it is in the heap."""
        heap, pos, activity = self.heap, self.pos, self.activity
        i = pos[var]
        ax = activity[var]
        while i > 0:
            parent = (i - 1) >> 1
            y = heap[parent]
            if ax > activity[y]:
                heap[i] = y
                pos[y] = i
                i = parent
            else:
                break
        if i >= 0:
            heap[i] = var
            pos[var] = i

    def pop_unassigned(self, litval: List[int]) -> int:
        """Pop variables until one is unassigned in ``litval``; return it, or
        0 once the heap is empty."""
        heap, pos, activity = self.heap, self.pos, self.activity
        while heap:
            top = heap[0]
            x = heap.pop()
            pos[top] = -1
            if heap:
                # sift the last variable down from the root
                ax = activity[x]
                size = len(heap)
                i = 0
                while True:
                    child = 2 * i + 1
                    if child >= size:
                        break
                    y = heap[child]
                    ay = activity[y]
                    if child + 1 < size:
                        z = heap[child + 1]
                        if activity[z] > ay:
                            child += 1
                            y = z
                            ay = activity[z]
                    if ay > ax:
                        heap[i] = y
                        pos[y] = i
                        i = child
                    else:
                        break
                heap[i] = x
                pos[x] = i
            if litval[top << 1] == 0:
                return top
        return 0


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
    """Incremental CNF solver: grow clauses monotonically, solve under assumptions.

    ``deadline`` (``time.monotonic()`` seconds, None for no limit) bounds the
    wall time spent searching in this solver and encoding into it.
    """

    VAR_DECAY = 0.95
    RESTART_BASE = 100

    def __init__(self, check_models: bool = False):
        self.check_models = check_models
        self.ok = True
        self.deadline: Optional[float] = None
        # literal-code-indexed values: 0 undef, 1 true, -1 false; litval[2v]
        # is var v's value
        self.litval: List[int] = [0, 0]
        # var-indexed arrays (index 0 unused)
        self.level: List[int] = [0]
        self.reason: List[Optional[List[int]]] = [None]  # implying clause
        self.activity: List[float] = [0.0]
        self.phase: List[int] = [0]  # saved polarity, 0 -> assign false first
        # literal-code-indexed watch lists: watches[code] holds (clause, blocker)
        # pairs to visit when literal `code` becomes false; the clause is the
        # list in `clauses` itself
        self.watches: List[List] = [[], []]
        self.clauses: List[List[int]] = []
        self.learnt_idxs: List[int] = []
        self.num_clauses = 0  # problem clauses attached (learnt ones excluded)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.order = _VarOrder(self.activity)
        self.var_inc = 1.0
        self.model: List[int] = []
        self.stats = {
            "solve_calls": 0,
            "decisions": 0,
            "conflicts": 0,
            "propagations": 0,
            "restarts": 0,
        }

    # ------------------------------------------------------------------
    # variables and clauses

    @property
    def num_vars(self) -> int:
        return len(self.level) - 1

    def new_var(self) -> int:
        var = len(self.level)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(0)
        self.litval.append(0)
        self.litval.append(0)
        self.watches.append([])
        self.watches.append([])
        self.order.pos.append(-1)
        self.order.insert((var << 1,))
        return var

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause of signed literals.  An empty clause makes the formula unsat."""
        if not self.ok:
            return
        num_vars = len(self.level) - 1
        seen = {}  # var -> its first literal code, in clause order
        tautology = False
        for lit in lits:
            code = lit << 1 if lit > 0 else -lit << 1 | 1
            var = code >> 1
            if not 0 < var <= num_vars:
                raise ValueError(f"unknown variable {var}; call new_var first")
            if seen.setdefault(var, code) != code:
                tautology = True
        if tautology:
            return
        # root-level simplification
        litval = self.litval
        if 1 in [litval[code] for code in seen.values()]:
            return  # already satisfied forever
        filtered = [code for code in seen.values() if litval[code] == 0]
        if not filtered:
            self.ok = False
            return
        if len(filtered) == 1:
            self._unchecked_enqueue(filtered[0], None)
            if self._propagate() is not None:
                self.ok = False
            return
        self._attach(filtered, learnt=False)

    def _attach(self, codes: List[int], learnt: bool) -> None:
        idx = len(self.clauses)
        self.clauses.append(codes)
        self.watches[codes[0]].append((codes, codes[1]))
        self.watches[codes[1]].append((codes, codes[0]))
        if learnt:
            self.learnt_idxs.append(idx)
        else:
            self.num_clauses += 1

    # ------------------------------------------------------------------
    # assignment / propagation

    def _unchecked_enqueue(self, code: int, reason: Optional[List[int]]) -> None:
        var = code >> 1
        self.litval[code] = 1
        self.litval[code ^ 1] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(code)

    def _propagate(self) -> Optional[List[int]]:
        """Propagate the trail from ``qhead``; return a conflict clause or None."""
        litval = self.litval
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        push = trail.append
        current = len(self.trail_lim)
        qhead = start = self.qhead
        confl = None
        while qhead < len(trail):
            fl = trail[qhead] ^ 1  # literal that just became false
            qhead += 1
            ws = watches[fl]
            j = 0
            visit = iter(ws)
            for entry in visit:
                cl, first = entry
                fval = litval[first]
                if fval == 1:
                    ws[j] = entry
                    j += 1
                    continue
                if cl[0] == fl:
                    cl[0] = cl[1]
                    cl[1] = fl
                if len(cl) > 2:  # a binary clause's blocker is its other literal
                    if cl[0] != first:
                        first = cl[0]
                        entry = (cl, first)
                        fval = litval[first]
                        if fval == 1:
                            ws[j] = entry
                            j += 1
                            continue
                    for k in range(2, len(cl)):
                        lk = cl[k]
                        if litval[lk] != -1:
                            cl[1] = lk
                            cl[k] = fl
                            watches[lk].append(entry)
                            break
                    if cl[1] != fl:
                        continue  # the watch moved to cl[1]
                ws[j] = entry
                j += 1
                if fval == -1:
                    confl = cl
                    break
                litval[first] = 1
                litval[first ^ 1] = -1
                var = first >> 1
                level[var] = current
                reason[var] = cl
                push(first)
            if confl is not None:
                ws[j:] = list(visit)  # keep the watchers not yet visited
                break
            del ws[j:]
        self.stats["propagations"] += qhead - start
        self.qhead = len(trail)
        return confl

    def _cancel_until(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        trail = self.trail
        bound = self.trail_lim[target]
        litval, phase = self.litval, self.phase
        undone = trail[bound:]
        undone.reverse()
        for code in undone:
            phase[code >> 1] = (code & 1) ^ 1
            litval[code] = 0
            litval[code ^ 1] = 0
        self.order.insert(undone)
        del trail[bound:]
        del self.trail_lim[target:]
        self.qhead = bound

    # ------------------------------------------------------------------
    # conflict analysis

    def _analyze(self, confl: List[int]) -> tuple[List[int], int]:
        level, reason, trail = self.level, self.reason, self.trail
        activity, order = self.activity, self.order
        learnt = [0]
        seen = bytearray(len(level))
        counter = 0
        p = -1
        idx = len(trail) - 1
        current = len(self.trail_lim)
        cl = confl
        while True:
            for q in cl if p == -1 else cl[1:]:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    activity[var] += self.var_inc
                    if activity[var] > 1e100:
                        for v in range(1, len(activity)):
                            activity[v] *= 1e-100
                        self.var_inc *= 1e-100
                    order.update(var)
                    if level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            seen[p >> 1] = 0
            counter -= 1
            if counter == 0:
                break
            cl = reason[p >> 1]
        learnt[0] = p ^ 1
        # cheap clause minimization: drop literals implied by the rest
        if len(learnt) > 1:
            minimized = [learnt[0]]
            for q in learnt[1:]:
                cl = reason[q >> 1]
                if cl is None:
                    minimized.append(q)
                    continue
                if any(not seen[r >> 1] and level[r >> 1] > 0
                       for r in cl if r != (q ^ 1)):
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
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt = level[learnt[1] >> 1]
        return learnt, bt

    # ------------------------------------------------------------------
    # search

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Solve under unit assumptions.

        Returns True with a complete model, or False (unsatisfiable under the
        assumptions).  Raises SolveBudgetExceeded once ``self.deadline`` has
        passed; the clock is read before every propagation pass, so a call
        overruns by at most one pass.
        """
        self.stats["solve_calls"] += 1
        if not self.propagate_root():
            return False
        assume_codes = []
        for lit in assumptions:
            code = _to_code(lit)
            if not 0 < code >> 1 <= self.num_vars:
                raise ValueError(f"unknown assumption variable {code >> 1}")
            assume_codes.append(code)
        conflicts_left = self.RESTART_BASE * _luby(self.stats["restarts"])
        deadline = self.deadline
        while True:
            if deadline is not None and time.monotonic() > deadline:
                self._cancel_until(0)
                raise SolveBudgetExceeded()
            confl = self._propagate()
            if confl is not None:
                self.stats["conflicts"] += 1
                conflicts_left -= 1
                if not self.trail_lim:
                    self.ok = False
                    return False
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                if len(learnt) == 1:
                    self._unchecked_enqueue(learnt[0], None)
                else:
                    self._attach(learnt, learnt=True)
                    self._unchecked_enqueue(learnt[0], learnt)
                self.var_inc /= self.VAR_DECAY
                continue
            if conflicts_left <= 0:
                self.stats["restarts"] += 1
                self._cancel_until(0)
                conflicts_left = self.RESTART_BASE * _luby(self.stats["restarts"])
                continue
            if len(self.trail_lim) < len(assume_codes):
                code = assume_codes[len(self.trail_lim)]
                val = self.litval[code]
                if val == 1:
                    self.trail_lim.append(len(self.trail))  # dummy level
                    continue
                if val == -1:
                    self._cancel_until(0)
                    return False
                self.trail_lim.append(len(self.trail))
                self._unchecked_enqueue(code, None)
                continue
            var = self.order.pop_unassigned(self.litval)
            if not var:
                self.model = self.litval[0::2]
                self._cancel_until(0)
                if self.check_models:
                    self._verify_model(assume_codes)
                return True
            self.stats["decisions"] += 1
            self.trail_lim.append(len(self.trail))
            self._unchecked_enqueue((var << 1) | (self.phase[var] ^ 1), None)

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
            if idx in learnt:
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
        if not self.ok:
            return False
        if self._propagate() is not None:
            self.ok = False
            return False
        return True

    def fixed_literals(self) -> List[int]:
        """Signed literals forced at decision level 0 (call propagate_root first)."""
        return [_from_code(code) for code in self.trail]

    def to_dimacs(self) -> str:
        """Dump the problem clauses (not learnts) in DIMACS CNF format."""
        learnt = set(self.learnt_idxs)
        body = [f"{_from_code(code)} 0" for code in self.trail]
        for idx, cl in enumerate(self.clauses):
            if idx in learnt:
                continue
            body.append(" ".join(str(_from_code(c)) for c in cl) + " 0")
        header = f"p cnf {self.num_vars} {len(body)}"
        return "\n".join([header] + body) + "\n"
