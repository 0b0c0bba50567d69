"""Self-contained incremental CDCL SAT solver with native linear thresholds.

MiniSat-style core: two-literal watching, first-UIP learning, VSIDS
branching, phase saving (all-false initial polarity) and Luby restarts.
There is no learnt-clause reduction: every learnt clause is kept for the
solver's lifetime.  Clause addition is monotone (no deletion API for problem
clauses); callers rebuild a fresh solver when they need to retract anything
other than assumptions.

Besides clauses the solver holds linear sums ``S = sum w_j * l_j``
(``new_linear``) with threshold variables ``y(b) <-> S < b``
(``threshold``), propagated natively by lazy clause generation (Ohrimenko,
Stuckey & Codish, Constraints 2009): from the bounds of ``S`` onto the
thresholds, along the chain of neighbouring thresholds, and back from the
smallest true and the largest false threshold onto the sum's literals.
Every implication carries an explanation clause, which conflict analysis
reads like any other reason; one that rests on the bounds is built only
when analysis reads it (``_explain``).  Once every literal of a sum is
assigned, its bounds meet and propagation fixes every threshold.  Threshold
variables are branched on too, as true first ("the sum is below b"): on
acceptance criterion 8, CoRe's first iteration took 149.5 s without that
and about 49 s with it.  A sum whose explanations keep feeding conflicts
is rebuilt over partial sums at a restart (``_split``, lazy decomposition
after Abio & Stuckey, CP 2012), so that learnt clauses can name partial
sums as a CNF totalizer's would; that took the same iteration to 20 s.

The solver is fully deterministic: identical call histories yield identical
models.  Literals at the API boundary are DIMACS-style signed integers.

The fast paths rely on these invariants:

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
  ``propagate_root``, ``fixed_literals``, ``threshold`` and ``to_dimacs``
  never backtrack;
- a linear sum counts a literal of the trail in its bounds once
  ``_propagate`` has dequeued it, so the literals it counts, and the
  thresholds it has seen assigned, stand in trail order: ``_cancel_until``
  undoes them by popping while the level is too high, and a deferred
  explanation draws on the first ``count`` of them, which were counted
  before the literal it explains was implied;
- a sum runs only when something it counts changed, after the clauses have
  propagated, and every decision is taken at a fixpoint of both, so every
  conflict clause holds a literal of the current level;
- terms, thresholds and sums change only at decision level 0.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# largest split (SatSolver._split), in threshold variables per term: on
# criterion 8's objectives, rounded at ratio 11 they need 5 to 9, with their
# 44 and 49 distinct weights 70 to 104
_TREE_PER_TERM = 16


class SolveBudgetExceeded(Exception):
    """Raised once the solver's ``deadline`` has passed: by ``solve``, by
    ``threshold`` before it creates a variable, and by the encoders before
    they emit a clause into the solver."""


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


def _mask(terms: Sequence[Tuple[int, int]]) -> int:
    """The attainable sums of ``(weight, literal)`` terms as a bit mask."""
    mask = 1
    for w, _ in terms:
        mask |= mask << w
    return mask


def _bits(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, ascending."""
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def _tree_size(terms: Sequence[Tuple[int, int]]) -> int:
    """Threshold variables ``_halves`` would create for ``terms``."""
    half = len(terms) // 2
    return sum(_mask(part).bit_count() - 1 + _tree_size(part)
               for part in (terms[:half], terms[half:]) if len(part) > 1)


def _halves(solver: "SatSolver", terms: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Terms with the sum of ``terms``, over the partial sums of its two halves.

    A half of one term stays as it is.  A longer half becomes a linear sum
    ``S`` of its own ``_halves``, with a threshold at each attainable value,
    and enters as the terms ``(v - u, [S >= v])`` over its consecutive
    attainable values ``u < v``: a native totalizer node, never split itself.
    """
    out = []
    half = len(terms) // 2
    for part in (terms[:half], terms[half:]):
        if len(part) == 1:
            out += part
            continue
        node = solver.new_linear(_halves(solver, part))
        node.settled = True
        values = _bits(_mask(part))
        out += [(v - u, -solver.threshold(node, v)) for u, v in zip(values, values[1:])]
    return out


class _Linear:
    """One linear sum ``S = sum w * l`` and its threshold variables.

    ``terms`` holds ``(w, code)`` pairs, heaviest first.  The thresholds
    ``bounds`` (ascending) and ``vars`` pair each bound ``b`` with the
    variable of ``S < b``.  The bounds of ``S`` under the assignment are
    ``lo = tsum[-1]`` and ``hi = total - fsum[-1]``: ``trues`` and ``falses``
    hold, in trail order, the codes of the term literals counted true and
    false, and ``tsum``/``fsum`` their weights' prefix sums.  ``fstack`` and
    ``tstack`` hold ``(b, code)`` of the largest false and smallest true
    threshold seen, each entry tighter than the one below it; ``code`` is
    the true literal, ``~y(b)`` or ``y(b)``.  A sentinel at the bottom of
    each stack says ``S >= 0`` and ``S < total + 1``.  The lowest
    ``fwalked``/``twalked`` entries of each stack have had the chain below
    or above them propagated.  ``explained`` counts the explanation clauses
    built; ``settled`` marks a partial-sum node, or a sum ``SatSolver._split``
    has seen.
    """

    __slots__ = ("terms", "weight", "total", "bounds", "vars", "trues", "tsum", "falses",
                 "fsum", "fstack", "tstack", "fwalked", "twalked", "dirty", "explained", "settled")

    def __init__(self, total: int):
        self.total = total
        self.terms: List[Tuple[int, int]] = []  # set by SatSolver._set_terms
        self.weight: Dict[int, int] = {}
        self.trues: List[int] = []
        self.tsum = [0]
        self.falses: List[int] = []
        self.fsum = [0]
        self.bounds: List[int] = []
        self.vars: List[int] = []
        self.fstack: List[Tuple[int, int]] = [(0, -1)]
        self.tstack: List[Tuple[int, int]] = [(self.total + 1, -1)]
        self.fwalked = self.twalked = 1
        self.dirty = False
        self.explained = 0
        self.settled = False

    def signed_terms(self) -> List[Tuple[int, int]]:
        """``(weight, signed literal)`` pairs, heaviest first."""
        return [(w, _from_code(c)) for w, c in self.terms]

    def thresholds(self) -> List[Tuple[int, int]]:
        """``(b, var)`` pairs of the variables ``S < b``, ascending in ``b``."""
        return list(zip(self.bounds, self.vars))


class SatSolver:
    """Incremental CNF solver: grow clauses monotonically, solve under assumptions.

    ``deadline`` (``time.monotonic()`` seconds, None for no limit) bounds the
    wall time spent searching in this solver and encoding into it.
    ``explain_hook``, when set, is called as ``hook(linear, clause)`` with
    every explanation clause a linear sum builds, before it is used.
    """

    VAR_DECAY = 0.95
    RESTART_BASE = 100
    # explanations a linear sum builds before the restart that may split it
    # (``_split``)
    BUSY_EXPLANATIONS = 500

    def __init__(self, check_models: bool = False):
        self.check_models = check_models
        self.ok = True
        self.deadline: Optional[float] = None
        # literal-code-indexed values: 0 undef, 1 true, -1 false; litval[2v]
        # is var v's value
        self.litval: List[int] = [0, 0]
        # var-indexed arrays (index 0 unused)
        self.level: List[int] = [0]
        # implying clause, or a linear sum's deferred reason (see _explain)
        self.reason: List[Optional[List[int]]] = [None]
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
        # linear sums; lwatch[code] holds (sum, kind, value) to visit when
        # literal `code` becomes true: kind 0/1 a term literal true/false
        # (value its weight), kind 2/3 a threshold true/false (value its bound)
        self.linears: List[_Linear] = []
        self.lwatch: List[List] = [[], []]
        self.dirty: List[_Linear] = []
        self.explain_hook: Optional[Callable[[_Linear, List[int]], None]] = None
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

    @property
    def num_thresholds(self) -> int:
        """Threshold variables created over every linear sum."""
        return sum(len(lin.vars) for lin in self.linears)

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
        self.lwatch.append([])
        self.lwatch.append([])
        self.order.pos.append(-1)
        self.order.insert((var << 1,))
        return var

    def new_linear(self, terms: Iterable[Tuple[int, int]]) -> _Linear:
        """A linear sum over ``(weight >= 1, signed literal)`` terms, one per
        variable, with no thresholds yet."""
        codes = self._term_codes(terms)
        lin = _Linear(sum(w for w, _ in codes))
        self._set_terms(lin, codes)
        self.linears.append(lin)
        return lin

    def _split(self, lin: _Linear) -> None:
        """Rebuild the busy sum ``lin`` over partial sums (``_halves``), so
        that its explanations, which conflict analysis learns over, name
        partial sums in place of single terms (lazy decomposition after Abio
        & Stuckey, CP 2012).  Called at a restart, once per sum.  A sum of
        two terms or fewer, or one past ``_TREE_PER_TERM`` threshold
        variables per term (many distinct weights), stays whole.  On
        criterion 8 this cut CoRe's first iteration from about 46,000
        conflicts to 8,313; splitting sums when they are made gave 9,137, and
        about six times the solve time on the benchmark's anytime workloads,
        whose sums seldom get busy.
        """
        lin.settled = True
        terms = sorted(lin.signed_terms())  # equal weights side by side: few partial sums
        if len(terms) <= 2 or _tree_size(terms) > _TREE_PER_TERM * len(terms):
            return
        codes = self._term_codes(_halves(self, terms))
        lwatch = self.lwatch
        for _, code in lin.terms:
            for c in (code, code ^ 1):
                lwatch[c] = [entry for entry in lwatch[c] if entry[0] is not lin]
        self._set_terms(lin, codes)
        self._wake_at_root(lin)

    def _wake_at_root(self, lin: _Linear) -> None:
        """Run ``lin`` and what it implies at decision level 0."""
        if self.ok:
            lin.dirty = True
            self.dirty.append(lin)
            if self._propagate() is not None:
                self.ok = False

    def _term_codes(self, terms: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """``(weight, literal code)`` pairs of checked terms, heaviest first."""
        codes = sorted(((w, _to_code(lit)) for w, lit in terms), key=lambda t: (-t[0], t[1]))
        for w, code in codes:
            if not 0 < code >> 1 <= self.num_vars:
                raise ValueError(f"unknown variable {code >> 1}; call new_var first")
            if w < 1:
                raise ValueError(f"weight must be >= 1, got {w}")
        return codes

    def _set_terms(self, lin: _Linear, codes: List[Tuple[int, int]]) -> None:
        """Install the term ``codes`` on ``lin``, counting the literals fixed
        at the root."""
        if self.ok and self._propagate() is not None:  # count each root literal once
            self.ok = False
        lin.terms = codes
        lin.weight = {code: w for w, code in codes}
        lin.trues, lin.tsum, lin.falses, lin.fsum = [], [0], [], [0]
        lin.fwalked = lin.twalked = 1
        litval, lwatch = self.litval, self.lwatch
        for w, code in codes:
            lwatch[code].append((lin, 0, w))
            lwatch[code ^ 1].append((lin, 1, w))
            if litval[code] == 1:
                lin.trues.append(code)
                lin.tsum.append(lin.tsum[-1] + w)
            elif litval[code] == -1:
                lin.falses.append(code)
                lin.fsum.append(lin.fsum[-1] + w)

    def threshold(self, lin: _Linear, bound: int) -> int:
        """The variable of ``S < bound`` for ``0 < bound <= total``, created
        and propagated at the root on first request.  It is branched on as
        true first, and ahead of the variables no conflict has bumped yet.

        Raises SolveBudgetExceeded instead of creating one once the deadline
        has passed.
        """
        i = bisect_left(lin.bounds, bound)
        if i < len(lin.bounds) and lin.bounds[i] == bound:
            return lin.vars[i]
        if not 0 < bound <= lin.total:
            raise ValueError(f"threshold {bound} outside (0, {lin.total}]")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolveBudgetExceeded()
        var = self.new_var()
        self.phase[var] = 1
        self.activity[var] = self.var_inc
        self.order.update(var)
        lin.bounds.insert(i, bound)
        lin.vars.insert(i, var)
        lin.fwalked = lin.twalked = 1  # the chains must reach the new variable
        self.lwatch[var << 1].append((lin, 2, bound))
        self.lwatch[var << 1 | 1].append((lin, 3, bound))
        self._wake_at_root(lin)
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
        """Propagate the trail from ``qhead``, then the linear sums whose
        counts changed, until neither has more; return a conflict clause or
        None."""
        litval = self.litval
        watches = self.watches
        lwatch = self.lwatch
        dirty = self.dirty
        trail = self.trail
        level = self.level
        reason = self.reason
        push = trail.append
        current = len(self.trail_lim)
        qhead = start = self.qhead
        confl = None
        while True:
            while qhead < len(trail):
                p = trail[qhead]
                fl = p ^ 1  # literal that just became false
                qhead += 1
                events = lwatch[p]
                if events:
                    for lin, kind, value in events:
                        if kind == 0:
                            lin.trues.append(p)
                            lin.tsum.append(lin.tsum[-1] + value)
                        elif kind == 1:
                            lin.falses.append(fl)
                            lin.fsum.append(lin.fsum[-1] + value)
                        elif kind == 2:
                            if value >= lin.tstack[-1][0]:
                                continue
                            lin.tstack.append((value, p))
                        else:
                            if value <= lin.fstack[-1][0]:
                                continue
                            lin.fstack.append((value, p))
                        if not lin.dirty:
                            lin.dirty = True
                            dirty.append(lin)
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
            if confl is not None or not dirty:
                break
            batch = dirty[:]
            dirty.clear()
            for lin in batch:
                lin.dirty = False
            for lin in batch:
                confl = self._run_linear(lin)
                if confl is not None:
                    break
            if confl is not None:
                break
        if confl is not None:
            for lin in dirty:
                lin.dirty = False
            dirty.clear()
        self.stats["propagations"] += qhead - start
        self.qhead = len(trail)
        return confl

    def _run_linear(self, lin: _Linear) -> Optional[List[int]]:
        """Propagate one linear sum from its bounds and its tightest assigned
        thresholds; return a conflict clause or None.

        Each implied literal is enqueued with a deferred reason,
        ``(sum, literal, threshold literal or -1, side, need, count)``, which
        ``_explain`` turns into a clause only if conflict analysis reads it;
        along the chain that clause is the two threshold literals alone.
        """
        litval = self.litval
        enqueue = self._unchecked_enqueue
        bounds, ys = lin.bounds, lin.vars
        total = lin.total
        ntrue, nfalse = len(lin.trues), len(lin.falses)
        lo = lin.tsum[-1]
        hi = total - lin.fsum[-1]
        fb, fcode = lin.fstack[-1]  # S >= fb, shown by the true literal fcode
        tb, tcode = lin.tstack[-1]  # S < tb, shown by the true literal tcode
        size = len(bounds)

        # thresholds at or below lo are false: imply the highest of them, and
        # its own turn carries it down the chain
        g = bisect_left(bounds, fb)
        e = bisect_right(bounds, lo)
        if e > g:
            code = ys[e - 1] << 1 | 1
            if litval[code] != 1:
                why = (lin, code, -1, 0, bounds[e - 1], ntrue)
                if litval[code] == -1:
                    return self._explain(why)
                enqueue(code, why)
        # thresholds above hi are true: imply the lowest of them
        h = bisect_right(bounds, hi)
        t = bisect_left(bounds, tb)
        if h < t:
            code = ys[h] << 1
            if litval[code] != 1:
                why = (lin, code, -1, 1, total - bounds[h] + 1, nfalse)
                if litval[code] == -1:
                    return self._explain(why)
                enqueue(code, why)
        # the chain: below a false threshold all are false, above a true one
        # all are true; each walk stops where an earlier walk began
        fstack, tstack = lin.fstack, lin.tstack
        if len(fstack) > lin.fwalked:
            stop = fstack[lin.fwalked - 1][0]
            lin.fwalked = len(fstack)
            i = g - 1
            while i >= 0 and bounds[i] > stop:
                code = ys[i] << 1 | 1
                if litval[code] != 1:
                    why = (lin, code, fcode ^ 1, 0, 0, 0)
                    if litval[code] == -1:
                        return self._explain(why)
                    enqueue(code, why)
                i -= 1
        if len(tstack) > lin.twalked:
            stop = tstack[lin.twalked - 1][0]
            lin.twalked = len(tstack)
            i = t + 1
            while i < size and bounds[i] < stop:
                code = ys[i] << 1
                if litval[code] != 1:
                    why = (lin, code, tcode ^ 1, 0, 0, 0)
                    if litval[code] == -1:
                        return self._explain(why)
                    enqueue(code, why)
                i += 1
        # back onto the terms: a literal whose weight would lift lo to tb is
        # false, one whose loss would drop hi below fb is true
        if tcode >= 0:
            slack = tb - lo
            for w, c in lin.terms:
                if w < slack:
                    break
                if litval[c] == 0:
                    enqueue(c ^ 1, (lin, c ^ 1, tcode ^ 1, 0, tb - w, ntrue))
        if fcode >= 0:
            slack = hi - fb
            for w, c in lin.terms:
                if w <= slack:
                    break
                if litval[c] == 0:
                    enqueue(c, (lin, c, fcode ^ 1, 1, total - w - fb + 1, nfalse))
        return None

    def _explain(self, why: tuple) -> List[int]:
        """The explanation clause of a deferred reason: the implied literal,
        the threshold literal if any, then the heaviest of the first
        ``count`` term literals counted on ``side`` (0 true, 1 false) whose
        weights reach ``need``."""
        lin, code, other, side, need, count = why
        lin.explained += 1
        cl = [code] if other < 0 else [code, other]
        if need > 0:
            weight = lin.weight
            for c in sorted((lin.falses if side else lin.trues)[:count], key=weight.__getitem__,
                            reverse=True):
                cl.append(c if side else c ^ 1)
                need -= weight[c]
                if need <= 0:
                    break
        if self.explain_hook is not None:
            self.explain_hook(lin, cl)
        return cl

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
        level = self.level
        for lin in self.linears:
            trues, falses, fstack, tstack = lin.trues, lin.falses, lin.fstack, lin.tstack
            while trues and level[trues[-1] >> 1] > target:
                trues.pop()
                lin.tsum.pop()
            while falses and level[falses[-1] >> 1] > target:
                falses.pop()
                lin.fsum.pop()
            while len(fstack) > 1 and level[fstack[-1][1] >> 1] > target:
                fstack.pop()
            while len(tstack) > 1 and level[tstack[-1][1] >> 1] > target:
                tstack.pop()
            lin.fwalked = min(lin.fwalked, len(fstack))
            lin.twalked = min(lin.twalked, len(tstack))

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
            if cl.__class__ is tuple:
                cl = reason[p >> 1] = self._explain(cl)
        learnt[0] = p ^ 1
        # cheap clause minimization: drop literals implied by the rest
        if len(learnt) > 1:
            minimized = [learnt[0]]
            for q in learnt[1:]:
                cl = reason[q >> 1]
                if cl is None:
                    minimized.append(q)
                    continue
                if cl.__class__ is tuple:
                    cl = reason[q >> 1] = self._explain(cl)
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
                for lin in list(self.linears):
                    if not lin.settled and lin.explained >= self.BUSY_EXPLANATIONS:
                        self._split(lin)
                if not self.ok:
                    return False
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
        for lin in self.linears:
            value = sum(w for w, c in lin.terms if model[c >> 1] == (-1 if c & 1 else 1))
            for b, var in zip(lin.bounds, lin.vars):
                if (model[var] == 1) != (value < b):
                    raise AssertionError(
                        f"model sets threshold {var} (sum < {b}) to {model[var] == 1} "
                        f"with sum {value}")

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
        """Dump the problem clauses (not learnts) in DIMACS CNF format, the
        empty clause first once the formula is refuted, with the threshold
        variables of every linear sum defined in CNF
        (``encode.threshold_cnf``) over auxiliary variables numbered after
        ``num_vars``."""
        from .encode import threshold_cnf  # encode builds on this module

        learnt = set(self.learnt_idxs)
        clauses = [] if self.ok else [[]]  # a refuted formula keeps its refutation
        clauses += [[_from_code(code)] for code in self.trail]
        for idx, cl in enumerate(self.clauses):
            if idx not in learnt:
                clauses.append([_from_code(c) for c in cl])
        num_vars = self.num_vars
        for lin in self.linears:
            num_vars, defined = threshold_cnf(num_vars, lin.signed_terms(), lin.thresholds())
            clauses.extend(defined)
        body = [" ".join(map(str, cl)) + " 0" for cl in clauses]
        header = f"p cnf {num_vars} {len(body)}"
        return "\n".join([header] + body) + "\n"
