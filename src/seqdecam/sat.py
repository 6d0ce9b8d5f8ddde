"""Incremental SAT solving for CnfInstances.

An embedded CDCL solver (watched literals, first-UIP learning, VSIDS, phase
saving, Luby restarts, solve-under-assumptions) behind `SatContext`, which
verifies every SAT answer against the clause database and the assumptions
before it is returned.

Models are enumerated by one resumed search: a SAT answer can keep its
trail, a blocking clause that the model falsifies backjumps the solver to
the clause's asserting level, and the next model is searched from there
rather than from level 0 (the blocking scheme of Toda & Soh, "Implementing
Efficient All Solutions SAT Solvers", ACM JEA 2016).  The enumerated
variables are decided last (`Cdcl.decide_last`), so that backjump undoes
little else.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .cnf import CnfInstance

SAT = "SAT"
UNSAT = "UNSAT"
TIMEOUT = "TIMEOUT"

_VAR_DECAY = 0.95
_RESTART_BASE = 100
_CLAUSE_DECAY = 0.999


@dataclass
class SolveStats:
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    wall_time: float = 0.0


@dataclass
class SolveResult:
    """Outcome of one solver call.

    ``raw_model`` maps variable index to bool and is present iff status is
    SAT; read literals off it with `lit_value` or `bits`.
    """

    status: str
    raw_model: list[bool] | None = None
    stats: SolveStats = field(default_factory=SolveStats)

    def lit_value(self, lit: int) -> int:
        # in CnfBuilder instances variable 1 is pinned true, so the literals
        # +1/-1 resolve to the constants through the model itself
        v = self.raw_model[abs(lit)]
        return int(v if lit > 0 else not v)

    def bits(self, lits: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.lit_value(l) for l in lits)


class MalformedInstanceError(ValueError):
    pass


class ModelVerificationError(RuntimeError):
    pass


class SolverTimeoutError(RuntimeError):
    """A solver call ran out of its time budget."""


def encode_clauses(clauses: Sequence[Sequence[int]]) -> tuple[list[int], list[int], int]:
    """Encode signed clauses for `Cdcl.add_encoded`: the literals back to back
    as 2v (positive) or 2v+1 (negative), each clause's length, and the
    highest variable.

    Raises MalformedInstanceError for literal 0 or for a variable whose
    code does not fit an int32, before the caller stores anything.
    """
    lens = list(map(len, clauses))
    lits = [l + l if l > 0 else 1 - l - l for c in clauses for l in c]
    if not lits:
        return lits, lens, 0
    if min(lits) == 1:  # the code of literal 0
        raise MalformedInstanceError("literal 0 in clause")
    top = max(lits) >> 1
    if top >= 1 << 30:
        raise MalformedInstanceError(f"variable {top} does not fit an int32 literal code")
    return lits, lens, top


def _luby(i: int) -> int:
    # Luby restart sequence 1 1 2 1 1 2 4 ...
    k = 1
    while (1 << (k + 1)) <= i + 1:
        k += 1
    while (1 << k) - 1 != i + 1:
        i = i - (1 << k) + 1
        k = 1
        while (1 << (k + 1)) <= i + 1:
            k += 1
    return 1 << k


class Cdcl:
    """Embedded conflict-driven clause-learning solver.

    Variables are 1-based; clause literals are signed ints.  Internally a
    literal is encoded as 2v (positive) or 2v+1 (negative), and clauses are
    loaded in that form (`encode_clauses`, `add_encoded`).

    The per-variable arrays read or written on every propagation, backjump
    and pick (``val``, ``polarity``, ``branchable``, ``seen``, ``in_heap``)
    are lists of small ints rather than bytearrays: CPython specialises list
    subscripts and not bytearray ones, so each access costs less, at 8
    bytes per entry instead of 1.

    A decision picks, in this order: the open variable of highest activity
    from a binary heap of (-activity, v) keys, the lowest index on a tie;
    then, once the heap holds no open variable, the first open variable of
    the late list (`decide_last`); then, as a safety net, the lowest open
    variable.  Late variables popped from the heap are passed over.  Model
    enumeration puts the enumerated key on the late list: the key is then
    decided at the top of the trail, so the blocking clause over the key
    backjumps over the key's own levels alone and the rest of the model
    stays assigned for the next one.

    The heap holds at most one current entry per variable, flagged in
    ``in_heap``: a backjump pushes an unassigned branchable variable only if
    it has none, and bumping a variable's activity leaves its old entry
    stale, to be skipped when it surfaces (heapq has no decrease-key).

    ``reason[v]`` is None for a decision or a level-0 unit, the other
    literal (an int) for an implication by a binary clause, and the clause
    list, with the implied literal first, for a longer clause.  Binary
    clauses live in ``bwatch`` as literal pairs; conflicts are always lists.
    """

    def __init__(self):
        self.ok = True
        self.nvars = 0
        self.val = [0, 0]  # indexed by encoded literal: 0 undef 1 true 2 false
        self.watches: list[list] = [[], []]
        self.bwatch: list[list[int]] = [[], []]
        self.level = [0]
        self.reason: list = [None]
        self.activity = [0.0]
        self.polarity = [0]
        self.branchable = [0]  # 0 = implied definition, skip in decisions
        self.seen = [0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.heap: list[tuple[float, int]] = []
        self.in_heap = [0]  # 1 while v has an entry keyed by its current activity
        self.late: dict[int, None] = {}  # decided last, in this order, until rewind
        self.var_inc = 1.0
        self.num_clauses = 0  # problem clauses; long ones live in the watch lists
        self.learnts: list[list[int]] = []
        self.cla_act: dict[int, float] = {}
        self.cla_lbd: dict[int, int] = {}
        self.cla_inc = 1.0
        self.stats = SolveStats()
        self.model: list[bool] = []

    # --------------------------------------------------------- construction

    def ensure_vars(self, n: int) -> None:
        k = n - self.nvars
        if k <= 0:
            return
        first = self.nvars + 1
        self.nvars = n
        self.val += [0] * (2 * k)
        self.watches += [[] for _ in range(2 * k)]
        self.bwatch += [[] for _ in range(2 * k)]
        self.level.extend([0] * k)
        self.reason.extend([None] * k)
        self.activity.extend([0.0] * k)
        self.polarity += [0] * k
        self.branchable += [1] * k
        self.seen += [0] * k
        self.in_heap += [1] * k
        # every key in the heap is (-activity, v) <= (0.0, v) with v < first,
        # so the new keys, in increasing order, extend it as a valid heap
        self.heap.extend((0.0, v) for v in range(first, n + 1))

    def mark_implied(self, vars_: Iterable[int]) -> None:
        """These variables are definitions; decisions never pick them.

        Completeness is kept by the fallback scan in _pick_branch: if
        propagation ever leaves one unassigned, it still gets decided.
        """
        for v in vars_:
            if v <= self.nvars:
                self.branchable[v] = 0

    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> None:
        """Add problem clauses of signed literals (`add_encoded`)."""
        lits, lens, top = encode_clauses(clauses)
        self.ensure_vars(top)
        self.add_encoded(lits, lens)

    def add_encoded(self, lits: Sequence[int], lens: Sequence[int]) -> None:
        """Add problem clauses given as encoded literals back to back and the
        length of each clause, in the form `encode_clauses` returns.

        Every variable must exist (`ensure_vars`) and the trail must be at
        level 0.  Literals false at level 0 and repeated literals are
        dropped; a clause true at level 0 or a tautology is skipped; a unit
        clause is assigned and propagated at once.
        """
        assert not self.trail_lim, "clauses can only be added at decision level 0"
        val = self.val
        watches = self.watches
        bwatch = self.bwatch
        i = 0
        for n in lens:
            if not self.ok:
                return
            clause = lits[i : i + n]
            i += n
            out: list[int] = []
            for e in clause:
                v = val[e]
                if v == 1:
                    break  # satisfied at level 0
                if v == 2:
                    continue  # falsified at level 0, drop
                if e ^ 1 in out:
                    break  # tautology
                if e not in out:
                    out.append(e)
            else:
                if len(out) == 2:
                    a, b = out
                    bwatch[a].append(b)
                    bwatch[b].append(a)
                elif len(out) > 2:
                    watches[out[0]].append(out)
                    watches[out[1]].append(out)
                elif out:
                    self._assign(out[0], None)
                    if self._propagate() is not None:
                        self.ok = False
                    continue
                else:
                    self.ok = False
                    return
                self.num_clauses += 1

    def block(self, lits: Sequence[int]) -> None:
        """Add a problem clause that the current full assignment falsifies,
        and backjump so that search resumes where the clause asserts.

        Used after a SAT answer of ``solve(resume=True)`` to exclude that
        model.  The top literal (highest decision level) is implied at the
        second-highest level, with the clause as its reason; when the top two
        literals share a level, the trail goes back one level below it and
        both are watched.  Literals false at level 0 are dropped, as
        add_clauses does.
        """
        val = self.val
        level = self.level
        out: list[int] = []
        for l in lits:
            e = (l << 1) if l > 0 else ((-l << 1) | 1)
            if abs(l) > self.nvars or val[e] != 2:
                raise ValueError(f"literal {l} of a blocking clause is not false on the trail")
            if level[e >> 1] > 0 and e not in out:
                out.append(e)
        self.num_clauses += 1
        if not self.ok:
            return
        out.sort(key=lambda e: level[e >> 1], reverse=True)
        if len(out) < 2:
            self._cancel_until(0)
            if not out:
                self.ok = False
                return
            self._assign(out[0], None)
            if self._propagate() is not None:
                self.ok = False
            return
        top, second = level[out[0] >> 1], level[out[1] >> 1]
        self._cancel_until(top - 1 if top == second else second)
        if len(out) == 2:
            a, b = out
            self.bwatch[a].append(b)
            self.bwatch[b].append(a)
        else:
            self.watches[out[0]].append(out)
            self.watches[out[1]].append(out)
        if top > second:
            self._assign(out[0], out if len(out) > 2 else out[1])

    def decide_last(self, vars_: Iterable[int]) -> None:
        """Decide these variables, in this order, only once every other
        branchable variable is assigned, until `rewind`."""
        self.late = dict.fromkeys(vars_)

    def rewind(self) -> None:
        """Undo every decision: the trail goes back to level 0, and the late
        variables are decided like any other again.

        A late variable popped from the heap while it was passed over has no
        entry left; each one that is open and branchable gets one back.
        """
        self._cancel_until(0)
        for v in self.late:
            if self.val[v << 1] == 0 and self.branchable[v] and not self.in_heap[v]:
                self.in_heap[v] = 1
                heappush(self.heap, (-self.activity[v], v))
        self.late = {}

    # ------------------------------------------------------------ internals

    def _assign(self, e: int, reason) -> None:
        self.val[e] = 1
        self.val[e ^ 1] = 2
        v = e >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(e)

    def _propagate(self):
        """Unit propagation; returns a conflicting clause or None."""
        val = self.val
        trail = self.trail
        watches = self.watches
        bwatch = self.bwatch
        level = self.level
        reason = self.reason
        dl = len(self.trail_lim)
        qhead = start = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            fe = p ^ 1
            for o in bwatch[fe]:
                w = val[o]
                if w == 0:
                    val[o] = 1
                    val[o ^ 1] = 2
                    v = o >> 1
                    level[v] = dl
                    reason[v] = fe
                    trail.append(o)
                elif w == 2:
                    self.qhead = qhead
                    self.stats.propagations += qhead - start
                    return [o, fe]
            ws = watches[fe]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if not c:
                    continue  # clause was deleted
                if c[0] == fe:
                    c[0] = c[1]
                    c[1] = fe
                first = c[0]
                if val[first] == 1:
                    ws[j] = c
                    j += 1
                    continue
                if len(c) == 3:
                    lk = c[2]
                    if val[lk] != 2:
                        c[1] = lk
                        c[2] = fe
                        watches[lk].append(c)
                        continue
                else:
                    found = False
                    for k in range(2, len(c)):
                        lk = c[k]
                        if val[lk] != 2:
                            c[1] = lk
                            c[k] = fe
                            watches[lk].append(c)
                            found = True
                            break
                    if found:
                        continue
                ws[j] = c
                j += 1
                if val[first] == 2:
                    # a new watch never lands on fe, so ws kept its length n
                    del ws[j:i]
                    self.qhead = qhead
                    self.stats.propagations += qhead - start
                    return c
                val[first] = 1
                val[first ^ 1] = 2
                v = first >> 1
                level[v] = dl
                reason[v] = c
                trail.append(first)
            del ws[j:]
        self.qhead = qhead
        self.stats.propagations += qhead - start
        return None

    def _bump_clause(self, c: list) -> None:
        i = id(c)
        act = self.cla_act.get(i)
        if act is None:
            return
        act += self.cla_inc
        self.cla_act[i] = act
        if act > 1e20:
            scale = 1e-20
            for k in self.cla_act:
                self.cla_act[k] *= scale
            self.cla_inc *= scale

    def _analyze(self, confl) -> tuple[list[int], int, int]:
        """First-UIP learning; returns (learnt clause, backjump level, lbd)."""
        seen = self.seen
        level = self.level
        trail = self.trail
        reason = self.reason
        activity = self.activity
        branchable = self.branchable
        in_heap = self.in_heap
        var_inc = self.var_inc
        cur = len(self.trail_lim)
        learnt = [0]
        to_clear = []
        pathc = 0
        p = -1
        idx = len(trail) - 1
        c = confl
        rescale = False
        while True:
            if type(c) is int:
                lits = (c,)  # binary reason: the other literal
            else:
                self._bump_clause(c)
                lits = c if p == -1 else c[1:]  # a reason's first literal is p
            for q in lits:
                v = q >> 1
                lv = level[v]
                if not seen[v] and lv > 0:
                    seen[v] = 1
                    to_clear.append(v)
                    # implied definitions earn decision rights once they take
                    # part in conflicts; refutations often need them
                    branchable[v] = 1
                    a = activity[v] + var_inc
                    activity[v] = a
                    in_heap[v] = 0  # any entry of v now holds an old key
                    if a > 1e100:
                        rescale = True
                    if lv >= cur:
                        pathc += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            v = p >> 1
            c = reason[v]
            seen[v] = 0
            pathc -= 1
            if pathc <= 0:
                break
        learnt[0] = p ^ 1
        if rescale:
            scale = 1e-100
            for i in range(1, self.nvars + 1):
                activity[i] *= scale
            self.var_inc *= scale
            # heap keys still hold pre-rescale activities, which would rank
            # every waiting variable above any bumped from now on
            self._rebuild_heap()

        # cheap local minimization: a literal is redundant if its reason
        # consists entirely of seen or level-0 literals
        if len(learnt) > 1:
            kept = [learnt[0]]
            for q in learnt[1:]:
                r = reason[q >> 1]
                if r is None:
                    kept.append(q)
                elif type(r) is int:
                    if not seen[r >> 1] and level[r >> 1] > 0:
                        kept.append(q)
                else:
                    for l in r:
                        lv = l >> 1
                        if lv != (q >> 1) and not seen[lv] and level[lv] > 0:
                            kept.append(q)
                            break
            learnt = kept

        for v in to_clear:
            seen[v] = 0

        if len(learnt) == 1:
            bt = 0
        else:
            mi = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[mi] >> 1]:
                    mi = i
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
            bt = level[learnt[1] >> 1]
        lbd = len({level[q >> 1] for q in learnt})
        return learnt, bt, lbd

    def _cancel_until(self, lvl: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= lvl:
            return
        val = self.val
        heap = self.heap
        activity = self.activity
        polarity = self.polarity
        branchable = self.branchable
        in_heap = self.in_heap
        trail = self.trail
        bound = trail_lim[lvl]
        # the reason of an unassigned variable is never read, so it stays
        for e in trail[bound:]:
            v = e >> 1
            polarity[v] = 1 - (e & 1)
            val[e] = 0
            val[e ^ 1] = 0
            if branchable[v] and not in_heap[v]:
                in_heap[v] = 1
                heappush(heap, (-activity[v], v))
        del trail[bound:]
        del trail_lim[lvl:]
        self.qhead = bound

    def _record_learnt(self, learnt: list[int], lbd: int) -> None:
        if len(learnt) == 1:
            self._assign(learnt[0], None)
            return
        if len(learnt) == 2:
            a, b = learnt
            self.bwatch[a].append(b)
            self.bwatch[b].append(a)
        else:
            self.watches[learnt[0]].append(learnt)
            self.watches[learnt[1]].append(learnt)
            self.learnts.append(learnt)
            self.cla_act[id(learnt)] = self.cla_inc
            self.cla_lbd[id(learnt)] = lbd
        self._assign(learnt[0], learnt if len(learnt) > 2 else learnt[1])

    def _reduce_db(self) -> None:
        # drop the least useful half of the long learnt clauses
        learnts = self.learnts
        ranked = sorted(
            learnts,
            key=lambda c: (-self.cla_lbd[id(c)], self.cla_act[id(c)]),
        )
        reason = self.reason
        locked = {id(r) for e in self.trail if type(r := reason[e >> 1]) is list}
        drop = len(ranked) // 2
        kept = []
        for i, c in enumerate(ranked):
            if i < drop and self.cla_lbd[id(c)] > 3 and id(c) not in locked:
                del self.cla_act[id(c)]
                del self.cla_lbd[id(c)]
                c.clear()  # watch lists skip empty clauses lazily
            else:
                kept.append(c)
        self.learnts = kept

    def _rebuild_heap(self) -> None:
        """Key every unassigned branchable variable by its current activity.

        Assigned variables re-enter the heap when a backjump unassigns them.
        """
        val = self.val
        activity = self.activity
        branchable = self.branchable
        in_heap = self.in_heap
        in_heap[:] = [0] * len(in_heap)
        fresh = []
        for v in range(1, self.nvars + 1):
            if val[v << 1] == 0 and branchable[v]:
                fresh.append((-activity[v], v))
                in_heap[v] = 1
        fresh.sort()
        self.heap = fresh

    def _pick_branch(self) -> int:
        val = self.val
        activity = self.activity
        in_heap = self.in_heap
        heap = self.heap
        if len(heap) > 4 * self.nvars + 1024:
            # drop stale entries, which the loop below would skip anyway
            heap[:] = [kv for kv in heap if kv[0] == -activity[kv[1]]]
            heapify(heap)
        late = self.late
        while heap:
            key, v = heappop(heap)
            if key != -activity[v]:
                continue  # stale: v was bumped after this entry was pushed
            in_heap[v] = 0
            if val[v << 1] == 0 and v not in late:
                return (v << 1) | (0 if self.polarity[v] else 1)
        if len(self.trail) == self.nvars:
            return -1  # every variable is assigned
        for v in late:
            if val[v << 1] == 0:
                return (v << 1) | (0 if self.polarity[v] else 1)
        # safety net: decide the lowest open variable (implied vars included,
        # in case a one-sided definition left slack); val[2v] is 0 exactly
        # when v is open, and it comes before val[2v + 1]
        v = val.index(0, 2) >> 1
        return (v << 1) | (0 if self.polarity[v] else 1)

    # ---------------------------------------------------------------- solve

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: int | None = None,
        time_budget: float | None = None,
        resume: bool = False,
    ) -> str:
        """Returns SAT/UNSAT/TIMEOUT; on SAT, self.model holds the assignment.

        A call starts and ends with the trail at level 0, except that with
        ``resume=True`` the search goes on from the current trail (as
        `block` left it) and a SAT answer keeps its trail for the next
        `block`.  UNSAT and TIMEOUT always end at level 0.
        """
        t0 = time.monotonic()
        deadline = t0 + time_budget if time_budget is not None else None
        if not resume:
            self._cancel_until(0)
        if not self.ok or (not self.trail_lim and self._propagate() is not None):
            self.ok = False
            self._cancel_until(0)
            return UNSAT
        if deadline is not None and time.monotonic() > deadline:
            self._cancel_until(0)
            return TIMEOUT
        assume = []
        for l in assumptions:
            self.ensure_vars(abs(l))
            assume.append((abs(l) << 1) | (0 if l > 0 else 1))

        conflicts_at_start = self.stats.conflicts
        max_learnts = max(4000, self.num_clauses // 3)
        restart_n = 0
        budget = _RESTART_BASE * _luby(restart_n)
        conf_this_restart = 0

        while True:
            confl = self._propagate()
            if confl is not None:
                self.stats.conflicts += 1
                conf_this_restart += 1
                if not self.trail_lim:
                    self.ok = False
                    return UNSAT
                learnt, bt, lbd = self._analyze(confl)
                # never undo assumption decisions unless forced below them
                self._cancel_until(bt)
                self._record_learnt(learnt, lbd)
                self.var_inc /= _VAR_DECAY
                self.cla_inc /= _CLAUSE_DECAY
                nconf = self.stats.conflicts - conflicts_at_start
                if conflict_budget is not None and nconf >= conflict_budget:
                    self._cancel_until(0)
                    return TIMEOUT
                if nconf % 256 == 0:
                    if deadline is not None and time.monotonic() > deadline:
                        self._cancel_until(0)
                        return TIMEOUT
                    if len(self.learnts) > max_learnts:
                        self._reduce_db()
                continue
            if conf_this_restart >= budget:
                restart_n += 1
                budget = _RESTART_BASE * _luby(restart_n)
                conf_this_restart = 0
                self._cancel_until(0)
                continue
            dl = len(self.trail_lim)
            if dl < len(assume):
                e = assume[dl]
                w = self.val[e]
                if w == 1:
                    self.trail_lim.append(len(self.trail))
                    continue
                if w == 2:
                    self._cancel_until(0)
                    return UNSAT
                self.trail_lim.append(len(self.trail))
                self._assign(e, None)
                continue
            e = self._pick_branch()
            if e == -1:
                # val[2v] is 1 exactly when variable v is true
                self.model = (np.frombuffer(bytes(self.val[::2]), np.uint8) == 1).tolist()
                if not resume:
                    self._cancel_until(0)
                return SAT
            self.stats.decisions += 1
            if self.stats.decisions % 4096 == 0 and deadline is not None:
                if time.monotonic() > deadline:
                    self._cancel_until(0)
                    return TIMEOUT
            self.trail_lim.append(len(self.trail))
            self._assign(e, None)


class SatContext:
    """A solver attached to one growing clause database.

    Supports repeated solve calls under assumptions, with clause additions
    in between; previously derived UNSAT-under-assumption answers stay valid
    because clauses are only ever added.  The clauses every model is checked
    against are held flat, with no object per clause: encoded literals (2v,
    or 2v+1 when negated) back to back in one int32 array and each clause's
    first offset in another, both grown geometrically by ``array``.

    Each batch of clauses is encoded once (`encode_clauses`): that list is
    both what the verification array stores and what `Cdcl.add_encoded`
    loads.  Literal 0 and variables past the int32 code range are refused
    before anything is stored, so a refused batch leaves the context as it
    was; a blocking clause is stored only once the solver has accepted it.
    """

    def __init__(self, inst: CnfInstance):
        self._lits = array("i")
        self._starts = array("i")
        self._nempty = 0  # empty clauses, which no model satisfies
        self._num_vars = 0
        self._cdcl = Cdcl()
        self.add_clauses(inst.clauses, inst.num_vars, inst.implied_vars)

    def _store(self, lits: list[int], lens: list[int]) -> None:
        """Keep encoded clauses for verification."""
        if lens:
            self._starts.fromlist(list(accumulate(lens[:-1], initial=len(self._lits))))
            self._lits.fromlist(lits)
            self._nempty += lens.count(0)

    def _clause(self, i: int) -> tuple[int, ...]:
        end = self._starts[i + 1] if i + 1 < len(self._starts) else len(self._lits)
        return tuple(-(e >> 1) if e & 1 else e >> 1 for e in self._lits[self._starts[i] : end])

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def stats(self) -> SolveStats:
        """The solver's running conflicts, decisions and propagations.

        Propagations also count the level-0 propagation of unit clauses as
        they are added, which no `solve` result reports.
        """
        s = self._cdcl.stats
        return SolveStats(s.conflicts, s.decisions, s.propagations)

    def add_clauses(
        self,
        clauses: Sequence[Sequence[int]],
        num_vars: int | None = None,
        implied_vars: Sequence[int] = (),
    ) -> None:
        lits, lens, top = encode_clauses(clauses)
        top = max(self._num_vars, num_vars or 0, top)
        self._num_vars = top
        self._cdcl.ensure_vars(top)
        self._cdcl.mark_implied(implied_vars)
        self._store(lits, lens)
        self._cdcl.add_encoded(lits, lens)

    def block(self, clause: Sequence[int]) -> None:
        """Add a clause that the model of the last SAT answer falsifies,
        typically one excluding that model.

        After a ``resume=True`` answer the solver still holds the model's
        trail; it backjumps to the clause's asserting level, so the next
        ``resume=True`` call searches on from there.  Later models are
        verified against this clause too.
        """
        clause = tuple(clause)
        self._cdcl.block(clause)  # raises before anything is stored
        lits, lens, _ = encode_clauses([clause])
        self._store(lits, lens)

    def decide_last(self, vars_: Iterable[int]) -> None:
        """Decide these variables after all others until `rewind` (see
        `Cdcl.decide_last`)."""
        self._cdcl.decide_last(vars_)

    def rewind(self) -> None:
        """Put the solver's trail back at level 0 and clear `decide_last`
        (ends a resumed search)."""
        self._cdcl.rewind()

    def solve(
        self,
        assumptions: Sequence[int] = (),
        time_budget: float | None = None,
        conflict_budget: int | None = None,
        resume: bool = False,
    ) -> SolveResult:
        """One solver call; ``resume`` is passed to `Cdcl.solve`."""
        for l in assumptions:
            if l == 0 or abs(l) > self._num_vars:
                raise MalformedInstanceError(f"assumption {l} references an undeclared variable")
        t0 = time.monotonic()
        before = self.stats
        status = self._cdcl.solve(assumptions, conflict_budget, time_budget, resume)
        after = self.stats
        stats = SolveStats(
            after.conflicts - before.conflicts,
            after.decisions - before.decisions,
            after.propagations - before.propagations,
            time.monotonic() - t0,
        )
        if status != SAT:
            return SolveResult(status, stats=stats)
        raw = self._cdcl.model
        self._verify(raw, assumptions)
        return SolveResult(SAT, raw_model=raw, stats=stats)

    def _verify(self, raw: list[bool], assumptions: Sequence[int]) -> None:
        """Raise ModelVerificationError unless raw satisfies every clause
        and every assumption."""
        if len(raw) <= self._num_vars:
            raise ModelVerificationError(
                f"model assigns {len(raw) - 1} of {self._num_vars} variables"
            )
        if self._nempty:
            raise ModelVerificationError("model does not satisfy clause ()")
        bad = self._first_false_clause(raw)
        if bad is not None:
            raise ModelVerificationError(f"model does not satisfy clause {self._clause(bad)}")
        for l in assumptions:
            if not (raw[l] if l > 0 else not raw[-l]):
                raise ModelVerificationError(f"model violates assumption {l}")

    def _first_false_clause(self, raw: list[bool]) -> int | None:
        """Index of the first clause that raw falsifies, in one NumPy pass.

        Needs every clause non-empty: reduceat would read an empty clause
        as the first literal of the next one.
        """
        if not self._starts:
            return None
        # truth of encoded literal e = 2v + sign, for every variable
        lit_true = np.frombuffer(bytes(raw), np.uint8).repeat(2)
        lit_true[1::2] ^= 1
        # the views are gone when this returns, so the arrays can grow again
        sat = np.bitwise_or.reduceat(
            lit_true.take(np.frombuffer(self._lits, np.int32)),
            np.frombuffer(self._starts, np.int32),
        )
        return None if sat.all() else int(np.argmin(sat))
