"""Incremental SAT solving for CnfInstances.

An embedded CDCL solver (watched literals, first-UIP learning, VSIDS, phase
saving, Luby restarts, solve-under-assumptions) behind `SatContext`, which
verifies every SAT answer against every clause it was given and the
assumptions before it is returned, in plain Python: a table of literal
truths, one `operator.itemgetter` gather per stored batch of clauses and a
byte search for a clause with no true literal.  Every call starts and ends
with the trail at level 0, and clauses enter by one path,
`SatContext.add_clauses`: models are listed by plain calls, each followed
by a clause that excludes its model.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Sequence

from .cnf import CnfInstance

SAT = "SAT"
UNSAT = "UNSAT"
TIMEOUT = "TIMEOUT"

_VAR_DECAY = 0.95
_RESTART_BASE = 100
_CLAUSE_DECAY = 0.999
# bytes.translate tables: _TRUE_BYTE maps a variable's value code (0 undef,
# 1 true, 2 false) to its model byte (1 true, else 0); on model bytes it
# gives the truth of each positive literal and _ZERO_BYTE that of each
# negative one; _FIRST_BYTE maps a clause's first literal's truth to 2
# (false) or 3 (true)
_TRUE_BYTE = bytes(1 if i == 1 else 0 for i in range(256))
_ZERO_BYTE = bytes(1 if i == 0 else 0 for i in range(256))
_FIRST_BYTE = bytes((2, 3)) + bytes(254)
# in a batch's gathered truths with the zeros deleted: a clause whose first
# literal is false and no other literal true
_FALSE_CLAUSE = re.compile(b"\x02(?!\x01)")


@dataclass
class SolveStats:
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0


@dataclass
class SolveResult:
    """Outcome of one solver call.

    ``raw_model`` is present iff status is SAT: byte v is 1 when variable v
    is true and 0 when it is false (byte 0 is unused).  Read literals off it
    with `lit_value` or `word`.
    """

    status: str
    raw_model: bytes | None = None
    stats: SolveStats = field(default_factory=SolveStats)

    def lit_value(self, lit: int) -> int:
        # in CnfBuilder instances variable 1 is pinned true, so the literals
        # +1/-1 resolve to the constants through the model itself
        v = self.raw_model[abs(lit)]
        return v if lit > 0 else v ^ 1

    def word(self, lits: Sequence[int]) -> int:
        """The integer whose bit i is the value of lits[i] (LSB first)."""
        raw = self.raw_model  # `lit_value` inlined: enumeration reads every model
        w = 0
        for i, lit in enumerate(lits):
            w |= (raw[lit] if lit > 0 else raw[-lit] ^ 1) << i
        return w


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
    then, once the heap holds no open variable, as a safety net, the lowest
    open variable.

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
        self.var_inc = 1.0
        self.num_clauses = 0  # problem clauses; long ones live in the watch lists
        self.learnts: list[list[int]] = []
        self.cla_act: dict[int, float] = {}
        self.cla_lbd: dict[int, int] = {}
        self.cla_inc = 1.0
        self.stats = SolveStats()
        self.model = b""  # byte v is 1 when variable v is true, else 0

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
        clause is assigned and propagated at once.  The 2- and 3-literal
        clauses of a circuit encoding mostly have open literals over
        distinct variables, which none of that touches: they are watched
        at once.
        """
        assert not self.trail_lim, "clauses can only be added at decision level 0"
        val = self.val
        watches = self.watches
        bwatch = self.bwatch
        if not self.ok:
            return
        i = 0
        for n in lens:
            if n == 2:
                a = lits[i]
                b = lits[i + 1]
                if not val[a] and not val[b] and a >> 1 != b >> 1:
                    i += 2
                    bwatch[a].append(b)
                    bwatch[b].append(a)
                    self.num_clauses += 1
                    continue
            elif n == 3:
                a = lits[i]
                b = lits[i + 1]
                c = lits[i + 2]
                if (not val[a] and not val[b] and not val[c]
                        and a >> 1 != b >> 1 and a >> 1 != c >> 1 and b >> 1 != c >> 1):
                    i += 3
                    clause = [a, b, c]
                    watches[a].append(clause)
                    watches[b].append(clause)
                    self.num_clauses += 1
                    continue
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
                        return
                    continue
                else:
                    self.ok = False
                    return
                self.num_clauses += 1

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
        while heap:
            key, v = heappop(heap)
            if key != -activity[v]:
                continue  # stale: v was bumped after this entry was pushed
            in_heap[v] = 0
            if val[v << 1] == 0:
                return (v << 1) | (0 if self.polarity[v] else 1)
        if len(self.trail) == self.nvars:
            return -1  # every variable is assigned
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
    ) -> str:
        """Returns SAT/UNSAT/TIMEOUT; on SAT, self.model holds the assignment.

        A call starts and ends with the trail at level 0.
        """
        t0 = time.monotonic()
        deadline = t0 + time_budget if time_budget is not None else None
        self._cancel_until(0)
        if not self.ok or self._propagate() is not None:
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
                self.model = bytes(self.val[::2]).translate(_TRUE_BYTE)
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
    against are held in batches, each one tuple of encoded literals (2v, or
    2v+1 when negated) with each clause's first literal e stored as ~e, an
    empty clause as ~0 = -1 and a 0 at the end, next to an
    `operator.itemgetter` of that tuple, which gathers the truth of each of
    its entries from a table (`_first_false_clause`).  A new batch is
    merged into the last one while that one is at most twice its size, so
    each batch is more than twice the size of the next and one check makes
    O(log clauses) gathers.

    Each batch of clauses is encoded once (`encode_clauses`): that list is
    both what the verification store keeps and what `Cdcl.add_encoded`
    loads.  Literal 0 and variables past the int32 code range are refused
    before anything is stored, so a refused batch leaves the context as it
    was.
    """

    def __init__(self, inst: CnfInstance):
        self._batches: list[tuple[tuple[int, ...], itemgetter]] = []
        self._nempty = 0  # empty clauses, which no model satisfies
        self._num_vars = 0
        self._cdcl = Cdcl()
        self.add_clauses(inst.clauses, inst.num_vars, inst.implied_vars)

    def _store(self, lits: list[int], lens: list[int]) -> None:
        """Keep encoded clauses for verification."""
        if not lens:
            return
        if 0 in lens:
            flat, i = [], 0
            for n in lens:
                flat += [~lits[i], *lits[i + 1 : i + n]] if n else [-1]
                i += n
        else:
            flat = lits[:]
            for start in accumulate(lens[:-1], initial=0):
                flat[start] = ~flat[start]
        # the final 0 reads a truth of 0: the getter of two or more entries
        # returns a tuple
        flat.append(0)
        keys = tuple(flat)
        batches = self._batches
        while batches and len(batches[-1][0]) <= 2 * len(keys):
            keys = batches.pop()[0][:-1] + keys
        batches.append((keys, itemgetter(*keys)))
        self._nempty += lens.count(0)

    def stored_clauses(self) -> list[tuple[int, ...]]:
        """Every clause models are checked against, in the order they were
        added, as tuples of signed literals."""
        codes: list[list[int]] = []
        for keys, _ in self._batches:
            for e in keys:
                if e < 0:
                    codes.append([~e] if e != -1 else [])
                elif e:
                    codes[-1].append(e)
        return [tuple(-(e >> 1) if e & 1 else e >> 1 for e in c) for c in codes]

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

    def solve(
        self,
        assumptions: Sequence[int] = (),
        time_budget: float | None = None,
        conflict_budget: int | None = None,
    ) -> SolveResult:
        """One solver call, its SAT answer verified (`_verify`)."""
        for l in assumptions:
            if l == 0 or abs(l) > self._num_vars:
                raise MalformedInstanceError(f"assumption {l} references an undeclared variable")
        before = self.stats
        status = self._cdcl.solve(assumptions, conflict_budget, time_budget)
        after = self.stats
        stats = SolveStats(
            after.conflicts - before.conflicts,
            after.decisions - before.decisions,
            after.propagations - before.propagations,
        )
        if status != SAT:
            return SolveResult(status, stats=stats)
        raw = self._cdcl.model
        self._verify(raw, assumptions)
        return SolveResult(SAT, raw_model=raw, stats=stats)

    def _verify(self, raw: bytes, assumptions: Sequence[int]) -> None:
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
            raise ModelVerificationError(
                f"model does not satisfy clause {self.stored_clauses()[bad]}"
            )
        for l in assumptions:
            if not (raw[l] if l > 0 else not raw[-l]):
                raise ModelVerificationError(f"model violates assumption {l}")

    def _first_false_clause(self, raw: bytes) -> int | None:
        """Index of the first stored clause that raw falsifies.

        The lower half of one table holds the truth (0 or 1) of every
        encoded literal e, and its upper half, in reverse, so that index ~e
        reads it, 3 or 2 for a first literal that is true or false (code 0,
        which pads batches and marks empty clauses, reads 0 and 2).  With
        the zeros deleted, a batch's gathered truths hold each clause as
        its first literal's 3 or 2 and a 1 for each other true literal.
        """
        n = 2 * len(raw)
        truth = bytearray(2 * n)
        truth[0:n:2] = raw.translate(_TRUE_BYTE)
        truth[1:n:2] = raw.translate(_ZERO_BYTE)
        truth[0] = 0
        truth[n:] = truth[n - 1 :: -1].translate(_FIRST_BYTE)
        first = 0  # index of the batch's first clause
        for _, gather in self._batches:
            seen = bytes(gather(truth)).translate(None, b"\x00")
            false = _FALSE_CLAUSE.search(seen)
            if false:
                at = false.start()
                return first + at - seen.count(1, 0, at)
            first += len(seen) - seen.count(1)
        return None
