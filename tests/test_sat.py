import collections
import copy
import heapq
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from seqdecam.cnf import CnfBuilder, CnfInstance
from seqdecam import sat as sm


def _inst(num_vars, clauses, groups=None):
    return CnfInstance(num_vars, tuple(tuple(c) for c in clauses), groups or {})


def _brute_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        model = [False] + list(bits)
        if all(any(model[l] if l > 0 else not model[-l] for l in c) for c in clauses):
            return True
    return False


def test_empty_clause_set_is_sat():
    res = sm.SatContext(_inst(0, [])).solve()
    assert res.status == sm.SAT
    assert res.raw_model is not None


def test_unit_contradiction_is_unsat():
    res = sm.SatContext(_inst(1, [(1,), (-1,)])).solve()
    assert res.status == sm.UNSAT
    assert res.raw_model is None


def test_sat_model_is_verified_against_all_clauses():
    inst = _inst(3, [(1, 2), (-1, 3), (-2, -3)], {"all": (1, 2, 3)})
    res = sm.SatContext(inst).solve()
    assert res.status == sm.SAT
    for c in inst.clauses:
        assert any(res.lit_value(l) for l in c)


def test_assumptions():
    ctx = sm.SatContext(_inst(2, [(1, 2)]))
    assert ctx.solve([-1]).status == sm.SAT
    assert ctx.solve([-1, -2]).status == sm.UNSAT
    assert ctx.solve().status == sm.SAT  # context still reusable


def test_assumption_must_be_declared():
    with pytest.raises(sm.MalformedInstanceError):
        sm.SatContext(_inst(1, [(1,)])).solve([5])


def test_incremental_add_then_assume():
    ctx = sm.SatContext(_inst(1, []))
    assert ctx.solve([-1]).status == sm.SAT
    ctx.add_clauses([(1,)])
    assert ctx.solve([-1]).status == sm.UNSAT
    assert ctx.solve([1]).status == sm.SAT


def test_out_of_range_variable_is_refused_before_anything_is_stored():
    # 1 << 30 is refused before any per-variable array grows; a variable just
    # below it would make ensure_vars allocate arrays of 2^30 entries
    ctx = sm.SatContext(_inst(2, [(1, 2)]))
    with pytest.raises(sm.MalformedInstanceError, match="int32"):
        ctx.add_clauses([(1, 1 << 30)])
    assert (ctx.stored_clauses(), ctx.num_vars) == ([(1, 2)], 2)
    assert ctx.solve([-1]).status == sm.SAT


def _state(ctx):
    return (ctx._cdcl.ok, ctx.num_vars, ctx.stored_clauses(), ctx._nempty,
            ctx._cdcl.nvars, ctx._cdcl.num_clauses, list(ctx._cdcl.trail), ctx.stats)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_batched_sync_equals_clause_by_clause(seed):
    rng = random.Random(seed)
    nv = rng.randint(2, 8)
    # units fix some literals at level 0, so the batch meets true and false ones
    base = [(rng.choice([1, -1]) * v,) for v in rng.sample(range(1, nv + 1), rng.randint(0, 2))]
    top = nv + rng.randint(0, 2)  # the batch may name variables not yet declared
    lit = lambda: rng.choice([1, -1]) * rng.randint(1, top)
    batch = []
    for _ in range(rng.randint(0, 14)):
        c = [lit() for _ in range(rng.randint(1, 4))]  # drawn with repeats
        if rng.random() < 0.2:
            c.append(-c[0])  # tautology
        batch.append(tuple(c))
    if rng.random() < 0.1:
        batch.insert(rng.randint(0, len(batch)), ())
    one = sm.SatContext(_inst(nv, base))
    each = sm.SatContext(_inst(nv, base))
    # literal 0 is refused by both before anything is stored
    zero = (lit(), 0)
    bad = list(batch)
    bad.insert(rng.randint(0, len(bad)), zero)
    for ctx, refused in ((one, bad), (each, [zero])):
        before = _state(ctx)
        with pytest.raises(sm.MalformedInstanceError, match="literal 0"):
            ctx.add_clauses(refused)
        assert _state(ctx) == before
    one.add_clauses(batch)
    for c in batch:
        each.add_clauses([c])
    assert _state(one) == _state(each)
    assumptions = [rng.choice([1, -1]) * v for v in rng.sample(range(1, one.num_vars + 1), rng.randint(0, 2))]
    a, b = one.solve(assumptions), each.solve(assumptions)
    assert (a.status, a.raw_model) == (b.status, b.raw_model)
    assert (a.stats.conflicts, a.stats.decisions, a.stats.propagations) == (
        b.stats.conflicts, b.stats.decisions, b.stats.propagations)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_first_false_clause_is_the_first_a_scan_finds(seed):
    # batches of empty, unit and long clauses over variables past 255, added
    # one call at a time so that the store merges them; most clauses hold
    # under a hidden model, which is checked with a few variables flipped
    rng = random.Random(seed)
    nv = rng.choice([3, 40, 300, 700])
    hidden = [0] + [rng.randint(0, 1) for _ in range(nv)]
    batches = []
    for _ in range(rng.randint(1, 12)):
        batch = []
        for _ in range(rng.choice([0, 1, 3, 20, 90])):
            n = 0 if rng.random() < 0.01 else rng.choice([1, 1, 2, 3, 3, 8, 40])
            c = [rng.choice([1, -1]) * rng.randint(1, nv) for _ in range(n)]
            if c and rng.random() < 0.97:
                v = rng.randint(1, nv)
                c[rng.randrange(n)] = v if hidden[v] else -v
            batch.append(tuple(c))
        batches.append(batch)
    ctx = sm.SatContext(_inst(nv, batches[0]))
    for batch in batches[1:]:
        ctx.add_clauses(batch)
    clauses = [c for batch in batches for c in batch]
    assert ctx.stored_clauses() == clauses
    for flips in (0, 1, 3, nv):
        model = list(hidden)
        for v in rng.sample(range(1, nv + 1), flips):
            model[v] ^= 1
        want = next((i for i, c in enumerate(clauses)
                     if not any(model[l] if l > 0 else not model[-l] for l in c)), None)
        assert ctx._first_false_clause(bytes(model)) == want


def test_pick_falls_back_to_the_lowest_open_variable():
    # implied variables are never queued, so once the heap is empty the pick
    # is the lowest open one, in its saved phase
    s = sm.Cdcl()
    s.add_clauses([(1, 2, 3, 4, 5)])
    s.mark_implied(range(1, 6))
    s.heap.clear()
    s.add_clauses([(-2,)])
    s.polarity[3] = 1
    assert s._pick_branch() == 1 << 1 | 1  # variable 1, negative phase
    s.add_clauses([(1,)])
    assert s._pick_branch() == 3 << 1  # variable 3, positive phase
    s.add_clauses([(-3,), (4,), (5,)])
    assert s._pick_branch() == -1


def test_conflict_budget_reports_timeout():
    # pigeonhole: 6 pigeons in 5 holes, comfortably past a 10-conflict budget
    bld = CnfBuilder()
    v = [[bld.new_var() for _ in range(5)] for _ in range(6)]
    for p in range(6):
        bld.add(*v[p])
    for h in range(5):
        for p1 in range(6):
            for p2 in range(p1 + 1, 6):
                bld.add(-v[p1][h], -v[p2][h])
    ctx = sm.SatContext(bld.build())
    assert ctx.solve(conflict_budget=10).status == sm.TIMEOUT
    assert ctx.solve().status == sm.UNSAT


def test_branching_follows_activity_after_rescale():
    # a large starting increment pushes activities past the 1e100 rescale
    # threshold within a few conflicts; afterwards the next decision must
    # still be the open variable with the highest current activity
    rescaled = 0
    for seed in range(8):
        rng = random.Random(seed)
        s = sm.Cdcl()
        s.add_clauses([[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 61), 3)]
                       for _ in range(255)])
        s.var_inc = 1e98
        s.solve(conflict_budget=60)
        if s.var_inc > 1e90:
            continue
        rescaled += 1
        open_vars = [v for v in range(1, s.nvars + 1) if s.val[v << 1] == 0 and s.branchable[v]]
        picked = s._pick_branch() >> 1
        assert s.activity[picked] == max(s.activity[v] for v in open_vars), seed
    assert rescaled >= 3


def _check_heap(s):
    """Every unassigned branchable variable has exactly one flagged entry at
    its current activity, and the next pick is the open variable of highest
    (activity, -v)."""
    entries = collections.Counter(s.heap)
    for key, v in entries:
        assert key >= -s.activity[v]  # an entry is current or older
    for v in range(1, s.nvars + 1):
        current = entries[(-s.activity[v], v)]
        if s.in_heap[v]:
            assert current == 1, v
        if s.val[v << 1] == 0 and s.branchable[v]:
            assert s.in_heap[v], v
    open_vars = [v for v in range(1, s.nvars + 1) if s.val[v << 1] == 0]
    probe = copy.deepcopy(s)  # a pick consumes the entry
    picked = probe._pick_branch()
    if open_vars:
        assert picked >> 1 == max(open_vars, key=lambda v: (s.activity[v], -v))
    else:
        assert picked == -1


def _random_clauses(rng, nv, count, widths):
    return [
        tuple(rng.choice([1, -1]) * v for v in rng.sample(range(1, nv + 1), rng.randint(*widths)))
        for _ in range(count)
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.lists(st.sampled_from("as"), max_size=25))
def test_heap_keeps_one_current_entry_per_variable(seed, ops):
    # a = add clauses, s = solve
    rng = random.Random(seed)
    s = sm.Cdcl()
    if rng.random() < 0.3:
        s.var_inc = 1e98  # activities pass the rescale threshold early
    nv = rng.randint(3, 12)
    s.ensure_vars(nv)
    s.add_clauses(_random_clauses(rng, nv, rng.randint(nv, 4 * nv), (2, min(3, nv))))
    _check_heap(s)
    for op in ops:
        if op == "a":
            nv += rng.randint(0, 2)
            s.ensure_vars(nv)
            s.add_clauses(_random_clauses(rng, nv, rng.randint(1, 4), (1, 3)))
        else:
            assumptions = [rng.choice([1, -1]) * v for v in rng.sample(range(1, nv + 1), rng.randint(0, 2))]
            s.solve(assumptions)
        _check_heap(s)


def test_heap_compaction_keeps_the_pick():
    rng = random.Random(3)
    s = sm.Cdcl()
    s.add_clauses(_random_clauses(rng, 40, 170, (3, 3)))
    s.solve(conflict_budget=20)
    want = copy.deepcopy(s)._pick_branch()
    # stale entries past the compaction threshold: old keys of every variable
    s.heap.extend((1.0 - s.activity[v], v) for v in range(1, 41) for _ in range(30))
    heapq.heapify(s.heap)
    assert s._pick_branch() == want
    assert len(s.heap) < 41


def _entailed(models, clause):
    return all(any(m[l] if l > 0 else not m[-l] for l in clause) for m in models)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_learnt_clauses_are_entailed(seed):
    # learnt clauses come out of _analyze and its minimization, which read
    # binary reasons as bare literals and longer ones as clause lists;
    # ternary clauses below the satisfiability threshold leave models that
    # an unsound clause can exclude, and solving them under several
    # assumptions still learns binary clauses, which imply by bare literals
    rng = random.Random(seed)
    nv = rng.randint(6, 8)
    clauses = _random_clauses(rng, nv, rng.randint(2 * nv, 4 * nv), (3, 3))
    assignments = ((False, *bits) for bits in itertools.product([False, True], repeat=nv))
    models = [m for m in assignments if all(_entailed([m], c) for c in clauses)]
    s = sm.Cdcl()
    s.add_clauses(clauses)
    for _ in range(16):
        s.solve([rng.choice([1, -1]) * v for v in rng.sample(range(1, nv + 1), rng.randint(2, 5))])
        learnt = [c for c in s.learnts if c]
        learnt += [[a, b] for a in range(2, len(s.bwatch)) for b in s.bwatch[a]]
        learnt += [[e] for e in s.trail]  # level-0 units
        for c in learnt:
            lits = tuple(-(e >> 1) if e & 1 else e >> 1 for e in c)
            assert _entailed(models, lits), lits


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    nv = rng.randint(1, 8)
    clauses = []
    for _ in range(rng.randint(1, 30)):
        clauses.append(
            tuple(rng.choice([1, -1]) * rng.randint(1, nv) for _ in range(rng.randint(1, 3)))
        )
    res = sm.SatContext(_inst(nv, clauses)).solve()
    assert (res.status == sm.SAT) == _brute_sat(nv, clauses)


def test_solver_is_deterministic():
    rng = random.Random(5)
    clauses = [
        tuple(rng.choice([1, -1]) * rng.randint(1, 30) for _ in range(3)) for _ in range(120)
    ]
    inst = _inst(30, clauses)
    first = sm.SatContext(inst).solve()
    second = sm.SatContext(inst).solve()
    assert first.status == second.status
    assert first.raw_model == second.raw_model
    for counter in ("conflicts", "decisions", "propagations"):
        assert getattr(first.stats, counter) == getattr(second.stats, counter), counter
    assert first.stats.decisions > 0


_REAL_SOLVE = sm.Cdcl.solve


def _corrupting_solve(flip):
    """A Cdcl.solve that hands back a model with the given variables flipped."""

    def solve(self, *args, **kwargs):
        status = _REAL_SOLVE(self, *args, **kwargs)
        if status == sm.UNSAT:  # claim a model anyway: every variable false
            self.model = bytes(self.nvars + 1)
            return sm.SAT
        model = bytearray(self.model)
        for v in flip:
            model[v] ^= 1
        self.model = bytes(model)
        return status

    return solve


def test_verifier_refuses_bad_models(monkeypatch):
    # a violated clause: the true model of (1)(1 v 2)(-2) with 1 flipped
    monkeypatch.setattr(sm.Cdcl, "solve", _corrupting_solve([1]))
    with pytest.raises(sm.ModelVerificationError, match=r"clause \(1,\)"):
        sm.SatContext(_inst(2, [(1,), (1, 2), (-2,)])).solve()
    # a violated clause added after a SAT answer: the one blocking its model
    monkeypatch.setattr(sm.Cdcl, "solve", _corrupting_solve([]))
    ctx = sm.SatContext(_inst(2, [(1, 2)]))
    res = ctx.solve()
    ctx.add_clauses([[-v if res.raw_model[v] else v for v in (1, 2)]])
    monkeypatch.setattr(sm.Cdcl, "solve", lambda self, *a, **k: sm.SAT)  # same model again
    with pytest.raises(sm.ModelVerificationError, match="does not satisfy clause"):
        ctx.solve()
    # an empty clause, which no model satisfies (reduceat alone would read
    # the next clause's first literal in its place)
    monkeypatch.setattr(sm.Cdcl, "solve", _corrupting_solve([]))
    with pytest.raises(sm.ModelVerificationError, match=r"clause \(\)"):
        sm.SatContext(_inst(2, [(1, 2), (), (-1,)])).solve()
    with pytest.raises(sm.ModelVerificationError, match=r"clause \(\)"):
        sm.SatContext(_inst(2, [(1, 2), ()])).solve()
    # a violated assumption: the clauses hold, the assumed literal does not
    monkeypatch.setattr(sm.Cdcl, "solve", _corrupting_solve([2]))
    with pytest.raises(sm.ModelVerificationError, match="assumption 2"):
        sm.SatContext(_inst(2, [(1,)])).solve([2])
    # a model that leaves declared variables out
    monkeypatch.setattr(sm.Cdcl, "solve", lambda self, *a, **k: sm.SAT)
    ctx = sm.SatContext(_inst(3, [(1, 2)]))
    ctx._cdcl.model = b"\x00\x01"
    with pytest.raises(sm.ModelVerificationError, match="assigns 1 of 3"):
        ctx.solve()


def test_verifier_refuses_a_model_one_variable_short(monkeypatch):
    # variable 3 is declared but in no clause, so only the length check sees
    # that the model leaves it out
    monkeypatch.setattr(sm.Cdcl, "solve", lambda self, *a, **k: sm.SAT)
    ctx = sm.SatContext(_inst(3, [(1, 2)]))
    ctx._cdcl.model = b"\x00\x01\x00"
    with pytest.raises(sm.ModelVerificationError, match="assigns 2 of 3"):
        ctx.solve()
