import random

import pytest

from seqdecam import sat as sm
from seqdecam.encode import (
    AttackInstance,
    encode_bmc_disagreement,
    encode_ce,
    encode_consistency,
    encode_keyed_frame,
    encode_uc,
)
from seqdecam.gen import random_camo, random_circuit
from seqdecam.netlist import BitSeq, Completion, run_sequence, step
from seqdecam.oracle import OracleConflictError, QuerySet, record
from seqdecam.attack import consistent

from conftest import S27_SECRET


def _pin(lits, bits):
    return [l if b else -l for l, b in zip(lits, bits)]


def _key_bits(camo, x):
    bits = []
    for cell, v in zip(camo.cells, x.choices):
        nbits = max(1, (cell.t - 1).bit_length())
        bits.extend((v >> i) & 1 for i in range(nbits))
    return bits


def _status(inst):
    return sm.SatContext(inst).solve().status


def _consistent_set_by_simulation(camo, qs):
    return {x.choices for x in camo.all_completions() if consistent(camo, x, qs)}


def _consistent_set_by_cnf(camo, qs):
    inst = encode_consistency(camo, qs)
    ctx = sm.SatContext(inst)
    keys = inst.groups["key"]
    found = set()
    for x in camo.all_completions():
        if ctx.solve(_pin(keys, _key_bits(camo, x))).status == sm.SAT:
            found.add(x.choices)
    return found


# ------------------------------------------------------------- keyed frame

def test_keyed_frame_forces_step_outputs_random():
    rng = random.Random(123)
    checked = 0
    while checked < 300:
        camo, _ = random_camo(rng, random_circuit(rng))
        inst = encode_keyed_frame(camo)
        ctx = sm.SatContext(inst)
        m, l = camo.num_inputs, camo.num_flops
        for _ in range(4):
            x = Completion(tuple(rng.randrange(c.t) for c in camo.cells))
            state = rng.randrange(1 << l) if l else 0
            inp = rng.randrange(1 << m)
            assume = _pin(inst.groups["key"], _key_bits(camo, x))
            assume += _pin(inst.groups["state"], [(state >> i) & 1 for i in range(l)])
            assume += _pin(inst.groups["input"], [(inp >> i) & 1 for i in range(m)])
            res = ctx.solve(assume)
            assert res.status == sm.SAT
            got_o = sum(b << i for i, b in enumerate(res.bits(inst.groups["output"])))
            got_n = sum(b << i for i, b in enumerate(res.bits(inst.groups["next"])))
            assert (got_o, got_n) == step(camo, x, state, inp)
            checked += 1


def test_keyed_frame_buf_circuit_aliases_input():
    from seqdecam.netlist import camouflage, parse_bench

    c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\nz = AND(a, a)\n")
    camo = camouflage(c, ["z"], ["AND", "OR"])
    inst = encode_keyed_frame(camo)
    # the BUF output is the input literal itself, no extra variable
    assert inst.groups["output"] == inst.groups["input"]


def test_keyed_frame_s27_matches_brute_force_table(s27_camo):
    inst = encode_keyed_frame(s27_camo)
    ctx = sm.SatContext(inst)
    for x in s27_camo.all_completions():
        for inp in range(16):
            assume = _pin(inst.groups["key"], _key_bits(s27_camo, x))
            assume += _pin(inst.groups["state"], [0, 0, 0])
            assume += _pin(inst.groups["input"], [(inp >> i) & 1 for i in range(4)])
            res = ctx.solve(assume)
            assert res.status == sm.SAT
            got = sum(b << i for i, b in enumerate(res.bits(inst.groups["output"])))
            assert got == step(s27_camo, x, 0, inp)[0]


# ------------------------------------------------------------- consistency

def test_consistency_empty_accepts_every_key(s27_camo):
    assert _consistent_set_by_cnf(s27_camo, QuerySet()) == {
        x.choices for x in s27_camo.all_completions()
    }


def test_consistency_single_step_records_keep_all_four(s27_camo):
    qs = QuerySet()
    for i in range(16):
        seq = BitSeq(4, (i,))
        qs = record(qs, seq, run_sequence(s27_camo, S27_SECRET, seq))
    assert _consistent_set_by_cnf(s27_camo, qs) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_consistency_two_step_records_isolate_secret(s27_camo):
    qs = QuerySet()
    for steps in [(8, 9), (4, 8)]:
        seq = BitSeq(4, steps)
        qs = record(qs, seq, run_sequence(s27_camo, S27_SECRET, seq))
    assert _consistent_set_by_cnf(s27_camo, qs) == {S27_SECRET.choices}


def test_consistency_matches_simulation_on_random_circuits():
    rng = random.Random(7)
    for _ in range(60):
        camo, secret = random_camo(rng, random_circuit(rng))
        m = camo.num_inputs
        qs = QuerySet()
        for _ in range(rng.randint(0, 3)):
            seq = BitSeq(m, tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 4))))
            qs = record(qs, seq, run_sequence(camo, secret, seq))
        assert _consistent_set_by_cnf(camo, qs) == _consistent_set_by_simulation(camo, qs)


def test_consistency_larger_key_space_exhaustive():
    # k up to 10 cells: CNF solution set equals brute-force enumeration
    rng = random.Random(41)
    c = random_circuit(rng, num_inputs=3, num_outputs=2, num_flops=2, num_gates=24)
    camo, secret = random_camo(rng, c, k=min(10, sum(len(g.ins) > 1 for g in c.gates)))
    qs = QuerySet()
    for _ in range(2):
        seq = BitSeq(3, tuple(rng.randrange(8) for _ in range(3)))
        qs = record(qs, seq, run_sequence(camo, secret, seq))
    assert _consistent_set_by_cnf(camo, qs) == _consistent_set_by_simulation(camo, qs)


# ------------------------------------------------------------ disagreement

def test_bmc_b1_unsat_on_s27(s27_camo):
    assert _status(encode_bmc_disagreement(s27_camo, QuerySet(), 1)) == sm.UNSAT


def test_bmc_b2_sat_on_s27(s27_camo):
    assert _status(encode_bmc_disagreement(s27_camo, QuerySet(), 2)) == sm.SAT


def test_bmc_unsat_when_single_completion_remains(s27_camo):
    qs = QuerySet()
    for steps in [(8, 9), (4, 8)]:
        seq = BitSeq(4, steps)
        qs = record(qs, seq, run_sequence(s27_camo, S27_SECRET, seq))
    for b in (1, 2, 4, 8):
        assert _status(encode_bmc_disagreement(s27_camo, qs, b)) == sm.UNSAT


def test_bmc_monotone_in_bound():
    rng = random.Random(17)
    for _ in range(25):
        camo, secret = random_camo(rng, random_circuit(rng))
        statuses = []
        for b in (1, 2, 3, 5):
            statuses.append(_status(encode_bmc_disagreement(camo, QuerySet(), b)))
        # once SAT, larger bounds stay SAT
        seen_sat = False
        for s in statuses:
            if seen_sat:
                assert s == sm.SAT
            seen_sat = seen_sat or s == sm.SAT


def test_bmc_bound_validation(s27_camo):
    with pytest.raises(ValueError):
        encode_bmc_disagreement(s27_camo, QuerySet(), 0)
    with pytest.raises(ValueError):
        AttackInstance(s27_camo).solve_bmc(0)


# ----------------------------------------------------------------- UC / CE

def test_uc_sat_with_unconstrained_key_space(s27_camo):
    assert _status(encode_uc(s27_camo, QuerySet())) == sm.SAT


def test_uc_unsat_on_singleton(s27_camo):
    qs = QuerySet()
    for steps in [(8, 9), (4, 8)]:
        seq = BitSeq(4, steps)
        qs = record(qs, seq, run_sequence(s27_camo, S27_SECRET, seq))
    assert _status(encode_uc(s27_camo, qs)) == sm.UNSAT


def test_uc_stays_sat_for_identical_candidates(identical_candidates_camo):
    camo, secret = identical_candidates_camo
    qs = QuerySet()
    for i in (0, 1):
        seq = BitSeq(1, (i, 1 - i, i))
        qs = record(qs, seq, run_sequence(camo, secret, seq))
    assert _status(encode_uc(camo, qs)) == sm.SAT  # UC can never certify


def test_ce_unsat_for_identical_candidates(identical_candidates_camo):
    camo, _ = identical_candidates_camo
    assert _status(encode_ce(camo, QuerySet())) == sm.UNSAT


def test_ce_sat_for_unreachable_divergence(unreachable_divergence_camo):
    camo, _ = unreachable_divergence_camo
    # the two candidates differ at state 1, which is never reachable
    assert _status(encode_ce(camo, QuerySet())) == sm.SAT


def test_ce_sat_on_s27_empty(s27_camo):
    assert _status(encode_ce(s27_camo, QuerySet())) == sm.SAT


def test_uc_unsat_implies_ce_unsat():
    rng = random.Random(3)
    for _ in range(40):
        camo, secret = random_camo(rng, random_circuit(rng))
        m = camo.num_inputs
        qs = QuerySet()
        for _ in range(rng.randint(0, 3)):
            seq = BitSeq(m, tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 4))))
            qs = record(qs, seq, run_sequence(camo, secret, seq))
        if _status(encode_uc(camo, qs)) == sm.UNSAT:
            assert _status(encode_ce(camo, qs)) == sm.UNSAT


# ---------------------------------------------------- incremental instance

def _brute_force_verdicts(camo, qs):
    """BMC at bound 2, UC and CE, each decided by simulating every consistent
    completion: a query is SAT iff two of them differ where it looks."""
    m, l = camo.num_inputs, camo.num_flops
    comps = [x for x in camo.all_completions() if consistent(camo, x, qs)]
    runs2 = {
        tuple(run_sequence(camo, x, BitSeq(m, (a, b))) for a in range(1 << m) for b in range(1 << m))
        for x in comps
    }
    frames = {
        tuple(step(camo, x, st, i) for st in range(1 << l) for i in range(1 << m)) for x in comps
    }
    verdict = lambda differ: sm.SAT if differ else sm.UNSAT
    return verdict(len(runs2) > 1), verdict(len(comps) > 1), verdict(len(frames) > 1)


def test_attack_instance_matches_stateless_queries():
    # reference: brute-force simulation; the one-shot encoders, which build
    # their instance from the whole query set at once, are checked as well
    rng = random.Random(77)
    for _ in range(50):
        camo, secret = random_camo(rng, random_circuit(rng))
        m = camo.num_inputs
        inst = AttackInstance(camo)
        qs = QuerySet()
        for _ in range(3):
            bmc, uc, ce = _brute_force_verdicts(camo, qs)
            assert inst.solve_bmc(2).status == bmc == _status(encode_bmc_disagreement(camo, qs, 2))
            assert inst.solve_uc().status == uc == _status(encode_uc(camo, qs))
            assert inst.solve_ce().status == ce == _status(encode_ce(camo, qs))
            seq = BitSeq(m, tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 3))))
            out = run_sequence(camo, secret, seq)
            qs = record(qs, seq, out)
            inst.add_record(seq, out)
            assert inst.qs == qs


def test_add_record_keeps_the_query_set(s27_camo):
    seq = BitSeq(4, (8, 9))
    out = run_sequence(s27_camo, S27_SECRET, seq)
    inst = AttackInstance(s27_camo)
    assert inst.add_record(seq, out) is True
    qs, emitted = inst.qs, len(inst.bld.clauses)
    assert qs == record(QuerySet(), seq, out)
    # an already-recorded pair is a no-op
    assert inst.add_record(seq, out) is False
    assert len(inst.bld.clauses) == emitted
    # a second answer to the same sequence is rejected before any clause
    lie = BitSeq(1, tuple(1 - b for b in out.steps))
    with pytest.raises(OracleConflictError):
        inst.add_record(seq, lie)
    assert inst.qs == qs and len(inst.bld.clauses) == emitted
    assert AttackInstance.from_queries(s27_camo, qs).qs == qs


def test_attack_instance_enumeration(s27_camo):
    inst = AttackInstance(s27_camo)
    comps = inst.enumerate_consistent(cap=10)
    assert {x.choices for x in comps} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert inst.enumerate_consistent(cap=2) is None
    # enumeration must not poison later queries
    assert inst.solve_consistent().status == sm.SAT
    comps2 = inst.enumerate_consistent(cap=10)
    assert {x.choices for x in comps2} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # a timeout is told apart from the cap
    with pytest.raises(sm.SolverTimeoutError):
        inst.enumerate_consistent(cap=10, budget=0.0)


def test_instance_stats_are_the_sum_of_its_solver_calls(monkeypatch, s27_camo):
    seq = BitSeq(4, (8, 9))
    inst = AttackInstance(s27_camo)
    inst.add_record(seq, run_sequence(s27_camo, S27_SECRET, seq))
    calls = []
    real = sm.SatContext.solve

    def solve(self, *args, **kwargs):
        res = real(self, *args, **kwargs)
        calls.append(res.stats)
        return res

    monkeypatch.setattr(sm.SatContext, "solve", solve)
    assert inst.solve_consistent().status == sm.SAT  # loads the record's clauses
    before = inst.stats
    calls.clear()
    for bound in (1, 2, 3):
        inst.solve_bmc(bound)
    inst.solve_uc()
    inst.solve_ce()
    inst.solve_consistent(inst.k1.value_lits(0, 1))
    assert len(inst.enumerate_consistent(cap=10)) == 2
    after = inst.stats
    assert len(calls) == 9 and sum(c.decisions for c in calls) > 0
    for counter in ("conflicts", "decisions"):
        want = sum(getattr(c, counter) for c in calls)
        assert getattr(after, counter) - getattr(before, counter) == want, counter
    # the running total also holds the level-0 propagation of unit clauses
    # loaded between calls: s27's outputs cannot differ in one frame, so the
    # bound-1 selector is a unit clause
    assert after.propagations - before.propagations >= sum(c.propagations for c in calls)


def _instance_of(camo, qs):
    inst = AttackInstance(camo)
    for seq, out in qs:
        inst.add_record(seq, out)
    return inst


def _enumeration_cases(s27_camo):
    """s27 before and after each frozen record, then 100 small random
    circuits with 0-3 random records of their secret."""
    cases = [(s27_camo, QuerySet())]
    for steps in ((8, 9), (4, 8)):
        seq = BitSeq(4, steps)
        cases.append((s27_camo, record(cases[-1][1], seq, run_sequence(s27_camo, S27_SECRET, seq))))
    rng = random.Random(31337)
    while len(cases) < 103:
        try:
            camo, secret = random_camo(rng, random_circuit(rng), k=rng.randint(1, 3))
        except ValueError:
            continue
        m = camo.num_inputs
        qs = QuerySet()
        for _ in range(rng.randint(0, 3)):
            seq = BitSeq(m, tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 3))))
            qs = record(qs, seq, run_sequence(camo, secret, seq))
        cases.append((camo, qs))
    return cases


def test_enumeration_matches_brute_force_sweep(s27_camo):
    for camo, qs in _enumeration_cases(s27_camo):
        want = {x.choices for x in camo.all_completions() if consistent(camo, x, qs)}
        n = len(want)
        inst = _instance_of(camo, qs)
        for cap in (n - 1, n, n + 1):
            got = inst.enumerate_consistent(cap)
            assert inst._ctx._cdcl.trail_lim == []
            if cap < n:
                assert got is None
                continue
            assert len(got) == n and {x.choices for x in got} == want
            again = AttackInstance.from_queries(camo, qs).enumerate_consistent(cap)
            assert len(again) == n and {x.choices for x in again} == want
        # two fresh instances list the same completions in the same order
        first = _instance_of(camo, qs).enumerate_consistent(n)
        assert _instance_of(camo, qs).enumerate_consistent(n) == first
        # blocking clauses bind only their own enumeration
        fresh = _instance_of(camo, qs)
        for bound in (1, 2):
            assert inst.solve_bmc(bound).status == fresh.solve_bmc(bound).status
        assert inst.solve_uc().status == fresh.solve_uc().status


def test_enumeration_leaves_level_0_on_every_exit(monkeypatch, s27_camo):
    inst = AttackInstance(s27_camo)
    solver = inst._ctx._cdcl

    def trail():
        assert not solver.late  # the key is decided like any variable again
        return solver.trail_lim

    assert len(inst.enumerate_consistent(cap=10)) == 4  # ends UNSAT
    assert trail() == []
    assert inst.enumerate_consistent(cap=2) is None  # ends at the cap
    assert trail() == []
    # the third model search resumes from a kept trail and times out
    real = sm.Cdcl.solve
    resumed_at = []

    def third_times_out(self, assumptions=(), conflict_budget=None, time_budget=None,
                        resume=False):
        resumed_at.append(len(self.trail_lim))
        if len(resumed_at) == 3:
            time_budget = 0.0
        return real(self, assumptions, conflict_budget, time_budget, resume)

    monkeypatch.setattr(sm.Cdcl, "solve", third_times_out)
    with pytest.raises(sm.SolverTimeoutError):
        inst.enumerate_consistent(cap=10)
    assert resumed_at[2] > 0 and trail() == []
    monkeypatch.undo()

    def fail(self, clause):
        raise RuntimeError("blocking failed")

    monkeypatch.setattr(sm.SatContext, "block", fail)
    with pytest.raises(RuntimeError, match="blocking failed"):
        inst.enumerate_consistent(cap=10)
    assert trail() == []
    monkeypatch.undo()
    # later queries answer as on a fresh instance
    fresh = AttackInstance(s27_camo)
    for bound in (1, 2, 3):
        assert inst.solve_bmc(bound).status == fresh.solve_bmc(bound).status
        assert trail() == []
    for ci, cell in enumerate(s27_camo.cells):
        for v in range(cell.t):
            pin = inst.k1.value_lits(ci, v)
            assert inst.solve_consistent(pin).status == fresh.solve_consistent(pin).status
    assert len(inst.enumerate_consistent(cap=4)) == 4


def test_dimacs_header_of_bmc_instance(s27_camo):
    # the named variable groups of a one-shot BMC instance
    inst = encode_bmc_disagreement(s27_camo, QuerySet(), 2)
    assert {"key1", "key2", "in0", "in1"} <= inst.groups.keys()
    assert "in2" not in inst.groups
    assert len(inst.groups["key1"]) == len(inst.groups["key2"]) == 2
    assert len(inst.groups["in0"]) == len(inst.groups["in1"]) == s27_camo.num_inputs
