import itertools
import random

import pytest

from seqdecam import attack as atk
from seqdecam.gen import random_camo, random_circuit
from seqdecam.netlist import BitSeq, Completion, run_sequence
from seqdecam.oracle import BlackBox, QuerySet, record

from conftest import S27_SECRET


def _observe(camo, secret, steps_list):
    qs = QuerySet()
    for steps in steps_list:
        seq = BitSeq(camo.num_inputs, steps)
        qs = record(qs, seq, run_sequence(camo, secret, seq))
    return qs


S27_DISC = [(8, 9), (4, 8)]  # frozen 2-step sequences splitting each cell


# --------------------------------------------------- find_distinguishing

def test_find_distinguishing_none_at_b1(s27_camo):
    assert atk.find_distinguishing(s27_camo, QuerySet(), 1) is None


def test_find_distinguishing_triple_at_b2(s27_camo):
    x1, x2, seq = atk.find_distinguishing(s27_camo, QuerySet(), 2)
    assert len(seq) == 2
    o1 = run_sequence(s27_camo, x1, seq)
    o2 = run_sequence(s27_camo, x2, seq)
    assert o1 != o2
    assert o1.steps[:-1] == o2.steps[:-1]  # truncated at first disagreement


def test_find_distinguishing_respects_records(s27_camo):
    qs = _observe(s27_camo, S27_SECRET, S27_DISC)
    assert atk.find_distinguishing(s27_camo, qs, 8) is None


# --------------------------------------------------------------- UC / CE

def test_check_uc_progression(s27_camo):
    assert atk.check_uc(s27_camo, QuerySet()) is False
    qs = _observe(s27_camo, S27_SECRET, S27_DISC)
    assert atk.check_uc(s27_camo, qs) is True


def test_check_uc_never_true_for_identical_candidates(identical_candidates_camo):
    camo, secret = identical_candidates_camo
    qs = _observe(camo, secret, [(0, 1), (1, 0, 1)])
    assert atk.check_uc(camo, qs) is False
    assert atk.check_ce(camo, qs) is True  # CE catches what UC cannot


def test_check_ce_conservative_on_unreachable_divergence(unreachable_divergence_camo):
    camo, secret = unreachable_divergence_camo
    assert atk.check_ce(camo, QuerySet()) is False
    assert atk.check_umc(camo, QuerySet()) is True  # reachability sees the truth
    assert atk.brute_force_disc(camo, QuerySet()) is True


def test_check_hierarchy_on_singleton(s27_camo):
    qs = _observe(s27_camo, S27_SECRET, S27_DISC)
    assert atk.check_uc(s27_camo, qs)
    assert atk.check_ce(s27_camo, qs)
    assert atk.check_umc(s27_camo, qs)


# ----------------------------------------------------------- product BFS

def test_product_equiv_identity(s27_camo):
    assert atk.product_equiv(s27_camo, S27_SECRET, S27_SECRET) is None


def test_product_equiv_s27_witness_length_two(s27_camo):
    w = atk.product_equiv(s27_camo, Completion((0, 1)), Completion((1, 0)))
    assert w is not None and len(w) == 2
    assert run_sequence(s27_camo, Completion((0, 1)), w) != run_sequence(
        s27_camo, Completion((1, 0)), w
    )


def test_product_equiv_witness_is_shortest(s27_camo):
    # no single-step witness exists for any completion pair on this circuit
    for a, b in itertools.combinations(s27_camo.all_completions(), 2):
        w = atk.product_equiv(s27_camo, a, b)
        if w is not None:
            assert len(w) >= 2


def _equivalent_by_bounded_enumeration(camo, x1, x2, max_len):
    m = camo.num_inputs
    for p in range(1, max_len + 1):
        for steps in itertools.product(range(1 << m), repeat=p):
            seq = BitSeq(m, steps)
            if run_sequence(camo, x1, seq) != run_sequence(camo, x2, seq):
                return False, seq
    return True, None


def test_product_equiv_vs_exhaustive_sequences():
    # on one-flop circuits the product diameter is at most 4, so enumerating
    # every sequence up to that length is a complete independent oracle
    rng = random.Random(13)
    done = 0
    while done < 30:
        c = random_circuit(rng, num_flops=rng.randint(0, 1), num_inputs=rng.randint(1, 2))
        try:
            camo, _ = random_camo(rng, c, k=rng.randint(1, 2))
        except ValueError:
            continue
        diameter = 1 << (2 * camo.num_flops)
        for x1, x2 in itertools.combinations(camo.all_completions(), 2):
            w = atk.product_equiv(camo, x1, x2)
            equiv, seq = _equivalent_by_bounded_enumeration(camo, x1, x2, diameter)
            assert (w is None) == equiv
            if w is not None:
                assert len(w) <= len(seq)  # breadth-first witness is shortest
        done += 1


def test_product_cap_raises(s27_camo):
    with pytest.raises(atk.ProductCapError):
        atk.product_equiv(s27_camo, Completion((0, 1)), Completion((1, 0)), expand_cap=4)


# ------------------------------------------------------------- unbounded

def test_umc_modes_agree(s27_camo):
    qs_empty = QuerySet()
    qs_full = _observe(s27_camo, S27_SECRET, S27_DISC)
    for qs, want in ((qs_empty, False), (qs_full, True)):
        explicit = atk.check_umc(s27_camo, qs, atk.AttackConfig(umc_mode="explicit"))
        bmc = atk.check_umc(s27_camo, qs, atk.AttackConfig(umc_mode="bmc"))
        assert explicit == bmc == want


def test_umc_skip_raises(s27_camo):
    with pytest.raises(atk.InconclusiveError):
        atk.check_umc(s27_camo, QuerySet(), atk.AttackConfig(umc_mode="skip"))


# the flop of AND(a, s) never leaves reset while that of OR(a, s) latches the
# first a=1, but no output reads it: equivalent completions, not in lock-step
DEAD_FLOP = """
INPUT(a)
OUTPUT(y)
y = BUF(a)
s = DFF(g)
g = AND(a, s)
"""


def test_umc_product_search_only_for_survivors_out_of_lockstep(monkeypatch):
    from seqdecam.netlist import camouflage, parse_bench

    camo = camouflage(parse_bench(DEAD_FLOP, "dead_flop"), ["g"], ["AND", "OR"])
    calls = []
    orig = atk.product_equiv

    def spy(*args, **kwargs):
        calls.append(args[1:3])
        return orig(*args, **kwargs)

    monkeypatch.setattr(atk, "product_equiv", spy)
    assert atk.check_umc(camo, QuerySet(), atk.AttackConfig()) is True
    assert len(calls) == 1


def test_umc_lockstep_survivors_need_no_product_search(monkeypatch, identical_candidates_camo):
    camo, _ = identical_candidates_camo

    def refuse(*args, **kwargs):
        raise AssertionError("product search ran for survivors in lock-step")

    monkeypatch.setattr(atk, "product_equiv", refuse)
    assert atk.check_umc(camo, QuerySet(), atk.AttackConfig()) is True


def test_umc_finds_an_inequivalent_survivor_past_the_second(monkeypatch):
    # cell 0 is the dead-flop AND/OR (equivalent either way), cell 1 drives
    # the output; only the last survivor differs from the reference
    from seqdecam.netlist import camouflage, parse_bench

    src = DEAD_FLOP.replace("y = BUF(a)", "INPUT(b)\ny = AND(a, b)")
    camo = camouflage(parse_bench(src, "dead_flop2"), ["g", "y"], ["AND", "OR"])
    comps = [Completion((0, 0)), Completion((1, 0)), Completion((0, 1))]
    w = atk._first_inequivalent(camo, comps, 1 << 10, 1 << 10)
    assert w is not None
    assert run_sequence(camo, comps[0], w) != run_sequence(camo, comps[2], w)
    monkeypatch.setattr(atk, "_enumerate_consistent", lambda *args: comps)
    assert atk.check_umc(camo, QuerySet(), atk.AttackConfig()) is False


def test_first_inequivalent_agrees_with_pairwise_search():
    rng = random.Random(5150)
    verdicts = set()
    circuits = 0
    while circuits < 100:
        c = random_circuit(rng, num_flops=rng.randint(0, 3))
        try:
            camo, secret = random_camo(rng, c, k=rng.randint(1, 3))
        except ValueError:
            continue
        m = camo.num_inputs
        seq = BitSeq(m, tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 3))))
        qs = record(QuerySet(), seq, run_sequence(camo, secret, seq))
        for pool in (list(camo.all_completions()), [x for x in camo.all_completions()
                                                    if atk.consistent(camo, x, qs)]):
            rng.shuffle(pool)
            pairwise = all(
                atk.product_equiv(camo, a, b) is None for a, b in itertools.combinations(pool, 2)
            )
            w = atk._first_inequivalent(camo, pool, 1 << 26, 1 << 26)
            assert (w is None) == pairwise
            if w is not None:
                ref = run_sequence(camo, pool[0], w)
                assert any(run_sequence(camo, x, w) != ref for x in pool[1:])
            verdicts.add(pairwise)
        circuits += 1
    assert verdicts == {True, False}


def test_umc_product_cap_falls_back_to_bmc(monkeypatch, s27_camo):
    from seqdecam import sat as sm
    from seqdecam.encode import AttackInstance

    searches = []
    orig = AttackInstance.solve_bmc

    def spy(self, bound, *args):
        searches.append((self, bound))
        return orig(self, bound, *args)

    monkeypatch.setattr(AttackInstance, "solve_bmc", spy)
    cfg = atk.AttackConfig(product_state_cap=1)
    assert atk.check_umc(s27_camo, QuerySet(), cfg) is False
    assert [b for _, b in searches] == [64]  # the product diameter of three flops per copy
    # handed an instance, the check asks it and builds no second solver context
    inst = AttackInstance(s27_camo)
    contexts = []
    real_init = sm.SatContext.__init__

    def count_init(self, *args, **kwargs):
        contexts.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(sm.SatContext, "__init__", count_init)
    searches.clear()
    assert atk.check_umc(s27_camo, QuerySet(), cfg, instance=inst) is False
    assert searches == [(inst, 64)]
    assert contexts == []


def test_umc_bmc_below_diameter_is_inconclusive_at_once(monkeypatch):
    from seqdecam.encode import AttackInstance
    from seqdecam.netlist import camouflage, parse_bench
    from test_acceptance import DELAY_LINE

    camo = camouflage(parse_bench(DELAY_LINE, "delayline"), ["e"], ["NAND", "NOR"])

    def refuse(*args, **kwargs):
        raise AssertionError("bounded search ran although it cannot certify")

    monkeypatch.setattr(AttackInstance, "solve_bmc", refuse)
    with pytest.raises(atk.InconclusiveError, match="max_bound 120 .* diameter 256"):
        atk.check_umc(camo, QuerySet(), atk.AttackConfig(umc_mode="bmc"))


def test_umc_names_an_enumeration_timeout(s27_camo):
    from seqdecam.encode import AttackInstance

    cfg = atk.AttackConfig(bmc_inc=1, max_bound=4, solver_budget=0.0)
    with pytest.raises(atk.InconclusiveError, match="^solver budget exhausted during enumeration; "
                       "bounded search cannot certify"):
        atk.check_umc(s27_camo, QuerySet(), cfg, instance=AttackInstance(s27_camo))


def test_brute_force_examples(s27_camo, identical_candidates_camo):
    assert atk.brute_force_disc(s27_camo, QuerySet()) is False
    qs = _observe(s27_camo, S27_SECRET, S27_DISC)
    assert atk.brute_force_disc(s27_camo, qs) is True
    camo, _ = identical_candidates_camo
    assert atk.brute_force_disc(camo, QuerySet()) is True
    with pytest.raises(atk.InconclusiveError):
        atk.brute_force_disc(s27_camo, QuerySet(), completion_cap=3)


# ------------------------------------------------------------ completion

def test_recover_completion_singleton(s27_camo):
    qs = _observe(s27_camo, S27_SECRET, S27_DISC)
    assert atk.recover_completion(s27_camo, qs) == S27_SECRET


def test_recover_completion_oracle_conflict(s27_camo):
    # fabricated observation no completion can reproduce: single-step output
    # is completion-independent, so flipping it breaks everything
    seq = BitSeq(4, (0,))
    truth = run_sequence(s27_camo, S27_SECRET, seq)
    lie = BitSeq(1, (1 - truth.steps[0],))
    qs = record(QuerySet(), seq, lie)
    with pytest.raises(atk.OracleInconsistentError):
        atk.recover_completion(s27_camo, qs)


def test_partial_completion_all_ambiguous_after_single_steps(s27_camo):
    qs = _observe(s27_camo, S27_SECRET, [(i,) for i in range(16)])
    verdicts = atk.partial_completion(s27_camo, qs)
    assert verdicts == {"G13": None, "G10": None}


def test_partial_completion_fixed_on_singleton(s27_camo):
    qs = _observe(s27_camo, S27_SECRET, S27_DISC)
    verdicts = atk.partial_completion(s27_camo, qs)
    assert verdicts == {"G13": 0, "G10": 1}


def test_partial_completion_half_constrained(s27_camo):
    # only the first sequence: G13 resolved, G10 still open
    qs = _observe(s27_camo, S27_SECRET, S27_DISC[:1])
    verdicts = atk.partial_completion(s27_camo, qs)
    assert verdicts["G13"] == 0
    assert verdicts["G10"] is None


# -------------------------------------------------------------- run_attack

def test_run_attack_s27(s27_camo):
    box = BlackBox(s27_camo, S27_SECRET)
    rep = atk.run_attack(s27_camo, box, atk.AttackConfig(bmc_inc=2, max_bound=16))
    assert rep.termination == atk.UC
    assert rep.completions == (S27_SECRET,)
    assert rep.max_seq_len == 2
    assert len(rep.disc_set) >= 1
    assert rep.query_count == len(rep.disc_set)
    assert atk.product_equiv(s27_camo, rep.completions[0], S27_SECRET) is None


def test_run_attack_soundness_random_circuits():
    rng = random.Random(2024)
    done = 0
    while done < 25:
        camo, secret = random_camo(rng, random_circuit(rng))
        box = BlackBox(camo, secret)
        cfg = atk.AttackConfig(bmc_inc=2, max_bound=64)
        rep = atk.run_attack(camo, box, cfg)
        assert rep.success, (camo.base.name, rep.termination)
        x = rep.completions[0]
        # recovered completion reproduces the oracle on the whole disc set
        for seq, out in rep.disc_set:
            assert run_sequence(camo, x, seq) == out
        assert atk.product_equiv(camo, x, secret) is None
        # the final set is genuinely discriminating per the ground-truth oracle
        assert atk.brute_force_disc(camo, rep.disc_set) is True
        done += 1


def test_run_attack_degenerate_identical_candidates(identical_candidates_camo):
    camo, secret = identical_candidates_camo
    box = BlackBox(camo, secret)
    rep = atk.run_attack(camo, box, atk.AttackConfig(bmc_inc=1, max_bound=4))
    assert rep.termination in (atk.CE, atk.UMC)
    assert rep.completions  # either candidate is a correct completion
    assert atk.product_equiv(camo, rep.completions[0], secret) is None


def test_run_attack_unreachable_divergence_terminates_umc(unreachable_divergence_camo):
    camo, secret = unreachable_divergence_camo
    box = BlackBox(camo, secret)
    rep = atk.run_attack(camo, box, atk.AttackConfig(bmc_inc=1, max_bound=4))
    assert rep.termination == atk.UMC
    assert atk.product_equiv(camo, rep.completions[0], secret) is None


def test_run_attack_exhausted_reports_partials(s27_camo):
    box = BlackBox(s27_camo, S27_SECRET)
    rep = atk.run_attack(s27_camo, box, atk.AttackConfig(bmc_inc=1, max_bound=1, umc_mode="skip"))
    assert rep.termination == atk.EXHAUSTED
    assert not rep.success
    assert rep.partial == {"G13": None, "G10": None}  # one step reveals nothing
    assert rep.gates_fixed == 0


def test_run_attack_reports_are_reproducible(s27_camo):
    cfg = atk.AttackConfig(bmc_inc=2, max_bound=16)
    reports = []
    for _ in range(2):
        box = BlackBox(s27_camo, S27_SECRET)
        reports.append(atk.run_attack(s27_camo, box, cfg))
    a, b = reports
    assert a.disc_set == b.disc_set
    assert a.completions == b.completions
    assert a.termination == b.termination
    assert [(i.bound, i.event, i.seq_len, i.conflicts) for i in a.iterations] == [
        (i.bound, i.event, i.seq_len, i.conflicts) for i in b.iterations
    ]


def test_progress_invariant_each_iteration(s27_camo):
    # after each query, at least one of the counterexample completions is
    # inconsistent; run_attack raises EncodingBugError otherwise, so a clean
    # run is itself the assertion.  Verify the eliminated-count on s27.
    box = BlackBox(s27_camo, S27_SECRET)
    rep = atk.run_attack(s27_camo, box, atk.AttackConfig(bmc_inc=2, max_bound=16))
    survivors = [
        x for x in s27_camo.all_completions() if atk.consistent(s27_camo, x, rep.disc_set)
    ]
    assert len(survivors) == 1 and survivors[0] == S27_SECRET


def test_run_attack_solver_timeout(s27_camo):
    box = BlackBox(s27_camo, S27_SECRET)
    rep = atk.run_attack(
        s27_camo, box, atk.AttackConfig(bmc_inc=2, max_bound=16, solver_budget=0.0)
    )
    assert rep.termination == atk.TIMEOUT_TAG
    assert not rep.success
    assert rep.partial is not None  # every gate conservatively ambiguous
    assert all(v is None for v in rep.partial.values())


def test_run_attack_enumerate_all(identical_candidates_camo):
    camo, secret = identical_candidates_camo
    box = BlackBox(camo, secret)
    cfg = atk.AttackConfig(bmc_inc=1, max_bound=4, enumerate_all=True)
    rep = atk.run_attack(camo, box, cfg)
    assert rep.success
    assert {x.choices for x in rep.completions} == {(0,), (1,)}


def test_run_attack_enumerate_all_keeps_one_completion_at_product_cap():
    # the dead-flop pair is certified by the bounded fallback at the product
    # diameter 4, but the all-survivors check then hits the state cap
    from seqdecam.netlist import camouflage, parse_bench

    camo = camouflage(parse_bench(DEAD_FLOP, "dead_flop"), ["g"], ["AND", "OR"])
    secret = Completion((0,))
    cfg = atk.AttackConfig(bmc_inc=1, max_bound=4, product_state_cap=1, enumerate_all=True)
    rep = atk.run_attack(camo, BlackBox(camo, secret), cfg)
    assert rep.termination == atk.UMC
    assert len(rep.completions) == 1
    assert atk.product_equiv(camo, rep.completions[0], secret) is None


def test_umc_record_counts_every_solver_call_of_the_check(monkeypatch, s27_camo):
    # an enumeration cap of 1 sends every UMC check on to the bounded search
    # at the diameter 64, which adds its frames to the attack's instance
    from seqdecam import sat as sm

    inside = []
    per_check: list[list[int]] = []
    real_solve, real_umc = sm.SatContext.solve, atk.check_umc

    def solve(self, *args, **kwargs):
        res = real_solve(self, *args, **kwargs)
        if inside:
            per_check[-1][0] += res.stats.conflicts
            per_check[-1][1] += res.stats.decisions
        return res

    def check_umc(*args, **kwargs):
        inside.append(True)
        per_check.append([0, 0])
        try:
            return real_umc(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(sm.SatContext, "solve", solve)
    monkeypatch.setattr(atk, "check_umc", check_umc)
    cfg = atk.AttackConfig(bmc_inc=1, max_bound=64, umc_enum_cap=1)
    rep = atk.run_attack(s27_camo, BlackBox(s27_camo, S27_SECRET), cfg)
    umc = [[it.conflicts, it.decisions] for it in rep.iterations if it.event == "umc"]
    assert umc and umc == per_check


def test_three_candidate_cells():
    # t=3 exercises the two-bit key encoding and the >=t blocking clause
    from seqdecam.netlist import camouflage, parse_bench

    c = parse_bench(
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ng = XOR(a, b)\ny = BUF(g)\n", "tri"
    )
    camo = camouflage(c, ["g"], ["NAND", "NOR", "XOR"])
    secret = Completion((2,))
    box = BlackBox(camo, secret)
    rep = atk.run_attack(camo, box, atk.AttackConfig(bmc_inc=1, max_bound=4))
    assert rep.success
    assert rep.completions[0] == secret
    # CNF solution set over the 3 candidates matches simulation exactly
    from seqdecam.encode import encode_consistency
    from seqdecam import sat as sm

    survivors = {
        x.choices for x in camo.all_completions() if atk.consistent(camo, x, rep.disc_set)
    }
    assert survivors == {(2,)}
    inst = encode_consistency(camo, rep.disc_set)
    res = sm.SatContext(inst).solve()
    assert res.status == sm.SAT and res.model["key"] == (0, 1)  # index 2, LSB first


def test_run_attack_at_table_scale_synthetic():
    # not an ISCAS reproduction: a synthetic circuit with the same scale as
    # the 160-gate/15-flop benchmarks, k=32, default bound schedule
    rng = random.Random(1)
    c = random_circuit(rng, num_inputs=9, num_outputs=11, num_flops=15, num_gates=160,
                       name="synth160")
    camo, secret = random_camo(rng, c, k=32)
    box = BlackBox(camo, secret)
    rep = atk.run_attack(camo, box, atk.AttackConfig())
    assert rep.termination == atk.CE
    assert rep.max_seq_len <= 10
    x = rep.completions[0]
    for seq, out in rep.disc_set:
        assert run_sequence(camo, x, seq) == out
    # CE held right after the last query, so no proof closed the final bound
    assert not any(
        i.event == "bound" and i.bound == rep.bound_reached for i in rep.iterations
    )


def test_run_attack_events_carry_status(s27_camo, unreachable_divergence_camo):
    solver = {"SAT", "UNSAT"}
    cases = [
        (s27_camo, S27_SECRET, atk.AttackConfig(bmc_inc=1, max_bound=4, umc_enum_cap=1)),
        (s27_camo, S27_SECRET, atk.AttackConfig(bmc_inc=1, max_bound=4)),
        (*unreachable_divergence_camo, atk.AttackConfig(bmc_inc=1, max_bound=4)),
    ]
    umc = []
    for camo, secret, cfg in cases:
        rep = atk.run_attack(camo, BlackBox(camo, secret), cfg)
        for it in rep.iterations:
            if it.event == "umc":
                umc.append(it)
            else:
                assert it.status in solver
    statuses = [it.status for it in umc]
    assert statuses[0] == (
        "inconclusive: more than 1 consistent completions; bounded search cannot "
        "certify: max_bound 4 is below the product diameter 64"
    )
    assert "refuted" in statuses and statuses[-1] == atk.UMC
    # enumeration runs on the attack's solver, and its work is counted
    assert all(it.decisions > 0 for it in umc)


def test_run_attack_asks_each_check_once_per_query_set():
    # one cell sits behind a four-flop delay line, so bounds 1-4 all close on
    # the same single record before bound 5 finds the second query
    from seqdecam.netlist import camouflage, parse_bench
    from test_acceptance import DELAY_LINE

    camo = camouflage(parse_bench(DELAY_LINE, "delayline"), ["c1", "c2", "c3", "c4", "e"],
                      ["NAND", "NOR"])
    secret = Completion((0, 1, 0, 1, 0))
    box = BlackBox(camo, secret)
    rep = atk.run_attack(camo, box, atk.AttackConfig(bmc_inc=1, max_bound=8))
    assert rep.termination == atk.UC and rep.completions == (secret,)
    assert [i.bound for i in rep.iterations if i.event == "bound"] == [1, 2, 3, 4]
    # uc/ce once per query-set size, umc once per query set
    asked = []
    records = 0
    for it in rep.iterations:
        if it.event == "sequence":
            records += 1
        elif it.event in ("uc", "ce", "umc"):
            asked.append((it.event, records))
    assert len(asked) == len(set(asked))
    assert ("umc", 1) in asked


def test_product_reachable_pairs(unreachable_divergence_camo):
    # the dead-state fixture never leaves (0, 0): that is exactly why the
    # combinational check fails while reachability succeeds
    camo, _ = unreachable_divergence_camo
    pairs = atk.product_reachable_pairs(camo, Completion((0,)), Completion((1,)))
    assert pairs == [atk.ProductState(0, 0)]
    # an inequivalent pair has no total reach set
    from seqdecam.netlist import camouflage, parse_bench

    c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\n", "mini")
    camo2 = camouflage(c, ["y"], ["AND", "NAND"])
    with pytest.raises(ValueError):
        atk.product_reachable_pairs(camo2, Completion((0,)), Completion((1,)))


def test_unroll_spec_validation():
    from seqdecam.encode import UnrollSpec
    from seqdecam.netlist import BitSeq

    with pytest.raises(ValueError):
        UnrollSpec(2, fix_inputs=BitSeq(4, (1,)))
    spec = UnrollSpec(2, fix_inputs=BitSeq(4, (1, 2)), fix_outputs=BitSeq(1, (0, 1)))
    assert spec.frames == 2
