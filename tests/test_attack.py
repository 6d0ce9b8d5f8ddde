import dataclasses
import itertools
import random
import re

import pytest

from seqdecam import attack as atk
from seqdecam import sat as sm
from seqdecam.encode import AttackInstance
from seqdecam.gen import random_camo, random_circuit
from seqdecam.netlist import BitSeq, Completion, run_sequence
from seqdecam.oracle import BlackBox, QuerySet, record

from conftest import ROOT, S27_SECRET


def _observe(camo, secret, steps_list):
    """An attack instance holding the secret's answers to the given sequences."""
    inst = AttackInstance(camo)
    for steps in steps_list:
        seq = BitSeq(camo.num_inputs, steps)
        inst.add_record(seq, run_sequence(camo, secret, seq))
    return inst


def _uc(inst):
    return inst.solve_uc().status == sm.UNSAT


def _ce(inst):
    return inst.solve_ce().status == sm.UNSAT


S27_DISC = [(8, 9), (4, 8)]  # frozen 2-step sequences splitting each cell


# --------------------------------------------------- find_distinguishing

def test_find_distinguishing_none_at_b1(s27_camo):
    assert atk.find_distinguishing(AttackInstance(s27_camo), 1) is None


def test_find_distinguishing_triple_at_b2(s27_camo):
    x1, x2, seq = atk.find_distinguishing(AttackInstance(s27_camo), 2)
    assert len(seq) == 2
    o1 = run_sequence(s27_camo, x1, seq)
    o2 = run_sequence(s27_camo, x2, seq)
    assert o1 != o2
    assert o1.steps[:-1] == o2.steps[:-1]  # truncated at first disagreement


def test_find_distinguishing_respects_records(s27_camo):
    inst = _observe(s27_camo, S27_SECRET, S27_DISC)
    assert atk.find_distinguishing(inst, 8) is None


# --------------------------------------------------------------- UC / CE

def test_check_uc_progression(s27_camo):
    assert _uc(AttackInstance(s27_camo)) is False
    assert _uc(_observe(s27_camo, S27_SECRET, S27_DISC)) is True


def test_check_uc_never_true_for_identical_candidates(identical_candidates_camo):
    camo, secret = identical_candidates_camo
    inst = _observe(camo, secret, [(0, 1), (1, 0, 1)])
    assert _uc(inst) is False
    assert _ce(inst) is True  # CE catches what UC cannot


def test_check_ce_conservative_on_unreachable_divergence(unreachable_divergence_camo):
    camo, secret = unreachable_divergence_camo
    inst = AttackInstance(camo)
    assert _ce(inst) is False
    assert atk.check_umc(inst) is True  # reachability sees the truth
    assert atk.brute_force_disc(camo, QuerySet()) is True


def test_check_hierarchy_on_singleton(s27_camo):
    inst = _observe(s27_camo, S27_SECRET, S27_DISC)
    assert _uc(inst)
    assert _ce(inst)
    assert atk.check_umc(inst)


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


def _stuck_flops(l):
    """l flops that AND with their own reset value 0 and never leave it; the
    last is camouflaged AND/OR, and OR latches the input into a flop no
    output reads, so both completions are equivalent."""
    from seqdecam.netlist import camouflage, parse_bench

    lines = ["INPUT(a)", "OUTPUT(y)", "y = BUF(a)"]
    for i in range(l):
        lines += [f"s{i} = DFF(g{i})", f"g{i} = AND(a, s{i})"]
    return camouflage(parse_bench("\n".join(lines), f"stuck{l}"), [f"g{l - 1}"], ["AND", "OR"])


def test_product_equiv_keys_up_to_32_flops_per_copy():
    # 2 x 32 state bits fill the 64-bit pair key; the OR copy's latched flop
    # is its top bit
    assert atk.product_equiv(_stuck_flops(32), Completion((1,)), Completion((0,))) is None
    with pytest.raises(atk.ProductCapError):
        atk.product_equiv(_stuck_flops(33), Completion((1,)), Completion((0,)))


# ------------------------------------------------------------- unbounded

def test_umc_modes_agree(s27_camo):
    for disc, want in (([], False), (S27_DISC, True)):
        explicit = atk.check_umc(_observe(s27_camo, S27_SECRET, disc),
                                 atk.AttackConfig(umc_mode="explicit"))
        bmc = atk.check_umc(_observe(s27_camo, S27_SECRET, disc),
                            atk.AttackConfig(umc_mode="bmc"))
        assert explicit == bmc == want


def test_umc_skip_raises(s27_camo):
    with pytest.raises(atk.InconclusiveError):
        atk.check_umc(AttackInstance(s27_camo), atk.AttackConfig(umc_mode="skip"))


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
    assert atk.check_umc(AttackInstance(camo), atk.AttackConfig()) is True
    assert len(calls) == 1


def test_umc_lockstep_survivors_need_no_product_search(monkeypatch, identical_candidates_camo):
    camo, _ = identical_candidates_camo

    def refuse(*args, **kwargs):
        raise AssertionError("product search ran for survivors in lock-step")

    monkeypatch.setattr(atk, "product_equiv", refuse)
    assert atk.check_umc(AttackInstance(camo), atk.AttackConfig()) is True


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
    monkeypatch.setattr(AttackInstance, "enumerate_consistent", lambda *args: comps)
    assert atk.check_umc(AttackInstance(camo), atk.AttackConfig()) is False


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
    searches = []
    orig = AttackInstance.solve_bmc

    def spy(self, bound, *args):
        searches.append((self, bound))
        return orig(self, bound, *args)

    monkeypatch.setattr(AttackInstance, "solve_bmc", spy)
    monkeypatch.setattr(atk, "PRODUCT_STATE_CAP", 1)
    inst = AttackInstance(s27_camo)
    contexts = []
    real_init = sm.SatContext.__init__

    def count_init(self, *args, **kwargs):
        contexts.append(self)
        real_init(self, *args, **kwargs)

    # the check asks the instance it is handed and builds no second solver context
    monkeypatch.setattr(sm.SatContext, "__init__", count_init)
    assert atk.check_umc(inst) is False
    assert searches == [(inst, 64)]  # the product diameter of three flops per copy
    assert contexts == []


def test_umc_bmc_below_diameter_is_inconclusive_at_once(monkeypatch):
    from seqdecam.netlist import camouflage, parse_bench
    from test_acceptance import DELAY_LINE

    camo = camouflage(parse_bench(DELAY_LINE, "delayline"), ["e"], ["NAND", "NOR"])

    def refuse(*args, **kwargs):
        raise AssertionError("bounded search ran although it cannot certify")

    monkeypatch.setattr(AttackInstance, "solve_bmc", refuse)
    with pytest.raises(atk.InconclusiveError, match="max_bound 120 .* diameter 256"):
        atk.check_umc(AttackInstance(camo), atk.AttackConfig(umc_mode="bmc"))


def test_umc_names_an_enumeration_timeout(s27_camo):
    cfg = atk.AttackConfig(bmc_inc=1, max_bound=4, solver_budget=0.0)
    with pytest.raises(atk.InconclusiveError, match="^solver budget exhausted during enumeration; "
                       "bounded search cannot certify"):
        atk.check_umc(AttackInstance(s27_camo), cfg)


def test_brute_force_examples(s27_camo, identical_candidates_camo):
    assert atk.brute_force_disc(s27_camo, QuerySet()) is False
    qs = _observe(s27_camo, S27_SECRET, S27_DISC).qs
    assert atk.brute_force_disc(s27_camo, qs) is True
    camo, _ = identical_candidates_camo
    assert atk.brute_force_disc(camo, QuerySet()) is True
    with pytest.raises(atk.InconclusiveError):
        atk.brute_force_disc(s27_camo, QuerySet(), completion_cap=3)


# ------------------------------------------------------------ completion

def test_recover_completion_singleton(s27_camo):
    inst = _observe(s27_camo, S27_SECRET, S27_DISC)
    assert atk.recover_completion(inst) == S27_SECRET


def test_recover_completion_oracle_conflict(s27_camo):
    # fabricated observation no completion can reproduce: single-step output
    # is completion-independent, so flipping it breaks everything
    seq = BitSeq(4, (0,))
    truth = run_sequence(s27_camo, S27_SECRET, seq)
    lie = BitSeq(1, (1 - truth.steps[0],))
    inst = AttackInstance(s27_camo)
    inst.add_record(seq, lie)
    with pytest.raises(atk.OracleInconsistentError):
        atk.recover_completion(inst)


def test_partial_completion_all_ambiguous_after_single_steps(s27_camo):
    inst = _observe(s27_camo, S27_SECRET, [(i,) for i in range(16)])
    verdicts = atk.partial_completion(inst)
    assert verdicts == {"G13": None, "G10": None}


def test_partial_completion_fixed_on_singleton(s27_camo):
    inst = _observe(s27_camo, S27_SECRET, S27_DISC)
    verdicts = atk.partial_completion(inst)
    assert verdicts == {"G13": 0, "G10": 1}


def test_partial_completion_half_constrained(s27_camo):
    # only the first sequence: G13 resolved, G10 still open
    inst = _observe(s27_camo, S27_SECRET, S27_DISC[:1])
    verdicts = atk.partial_completion(inst)
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


# The search pinned: every record's (bound, event, status, conflicts,
# decisions) and the query set of two fixed attacks.  A change to the
# solver or the encoding that alters any decision shows up here; update the
# values only with a change meant to alter the search.
_PINNED_S27 = (
    [(2, "sequence", "SAT", 3, 13), (2, "uc", "SAT", 4, 16), (2, "ce", "SAT", 0, 21),
     (2, "sequence", "SAT", 0, 18), (2, "uc", "UNSAT", 0, 0)],
    [((8, 9), (0, 1)), ((4, 9), (1, 0))],
)
_PINNED_RANDOM = (
    [(2, "sequence", "SAT", 8, 28), (2, "uc", "SAT", 0, 14), (2, "ce", "SAT", 0, 21),
     (2, "sequence", "SAT", 5, 32), (2, "uc", "SAT", 14, 33), (2, "ce", "SAT", 11, 34),
     (2, "bound", "UNSAT", 0, 0), (2, "umc", "refuted", 3, 56), (4, "sequence", "SAT", 12, 43),
     (4, "uc", "SAT", 1, 37), (4, "ce", "SAT", 0, 28), (4, "sequence", "SAT", 0, 30),
     (4, "uc", "UNSAT", 3, 4)],
    [((3,), (1,)), ((7, 7), (0, 1)), ((7, 7, 5, 3), (0, 1, 0, 1)), ((7, 7, 3, 3), (0, 1, 0, 0))],
)


def test_search_is_pinned(s27_camo):
    rng = random.Random(2)
    small = random_camo(rng, random_circuit(rng, num_inputs=3, num_flops=3, num_gates=18), k=4)
    for camo, secret, cfg, pinned in (
        (s27_camo, S27_SECRET, atk.AttackConfig(bmc_inc=2, max_bound=16), _PINNED_S27),
        (*small, atk.AttackConfig(bmc_inc=2, max_bound=64), _PINNED_RANDOM),
    ):
        rep = atk.run_attack(camo, BlackBox(camo, secret), cfg)
        assert rep.termination == atk.UC and rep.completions == (secret,)
        records = [(i.bound, i.event, i.status, i.conflicts, i.decisions) for i in rep.iterations]
        queries = [(seq.steps, out.steps) for seq, out in rep.disc_set]
        assert (records, queries) == pinned


def test_enumeration_is_pinned():
    # the resumed model search of explicit UMC on an s344-shaped circuit
    # (perfbench's S344_SHAPE, circuit 3, k=10) after the attack's first
    # query: its key is decided last, so each blocking clause backjumps over
    # the key alone; values recorded with that decision order
    rng = random.Random(3)
    shape = dict(num_inputs=9, num_outputs=11, num_flops=15, num_gates=160)
    camo, secret = random_camo(rng, random_circuit(rng, **shape), k=10)
    inst = AttackInstance(camo)
    _, _, seq = atk.find_distinguishing(inst, 1)
    inst.add_record(seq, BlackBox(camo, secret).query(seq))
    before = inst.stats
    found = inst.enumerate_consistent(cap=4096)
    after = inst.stats
    assert len(set(found)) == len(found) == 256 and secret in found
    assert (after.decisions - before.decisions, after.propagations - before.propagations) == (
        677, 3451)


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


def _delay_line_attack():
    # one cell sits behind a four-flop delay line, so bounds 1-4 all close on
    # the same single record before bound 5 finds the second query
    from seqdecam.netlist import camouflage, parse_bench
    from test_acceptance import DELAY_LINE

    camo = camouflage(parse_bench(DELAY_LINE, "delayline"), ["c1", "c2", "c3", "c4", "e"],
                      ["NAND", "NOR"])
    secret = Completion((0, 1, 0, 1, 0))
    return camo, secret, atk.AttackConfig(bmc_inc=1, max_bound=8)


def test_umc_record_counts_every_solver_call_of_the_check(monkeypatch, s27_camo):
    # every solver call of the loop lies in exactly one record's window, so
    # each record holds the solver results summed since the record before it
    # (the recovery solve after the last record is in none);
    # on s27 an enumeration cap of 1 sends every UMC check on to the bounded
    # search at the diameter 64, which adds its frames to the attack's instance
    since_last = [0, 0]
    windows: list[list[int]] = []
    real_solve, real_record = sm.SatContext.solve, atk.IterationRecord

    def solve(self, *args, **kwargs):
        res = real_solve(self, *args, **kwargs)
        since_last[0] += res.stats.conflicts
        since_last[1] += res.stats.decisions
        return res

    def record(*args, **kwargs):
        windows.append(list(since_last))
        since_last[:] = [0, 0]
        return real_record(*args, **kwargs)

    monkeypatch.setattr(sm.SatContext, "solve", solve)
    monkeypatch.setattr(atk, "IterationRecord", record)
    s27 = (s27_camo, S27_SECRET, atk.AttackConfig(bmc_inc=1, max_bound=64, umc_enum_cap=1))
    events = set()
    for camo, secret, cfg in (s27, _delay_line_attack()):
        windows.clear()
        since_last[:] = [0, 0]
        rep = atk.run_attack(camo, BlackBox(camo, secret), cfg)
        assert [[it.conflicts, it.decisions] for it in rep.iterations] == windows
        assert sum(it.wall for it in rep.iterations) <= rep.wall
        events |= {it.event for it in rep.iterations}
    assert events == {"sequence", "bound", "uc", "ce", "umc"}


def test_every_config_field_has_a_caller():
    # an option that neither the CLI nor the benchmark sets is one no caller
    # can reach
    sources = (ROOT / "src" / "seqdecam" / "cli.py").read_text() + (
        ROOT / "perfbench" / "workloads.py"
    ).read_text()
    for f in dataclasses.fields(atk.AttackConfig):
        assert re.search(rf"\b{f.name}\s*=(?!=)", sources), f.name


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

    survivors = {
        x.choices for x in camo.all_completions() if atk.consistent(camo, x, rep.disc_set)
    }
    assert survivors == {(2,)}
    inst = encode_consistency(camo, rep.disc_set)
    res = sm.SatContext(inst).solve()
    assert res.status == sm.SAT and res.bits(inst.groups["key"]) == (0, 1)  # index 2, LSB first


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
    camo, secret, cfg = _delay_line_attack()
    rep = atk.run_attack(camo, BlackBox(camo, secret), cfg)
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


def test_add_record_rejects_an_output_of_the_wrong_length(s27_camo):
    inst = AttackInstance(s27_camo)
    emitted = len(inst.bld.clauses)
    for out in (BitSeq(1, (0,)), BitSeq(1, (0, 1, 1))):
        with pytest.raises(ValueError, match=f"output has {len(out)} steps for 2 input steps"):
            inst.add_record(BitSeq(4, (1, 2)), out)
    assert len(inst.bld.clauses) == emitted  # rejected before any clause is emitted
    inst.add_record(BitSeq(4, (1, 2)), BitSeq(1, (0, 1)))
    assert len(inst.bld.clauses) > emitted
