import dataclasses
import itertools
import random
import re
import subprocess
import sys

import hypothesis
import pytest
from hypothesis import given, settings, strategies as st

from seqdecam import attack as atk
from seqdecam import sat as sm
from seqdecam.encode import AttackInstance
from seqdecam.gen import random_camo, random_circuit
from seqdecam.netlist import BitSeq, Completion, run_sequence
from seqdecam.oracle import BlackBox, QuerySet, record

from conftest import ROOT, S27_SECRET, cone_only_cases


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

# conftest's unreachable_divergence netlist plus a flop that no output reads
DEAD_STATE_WITH_UNREAD_FLOP = """
INPUT(a)
OUTPUT(y)
na = NOT(a)
zero = AND(a, na)
s = DFF(zero)
d = DFF(a)
y = XOR(s, a)
"""


def test_a_bound_closed_at_the_product_diameter_certifies(unreachable_divergence_camo):
    # one flop per copy: no shortest distinguisher is longer than the product
    # diameter 4, so a bound closed there certifies although CE fails and
    # the enumeration cap (or umc_mode="skip") leaves the explicit check out
    camo, secret = unreachable_divergence_camo
    for cfg, termination, bound in (
        (atk.AttackConfig(bmc_inc=1, max_bound=4, umc_enum_cap=1), atk.UMC, 4),
        (atk.AttackConfig(bmc_inc=1, max_bound=3, umc_enum_cap=1), atk.EXHAUSTED, 3),
        (atk.AttackConfig(bmc_inc=2, max_bound=8, umc_mode="skip"), atk.UMC, 4),
    ):
        rep = atk.run_attack(camo, BlackBox(camo, secret), cfg)
        assert (rep.termination, rep.bound_reached) == (termination, bound)
        for x in rep.completions:
            assert atk.product_equiv(camo, x, secret) is None
    # with umc_mode="skip" no unbounded check ran: the closed bound alone certified
    assert rep.completions and not [i for i in rep.iterations if i.event == "umc"]
    # a flop that no output reads leaves the diameter at 4, that of the
    # outputs' cone, where the full circuit's two flops would make it 16
    from seqdecam.netlist import camouflage, parse_bench

    camo = camouflage(parse_bench(DEAD_STATE_WITH_UNREAD_FLOP, "dead_state"), ["y"], ["XOR", "OR"])
    assert camo.num_flops == 2
    cfg = atk.AttackConfig(bmc_inc=2, max_bound=8, umc_mode="skip")
    rep = atk.run_attack(camo, BlackBox(camo, secret), cfg)
    assert (rep.termination, rep.bound_reached) == (atk.UMC, 4)
    assert rep.completions and atk.product_equiv(camo, rep.completions[0], secret) is None


def test_umc_skip_raises(s27_camo):
    with pytest.raises(atk.InconclusiveError):
        atk.check_umc(AttackInstance(s27_camo), atk.AttackConfig(umc_mode="skip"))


# the flop of AND(a, s) never leaves reset while that of OR(a, s) latches the
# first a=1; the output reads it only through AND(s, NOT(s)), which is 0
# either way: equivalent completions, not in lock-step, and the flop lies in
# the outputs' cone of influence, so the cell is observable
UNREAD_FLOP = """
INPUT(a)
OUTPUT(y)
s = DFF(g)
g = AND(a, s)
ns = NOT(s)
zero = AND(s, ns)
y = OR(a, zero)
"""


def test_umc_two_equivalent_survivors_need_one_product_search(monkeypatch):
    from seqdecam.netlist import camouflage, observable_cone, parse_bench

    camo = camouflage(parse_bench(UNREAD_FLOP, "unread_flop"), ["g"], ["AND", "OR"])
    assert observable_cone(camo) == (camo, (0,))
    calls = []
    orig = atk.product_equiv

    def spy(*args, **kwargs):
        calls.append(args[1:3])
        return orig(*args, **kwargs)

    monkeypatch.setattr(atk, "product_equiv", spy)
    assert atk.check_umc(AttackInstance(camo), atk.AttackConfig()) is True
    assert len(calls) == 1


def _listing(comps):
    """A stand-in for `AttackInstance.enumerate_consistent` that lists
    `comps` in order and, like it, calls `stop` after every model."""

    def enumerate_consistent(self, cap, budget=None, stop=None):
        for n in range(1, len(comps) + 1):
            if stop(comps[:n]):
                return comps[:n]
        return comps

    return enumerate_consistent


def _product_calls(monkeypatch):
    """A list that collects the arguments of every `product_equiv` call from
    now on, the circuit left out."""
    calls = []
    real = atk.product_equiv

    def spy(camo, *args):
        calls.append(args)
        return real(camo, *args)

    monkeypatch.setattr(atk, "product_equiv", spy)
    return calls


def test_umc_runs_one_product_search_per_survivor_after_the_first(monkeypatch):
    # 32 equivalent survivors: each one after the first is compared with the
    # first, in listing order, under the caps the check reads when it runs
    listed = []
    real = AttackInstance.enumerate_consistent

    def listing(self, *args, **kwargs):
        listed.append(real(self, *args, **kwargs))
        return listed[-1]

    monkeypatch.setattr(AttackInstance, "enumerate_consistent", listing)
    monkeypatch.setattr(atk, "PRODUCT_STATE_CAP", 1 << 20)
    monkeypatch.setattr(atk, "PRODUCT_EXPAND_CAP", 1 << 21)
    calls = _product_calls(monkeypatch)
    assert atk.check_umc(AttackInstance(_twin_chain())) is True
    (comps,) = listed
    assert len(comps) == 32
    assert calls == [(comps[0], x, 1 << 20, 1 << 21) for x in comps[1:]]


def test_umc_finds_an_inequivalent_survivor_past_the_second(monkeypatch):
    # cell 0 is the unread-flop AND/OR (equivalent either way), cell 1 drives
    # the output; only the last survivor differs from the reference
    from seqdecam.netlist import camouflage, observable_cone, parse_bench

    src = UNREAD_FLOP.replace("y = OR(a, zero)", "INPUT(b)\nt = OR(a, zero)\ny = AND(t, b)")
    camo = camouflage(parse_bench(src, "unread_flop2"), ["g", "y"], ["AND", "OR"])
    # both cells are observable, so the projections are the completions
    assert observable_cone(camo) == (camo, (0, 1))
    comps = [Completion((0, 0)), Completion((1, 0)), Completion((0, 1))]
    assert atk.product_equiv(camo, comps[0], comps[1]) is None
    w = atk.product_equiv(camo, comps[0], comps[2])
    assert w is not None
    assert run_sequence(camo, comps[0], w) != run_sequence(camo, comps[2], w)
    asked = []
    listing = _listing(comps)

    def enumerate_consistent(self, cap, budget=None, stop=None):
        asked.append((cap, budget))
        return listing(self, cap, budget, stop)

    monkeypatch.setattr(AttackInstance, "enumerate_consistent", enumerate_consistent)
    assert atk.check_umc(AttackInstance(camo), atk.AttackConfig()) is False
    assert asked == [(atk.AttackConfig().umc_enum_cap, None)]


def test_umc_stops_listing_at_the_first_inequivalent_survivor(monkeypatch):
    # the circuit of the test above; of four listed projections the third is
    # the first inequivalent one, so the fourth is never searched
    from seqdecam.netlist import camouflage, parse_bench

    src = UNREAD_FLOP.replace("y = OR(a, zero)", "INPUT(b)\nt = OR(a, zero)\ny = AND(t, b)")
    camo = camouflage(parse_bench(src, "unread_flop2"), ["g", "y"], ["AND", "OR"])
    comps = [Completion((0, 0)), Completion((1, 0)), Completion((0, 1)), Completion((1, 1))]
    monkeypatch.setattr(AttackInstance, "enumerate_consistent", _listing(comps))
    calls = _product_calls(monkeypatch)
    assert atk.check_umc(AttackInstance(camo), atk.AttackConfig()) is False
    assert [c[:2] for c in calls] == [(comps[0], comps[1]), (comps[0], comps[2])]


def test_umc_counts_only_observable_cells_against_the_cap():
    # seeded circuit: cells g7 and g0 reach the output, g1 does not; after
    # the attack's query set its observable cells have one consistent
    # choice, so the listing holds one completion, which the cap of 1
    # admits, while the two choices of g1 make two consistent completions
    from seqdecam.netlist import observable_cone

    rng = random.Random(9)
    camo, secret = random_camo(rng, random_circuit(rng, num_flops=2), k=3)
    rep = atk.run_attack(camo, BlackBox(camo, secret), atk.AttackConfig(bmc_inc=1, max_bound=4))
    _, kept = observable_cone(camo)
    assert kept == (0, 1) and rep.unobservable == ("g1",)
    assert len([x for x in camo.all_completions() if atk.consistent(camo, x, rep.disc_set)]) == 2
    inst = AttackInstance.from_queries(camo, rep.disc_set)
    (found,) = inst.enumerate_consistent(4)
    assert found.choices[:2] == secret.choices[:2]
    assert atk.consistent(camo, found, rep.disc_set)
    assert atk.check_umc(inst, atk.AttackConfig(umc_enum_cap=1)) is True
    assert atk.brute_force_disc(camo, rep.disc_set) is True


# no output reads the flop: cell g is outside the outputs' cone of influence
DEAD_FLOP = """
INPUT(a)
OUTPUT(y)
y = BUF(a)
s = DFF(g)
g = AND(a, s)
"""


def test_umc_certifies_with_every_cell_unobservable():
    from seqdecam.netlist import camouflage, observable_cone, parse_bench

    camo = camouflage(parse_bench(DEAD_FLOP, "dead_flop"), ["g"], ["AND", "OR"])
    reduced, kept = observable_cone(camo)
    assert kept == () and reduced.num_flops == 0
    # the reduced circuit keeps the cell, which names no gate there
    assert reduced.cells == camo.cells and "g" not in reduced.base.gate_by_out
    inst = AttackInstance(camo)
    # one completion for the empty choice of observable cells, though both
    # choices of g are consistent
    (found,) = inst.enumerate_consistent(1)
    assert found in (Completion((0,)), Completion((1,)))
    assert atk.check_umc(inst, atk.AttackConfig(umc_enum_cap=1)) is True


def test_report_names_unobservable_cells(s27_camo):
    from seqdecam.netlist import camouflage, parse_bench

    src = DEAD_FLOP.replace("y = BUF(a)", "INPUT(b)\ny = AND(a, b)")
    camo = camouflage(parse_bench(src, "dead_flop2"), ["g", "y"], ["AND", "OR"])
    secret = Completion((1, 0))
    # certified: every cell counts as fixed, the unobservable one included.
    # CE's frame covers only the cone, so g's dead flop cannot make it SAT
    rep = atk.run_attack(camo, BlackBox(camo, secret), atk.AttackConfig(bmc_inc=1, max_bound=8))
    assert rep.termination == atk.CE and rep.unobservable == ("g",)
    assert [(i.event, i.status) for i in rep.iterations if i.event in ("ce", "umc")] == [
        ("ce", sm.UNSAT)
    ]
    assert rep.gates_fixed == 2
    assert atk.product_equiv(camo, rep.completions[0], secret) is None
    # exhausted: the unobservable cell stays None in the partial completion.
    # Cell z's candidates XOR and OR differ only at the unreachable r=1, so
    # CE stays SAT and, with UMC skipped, the attack runs out of bounds
    src += "OUTPUT(z)\nna = NOT(a)\nzero = AND(a, na)\nr = DFF(zero)\nz = XOR(r, a)\n"
    camo = camouflage(parse_bench(src, "dead_flop3"), ["g", "y", "z"], ["XOR", "OR"])
    secret = Completion((1, 0, 0))
    cfg = atk.AttackConfig(bmc_inc=1, max_bound=2, umc_mode="skip")
    rep = atk.run_attack(camo, BlackBox(camo, secret), cfg)
    assert rep.termination == atk.EXHAUSTED and rep.unobservable == ("g",)
    assert rep.partial == {"g": None, "y": 0, "z": None} and rep.gates_fixed == 1
    box = BlackBox(s27_camo, S27_SECRET)
    assert atk.run_attack(s27_camo, box, atk.AttackConfig(bmc_inc=2, max_bound=16)).unobservable == ()


def test_attack_with_no_observable_cell_certifies_before_any_query(monkeypatch):
    # no cell reaches an output, so every completion is sequentially
    # equivalent to every other: the attack ends UMC with no frame, solver
    # call or oracle query, and returns the all-zeros completion
    from seqdecam.netlist import observable_cone

    solves = []
    orig_solve = sm.SatContext.solve

    def spy(self, *args, **kwargs):
        solves.append(args)
        return orig_solve(self, *args, **kwargs)

    monkeypatch.setattr(sm.SatContext, "solve", spy)
    for name, _, camo, secret in cone_only_cases():
        assert observable_cone(camo)[1] == (), name
        box = BlackBox(camo, secret)
        rep = atk.run_attack(camo, box, atk.AttackConfig(bmc_inc=1, max_bound=8))
        assert not solves and box.query_count == 0 and not rep.disc_set, name
        assert rep.termination == atk.UMC and rep.bound_reached == 0
        records = [(i.bound, i.event, i.seq_len, i.conflicts, i.decisions, i.status)
                   for i in rep.iterations]
        assert records == [(0, "umc", None, 0, 0, atk.UMC)]
        assert rep.unobservable == tuple(c.gate_out for c in camo.cells)
        assert rep.completions == (Completion((0,) * camo.k),) and rep.gates_fixed == camo.k
        assert atk.product_equiv(camo, rep.completions[0], secret) is None
        # what the unbounded check answers on the empty query set
        assert atk.check_umc(AttackInstance(camo)) is True
        solves.clear()


def test_uc_is_not_asked_next_to_an_unobservable_cell():
    # seeded circuit 9: cell g1 lies outside the outputs' cone, so two
    # completions that differ in g1 alone are both consistent with any query
    # set and UC is SAT by construction; the attack asks CE alone
    rng = random.Random(9)
    camo, secret = random_camo(rng, random_circuit(rng, num_flops=2), k=3)
    rep = atk.run_attack(camo, BlackBox(camo, secret), atk.AttackConfig(bmc_inc=1, max_bound=4))
    assert rep.unobservable == ("g1",) and rep.termination == atk.CE
    assert [i.event for i in rep.iterations] == ["sequence", "ce", "sequence", "ce"]
    assert AttackInstance.from_queries(camo, rep.disc_set).solve_uc().status == sm.SAT
    # a cell outside the cone with a single candidate leaves UC to be asked
    from seqdecam.netlist import CamoCell, camouflage, parse_bench

    src = DEAD_FLOP.replace("y = BUF(a)", "INPUT(b)\ny = AND(a, b)")
    camo = camouflage(parse_bench(src, "dead_flop2"), ["g", "y"], ["AND", "OR"])
    camo = dataclasses.replace(camo, cells=(CamoCell("g", ("AND",)), camo.cells[1]))
    secret = Completion((0, 0))
    rep = atk.run_attack(camo, BlackBox(camo, secret), atk.AttackConfig(bmc_inc=1, max_bound=8))
    assert rep.unobservable == ("g",)
    assert (rep.termination, rep.completions) == (atk.UC, (secret,))
    assert [i.event for i in rep.iterations] == ["sequence", "uc"]


def test_umc_agrees_with_pairwise_search():
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
        # no record, so every completion survives, then one record
        for inst in (AttackInstance(camo), _observe(camo, secret, [seq.steps])):
            pairwise = atk.brute_force_disc(camo, inst.qs)
            assert atk.check_umc(inst) == pairwise
            verdicts.add(pairwise)
        circuits += 1
    assert verdicts == {True, False}


# 9 inputs give 512 scenarios per state, so one pass holds at most 256
# frontier states.  y reads ys and, through zero = AND(t, NOT(t), ...),
# which is 0, the flop t of g, the flops u0-u6 and the cells d0-d7: so d0-d7
# and g lie in the outputs' cone yet every choice for them is equivalent to
# every other, while ys decides y.  The flops u0-u6 latch inputs, which
# widens the frontier past one pass.
WIDE = (
    "".join(f"INPUT(x{i})\n" for i in range(9))
    + "OUTPUT(y)\ns = DFF(n)\nt = DFF(g)\n"
    + "".join(f"u{i} = DFF(x{i + 2})\n" for i in range(7))
    + "n = XOR(x0, s)\nys = AND(x1, s)\ng = AND(x2, t)\n"
    + "".join(f"d{i} = AND(x{i}, x{i + 1})\n" for i in range(8))
    + f"o = OR({', '.join(f'd{i}' for i in range(8))})\nnt = NOT(t)\n"
    + f"zero = AND(t, nt, o, {', '.join(f'u{i}' for i in range(7))})\ny = OR(ys, zero)\n"
)


def test_umc_agrees_with_pairwise_search_on_a_wide_circuit(monkeypatch):
    from seqdecam.netlist import Evaluator, camouflage, observable_cone, parse_bench

    camo = camouflage(parse_bench(WIDE, "wide"), ["d0", "g", "ys"], ["AND", "OR"])
    assert observable_cone(camo)[1] == (0, 1, 2)
    widest = []
    orig_eval = Evaluator.eval

    def measured(self, state_bits, input_bits, width):
        widest.append(width)
        return orig_eval(self, state_bits, input_bits, width)

    monkeypatch.setattr(Evaluator, "eval", measured)
    calls = _product_calls(monkeypatch)
    secret = Completion((0, 0, 0))
    # no record; then x1 = 1 at reset, which pins ys and leaves four
    # equivalent survivors; then one more sequence
    for steps, verdict in (([], False), ([(0b10,)], True),
                           ([(0b10,), (0b11101, 0b1010, 0b10110)], True)):
        inst = _observe(camo, secret, steps)
        calls.clear()
        assert atk.check_umc(inst) is verdict
        if verdict:
            assert len(calls) == 3
        assert atk.brute_force_disc(camo, inst.qs) is verdict
    # the frontier of 512 state pairs took more than one pass
    assert atk.WIRE_BITS // 2 < max(widest) <= atk.WIRE_BITS


# The flop z starts at 0 and feeds back through an AND, so it stays 0: the
# cells d0-d7 lie in the cone but never reach y, and every choice for them
# is equivalent to every other.  The cell h reaches y at once.
STUCK = (
    "".join(f"INPUT(x{i})\n" for i in range(9))
    + "OUTPUT(y)\nz = DFF(nz)\nnz = AND(z, x0)\n"
    + "".join(f"d{i} = AND(x{i}, x{i + 1})\n" for i in range(8))
    + f"o = OR({', '.join(f'd{i}' for i in range(8))})\n"
    + "m = AND(z, o)\nh = AND(x0, x1)\ny = OR(m, h)\n"
)


def test_umc_certifies_hundreds_of_equivalent_survivors(monkeypatch):
    from seqdecam.netlist import camouflage, observable_cone, parse_bench

    camo = camouflage(
        parse_bench(STUCK, "stuck"), [*(f"d{i}" for i in range(8)), "h"], ["AND", "OR"]
    )
    assert observable_cone(camo) == (camo, tuple(range(9)))
    inst = AttackInstance(camo)
    seq = BitSeq(9, (0b01,))  # x0 = 1, x1 = 0: h's AND and OR differ
    inst.add_record(seq, run_sequence(camo, Completion((0,) * 9), seq))
    listed = []
    orig_list = AttackInstance.enumerate_consistent

    def listing(self, *args, **kwargs):
        comps = orig_list(self, *args, **kwargs)
        listed.append(comps)
        return comps

    monkeypatch.setattr(AttackInstance, "enumerate_consistent", listing)
    calls = _product_calls(monkeypatch)
    assert atk.check_umc(inst, atk.AttackConfig()) is True
    (pool,) = listed
    assert len(pool) == 256 and {x.choices[8] for x in pool} == {0}
    assert [c[:2] for c in calls] == [(pool[0], x) for x in pool[1:]]
    # the same pool with one survivor whose h differs, listed last
    odd = Completion(pool[0].choices[:8] + (1,))
    monkeypatch.setattr(AttackInstance, "enumerate_consistent", _listing(pool + [odd]))
    calls.clear()
    assert atk.check_umc(inst, atk.AttackConfig()) is False
    assert [c[1] for c in calls] == pool[1:] + [odd]


def test_umc_product_cap_is_inconclusive(monkeypatch, s27_camo):
    def refuse(*args, **kwargs):
        raise AssertionError("the unbounded check ran a bounded search")

    monkeypatch.setattr(AttackInstance, "solve_bmc", refuse)
    monkeypatch.setattr(atk, "PRODUCT_STATE_CAP", 1)
    inst = AttackInstance(s27_camo)
    contexts = []
    real_init = sm.SatContext.__init__

    def count_init(self, *args, **kwargs):
        contexts.append(self)
        real_init(self, *args, **kwargs)

    # the check asks the instance it is handed and builds no second solver context
    monkeypatch.setattr(sm.SatContext, "__init__", count_init)
    with pytest.raises(atk.InconclusiveError, match="product state cap 1 exceeded"):
        atk.check_umc(inst)
    assert contexts == []


def test_umc_names_an_enumeration_timeout(s27_camo):
    cfg = atk.AttackConfig(bmc_inc=1, max_bound=4, solver_budget=0.0)
    with pytest.raises(atk.InconclusiveError, match="^solver budget exhausted during enumeration$"):
        atk.check_umc(AttackInstance(s27_camo), cfg)


# five observable cells in a chain, each NAND(x, x) or NOR(x, x): both are
# NOT x, so all 32 completions are consistent with anything and stay in
# lock-step
TWIN_CHAIN = """
INPUT(a)
OUTPUT(y)
g0 = NAND(a, a)
g1 = NAND(g0, g0)
g2 = NAND(g1, g1)
g3 = NAND(g2, g2)
g4 = NAND(g3, g3)
y = BUF(g4)
"""


def _twin_chain():
    from seqdecam.netlist import camouflage, parse_bench

    return camouflage(parse_bench(TWIN_CHAIN, "twin_chain"), [f"g{i}" for i in range(5)],
                      ["NAND", "NOR"])


def _solver_calls(monkeypatch):
    """A list that collects (status, conflicts, decisions, propagations) of
    every solver call from now on."""
    calls = []
    real = sm.SatContext.solve

    def solve(self, *args, **kwargs):
        res = real(self, *args, **kwargs)
        calls.append((res.status, res.stats.conflicts, res.stats.decisions, res.stats.propagations))
        return res

    monkeypatch.setattr(sm.SatContext, "solve", solve)
    return calls


def test_enumeration_calls_stop_after_each_model_up_to_the_cap():
    inst = AttackInstance(_twin_chain())
    for cap, listed in ((32, 32), (20, None)):
        seen = []
        got = inst.enumerate_consistent(cap, None, lambda found: seen.append(list(found)))
        assert [len(found) for found in seen] == list(range(1, min(cap, 32) + 1))
        assert all(found == seen[-1][: len(found)] for found in seen)
        assert (got if got is None else len(got)) == listed
    # True ends the listing after the model it was called with
    assert len(inst.enumerate_consistent(32, None, lambda found: len(found) == 5)) == 5


def test_a_certifying_check_lists_as_without_walks(monkeypatch, s27_camo):
    # the product searches between models touch no solver state: a check
    # that certifies makes the solver calls, with the same decisions, of
    # the plain listing it searches
    calls = _solver_calls(monkeypatch)
    twin = _twin_chain()
    for make, n in ((lambda: _observe(s27_camo, S27_SECRET, S27_DISC), 1),
                    (lambda: AttackInstance(twin), 32)):
        calls.clear()
        assert atk.check_umc(make()) is True
        checked = list(calls)
        calls.clear()
        inst = make()
        assert len(inst.enumerate_consistent(atk.AttackConfig().umc_enum_cap)) == n
        assert calls == checked and checked[-1][0] == sm.UNSAT


@hypothesis.seed(21)
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_umc_agrees_with_brute_force_on_four_to_six_cells(seed):
    # enough consistent projections that a survivor inequivalent to the
    # first is often listed well after it
    rng = random.Random(seed)
    while True:
        try:
            camo, secret = random_camo(rng, random_circuit(rng), k=rng.randint(4, 6))
            break
        except ValueError:  # fewer than k two-input gates; draw again
            continue
    inst = AttackInstance(camo)
    m = camo.num_inputs
    for _ in range(rng.randint(0, 2)):
        seq = BitSeq(m, tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 3))))
        inst.add_record(seq, run_sequence(camo, secret, seq))
    assert atk.check_umc(inst) == atk.brute_force_disc(camo, inst.qs)


def _keys_bit_by_bit(wires, width):
    """Reference for `_distinct_keys`: every scenario's key built one bit at
    a time, then the distinct ones in ascending order with their first
    scenario."""
    first = {}
    for j in range(width):
        key = 0
        for i, wire in enumerate(wires):
            key |= ((wire >> j) & 1) << i
        first.setdefault(key, j)
    keys = sorted(first)
    return keys, [first[k] for k in keys]


def _wires_of(keys, nwires):
    """The wires whose scenario j has key keys[j]."""
    return [sum(((k >> i) & 1) << j for j, k in enumerate(keys)) for i in range(nwires)]


def test_distinct_keys_match_a_bit_by_bit_reference():
    rng = random.Random(7)
    paths = set()
    for width in (1, 5, 8, 100, 4096):
        for nwires in (1, 2, 7, 8, 9, 30, 64):
            for distinct in (1, 3, 40, None):  # None: every bit drawn at random
                if distinct is None:
                    wires = [rng.getrandbits(width) for _ in range(nwires)]
                else:
                    pool = [rng.getrandbits(nwires) for _ in range(distinct)]
                    wires = _wires_of([rng.choice(pool) for _ in range(width)], nwires)
                want = _keys_bit_by_bit(wires, width)
                assert atk._distinct_keys(wires, width) == want, (width, nwires, distinct)
                assert atk._transposed_keys(wires, width) == want, (width, nwires, distinct)
                refined = atk._refined_keys(wires, width)
                assert refined in (None, want), (width, nwires, distinct)
                paths.add(refined is None)
    assert paths == {True, False}  # both the refinement and its fallback ran
    # every scenario its own key, in reverse order: refinement gives up
    width, nwires = 4096, 13
    keys = list(range(width - 1, -1, -1))
    wires = _wires_of(keys, nwires)
    assert atk._refined_keys(wires, width) is None
    want = (list(range(width)), keys)
    assert atk._distinct_keys(wires, width) == want == _keys_bit_by_bit(wires, width)
    with pytest.raises(atk.ProductCapError, match="65 state bits"):
        atk._distinct_keys([0] * 65, 8)


def test_input_pattern_is_the_per_value_mask():
    for m in range(1, 13):
        for bit in range(m):
            want = sum(1 << v for v in range(1 << m) if (v >> bit) & 1)
            assert atk._input_pattern(bit, m) == want, (bit, m)


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


def test_partial_completion_agrees_with_a_solve_per_cell_value(monkeypatch):
    calls = []
    orig = AttackInstance.solve_consistent

    def counted(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(AttackInstance, "solve_consistent", counted)

    def reference(inst):
        # every (cell, value) pinned in turn, stopping a cell at two feasible values
        verdicts = {}
        for ci, cell in enumerate(inst.camo.cells):
            feasible = []
            for v in range(cell.t):
                if inst.solve_consistent(inst.k1.value_lits(ci, v)).status == sm.SAT:
                    feasible.append(v)
                    if len(feasible) > 1:
                        break
            verdicts[cell.gate_out] = feasible[0] if len(feasible) == 1 else None
        return verdicts

    rng = random.Random(30)
    fixed = 0
    for i in range(30):
        candidates = ("NAND", "NOR", "XOR") if i % 3 == 0 else ("NAND", "NOR")
        while True:
            try:
                camo, secret = random_camo(rng, random_circuit(rng), rng.randint(1, 4), candidates)
                break
            except ValueError:  # too few gates of two or more inputs
                continue
        m = camo.num_inputs
        records = [] if i % 2 else [
            tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))
        ]
        inst = _observe(camo, secret, records)
        calls.clear()
        want = reference(inst)
        ref_calls = len(calls)
        calls.clear()
        assert atk.partial_completion(inst) == want
        assert len(calls) <= ref_calls
        fixed += sum(v is not None for v in want.values())
    assert fixed  # some cells are settled, not only ambiguous ones


def test_partial_completion_pins_no_unobservable_cell(monkeypatch):
    pins = []
    orig = AttackInstance.solve_consistent

    def spy(self, pin=(), budget=None):
        pins.append(tuple(pin))
        return orig(self, pin, budget)

    monkeypatch.setattr(AttackInstance, "solve_consistent", spy)
    rng = random.Random(44)
    verdicts_seen = set()
    circuits = 0
    while circuits < 20:
        candidates = ("NAND", "NOR", "XOR") if circuits % 3 == 0 else ("NAND", "NOR")
        try:
            camo, secret = random_camo(rng, random_circuit(rng), rng.randint(1, 4), candidates)
        except ValueError:  # too few gates of two or more inputs
            continue
        inst = AttackInstance(camo)
        hidden = [i for i in range(camo.k) if i not in inst.observable]
        if not hidden:
            continue
        m = camo.num_inputs
        inst = _observe(camo, secret, [
            tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(0, 3))
        ])
        pins.clear()
        verdicts = atk.partial_completion(inst)
        # one unpinned solve, and no pin on a key bit of an unobservable cell
        assert pins[0] == () and pins.count(()) == 1
        hidden_bits = {b for i in hidden for b in inst.k1.cells[i]}
        assert not {abs(lit) for pin in pins for lit in pin} & hidden_bits
        # every verdict is the brute-force one
        survivors = [x for x in camo.all_completions() if atk.consistent(camo, x, inst.qs)]
        for ci, cell in enumerate(camo.cells):
            values = {x.choices[ci] for x in survivors}
            want = min(values) if len(values) == 1 else None
            assert verdicts[cell.gate_out] == want
            verdicts_seen.add((ci in hidden, want is None))
        circuits += 1
    # observable cells both fixed and ambiguous; unobservable ones all ambiguous
    assert verdicts_seen == {(False, False), (False, True), (True, True)}


def test_partial_completion_with_every_cell_unobservable(monkeypatch):
    from seqdecam.netlist import camouflage, parse_bench

    calls = []
    orig = AttackInstance.solve_consistent

    def counted(self, *args, **kwargs):
        calls.append(args)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(AttackInstance, "solve_consistent", counted)
    camo = camouflage(parse_bench(DEAD_FLOP, "dead_flop"), ["g"], ["AND", "OR"])
    inst = _observe(camo, Completion((0,)), [(1, 1)])
    assert atk.partial_completion(inst) == {"g": None}
    assert len(calls) == 1
    # y = BUF(a): an output of 0 after a=1 is reproduced by no completion,
    # which the unpinned solve finds although no cell is ever pinned
    lie = AttackInstance(camo)
    lie.add_record(BitSeq(1, (1,)), BitSeq(1, (0,)))
    calls.clear()
    with pytest.raises(atk.OracleInconsistentError):
        atk.partial_completion(lie)
    assert len(calls) == 1


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


def test_certified_attack_returns_the_surviving_witness(monkeypatch):
    # the witness that survived the last record is the completion: the
    # progress check re-simulated it against every record, so no
    # consistency solve runs
    found = []
    orig_find = atk.find_distinguishing

    def spy_find(*args, **kwargs):
        found.append(orig_find(*args, **kwargs))
        return found[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("a consistency solve ran")

    monkeypatch.setattr(atk, "find_distinguishing", spy_find)
    monkeypatch.setattr(AttackInstance, "solve_consistent", refuse)
    ce, umc = (random_camo(rng, random_circuit(rng, num_flops=2), k=3)
               for rng in (random.Random(9), random.Random(2)))
    for (camo, secret), termination in ((ce, atk.CE), (umc, atk.UMC)):
        found.clear()
        rep = atk.run_attack(camo, BlackBox(camo, secret), atk.AttackConfig(bmc_inc=1, max_bound=8))
        assert rep.termination == termination and rep.disc_set
        x1, x2, _ = [f for f in found if f is not None][-1]
        assert rep.completions[0] in (x1, x2)
        assert all(run_sequence(camo, rep.completions[0], seq) == out for seq, out in rep.disc_set)
        assert atk.product_equiv(camo, rep.completions[0], secret) is None


def test_progress_check_raises_when_no_witness_is_eliminated(monkeypatch, s27_camo):
    # both witnesses reproduce the secret's answer to the sequence, so the
    # new record eliminates neither: the bounded search was wrong
    seq = BitSeq(4, (8, 9))
    monkeypatch.setattr(atk, "find_distinguishing",
                        lambda inst, bound, budget=None: (S27_SECRET, S27_SECRET, seq))
    with pytest.raises(atk.EncodingBugError, match="neither counterexample"):
        atk.run_attack(s27_camo, BlackBox(s27_camo, S27_SECRET), atk.AttackConfig(bmc_inc=2))


def test_certified_attack_without_records_recovers_its_completion(
    monkeypatch, identical_candidates_camo, unreachable_divergence_camo
):
    recovered = []
    orig = atk.recover_completion

    def spy(*args, **kwargs):
        recovered.append(orig(*args, **kwargs))
        return recovered[-1]

    monkeypatch.setattr(atk, "recover_completion", spy)
    for (camo, secret), termination in (
        (identical_candidates_camo, atk.CE), (unreachable_divergence_camo, atk.UMC)
    ):
        recovered.clear()
        rep = atk.run_attack(camo, BlackBox(camo, secret), atk.AttackConfig(bmc_inc=1, max_bound=4))
        assert rep.termination == termination and not rep.disc_set
        assert rep.completions == tuple(recovered) and len(recovered) == 1
        assert atk.product_equiv(camo, rep.completions[0], secret) is None


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


# The search pinned on two fixed attacks, apart from how the solver got
# there: every record's (bound, event, status) and the query set.  A change
# that alters a question the attack asks or an answer it gets shows up here;
# update the values only with a change meant to alter them.
_PINNED_S27 = (
    [(2, "sequence", "SAT"), (2, "uc", "SAT"), (2, "ce", "SAT"), (2, "sequence", "SAT"),
     (2, "uc", "UNSAT")],
    [((4, 9), (1, 0)), ((0, 9), (1, 1))],
)
_PINNED_RANDOM = (
    [(2, "sequence", "SAT"), (2, "uc", "SAT"), (2, "ce", "SAT"), (2, "sequence", "SAT"),
     (2, "uc", "SAT"), (2, "ce", "SAT"), (2, "bound", "UNSAT"), (2, "umc", "refuted"),
     (4, "sequence", "SAT"), (4, "uc", "SAT"), (4, "ce", "SAT"), (4, "sequence", "SAT"),
     (4, "uc", "UNSAT")],
    [((0, 4), (0, 1)), ((0, 0), (0, 1)), ((3, 3, 0), (1, 0, 1)), ((3, 7, 5, 3), (1, 1, 0, 1))],
)
# The solver counters of the same attacks: every record's (conflicts,
# decisions).  A change to the solver or to the CNF it is given moves them
# even when every question and answer above stays; re-record them then.
_PINNED_S27_COUNTERS = [(5, 12), (0, 12), (0, 18), (0, 14), (0, 0)]
_PINNED_RANDOM_COUNTERS = [(0, 12), (1, 12), (0, 18), (0, 18), (0, 16), (0, 15), (8, 19),
                           (0, 33), (0, 23), (6, 36), (0, 19), (8, 43), (0, 0)]


def _pinned_attacks(s27_camo):
    """The reports of the two pinned attacks, paired with their pins."""
    rng = random.Random(2)
    small = random_camo(rng, random_circuit(rng, num_inputs=3, num_flops=3, num_gates=18), k=4)
    for camo, secret, cfg, pinned, counters in (
        (s27_camo, S27_SECRET, atk.AttackConfig(bmc_inc=2, max_bound=16), _PINNED_S27,
         _PINNED_S27_COUNTERS),
        (*small, atk.AttackConfig(bmc_inc=2, max_bound=64), _PINNED_RANDOM,
         _PINNED_RANDOM_COUNTERS),
    ):
        rep = atk.run_attack(camo, BlackBox(camo, secret), cfg)
        assert rep.termination == atk.UC and rep.completions == (secret,)
        yield rep, pinned, counters


def test_search_is_pinned(s27_camo):
    for rep, pinned, _ in _pinned_attacks(s27_camo):
        records = [(i.bound, i.event, i.status) for i in rep.iterations]
        queries = [(seq.steps, out.steps) for seq, out in rep.disc_set]
        assert (records, queries) == pinned
        assert rep.unobservable == ()  # every cell observable, so UC is asked


def test_search_counters_are_pinned(s27_camo):
    for rep, _, counters in _pinned_attacks(s27_camo):
        assert [(i.conflicts, i.decisions) for i in rep.iterations] == counters


# the s344-shaped circuits of perfbench/workloads.py, made the same way
S344_SHAPE = dict(num_inputs=9, num_outputs=11, num_flops=15, num_gates=160)


def _s344_shaped(circuit_seed, k):
    rng = random.Random(circuit_seed)
    c = random_circuit(rng, name=f"synth344_{circuit_seed}", **S344_SHAPE)
    return random_camo(rng, c, k=k)


def _umc_1_k32():
    """umc344's umc_1_k32 (s344-shaped circuit 1, k=32, one bounded-search
    frame): its config and an instance holding its 4 bounded-search records."""
    camo, secret = _s344_shaped(1, 32)
    cfg = atk.AttackConfig(bmc_inc=1, max_bound=1, umc_mode="explicit", umc_enum_cap=512)
    rep = atk.run_attack(camo, BlackBox(camo, secret), cfg)
    assert len(rep.disc_set) == 4
    return cfg, AttackInstance.from_queries(camo, rep.disc_set)


def test_enumeration_is_pinned():
    # the whole listing of umc_1_k32's observable cells after its 4
    # records: one plain solver call per consistent choice of the 17 cells
    # in the cone, each from level 0, with a blocking clause on those cells
    # added after it; every listed completion is distinct there and
    # re-simulates consistent on the full circuit
    cfg, inst = _umc_1_k32()
    camo, _ = _s344_shaped(1, 32)
    kept = inst.observable
    found = inst.enumerate_consistent(cfg.umc_enum_cap)
    assert len(kept) == 17
    assert len({tuple(x.choices[c] for c in kept) for x in found}) == len(found) == 64
    assert all(atk.consistent(camo, x, inst.qs) for x in found)


def test_enumeration_counters_are_pinned():
    # the solver's decisions and propagations over that listing; a change
    # to the solver or to the CNF it is given moves them, not the listing
    cfg, inst = _umc_1_k32()
    before = inst.stats
    inst.enumerate_consistent(cfg.umc_enum_cap)
    after = inst.stats
    assert (after.decisions - before.decisions, after.propagations - before.propagations) == (
        2578, 8206)


def test_umc_refutes_umc_1_k32_at_its_third_listed_survivor(monkeypatch):
    cfg, inst = _umc_1_k32()
    calls = _solver_calls(monkeypatch)
    assert atk.check_umc(inst, cfg) is False
    assert [c[0] for c in calls] == [sm.SAT] * 3
    # the whole listing is 16 times longer
    assert len(inst.enumerate_consistent(512)) == 64


def test_every_clause_reaches_the_solver_through_the_builder():
    # one clause path: the blocking clauses of UMC's listing and the unit
    # that retires them are builder clauses like every other, so the
    # solver's verification store holds exactly the builder's clauses
    cfg, inst = _umc_1_k32()
    assert atk.check_umc(inst, cfg) is False
    assert inst.solve_consistent().status == sm.SAT
    assert inst._ctx.stored_clauses() == [tuple(c) for c in inst.bld.clauses]


def test_umc_refutes_within_the_cap_and_is_inconclusive_past_it():
    cfg, inst = _umc_1_k32()
    # 64 projections exceed a cap of 8, but one of the first 8 refutes
    assert atk.check_umc(inst, dataclasses.replace(cfg, umc_enum_cap=8)) is False
    # a cap of 1 lists one completion, which is compared with nothing
    with pytest.raises(atk.InconclusiveError, match="^more than 1 consistent completions$"):
        atk.check_umc(inst, dataclasses.replace(cfg, umc_enum_cap=1))


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


def test_solver_budget_must_be_a_non_negative_number():
    # NaN would never pass as a deadline and a negative budget times out
    # every call; 0.0 is valid and forces timeouts
    for bad in (float("nan"), -3.0, float("-inf")):
        with pytest.raises(ValueError, match="solver_budget must be >= 0"):
            atk.AttackConfig(solver_budget=bad)
    for good in (None, 0.0, 2.5, float("inf")):
        assert atk.AttackConfig(solver_budget=good).solver_budget == good


def test_umc_enum_cap_must_be_positive():
    # -5 would report "more than -5 consistent completions" after one model,
    # and 0 would end a single projection inconclusive
    for bad in (0, -5):
        with pytest.raises(ValueError, match="umc_enum_cap must be >= 1"):
            atk.AttackConfig(umc_enum_cap=bad)
    assert atk.AttackConfig(umc_enum_cap=1).umc_enum_cap == 1


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
    # on s27 an enumeration cap of 1 ends every UMC check inconclusive after
    # the solver calls of its enumeration, which the umc record counts
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
    assert res.status == sm.SAT and res.word(inst.groups["key"]) == 2


def test_run_attack_at_table_scale_synthetic():
    # not an ISCAS reproduction: the benchmark's synthetic circuits with the
    # scale of the 160-gate/15-flop benchmarks.  Every table344 and umc344
    # attack's (termination, queries, steps, gates fixed) is pinned, so a
    # change that moves a benchmark query set shows up here first
    umc = dict(bmc_inc=1, max_bound=1, umc_mode="explicit")
    for (seed, k), cfg, pinned in (
        ((1, 32), atk.AttackConfig(), (atk.CE, 4, 20, 32)),  # table_1
        ((3, 32), atk.AttackConfig(), (atk.CE, 5, 33, 32)),  # table_3
        ((1, 32), atk.AttackConfig(**umc, umc_enum_cap=512), (atk.EXHAUSTED, 4, 4, 11)),
        ((3, 10), atk.AttackConfig(**umc), (atk.EXHAUSTED, 1, 1, 2)),
    ):
        camo, secret = _s344_shaped(seed, k)
        box = BlackBox(camo, secret)
        rep = atk.run_attack(camo, box, cfg)
        assert (rep.termination, box.query_count, box.step_count, rep.gates_fixed) == pinned
        if rep.success:
            assert rep.max_seq_len <= 10
            x = rep.completions[0]
            for seq, out in rep.disc_set:
                assert run_sequence(camo, x, seq) == out
            # CE held right after the last query, so no proof closed the final bound
            assert not any(
                i.event == "bound" and i.bound == rep.bound_reached for i in rep.iterations
            )


def test_smallbatch_asks_the_pinned_questions():
    # beside the table344/umc344 query sets above: the `queries` digest of
    # smallbatch at seed 100 (every attack's termination, completions,
    # discriminating set and query/step counts), so a change that moves any
    # of its 2,000 attacks' questions shows up here; in a child process, as
    # the script rebinds `attack.AttackInstance` while it runs
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_digest.py"), "smallbatch", "100"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert "queries f25a56c1c027c64f1175f7f8bee0cc66a96379918ef8f1bcbfd5ede1b1e7f493\n" in run.stdout


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
    assert statuses[0] == "inconclusive: more than 1 consistent completions"
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
