import random

import hypothesis
import pytest
from hypothesis import given, settings, strategies as st

from seqdecam import sat as sm
from seqdecam.cnf import FALSE, TRUE, CnfBuilder
from seqdecam.encode import (
    AttackInstance,
    _emit_any_mismatch,
    emit_keyed_frame,
    encode_bmc_disagreement,
    encode_ce,
    encode_consistency,
    encode_keyed_frame,
    encode_uc,
    new_key_vector,
)
from seqdecam.gen import random_camo, random_circuit
from seqdecam.netlist import (
    CAMO_TAG, BitSeq, CamoCell, CamoCircuit, Circuit, Completion, Evaluator, Gate,
    camouflage, observable_cone, parse_bench, run_sequence, step,
)
from seqdecam.oracle import OracleConflictError, QuerySet, record
from seqdecam.attack import ProductCapError, brute_force_disc, consistent

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
            got_o = res.word(inst.groups["output"])
            got_n = res.word(inst.groups["next"])
            assert (got_o, got_n) == step(camo, x, state, inp)
            checked += 1


def test_keyed_frame_encodes_every_candidate_function():
    # cells over every binary function (t=6, so two key values are blocked)
    # and over the unary ones
    rng = random.Random(7)
    for candidates in (("AND", "OR", "NAND", "NOR", "XOR", "XNOR"), ("NOT", "BUF")):
        checked = 0
        while checked < 20:
            try:
                camo, _ = random_camo(rng, random_circuit(rng), candidates=candidates)
            except ValueError:  # too few gates of the candidates' arity
                continue
            checked += 1
            inst = encode_keyed_frame(camo)
            ctx = sm.SatContext(inst)
            m, l = camo.num_inputs, camo.num_flops
            x = Completion(tuple(rng.randrange(c.t) for c in camo.cells))
            state, inp = rng.randrange(1 << l), rng.randrange(1 << m)
            assume = _pin(inst.groups["key"], _key_bits(camo, x))
            assume += _pin(inst.groups["state"], [(state >> i) & 1 for i in range(l)])
            assume += _pin(inst.groups["input"], [(inp >> i) & 1 for i in range(m)])
            res = ctx.solve(assume)
            got_o = res.word(inst.groups["output"])
            got_n = res.word(inst.groups["next"])
            assert (got_o, got_n) == step(camo, x, state, inp)


def test_keyed_frame_rejects_literal_vectors_of_the_wrong_length(s27_camo):
    from seqdecam.cnf import CnfBuilder
    from seqdecam.encode import emit_keyed_frame, new_key_vector

    bld = CnfBuilder()
    key = new_key_vector(bld, s27_camo, "key")
    state, inputs = bld.new_vars(3), bld.new_vars(4)
    extra = bld.new_var()
    for st, ins in ((state[:2], inputs), (state + [extra], inputs),
                    (state, inputs[:3]), (state, inputs + [extra])):
        emitted = len(bld.clauses)
        with pytest.raises(ValueError, match="3 flops and 4 inputs"):
            emit_keyed_frame(bld, s27_camo, key, st, ins)
        assert len(bld.clauses) == emitted
    outs, nxt = emit_keyed_frame(bld, s27_camo, key, state, inputs)
    assert (len(outs), len(nxt)) == (1, 3)


def test_keyed_frame_buf_circuit_aliases_input():
    from seqdecam.netlist import camouflage, parse_bench

    c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\nz = AND(a, a)\n")
    camo = camouflage(c, ["z"], ["AND", "OR"])
    inst = encode_keyed_frame(camo)
    # the BUF output is the input literal itself, no extra variable
    assert inst.groups["output"] == inst.groups["input"]


@pytest.mark.parametrize("fn, match", [("FOO", "unknown function 'FOO'"),
                                       (CAMO_TAG, "camouflaged but not listed as a cell")])
def test_simulator_and_frames_refuse_the_same_unusable_gate(fn, match):
    # both walk `CamoCircuit.plan`, so a gate it cannot take fails them alike
    gates = (Gate("g", CAMO_TAG, ("a", "b")), Gate("y", fn, ("g", "b")))
    camo = CamoCircuit(Circuit("hand", ("a", "b"), ("y",), (), gates),
                       (CamoCell("g", ("NAND", "NOR")),))
    with pytest.raises(ValueError, match=match) as sim:
        Evaluator(camo, Completion((0,)))
    bld = CnfBuilder()
    key = new_key_vector(bld, camo, "key")
    with pytest.raises(ValueError, match=match) as cnf:
        emit_keyed_frame(bld, camo, key, [], bld.new_vars(2))
    assert str(sim.value) == str(cnf.value)


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
            got = res.word(inst.groups["output"])
            assert got == step(s27_camo, x, 0, inp)[0]


def test_keyed_frame_folds_a_cell_whose_candidates_agree():
    # NAND(1, 1) = NOR(1, 1) = 0 and NAND(a, a) = NOR(a, a) = -a: every key
    # gives the cell that literal, so it gets no variable and no guard
    gates = (Gate("y", CAMO_TAG, ("a", "b")),)
    camo = CamoCircuit(Circuit("hand", ("a", "b"), ("y",), (), gates),
                       (CamoCell("y", ("NAND", "NOR")),))
    bld = CnfBuilder()
    key = new_key_vector(bld, camo, "key")
    a = bld.new_var()
    for ins, want in (([TRUE, TRUE], FALSE), ([FALSE, FALSE], TRUE), ([a, a], -a)):
        num_vars, num_clauses = bld.num_vars, len(bld.clauses)
        assert emit_keyed_frame(bld, camo, key, [], ins) == ([want], [])
        assert (bld.num_vars, len(bld.clauses)) == (num_vars, num_clauses)
    # NAND(1, 0) = 1 but NOR(1, 0) = 0: the key decides, by two guarded units
    outs, _ = emit_keyed_frame(bld, camo, key, [], [TRUE, FALSE])
    assert outs == [num_vars + 1] and bld.num_vars == num_vars + 1
    (k,) = key.cells[0]
    assert bld.clauses[num_clauses:] == [(k, outs[0]), (-k, -outs[0])]


# candidate sets whose members agree on equal inputs (NAND/NOR, AND/OR) or
# on no inputs at all
_FOLD_CANDIDATES = (("NAND", "NOR"), ("AND", "OR"), ("NAND", "NOR", "AND", "XOR"))


@hypothesis.seed(33)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(_FOLD_CANDIDATES), st.data())
def test_keyed_frame_matches_step_on_constant_and_repeated_literals(seed, candidates, data):
    # the fold fires only where a cell's inputs are constants or one
    # literal, so each state and input literal is drawn from the constants
    # and two free variables, either sign; every completion, pinned by its
    # key bits, must give step's outputs and next state
    rng = random.Random(seed)
    try:
        camo, _ = random_camo(rng, random_circuit(rng), candidates=candidates)
    except ValueError:  # no gate takes two inputs
        hypothesis.assume(False)
    m, l = camo.num_inputs, camo.num_flops
    bld = CnfBuilder()
    key = new_key_vector(bld, camo, "key")
    free = bld.new_vars(2)
    lit = st.sampled_from((TRUE, FALSE, *free, *(-v for v in free)))
    state_lits = data.draw(st.lists(lit, min_size=l, max_size=l))
    input_lits = data.draw(st.lists(lit, min_size=m, max_size=m))
    values = data.draw(st.lists(st.booleans(), min_size=2, max_size=2))
    outs, nxt = emit_keyed_frame(bld, camo, key, state_lits, input_lits)
    bit = {TRUE: 1, FALSE: 0}
    for v, b in zip(free, values):
        bit[v], bit[-v] = int(b), int(not b)
    state = sum(bit[x] << i for i, x in enumerate(state_lits))
    inp = sum(bit[x] << i for i, x in enumerate(input_lits))
    ctx = sm.SatContext(bld.build())
    for x in camo.all_completions():
        res = ctx.solve(_pin(key.all_vars(), _key_bits(camo, x)) + _pin(free, values))
        assert res.status == sm.SAT
        assert (res.word(outs), res.word(nxt)) == step(camo, x, state, inp)


def test_frame_whose_copies_fold_alike_adds_no_mismatch_literal():
    # from reset q1 = q2 = 0, and NAND(0, 0) = NOR(0, 0) = 1 in both
    # copies: the first frame's output is TRUE in both, so its mismatch is
    # FALSE, with no variable, and the bound-1 search is UNSAT at once
    c = parse_bench("INPUT(a)\nOUTPUT(y)\nq1 = DFF(a)\nq2 = DFF(y)\ny = NAND(q1, q2)\n")
    inst = AttackInstance(camouflage(c, ["y"], ["NAND", "NOR"]))
    num_vars = inst.bld.num_vars
    inst.ensure_frames(1)
    assert inst.bld.num_vars == num_vars + 1  # the frame's input alone
    assert inst._frame_flags == [FALSE]
    assert inst.solve_bmc(1).status == sm.UNSAT
    # then q1 = a and q2 = 1, where NAND(0, 1) = 1 but NOR(0, 1) = 0
    assert inst.solve_bmc(2).status == sm.SAT
    # constants of the two vectors compare without a variable either way
    bld = CnfBuilder()
    v = bld.new_var()
    assert _emit_any_mismatch(bld, [TRUE, v], [TRUE, v]) == FALSE
    assert _emit_any_mismatch(bld, [v, TRUE], [v, FALSE]) == TRUE
    assert (bld.num_vars, len(bld.clauses)) == (v, 1)


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

def _step_tables(camo, comps):
    """The distinct one-step tables of the completions comps: outputs and
    next state in every state, under every input."""
    m, l = camo.num_inputs, camo.num_flops
    return {tuple(step(camo, x, st, i) for st in range(1 << l) for i in range(1 << m)) for x in comps}


def _brute_force_verdicts(camo, qs, bound=2):
    """BMC at `bound`, UC and CE, each decided by simulating every consistent
    completion: a query is SAT iff two of them differ where it looks.  CE
    looks at the outputs' cone of influence: the step tables of the reduced
    circuit under each completion's kept choices."""
    m = camo.num_inputs
    comps = [x for x in camo.all_completions() if consistent(camo, x, qs)]

    def tree(x, state, depth, memo):
        # the outputs of every input sequence of length `depth` from state
        if depth == 0:
            return ()
        if (state, depth) not in memo:
            steps = (step(camo, x, state, i) for i in range(1 << m))
            memo[state, depth] = tuple((o, tree(x, n, depth - 1, memo)) for o, n in steps)
        return memo[state, depth]

    runs = {tree(x, camo.reset_state, bound, {}) for x in comps}
    frames = _step_tables(observable_cone(camo)[0], comps)
    verdict = lambda differ: sm.SAT if differ else sm.UNSAT
    return verdict(len(runs) > 1), verdict(len(comps) > 1), verdict(len(frames) > 1)


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


def test_distinct_keys_assumption_removes_no_model():
    # BMC and CE are asked under "the key vectors decode to distinct
    # completions", and UC is that assumption alone.  Two equal completions
    # agree on every output and next state, so BMC and CE lose no model by
    # it; UC is SAT exactly when two distinct completions are consistent.
    # Criterion 3's generator, with 0-2 records
    rng = random.Random(33)
    for _ in range(60):
        try:
            camo, secret = random_camo(
                rng, random_circuit(rng, num_flops=rng.randint(0, 3)), k=rng.randint(1, 3)
            )
        except ValueError:
            continue
        m = camo.num_inputs
        qs = QuerySet()
        for _ in range(rng.randint(0, 2)):
            seq = BitSeq(m, tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 3))))
            qs = record(qs, seq, run_sequence(camo, secret, seq))
        inst = AttackInstance.from_queries(camo, qs)
        for b in (1, 2, 3):
            unassumed = inst.solve_consistent([inst.bound_selector(b)]).status
            assert inst.solve_bmc(b).status == unassumed
        assert inst.solve_ce().status == inst.solve_consistent([inst.ce_selector()]).status
        distinct = len(_consistent_set_by_simulation(camo, qs)) > 1
        assert inst.solve_uc().status == (sm.SAT if distinct else sm.UNSAT)


def _circuits_with_dead_logic(seed, count):
    """Criterion 3's generator, kept to circuits where `observable_cone`
    drops a gate or a flop, each with a secret and 0-2 records."""
    rng = random.Random(seed)
    while count:
        try:
            camo, secret = random_camo(
                rng, random_circuit(rng, num_flops=rng.randint(0, 3)), k=rng.randint(1, 3)
            )
        except ValueError:
            continue
        if observable_cone(camo)[0] is camo:
            continue
        m = camo.num_inputs
        qs = QuerySet()
        for _ in range(rng.randint(0, 2)):
            seq = BitSeq(m, tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 3))))
            qs = record(qs, seq, run_sequence(camo, secret, seq))
        yield camo, secret, qs
        count -= 1


def test_cone_frames_keep_every_verdict():
    # every frame covers only the outputs' cone of influence: every verdict
    # and the consistent set still match simulation of the full circuit
    for camo, _, qs in _circuits_with_dead_logic(33, 100):
        inst = AttackInstance.from_queries(camo, qs)
        for b in (1, 2, 3):
            bmc, uc, ce = _brute_force_verdicts(camo, qs, b)
            assert inst.solve_bmc(b).status == bmc
        assert inst.solve_uc().status == uc
        assert inst.solve_ce().status == ce
        kept = inst.cone[1]
        want = {tuple(x[c] for c in kept) for x in _consistent_set_by_simulation(camo, qs)}
        found = inst.enumerate_consistent(cap=64)
        assert sorted(tuple(x.choices[c] for c in kept) for x in found) == sorted(want)


def test_listing_holds_one_consistent_completion_per_cone_choice():
    # brute force: each consistent choice of the cells in the outputs' cone
    # is listed exactly once, in a completion that re-simulates consistent
    # on the full circuit, dead cells and all
    with_dead_cells = 0
    for camo, _, qs in _circuits_with_dead_logic(71, 100):
        inst = AttackInstance.from_queries(camo, qs)
        kept = inst.cone[1]
        consistent_set = _consistent_set_by_simulation(camo, qs)
        want = sorted({tuple(x[c] for c in kept) for x in consistent_set})
        found = inst.enumerate_consistent(cap=64)
        assert sorted(tuple(x.choices[c] for c in kept) for x in found) == want
        assert all(x.choices in consistent_set for x in found)
        with_dead_cells += len(kept) < camo.k
    assert with_dead_cells > 10


def test_cone_ce_certifies_only_discriminating_sets():
    # CE on the cone asks less than CE on the full circuit, where a dead
    # cell that feeds a dead flop makes it SAT by construction; every set
    # it certifies is still discriminating
    beyond_full = 0
    for camo, _, qs in _circuits_with_dead_logic(33, 300):
        if AttackInstance.from_queries(camo, qs).solve_ce().status == sm.UNSAT:
            assert brute_force_disc(camo, qs)
            comps = [x for x in camo.all_completions() if consistent(camo, x, qs)]
            beyond_full += len(_step_tables(camo, comps)) > 1
    assert beyond_full


def test_cone_frames_drop_the_dead_logic():
    # the frames a full instance emits, CE's included, are those of an
    # instance built on the reduced circuit: not one variable or clause for
    # the dead logic
    for camo, secret, _ in _circuits_with_dead_logic(5, 199):
        seq = BitSeq(camo.num_inputs, (0, (1 << camo.num_inputs) - 1))
        out = run_sequence(camo, secret, seq)
        grown = []
        for inst in (AttackInstance(camo), AttackInstance(observable_cone(camo)[0])):
            size = lambda: (inst.bld.num_vars, len(inst.bld.clauses))
            sizes = [size()]
            inst.ensure_frames(3)
            inst.add_record(seq, out)
            sizes.append(size())
            inst.ce_selector()
            sizes.append(size())
            grown.append([(v1 - v0, c1 - c0) for (v0, c0), (v1, c1) in zip(sizes, sizes[1:])])
        assert grown[0] == grown[1]


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
    # one consistent completion per consistent choice of the cells in the
    # outputs' cone
    for camo, qs in _enumeration_cases(s27_camo):
        kept = observable_cone(camo)[1]
        cone_choices = lambda comps: sorted(tuple(x.choices[c] for c in kept) for x in comps)
        want = sorted({tuple(x.choices[c] for c in kept)
                       for x in camo.all_completions() if consistent(camo, x, qs)})
        n = len(want)
        inst = _instance_of(camo, qs)
        for cap in (n - 1, n, n + 1):
            got = inst.enumerate_consistent(cap)
            assert inst._ctx._cdcl.trail_lim == []
            if cap < n:
                assert got is None
                continue
            assert cone_choices(got) == want
            assert all(consistent(camo, x, qs) for x in got)
            again = AttackInstance.from_queries(camo, qs).enumerate_consistent(cap)
            assert cone_choices(again) == want
        # two fresh instances list the same completions in the same order
        first = _instance_of(camo, qs).enumerate_consistent(n)
        assert _instance_of(camo, qs).enumerate_consistent(n) == first
        # blocking clauses bind only their own enumeration
        fresh = _instance_of(camo, qs)
        for bound in (1, 2):
            assert inst.solve_bmc(bound).status == fresh.solve_bmc(bound).status
        assert inst.solve_uc().status == fresh.solve_uc().status


def test_enumeration_leaves_level_0_on_every_exit(monkeypatch, s27_camo):
    # every exit retires the listing's epoch by a unit clause: the solver
    # ends at level 0 with the epoch false there, so its blocking clauses
    # hold for good and bind no later query
    inst = AttackInstance(s27_camo)
    solver = inst._ctx._cdcl

    def listing(*args, **kwargs):
        """Run one listing and check how it left the solver."""
        epoch = inst.bld.num_vars + 1  # the listing's first new variable
        try:
            return inst.enumerate_consistent(*args, **kwargs)
        finally:
            assert solver.trail_lim == []
            assert solver.val[epoch << 1] == 2 and solver.level[epoch] == 0

    assert len(listing(cap=10)) == 4  # ends UNSAT
    assert listing(cap=2) is None  # ends at the cap
    # the third model search times out
    real = sm.Cdcl.solve
    calls = []

    def third_times_out(self, assumptions=(), conflict_budget=None, time_budget=None):
        calls.append(assumptions)
        return real(self, assumptions, conflict_budget, 0.0 if len(calls) == 3 else time_budget)

    monkeypatch.setattr(sm.Cdcl, "solve", third_times_out)
    with pytest.raises(sm.SolverTimeoutError):
        listing(cap=10)
    assert len(calls) == 3
    monkeypatch.undo()
    # the sync of the second blocking clause fails
    real_sync = AttackInstance._sync
    syncs = []

    def third_sync_fails(self):
        syncs.append(self)
        if len(syncs) == 3:
            raise RuntimeError("sync failed")
        real_sync(self)

    monkeypatch.setattr(AttackInstance, "_sync", third_sync_fails)
    with pytest.raises(RuntimeError, match="sync failed"):
        listing(cap=10)
    assert len(syncs) == 4  # the failed one, then the one that retires the epoch
    monkeypatch.undo()
    # `stop` ends the listing after any model, or raises there
    assert len(listing(10, None, lambda found: True)) == 1
    assert len(listing(10, None, lambda found: len(found) == 3)) == 3

    def cap_hit(found):
        raise ProductCapError("product state cap 1 exceeded")

    with pytest.raises(ProductCapError):
        listing(10, None, cap_hit)
    # later queries answer as on a fresh instance
    fresh = AttackInstance(s27_camo)
    for bound in (1, 2, 3):
        assert inst.solve_bmc(bound).status == fresh.solve_bmc(bound).status
        assert solver.trail_lim == []
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
