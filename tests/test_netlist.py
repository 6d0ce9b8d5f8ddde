import hashlib
import random

import pytest
import hypothesis
from hypothesis import given, settings, strategies as st

from seqdecam import netlist as nl
from seqdecam.gen import random_camo, random_circuit

from conftest import S27_CELLS


TRIVIAL = "INPUT(a)\nOUTPUT(b)\nb = BUF(a)\n"


# ----------------------------------------------------------------- parsing

def test_parse_s27_shape(s27):
    assert s27.num_inputs == 4
    assert s27.num_outputs == 1
    assert s27.num_flops == 3
    assert len(s27.gates) == 10


def test_parse_trivial_buf():
    c = nl.parse_bench(TRIVIAL)
    assert c.num_inputs == 1 and c.num_outputs == 1 and c.num_flops == 0
    assert c.gates[0].fn == "BUF"


def test_parse_is_case_and_whitespace_insensitive():
    c = nl.parse_bench("input( a )\nOUTPUT(b)\n  b = nand( a,a )\n")
    assert c.gates[0].fn == "NAND"


def test_syntax_error_reports_line():
    with pytest.raises(nl.BenchSyntaxError) as exc:
        nl.parse_bench("INPUT(a)\nOUTPUT(b)\nb = AND(a,\n")
    assert "line 3" in str(exc.value)


def test_unknown_function_tag():
    with pytest.raises(nl.UnknownFunctionError):
        nl.parse_bench("INPUT(a)\nOUTPUT(b)\nb = MUX2(a, a)\n")


def test_duplicate_driver():
    with pytest.raises(nl.DuplicateDriverError):
        nl.parse_bench("INPUT(a)\nOUTPUT(b)\nb = BUF(a)\nb = NOT(a)\n")


def test_undriven_net():
    with pytest.raises(nl.UndrivenNetError):
        nl.parse_bench("INPUT(a)\nOUTPUT(b)\nb = AND(a, ghost)\n")


def test_combinational_cycle():
    with pytest.raises(nl.CombinationalCycleError):
        nl.parse_bench("INPUT(a)\nOUTPUT(p)\np = AND(a, q)\nq = AND(a, p)\n")


def test_validate_finds_a_cycle_in_a_circuit_built_directly():
    gates = (nl.Gate("p", "AND", ("a", "q")), nl.Gate("q", "AND", ("a", "p")))
    with pytest.raises(nl.CombinationalCycleError):
        nl.Circuit("loop", ("a",), ("p",), (), gates).validate()


def test_unary_arity_enforced():
    with pytest.raises(nl.BenchError):
        nl.parse_bench("INPUT(a)\nOUTPUT(b)\nb = NOT(a, a)\n")
    with pytest.raises(nl.BenchError):
        nl.parse_bench("INPUT(a)\nOUTPUT(b)\nb = AND(a)\n")


def test_dff_init_token_ignored_with_warning():
    text = "INPUT(a)\nOUTPUT(s)\ns = DFF(a, 1)\n"
    with pytest.warns(UserWarning, match="initial-value"):
        c = nl.parse_bench(text)
    assert c.flops == (("s", "a"),)


def test_roundtrip_s27(s27):
    again = nl.parse_bench(nl.serialize_bench(s27), s27.name)
    assert again == s27


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_roundtrip_random_circuits(seed):
    c = random_circuit(random.Random(seed))
    assert nl.parse_bench(nl.serialize_bench(c), c.name) == c


def test_random_circuits_are_pinned():
    # the generator's circuits for seeds 0-199, as .bench text: a change to
    # how it draws or orders gates shows up here
    h = hashlib.sha256()
    for seed in range(200):
        h.update(nl.serialize_bench(random_circuit(random.Random(seed))).encode())
    assert h.hexdigest() == "8783c0dc433a8b078d72438ec48ac8b4ed6282390dd31382299a70b33d2d8c88"


# ------------------------------------------------------------ camouflaging

def test_camouflage_s27(s27):
    camo = nl.camouflage(s27, S27_CELLS, ["NAND", "NOR"], 0)
    assert camo.k == 2
    assert all(cell.t == 2 for cell in camo.cells)
    assert [c.gate_out for c in camo.cells] == S27_CELLS


def test_camouflage_erases_original_tags(s27):
    camo = nl.camouflage(s27, S27_CELLS, ["NAND", "NOR"], 0)
    for cell in camo.cells:
        assert camo.base.gate_by_out[cell.gate_out].fn == nl.CAMO_TAG
    text = nl.serialize_bench(camo.base)
    for line in text.splitlines():
        if line.startswith(("G13 ", "G10 ")):
            assert "NAND" not in line and "NOR" not in line
            assert nl.CAMO_TAG in line


def test_camouflage_zero_gates_rejected(s27):
    with pytest.raises(nl.CamouflageError):
        nl.camouflage(s27, [], ["NAND", "NOR"], 0)


def test_camouflage_unknown_and_duplicate_ids(s27):
    with pytest.raises(nl.CamouflageError, match="unknown gate-id"):
        nl.camouflage(s27, ["nope"], ["NAND", "NOR"], 0)
    with pytest.raises(nl.CamouflageError, match="duplicate"):
        nl.camouflage(s27, ["G13", "G13"], ["NAND", "NOR"], 0)


def test_camouflage_rejects_a_repeated_candidate(s27):
    # two cells taking the same function would be two names for one choice
    for cands in (["NAND", "NAND"], ["NAND", "NOR", "nand"]):
        with pytest.raises(nl.CamouflageError, match="repeated candidate function.*NAND"):
            nl.camouflage(s27, ["G13"], cands, 0)


def test_camouflage_arity_mismatch(s27):
    # G14 = NOT(G0) is unary; NAND/NOR need two or more inputs
    with pytest.raises(nl.CamouflageError, match="incompatible"):
        nl.camouflage(s27, ["G14"], ["NAND", "NOR"], 0)


def test_camouflage_reset_width(s27):
    with pytest.raises(nl.CamouflageError, match="reset"):
        nl.camouflage(s27, S27_CELLS, ["NAND", "NOR"], reset_state=1 << 5)


def test_sidecar_roundtrip(s27):
    camo = nl.camouflage(s27, S27_CELLS, ["NAND", "NOR"], reset_state=0b010)
    again = nl.parse_sidecar(nl.format_sidecar(camo), s27)
    assert again == camo


def test_sidecar_bad_reset_is_a_syntax_error(s27):
    with pytest.raises(nl.BenchSyntaxError, match="line 2"):
        nl.parse_sidecar("candidates: NAND NOR\nreset: 01\nG13\n", s27)  # s27 has 3 flops


def test_sidecar_repeated_line_is_a_syntax_error(s27):
    # a second candidates: or reset: line would silently replace the first
    for text, lineno in (
        ("candidates: NAND NOR\nG13\ncandidates: NOR NAND\n", 3),
        ("# s27\ncandidates: NAND NOR\nreset: 000\n\nreset: 010\n", 5),
        ("reset: 000\ncandidates: NAND NOR\nRESET: 000\n", 3),
    ):
        with pytest.raises(nl.BenchSyntaxError, match="repeated") as exc:
            nl.parse_sidecar(text, s27)
        assert exc.value.line == lineno


def test_completion_file_roundtrip(s27_camo):
    x = nl.Completion((1, 0))
    text = nl.format_completion_file(s27_camo, x)
    assert nl.parse_completion_file(text, s27_camo) == x
    with pytest.raises(nl.CamouflageError):
        nl.parse_completion_file("G13 0\n", s27_camo)  # missing cell
    with pytest.raises(nl.CamouflageError, match="'G13' index 2"):
        nl.parse_completion_file("G13 2\nG10 0\n", s27_camo)  # index out of range
    with pytest.raises(nl.BenchSyntaxError, match="expected '<gate-id> <index>'"):
        nl.parse_completion_file("G13 \u00b2\nG10 0\n", s27_camo)  # isdigit, not a decimal
    # a repeated cell would silently keep its last index
    for text in ("G13 0\nG10 0\nG13 1\n", "G13 0\nG10 1\n\nG13 0\n"):
        with pytest.raises(nl.BenchSyntaxError, match="repeated cell 'G13'") as exc:
            nl.parse_completion_file(text, s27_camo)
        assert exc.value.line == len(text.splitlines())


# -------------------------------------------------------------- simulation

def test_step_buf_identity():
    c = nl.parse_bench(TRIVIAL)
    camo = nl.camouflage(c, ["b"], ["BUF", "NOT"], 0)
    out, nxt = nl.step(camo, nl.Completion((0,)), 0, 1)
    assert (out, nxt) == (1, 0)
    out, _ = nl.step(camo, nl.Completion((1,)), 0, 1)
    assert out == 0


def test_s27_one_step_outputs_are_completion_independent(s27_camo):
    # hand-derived: at reset the output equals NAND(in3, NOT(in1)) no matter
    # which candidates the two cells take
    expected = [0 if (i >> 3) & 1 and not (i >> 1) & 1 else 1 for i in range(16)]
    for x in s27_camo.all_completions():
        got = [nl.step(s27_camo, x, 0, i)[0] for i in range(16)]
        assert got == expected


def test_s27_two_step_separating_sequences(s27_camo):
    # frozen from exhaustive search over all 256 two-step sequences, then
    # cross-checked by hand against the gate equations:
    #   (8, 9) ends in 1 exactly when G13 keeps NAND
    #   (4, 8) ends in 1 exactly when G10 takes NAND
    by_choice = {x.choices: x for x in s27_camo.all_completions()}
    seq_a = nl.BitSeq(4, (8, 9))
    finals = {ch: nl.run_sequence(s27_camo, x, seq_a).steps[-1] for ch, x in by_choice.items()}
    assert finals == {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0}
    seq_c = nl.BitSeq(4, (4, 8))
    finals = {ch: nl.run_sequence(s27_camo, x, seq_c).steps[-1] for ch, x in by_choice.items()}
    assert finals == {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}


def test_run_sequence_empty(s27_camo):
    out = nl.run_sequence(s27_camo, nl.Completion((0, 1)), nl.BitSeq(4))
    assert out == nl.BitSeq(1)


def test_run_sequence_width_check(s27_camo):
    with pytest.raises(ValueError):
        nl.run_sequence(s27_camo, nl.Completion((0, 1)), nl.BitSeq(3, (1,)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.data())
def test_run_sequence_composition(seed, data):
    rng = random.Random(seed)
    camo, secret = random_camo(rng, random_circuit(rng))
    m = camo.num_inputs
    steps = data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=8))
    cut = data.draw(st.integers(0, len(steps)))
    whole = nl.run_sequence(camo, secret, nl.BitSeq(m, tuple(steps)))
    head = nl.run_sequence(camo, secret, nl.BitSeq(m, tuple(steps[:cut])))
    assert whole.steps[:cut] == head.steps


def _naive_fixed_point(camo, completion, state, inp):
    """Reference evaluator: iterate gate equations to a fixed point."""
    base = camo.base
    vals = {n: (inp >> i) & 1 for i, n in enumerate(base.inputs)}
    vals.update({s: (state >> i) & 1 for i, (s, _) in enumerate(base.flops)})
    cidx = camo.cell_index
    fns = {}
    for g in base.gates:
        fn = g.fn
        if g.out in cidx:
            fn = camo.cells[cidx[g.out]].candidates[completion.choices[cidx[g.out]]]
        fns[g.out] = fn
    changed = True
    while changed:
        changed = False
        for g in base.gates:
            if g.out in vals or any(n not in vals for n in g.ins):
                continue
            ins = [vals[n] for n in g.ins]
            fn = fns[g.out]
            if fn == "AND":
                v = int(all(ins))
            elif fn == "OR":
                v = int(any(ins))
            elif fn == "NAND":
                v = int(not all(ins))
            elif fn == "NOR":
                v = int(not any(ins))
            elif fn == "XOR":
                v = sum(ins) % 2
            elif fn == "XNOR":
                v = (sum(ins) + 1) % 2
            elif fn == "NOT":
                v = 1 - ins[0]
            else:
                v = ins[0]
            vals[g.out] = v
            changed = True
    out = sum(vals[n] << i for i, n in enumerate(base.outputs))
    nxt = sum(vals[d] << i for i, (_, d) in enumerate(base.flops))
    return out, nxt


def test_topological_matches_fixed_point_on_random_circuits():
    rng = random.Random(7)
    for _ in range(100):
        camo, secret = random_camo(rng, random_circuit(rng))
        m, l = camo.num_inputs, camo.num_flops
        state = rng.randrange(1 << l) if l else 0
        inp = rng.randrange(1 << m)
        assert nl.step(camo, secret, state, inp) == _naive_fixed_point(camo, secret, state, inp)


def test_eval_needs_one_wire_per_input_and_flop(s27_camo):
    # wires are matched to slots by position, so a miscount must not pass
    x = nl.Completion((0, 1))
    ev = nl.Evaluator(s27_camo, x)
    for states, inputs in (([0] * 3, [0] * 3), ([0] * 3, [0] * 5), ([0] * 2, [0] * 4)):
        with pytest.raises(ValueError, match="state and .* input wires"):
            ev.eval(states, inputs, 1)
    outs, nxt = ev.eval([0] * 3, [0] * 4, 1)
    assert (outs[0], sum(b << i for i, b in enumerate(nxt))) == nl.step(s27_camo, x, 0, 0)


def _by_eval(camo, x, seq):
    """`seq` stepped through `Evaluator.eval` at width 1:
    the (output, next state) masks of every cycle."""
    ev = nl.Evaluator(camo, x)
    m, l = camo.num_inputs, camo.num_flops
    state, cycles = camo.reset_state, []
    for inp in seq.steps:
        outs, nxt = ev.eval([(state >> i) & 1 for i in range(l)],
                            [(inp >> i) & 1 for i in range(m)], 1)
        state = sum(b << i for i, b in enumerate(nxt))
        cycles.append((sum(b << i for i, b in enumerate(outs)), state))
    return cycles


def _by_fixed_point(camo, x, seq):
    state, cycles = camo.reset_state, []
    for inp in seq.steps:
        out, state = _naive_fixed_point(camo, x, state, inp)
        cycles.append((out, state))
    return cycles


def _check_walk(camo, x, seq):
    """The table walk (`run_sequence`, `step`) against `eval` and the fixed point."""
    want = _by_fixed_point(camo, x, seq)
    assert _by_eval(camo, x, seq) == want
    assert nl.run_sequence(camo, x, seq).steps == tuple(o for o, _ in want)
    states = [camo.reset_state] + [s for _, s in want]
    assert [nl.step(camo, x, s, i) for s, i in zip(states, seq.steps)] == want


@hypothesis.seed(28)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.data())
def test_table_walk_equals_eval_and_the_fixed_point(seed, data):
    rng = random.Random(seed)
    try:
        camo, x = random_camo(rng, random_circuit(rng), candidates=("NAND", "NOR", "AND", "XOR"))
    except ValueError:  # no gate takes two inputs
        hypothesis.assume(False)
    m = camo.num_inputs
    steps = data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=8))
    _check_walk(camo, x, nl.BitSeq(m, tuple(steps)))


WIDE_GATES = """
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(y0)
OUTPUT(y1)
OUTPUT(w6)
s0 = DFF(w1)
s1 = DFF(w4)
w0 = AND(a, b, c, d)
w1 = NAND(a, b, c, d, e)
w2 = OR(b, c, d, s0)
w3 = NOR(a, c, e, s1, d)
w4 = XOR(a, b, c, d, s0)
w5 = XNOR(w0, w2, e, s1)
w6 = XNOR(a, w3, c, d, w4, s0, s1)
w7 = AND(b, w2, w1, s1, e)
w8 = NOR(w0, b, s0, w5)
y0 = XOR(w3, w5, w7)
y1 = OR(w8, w1)
"""


def test_table_walk_on_wide_gates():
    # parse_bench takes any arity; the walk chains the tables of a wide gate
    six = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")
    camo = nl.camouflage(nl.parse_bench(WIDE_GATES, "wide"), ["w2", "w4", "w6", "w8"], six)
    arities = [len(g.ins) for g in camo.base.gates]
    walk = camo.plan.walk
    assert len(walk.steps) == sum(1 + max(0, (n - 2) // 2) for n in arities)
    rng = random.Random(5)
    completions = rng.sample(list(camo.all_completions()), 40)
    for x in completions:
        for state in range(4):
            for inp in range(32):
                assert nl.step(camo, x, state, inp) == _naive_fixed_point(camo, x, state, inp)
        seq = nl.BitSeq(5, tuple(rng.randrange(32) for _ in range(6)))
        _check_walk(camo, x, seq)


def test_table_walk_shares_tables_between_circuits(s27_camo):
    # one table per (function, arity), whichever circuit a gate is in
    other = nl.camouflage(nl.parse_bench(WIDE_GATES, "wide"), ["w2"], ["NAND", "NOR"])
    walks = (s27_camo.plan.walk, other.plan.walk)
    tables = [t for w in walks for t, *_ in w.steps]
    tables += [t for w in walks for *_, tabs in w.cells for t in tabs]
    assert len({id(t) for t in tables}) == len(set(tables)) < len(tables)


def test_one_lane_runs_never_call_eval(monkeypatch, s27_camo):
    x = nl.Completion((1, 0))
    seq = nl.BitSeq(4, (3, 9, 14, 8))
    want = nl.run_sequence(s27_camo, x, seq)
    cycle = nl.step(s27_camo, x, 5, 9)

    def refuse(*args):
        raise AssertionError("a one-lane run called Evaluator.eval")

    monkeypatch.setattr(nl.Evaluator, "eval", refuse)
    assert nl.run_sequence(s27_camo, x, seq) == want
    assert nl.Evaluator(s27_camo, x).run(seq) == want
    assert nl.step(s27_camo, x, 5, 9) == cycle


def test_step_is_pure(s27_camo):
    x = nl.Completion((1, 0))
    first = [nl.run_sequence(s27_camo, x, nl.BitSeq(4, (3, 9, 14))) for _ in range(3)]
    assert first[0] == first[1] == first[2]


def test_bitseq_helpers():
    seq = nl.BitSeq.from_strings(["0110", "1000"])
    assert seq.width == 4 and seq.steps == (0b0110, 0b0001)
    assert seq.to_strings() == ["0110", "1000"]
    with pytest.raises(ValueError):
        nl.BitSeq(2, (4,))


# ------------------------------------------------------- cone of influence

def _random_camo_with_reset(rng):
    """A random camouflaged circuit with a random non-zero reset state."""
    c = random_circuit(rng)
    reset = rng.randrange(1, 1 << c.num_flops) if c.num_flops else 0
    try:
        return random_camo(rng, c, candidates=("NAND", "NOR", "AND", "XOR"), reset_state=reset)[0]
    except ValueError:  # no gate takes two inputs
        return None


@hypothesis.seed(18)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_observable_cone_gives_the_same_outputs(seed):
    rng = random.Random(seed)
    camo = _random_camo_with_reset(rng)
    hypothesis.assume(camo is not None)
    reduced, _ = nl.observable_cone(camo)
    assert reduced.cells == camo.cells  # one numbering: every completion runs on both
    m = camo.num_inputs
    for _ in range(8):
        x = nl.Completion(tuple(rng.randrange(c.t) for c in camo.cells))
        seq = nl.BitSeq(m, tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 8))))
        assert nl.run_sequence(reduced, x, seq) == nl.run_sequence(camo, x, seq)


def test_observable_cone_keeps_every_cell_under_its_own_index():
    # a cell index in the reduced circuit's plan names the gate it names in
    # the full circuit, with the same candidates, and every cell in the
    # cone has its one gate there
    rng = random.Random(29)
    for _ in range(200):
        camo = _random_camo_with_reset(rng)
        if camo is None:
            continue
        reduced, kept = nl.observable_cone(camo)
        placed = []
        for g, (ci, fns, _) in zip(reduced.base.gates, reduced.plan.gates):
            if ci >= 0:
                assert camo.cells[ci].gate_out == g.out and fns == camo.cells[ci].candidates
                placed.append(ci)
        assert sorted(placed) == list(kept)


def _reaches_an_output(circuit):
    """The nets some output depends on, as a forward fixed point: a net
    reaches an output when it is one, or feeds a gate or flop whose own
    net does."""
    reach = set(circuit.outputs)
    changed = True
    while changed:
        changed = False
        for g in circuit.gates:
            if g.out in reach and not reach.issuperset(g.ins):
                reach.update(g.ins)
                changed = True
        for s, d in circuit.flops:
            if s in reach and d not in reach:
                reach.add(d)
                changed = True
    return reach


def test_observable_cone_keeps_exactly_what_reaches_an_output(s27_camo):
    rng = random.Random(18)
    dropped = 0
    for _ in range(200):
        camo = _random_camo_with_reset(rng)
        if camo is None:
            continue
        reduced, kept = nl.observable_cone(camo)
        base = camo.base
        reach = _reaches_an_output(base)
        assert reduced.base.gates == tuple(g for g in base.gates if g.out in reach)
        assert reduced.base.flops == tuple(f for f in base.flops if f[0] in reach)
        assert kept == tuple(i for i, c in enumerate(camo.cells) if c.gate_out in reach)
        assert (reduced.base.inputs, reduced.base.outputs) == (base.inputs, base.outputs)
        live = [i for i, (s, _) in enumerate(base.flops) if s in reach]
        assert reduced.reset_state == sum(
            ((camo.reset_state >> i) & 1) << j for j, i in enumerate(live))
        reduced.base.validate()
        dropped += reduced is not camo
    assert dropped > 50  # the generator leaves much of a circuit outside the cone
    # every gate and flop of s27 reaches its output
    assert nl.observable_cone(s27_camo) == (s27_camo, (0, 1))
    assert nl.observable_cone(s27_camo)[0] is s27_camo
