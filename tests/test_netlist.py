import hashlib
import random

import pytest
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


def test_completion_file_roundtrip(s27_camo):
    x = nl.Completion((1, 0))
    text = nl.format_completion_file(s27_camo, x)
    assert nl.parse_completion_file(text, s27_camo) == x
    with pytest.raises(nl.CamouflageError):
        nl.parse_completion_file("G13 0\n", s27_camo)  # missing cell
    with pytest.raises(nl.CamouflageError, match="'G13' index 2"):
        nl.parse_completion_file("G13 2\nG10 0\n", s27_camo)  # index out of range


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
