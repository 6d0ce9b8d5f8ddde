"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion
lines.  Criteria 2 and 7 exercise the ISCAS'89 benchmarks s344/s349/s1196
and fail with instructions when those netlist files are absent (they cannot
be bundled; see scripts/fetch_benchmarks.py).
"""

import random
import time

import pytest

from seqdecam import attack as atk
from seqdecam.gen import random_camo, random_circuit
from seqdecam.netlist import (
    BitSeq,
    Completion,
    camouflage,
    parse_bench,
    run_sequence,
    step,
)
from seqdecam.oracle import BlackBox, QuerySet, record
from seqdecam import sat as sm
from seqdecam.encode import AttackInstance, encode_consistency, encode_keyed_frame

from conftest import S27_SECRET, bench_path, load_bench


def _require_bench(name: str):
    p = bench_path(name)
    if not p.exists():
        pytest.fail(
            f"{p} is missing: the canonical ISCAS'89 netlist could not be bundled "
            "with the repository. Run scripts/fetch_benchmarks.py on a machine "
            "with network access (it verifies each download against the "
            "published circuit characteristics), then re-run this test.",
            pytrace=False,
        )
    return load_bench(name)


def _random_k_gates(circuit, k: int, seed: int, candidates=("NAND", "NOR")):
    eligible = sorted(g.out for g in circuit.gates if g.fn in candidates)
    if len(eligible) < k:
        pytest.fail(f"{circuit.name}: only {len(eligible)} gates eligible for k={k}")
    rng = random.Random(seed)
    chosen = rng.sample(eligible, k)
    camo = camouflage(circuit, chosen, list(candidates), 0)
    by_out = circuit.gate_by_out
    secret = Completion(tuple(candidates.index(by_out[g].fn) for g in chosen))
    return camo, secret


def _attack_and_soundcheck(camo, secret, cfg) -> atk.AttackReport:
    """Run the attack and apply the universal soundness checks.

    Progress (one counterexample completion dies per added sequence) is
    asserted inside run_attack itself, which raises EncodingBugError on
    violation.  Here: the recovered completion must reproduce the oracle on
    the whole discriminating set, and must be product-equivalent to the
    secret whenever the product caps allow checking.
    """
    box = BlackBox(camo, secret)
    report = atk.run_attack(camo, box, cfg)
    assert report.success, f"attack failed: {report.termination}"
    recovered = report.completions[0]
    for seq, out in report.disc_set:
        assert run_sequence(camo, recovered, seq) == out
    try:
        witness = atk.product_equiv(camo, recovered, secret)
        assert witness is None, f"recovered completion differs on {witness.to_strings()}"
    except atk.ProductCapError:
        pass  # equivalence check inconclusive at the caps; allowed
    return report


def test_criterion_1_s27_narrative(s27_camo):
    t0 = time.time()
    # (a) one-step queries reveal nothing: identical outputs across all four
    # completions for each of the 16 inputs, by exhaustive simulation
    for inp in range(16):
        outs = {step(s27_camo, x, 0, inp)[0] for x in s27_camo.all_completions()}
        assert len(outs) == 1
    # (b) the attack needs sequences, the longest of length exactly 2
    cfg = atk.AttackConfig(bmc_inc=2, max_bound=16)
    report = _attack_and_soundcheck(s27_camo, S27_SECRET, cfg)
    assert report.max_seq_len == 2
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nCRITERION 1: PASS (s27 narrative, {len(report.disc_set)} sequences, "
          f"{elapsed:.2f}s)")


def test_criterion_2_table_reproduction_s344_s349():
    t0 = time.time()
    lines = []
    for name in ("s344", "s349"):
        circuit = _require_bench(name)
        for seed in range(10):
            camo, secret = _random_k_gates(circuit, 32, seed)
            cfg = atk.AttackConfig()  # bmc_inc=10, max_bound=120
            report = _attack_and_soundcheck(camo, secret, cfg)
            assert report.termination == atk.UC, (
                f"{name} seed {seed}: terminated {report.termination}, expected UC"
            )
            assert report.max_seq_len <= 10, (
                f"{name} seed {seed}: max sequence length {report.max_seq_len} > 10"
            )
            lines.append(
                f"  {name} seed {seed}: disc={len(report.disc_set)} "
                f"max_len={report.max_seq_len} wall={report.wall:.1f}s"
            )
    print("\n" + "\n".join(lines))
    print(f"CRITERION 2: PASS (20/20 runs UC, lengths <= 10, {time.time()-t0:.0f}s total)")


def test_criterion_3_oracle_equivalence_suite():
    t0 = time.time()
    rng = random.Random(33)
    circuits = 0
    checks = 0
    while circuits < 200:
        c = random_circuit(rng, num_flops=rng.randint(0, 3))
        try:
            camo, secret = random_camo(rng, c, k=rng.randint(1, 3))
        except ValueError:
            continue
        m, l = camo.num_inputs, camo.num_flops
        seq = BitSeq(m, tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 3))))
        variants = [QuerySet(), record(QuerySet(), seq, run_sequence(camo, secret, seq))]
        for qs in variants:
            truth = atk.brute_force_disc(camo, qs)
            umc = atk.check_umc(AttackInstance.from_queries(camo, qs), atk.AttackConfig())
            diameter = 1 << (2 * l)
            bmc_none = atk.find_distinguishing(AttackInstance.from_queries(camo, qs),
                                               diameter) is None
            assert truth == umc == bmc_none, (
                f"disagreement on {camo.base.name}: brute={truth} umc={umc} bmc={bmc_none}"
            )
            checks += 1
        circuits += 1
    elapsed = time.time() - t0
    assert elapsed < 600
    print(f"\nCRITERION 3: PASS ({circuits} circuits, {checks} agreement checks, "
          f"{elapsed:.0f}s)")


def test_criterion_4_progress_and_soundness():
    # (a) is asserted inside run_attack on every iteration (EncodingBugError
    # on violation); (b) and (c) are the explicit checks in
    # _attack_and_soundcheck.  Exercise them over a fresh batch of attacks.
    rng = random.Random(4444)
    runs = 0
    while runs < 12:
        try:
            camo, secret = random_camo(rng, random_circuit(rng))
        except ValueError:
            continue
        _attack_and_soundcheck(camo, secret, atk.AttackConfig(bmc_inc=2, max_bound=64))
        runs += 1
    print(f"\nCRITERION 4: PASS ({runs} attacks, zero soundness violations)")


def test_criterion_5_termination_hierarchy(
    identical_candidates_camo, unreachable_divergence_camo
):
    # UC-fail / CE-pass: functionally identical candidates
    camo, secret = identical_candidates_camo
    inst = AttackInstance(camo)
    inst.add_record(BitSeq(1, (1, 0)), run_sequence(camo, secret, BitSeq(1, (1, 0))))
    assert inst.solve_uc().status == sm.SAT
    assert inst.solve_ce().status == sm.UNSAT
    # CE-fail / UMC-pass: divergence confined to an unreachable state
    camo2, _ = unreachable_divergence_camo
    inst2 = AttackInstance(camo2)
    assert inst2.solve_ce().status == sm.SAT
    assert atk.check_umc(inst2, atk.AttackConfig()) is True
    # empirical implication UC => CE => UMC across the random fixture set
    rng = random.Random(55)
    done = 0
    while done < 60:
        try:
            camo3, secret3 = random_camo(rng, random_circuit(rng, num_flops=rng.randint(0, 3)))
        except ValueError:
            continue
        m = camo3.num_inputs
        seq = BitSeq(m, tuple(rng.randrange(1 << m) for _ in range(rng.randint(1, 3))))
        inst3 = AttackInstance(camo3)
        inst3.add_record(seq, run_sequence(camo3, secret3, seq))
        uc = inst3.solve_uc().status == sm.UNSAT
        ce = inst3.solve_ce().status == sm.UNSAT
        umc = atk.check_umc(inst3, atk.AttackConfig())
        assert (not uc or ce) and (not ce or umc)
        done += 1
    print(f"\nCRITERION 5: PASS (both fixtures + implication on {done} random instances)")


DELAY_LINE = """
INPUT(x0)
INPUT(x1)
INPUT(x2)
OUTPUT(c1)
OUTPUT(c2)
OUTPUT(c3)
OUTPUT(c4)
OUTPUT(o5)
c1 = NAND(x0, x1)
c2 = NOR(x0, x1)
c3 = NAND(x1, x2)
c4 = NOR(x1, x2)
e  = NAND(x0, x2)
s1 = DFF(e)
s2 = DFF(s1)
s3 = DFF(s2)
s4 = DFF(s3)
o5 = AND(s4, x1)
"""


def test_criterion_6_partial_completions():
    # one cell is observable only through a four-stage flop delay, so a low
    # bound exhausts with that cell open while the rest resolve
    c = parse_bench(DELAY_LINE, "delayline")
    camo = camouflage(c, ["c1", "c2", "c3", "c4", "e"], ["NAND", "NOR"])
    secret = Completion((0, 1, 0, 1, 0))
    box = BlackBox(camo, secret)
    report = atk.run_attack(camo, box, atk.AttackConfig(bmc_inc=2, max_bound=4))
    assert report.termination == atk.EXHAUSTED
    fixed = {g: v for g, v in report.partial.items() if v is not None}
    assert len(fixed) > camo.k / 2, f"only {len(fixed)}/{camo.k} gates fixed"
    by_cell = {cell.gate_out: ch for cell, ch in zip(camo.cells, secret.choices)}
    for gate, v in fixed.items():
        assert v == by_cell[gate], f"FIXED verdict for {gate} contradicts the secret"
    # the same instance fully resolves once the bound covers the delay line
    box2 = BlackBox(camo, secret)
    full = atk.run_attack(camo, box2, atk.AttackConfig(bmc_inc=5, max_bound=20))
    assert full.termination == atk.UC and full.completions == (secret,)
    print(f"\nCRITERION 6: PASS ({len(fixed)}/{camo.k} gates fixed under EXHAUSTED, "
          "all verdicts correct)")


def test_criterion_7_gate_count_sweep_s1196():
    t0 = time.time()
    circuit = _require_bench("s1196")
    sizes = {}
    for k in (32, 64, 128, 256):
        camo, secret = _random_k_gates(circuit, k, seed=0)
        report = _attack_and_soundcheck(camo, secret, atk.AttackConfig())
        lengths = [len(seq) for seq, _ in report.disc_set]
        assert max(lengths) <= 10, f"k={k}: sequence of length {max(lengths)} > 10"
        sizes[k] = len(report.disc_set)
    trend = " -> ".join(f"k={k}:{n}" for k, n in sizes.items())
    print(f"\nCRITERION 7: PASS (all runs succeed, lengths <= 10; disc sizes {trend}; "
          f"{time.time()-t0:.0f}s)")


def test_criterion_8_encoding_correctness():
    t0 = time.time()
    rng = random.Random(88)
    # (a) 1000 random frames: CNF-forced outputs equal the simulator
    frames = 0
    while frames < 1000:
        camo, _ = random_camo(rng, random_circuit(rng))
        inst = encode_keyed_frame(camo)
        ctx = sm.SatContext(inst)
        m, l = camo.num_inputs, camo.num_flops
        for _ in range(10):
            x = Completion(tuple(rng.randrange(cell.t) for cell in camo.cells))
            state = rng.randrange(1 << l) if l else 0
            inp = rng.randrange(1 << m)
            assume = []
            for lit, b in zip(inst.groups["key"], _completion_bits(camo, x)):
                assume.append(lit if b else -lit)
            for lit, i in zip(inst.groups["state"], range(l)):
                assume.append(lit if (state >> i) & 1 else -lit)
            for lit, i in zip(inst.groups["input"], range(m)):
                assume.append(lit if (inp >> i) & 1 else -lit)
            res = ctx.solve(assume)
            assert res.status == sm.SAT
            got_o = res.word(inst.groups["output"])
            got_n = res.word(inst.groups["next"])
            assert (got_o, got_n) == step(camo, x, state, inp)
            frames += 1
    # (b) consistency solution sets equal exhaustive enumeration up to k = 10
    for seed in (1, 2, 3):
        rng2 = random.Random(seed)
        c = random_circuit(rng2, num_inputs=3, num_outputs=2, num_flops=2, num_gates=34)
        eligible = [g.out for g in c.gates if len(g.ins) > 1]
        camo = camouflage(c, sorted(eligible)[:10], ["NAND", "NOR"])
        secret = Completion(tuple(rng2.randrange(2) for _ in range(camo.k)))
        qs = QuerySet()
        for _ in range(2):
            seq = BitSeq(3, tuple(rng2.randrange(8) for _ in range(3)))
            qs = record(qs, seq, run_sequence(camo, secret, seq))
        by_sim = {x.choices for x in camo.all_completions() if atk.consistent(camo, x, qs)}
        inst = encode_consistency(camo, qs)
        ctx = sm.SatContext(inst)
        keys = inst.groups["key"]
        by_cnf = set()
        for x in camo.all_completions():
            bits = _completion_bits(camo, x)
            if ctx.solve([l if b else -l for l, b in zip(keys, bits)]).status == sm.SAT:
                by_cnf.add(x.choices)
        assert by_cnf == by_sim
    print(f"\nCRITERION 8: PASS (1000 frames bit-exact; k=10 solution sets exact; "
          f"{time.time()-t0:.0f}s)")


def _completion_bits(camo, x):
    bits = []
    for cell, v in zip(camo.cells, x.choices):
        nbits = max(1, (cell.t - 1).bit_length())
        bits.extend((v >> i) & 1 for i in range(nbits))
    return bits
