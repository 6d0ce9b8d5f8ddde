"""The benchmark's workloads: seeded lists of attacks on synthetic circuits.

Every circuit here is made by ``gen.random_circuit`` / ``gen.random_camo``,
apart from the bundled ISCAS'89 s27 in ``smallbatch``.  The s344-shaped
circuits (9 inputs, 11 outputs, 15 flip-flops, 160 gates) have the
published size of s344/s349 but are *not* those netlists, and the numbers
they give are not an ISCAS reproduction.  The real s344, s349 and s1196
files are not in the repository; workloads on them wait until they are.

``table344`` and ``umc344`` attack fixed lists of circuits: one s344-shaped
attack takes 1 to 9 s and the cost of one circuit differs from the next by
2x or more, so drawing circuits from the run's seed would move the result
by more than any bound the benchmark can hold.  For them the seed only sets
the order of the attacks in a pass.  ``smallbatch`` draws
the wiring of all of its circuits from the seed, over a fixed mix of shapes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from seqdecam import gen, netlist
from seqdecam.attack import AttackConfig
from seqdecam.netlist import CamoCircuit, Completion

SMALLBATCH_SIZE = 2000
S344_SHAPE = dict(num_inputs=9, num_outputs=11, num_flops=15, num_gates=160)


@dataclass(frozen=True)
class Attack:
    label: str
    camo: CamoCircuit
    secret: Completion
    cfg: AttackConfig


def _s344_shaped(circuit_seed: int, k: int) -> tuple[CamoCircuit, Completion]:
    rng = random.Random(circuit_seed)
    c = gen.random_circuit(rng, name=f"synth344_{circuit_seed}", **S344_SHAPE)
    return gen.random_camo(rng, c, k=k)


def table344(seed: int, s27: netlist.Circuit) -> list[Attack]:
    """The paper's table scale: s344-shaped circuits 1 and 3, k=32 NAND/NOR,
    default schedule (bmc_inc=10, max_bound=120).  Both end CE at bound 10,
    after 6 and 7 queries; the closing UNSAT bounded-search proof is the
    largest single solver call.
    """
    attacks = [
        Attack("table_1", *_s344_shaped(1, 32), AttackConfig()),
        Attack("table_3", *_s344_shaped(3, 32), AttackConfig()),
    ]
    random.Random(seed).shuffle(attacks)
    return attacks


def umc344(seed: int, s27: netlist.Circuit) -> list[Attack]:
    """The explicit unbounded check after a single bounded-search frame
    (bmc_inc=1, max_bound=1) on s344-shaped circuits.

    ``umc_1_k32``: the consistent completions outnumber the enumeration cap,
    so enumeration runs to the cap (513 short solver calls on one instance)
    before the diameter fallback, EXHAUSTED and a partial completion.
    ``umc_3_k10``: enumeration finishes and the pairwise product-machine
    search dominates.
    """
    umc = dict(bmc_inc=1, max_bound=1, umc_mode="explicit")
    attacks = [
        Attack("umc_1_k32", *_s344_shaped(1, 32), AttackConfig(**umc, umc_enum_cap=512)),
        Attack("umc_3_k10", *_s344_shaped(3, 10), AttackConfig(**umc)),
    ]
    random.Random(seed).shuffle(attacks)
    return attacks


def smallbatch(seed: int, s27: netlist.Circuit) -> list[Attack]:
    """Many small attacks in a row: the per-attack fixed costs.

    s27 at k=2, then circuits of 1-4 inputs, 1-3 outputs, 0-3 flip-flops,
    4-18 gates and k=1-3 (the generator's default ranges).  The shapes cycle
    through every combination in a fixed order and only the wiring, the
    camouflaged gates and the secret come from the seed, so the mix of
    sizes is the same for every seed.
    """
    cfg = AttackConfig(bmc_inc=2, max_bound=64)
    rng = random.Random(seed)
    attacks = [Attack("s27_k2", *gen.random_camo(rng, s27, k=2), cfg)]
    while len(attacks) < SMALLBATCH_SIZE:
        i = len(attacks)
        shape = dict(num_inputs=1 + i % 4, num_flops=i // 4 % 4,
                     num_outputs=1 + i // 16 % 3, num_gates=4 + i // 48 % 15)
        k = 1 + i // 720 % 3
        c = gen.random_circuit(rng, name=f"small{i}", **shape)
        try:
            camo, secret = gen.random_camo(rng, c, k=k)
        except ValueError:  # too few gates fit the NAND/NOR candidates; rewire
            continue
        attacks.append(Attack(f"small{i}", camo, secret, cfg))
    return attacks


WORKLOADS = {"table344": table344, "umc344": umc344, "smallbatch": smallbatch}


def build(name: str, seed: int, root: Path) -> list[Attack]:
    """Parse s27 and generate and camouflage every circuit of a workload."""
    s27 = netlist.parse_bench((root / "benchmarks" / "s27.bench").read_text(), "s27")
    return WORKLOADS[name](seed, s27)
