"""Seeded random sequential circuits for tests and small-instance sweeps."""

from __future__ import annotations

import random
from typing import Sequence

from .netlist import (
    CamoCircuit,
    Circuit,
    Completion,
    GATE_FUNCTIONS,
    Gate,
    UNARY_FUNCTIONS,
    build_circuit,
    camouflage,
)
# perfbench/tracing.py patches this name here, so it stays importable
from .netlist import parse_bench  # noqa: F401


def random_circuit(
    rng: random.Random,
    num_inputs: int | None = None,
    num_outputs: int | None = None,
    num_flops: int | None = None,
    num_gates: int | None = None,
    name: str = "rand",
) -> Circuit:
    """A random well-formed circuit; identical seeds give identical circuits."""
    m = num_inputs if num_inputs is not None else rng.randint(1, 4)
    n = num_outputs if num_outputs is not None else rng.randint(1, 3)
    l = num_flops if num_flops is not None else rng.randint(0, 3)
    ng = num_gates if num_gates is not None else rng.randint(max(n, 4), 18)
    inputs = tuple(f"x{i}" for i in range(m))
    states = tuple(f"s{i}" for i in range(l))
    avail = list(inputs + states)
    gates: list[Gate] = []
    for gi in range(ng):
        tag = rng.choice(GATE_FUNCTIONS)
        arity = 1 if tag in UNARY_FUNCTIONS else rng.randint(2, min(3, len(avail) + 1))
        ins = tuple(rng.choice(avail) for _ in range(arity))
        out = f"g{gi}"
        gates.append(Gate(out, tag, ins))
        avail.append(out)
    gate_outs = [g.out for g in gates]
    pool = gate_outs if len(gate_outs) >= n else gate_outs + list(inputs)
    outputs = tuple(rng.sample(pool, n))
    flops = tuple((s, rng.choice(avail)) for s in states)
    # the gate order parse_bench gives, so a .bench round trip is exact
    return build_circuit(name, inputs, outputs, flops, gates)


def random_camo(
    rng: random.Random,
    circuit: Circuit,
    k: int | None = None,
    candidates: Sequence[str] = ("NAND", "NOR"),
    reset_state: int = 0,
) -> tuple[CamoCircuit, Completion]:
    """Camouflage k random eligible gates; returns the circuit and a random secret."""
    unary = all(c in UNARY_FUNCTIONS for c in candidates)
    eligible = [
        g.out
        for g in circuit.gates
        if (len(g.ins) == 1) == unary
    ]
    if not eligible:
        raise ValueError("no gate is arity-compatible with the candidate set")
    kk = k if k is not None else rng.randint(1, min(3, len(eligible)))
    if kk > len(eligible):
        raise ValueError(f"k={kk} exceeds {len(eligible)} eligible gates")
    chosen = rng.sample(sorted(eligible), kk)
    camo = camouflage(circuit, chosen, list(candidates), reset_state)
    secret = Completion(tuple(rng.randrange(len(candidates)) for _ in range(kk)))
    return camo, secret
