"""Gate-level sequential netlists: `.bench` parsing, camouflaging, simulation.

The circuit IR is immutable.  A circuit is a DAG of gates over named nets,
with D flip-flops acting as cut points between clock cycles.  Camouflaging
replaces the function tag of selected gates with an opaque cell carrying a
list of candidate functions; a completion picks one candidate per cell.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

# Function alphabet.  NOT/BUF are unary, everything else takes >= 2 inputs.
# XOR/XNOR generalize to parity / inverted parity for arity > 2.
GATE_FUNCTIONS = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF")
UNARY_FUNCTIONS = ("NOT", "BUF")

CAMO_TAG = "CAMO"  # placeholder tag after the original identity is erased


class BenchError(ValueError):
    """Base class for netlist construction problems."""


class BenchSyntaxError(BenchError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class UnknownFunctionError(BenchError):
    pass


class DuplicateDriverError(BenchError):
    pass


class UndrivenNetError(BenchError):
    pass


class CombinationalCycleError(BenchError):
    pass


class CamouflageError(ValueError):
    pass


@dataclass(frozen=True)
class Gate:
    """A single gate: output net, function tag, ordered input nets.

    ``fn`` is ``CAMO_TAG`` for camouflaged gates whose identity was erased.
    """

    out: str
    fn: str
    ins: tuple[str, ...]


@dataclass(frozen=True)
class Circuit:
    """Sequential gate-level circuit with gates in topological order."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    flops: tuple[tuple[str, str], ...]  # (state net, next-state data net)
    gates: tuple[Gate, ...]

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    @property
    def num_flops(self) -> int:
        return len(self.flops)

    @cached_property
    def gate_by_out(self) -> dict[str, Gate]:
        return {g.out: g for g in self.gates}

    @cached_property
    def state_nets(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.flops)

    def validate(self) -> None:
        """Check structural invariants; raise a BenchError subclass if broken."""
        self._check_drivers()
        _toposort(self.inputs, self.state_nets, self.gates)  # raises on cycles

    def _check_drivers(self) -> None:
        """`validate` without the cycle check (see `build_circuit`)."""
        if self.num_inputs < 1:
            raise BenchError("circuit must declare at least one input")
        if self.num_outputs < 1:
            raise BenchError("circuit must declare at least one output")
        driven: dict[str, str] = {}
        for net in self.inputs:
            _claim(driven, net, "primary input")
        for state, _ in self.flops:
            _claim(driven, state, "flip-flop")
        for g in self.gates:
            _claim(driven, g.out, f"{g.fn} gate")
            _check_arity(g.fn, len(g.ins), g.out)
        for g in self.gates:
            for net in g.ins:
                if net not in driven:
                    raise UndrivenNetError(f"net {net!r} (input of gate {g.out!r}) has no driver")
        for _, data in self.flops:
            if data not in driven:
                raise UndrivenNetError(f"flip-flop data net {data!r} has no driver")
        for net in self.outputs:
            if net not in driven:
                raise UndrivenNetError(f"declared output {net!r} has no driver")


@dataclass(frozen=True)
class CamoCell:
    """One camouflaged gate: which gate (by output net) and its candidates."""

    gate_out: str
    candidates: tuple[str, ...]

    @property
    def t(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class CamoCircuit:
    """A circuit with k camouflaged cells and a fixed reset state.

    ``base`` carries ``CAMO_TAG`` at every camouflaged gate; the original
    function tags are erased and are not recoverable from this object.
    ``reset_state`` is an integer bit mask, bit i = initial value of the
    i-th declared flip-flop.
    """

    base: Circuit
    cells: tuple[CamoCell, ...]
    reset_state: int = 0

    @property
    def k(self) -> int:
        return len(self.cells)

    @property
    def num_inputs(self) -> int:
        return self.base.num_inputs

    @property
    def num_outputs(self) -> int:
        return self.base.num_outputs

    @property
    def num_flops(self) -> int:
        return self.base.num_flops

    @cached_property
    def cell_index(self) -> dict[str, int]:
        return {c.gate_out: i for i, c in enumerate(self.cells)}

    def completion_count(self) -> int:
        n = 1
        for c in self.cells:
            n *= c.t
        return n

    def all_completions(self) -> Iterable["Completion"]:
        """Enumerate the full completion space in lexicographic order."""
        def rec(prefix: tuple[int, ...], rest: tuple[CamoCell, ...]):
            if not rest:
                yield Completion(prefix)
                return
            for v in range(rest[0].t):
                yield from rec(prefix + (v,), rest[1:])

        yield from rec((), self.cells)


@dataclass(frozen=True)
class Completion:
    """Assignment of one candidate index to each camouflaged cell."""

    choices: tuple[int, ...]

    def check(self, camo: CamoCircuit) -> None:
        if len(self.choices) != camo.k:
            raise ValueError(f"completion has {len(self.choices)} choices, circuit has k={camo.k}")
        for i, (v, cell) in enumerate(zip(self.choices, camo.cells)):
            if not 0 <= v < cell.t:
                raise ValueError(f"choice {v} for cell {i} out of range 0..{cell.t - 1}")


@dataclass(frozen=True)
class BitSeq:
    """Fixed-width bit-vector sequence; each step is an int mask, bit i = wire i."""

    width: int
    steps: tuple[int, ...] = ()

    def __post_init__(self):
        for s in self.steps:
            if not 0 <= s < (1 << self.width):
                raise ValueError(f"step {s:#x} does not fit in {self.width} bits")

    def __len__(self) -> int:
        return len(self.steps)

    def prefix(self, p: int) -> "BitSeq":
        return BitSeq(self.width, self.steps[:p])

    def to_strings(self) -> list[str]:
        return [format_bits(s, self.width) for s in self.steps]

    @staticmethod
    def from_strings(bit_strings: Sequence[str]) -> "BitSeq":
        if not bit_strings:
            raise ValueError("cannot infer width from an empty string list")
        width = len(bit_strings[0])
        return BitSeq(width, tuple(parse_bits(s, width) for s in bit_strings))


def parse_bits(text: str, width: int) -> int:
    """'0110' -> mask with bit i = int(text[i]); leftmost char is wire 0."""
    if len(text) != width or set(text) - {"0", "1"}:
        raise ValueError(f"expected a {width}-char bitstring, got {text!r}")
    mask = 0
    for i, ch in enumerate(text):
        if ch == "1":
            mask |= 1 << i
    return mask


def format_bits(mask: int, width: int) -> str:
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(width))


# ----------------------------------------------------------------- parsing

_LINE_RE = re.compile(
    r"""^(?:
          (?P<io>INPUT|OUTPUT)\s*\(\s*(?P<ionet>[A-Za-z0-9_]+)\s*\)
        | (?P<out>[A-Za-z0-9_]+)\s*=\s*(?P<fn>[A-Za-z0-9_]+)\s*\(\s*(?P<args>[^()]*)\s*\)
        )\s*$""",
    re.VERBOSE | re.IGNORECASE,
)
_ID_RE = re.compile(r"^[A-Za-z0-9_]+$")


def parse_bench(text: str, name: str = "circuit") -> Circuit:
    """Parse `.bench` text into a validated, topologically sorted Circuit."""
    inputs: list[str] = []
    outputs: list[str] = []
    flops: list[tuple[str, str]] = []
    gates: list[Gate] = []
    driven: dict[str, str] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise BenchSyntaxError(f"cannot parse {line!r}", lineno, _syntax_column(line))
        if m.group("io"):
            net = m.group("ionet")
            if m.group("io").upper() == "INPUT":
                _claim(driven, net, "primary input", lineno)
                inputs.append(net)
            else:
                outputs.append(net)
            continue
        out = m.group("out")
        fn = m.group("fn").upper()
        args = [a.strip() for a in m.group("args").split(",")] if m.group("args").strip() else []
        for a in args:
            if not _ID_RE.match(a):
                raise BenchSyntaxError(f"bad identifier {a!r}", lineno, line.find(a) + 1)
        if fn == "DFF":
            if len(args) == 2 and args[1] in ("0", "1"):
                warnings.warn(
                    f"line {lineno}: DFF initial-value token on {out!r} ignored; "
                    "reset state comes from the camouflage sidecar",
                    stacklevel=2,
                )
                args = args[:1]
            if len(args) != 1:
                raise BenchSyntaxError(f"DFF takes one data net, got {len(args)}", lineno)
            _claim(driven, out, "flip-flop", lineno)
            flops.append((out, args[0]))
        else:
            if fn not in GATE_FUNCTIONS:
                raise UnknownFunctionError(f"line {lineno}: unknown function tag {fn!r}")
            _check_arity(fn, len(args), out, lineno)
            _claim(driven, out, f"{fn} gate", lineno)
            gates.append(Gate(out, fn, tuple(args)))

    return build_circuit(name, inputs, outputs, flops, gates)


def build_circuit(
    name: str,
    inputs: Sequence[str],
    outputs: Sequence[str],
    flops: Sequence[tuple[str, str]],
    gates: Sequence[Gate],
) -> Circuit:
    """A validated Circuit with its gates in topological order, sorted once."""
    circuit = Circuit(
        name=name,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        flops=tuple(flops),
        gates=_toposort(tuple(inputs), tuple(s for s, _ in flops), tuple(gates)),
    )
    circuit._check_drivers()  # _toposort has ruled out cycles
    return circuit


def _syntax_column(line: str) -> int:
    m = re.match(r"[A-Za-z0-9_]*\s*", line)
    return (m.end() if m else 0) + 1


def _claim(driven: dict[str, str], net: str, kind: str, lineno: int | None = None) -> None:
    where = f"line {lineno}: " if lineno else ""
    if net in driven:
        raise DuplicateDriverError(f"{where}net {net!r} already driven by {driven[net]}")
    driven[net] = kind


def _check_arity(fn: str, arity: int, out: str, lineno: int | None = None) -> None:
    where = f"line {lineno}: " if lineno else ""
    if fn in UNARY_FUNCTIONS:
        if arity != 1:
            raise BenchError(f"{where}{fn} gate {out!r} must have exactly 1 input, has {arity}")
    elif fn == CAMO_TAG:
        if arity < 1:
            raise BenchError(f"{where}camouflaged gate {out!r} needs at least 1 input")
    elif arity < 2:
        raise BenchError(f"{where}{fn} gate {out!r} must have >= 2 inputs, has {arity}")


def _toposort(
    inputs: tuple[str, ...], state_nets: tuple[str, ...], gates: tuple[Gate, ...]
) -> tuple[Gate, ...]:
    """Kahn's algorithm over gate->gate dependencies; flip-flops are cut points."""
    by_out = {g.out: g for g in gates}
    missing = [0] * len(gates)
    pending = []
    for i, g in enumerate(gates):
        missing[i] = sum(1 for n in g.ins if n in by_out)
        if missing[i] == 0:
            pending.append(i)
    users: dict[str, list[int]] = {}
    for i, g in enumerate(gates):
        for n in g.ins:
            if n in by_out:
                users.setdefault(n, []).append(i)
    order: list[Gate] = []
    while pending:
        i = pending.pop()
        g = gates[i]
        order.append(g)
        for j in users.get(g.out, ()):
            missing[j] -= 1
            if missing[j] == 0:
                pending.append(j)
    if len(order) != len(gates):
        stuck = sorted(g.out for i, g in enumerate(gates) if missing[i] > 0)
        raise CombinationalCycleError(f"combinational cycle through {', '.join(stuck[:8])}")
    # Re-sort by (logic depth, output net) so gate order is intrinsic to the
    # circuit rather than to declaration order; round-trips are then exact.
    depth: dict[str, int] = {}
    for g in order:
        depth[g.out] = 1 + max((depth.get(n, 0) for n in g.ins), default=0)
    return tuple(sorted(order, key=lambda g: (depth[g.out], g.out)))


def serialize_bench(circuit: Circuit) -> str:
    """Render a Circuit back to `.bench` text (round-trips through parse_bench)."""
    lines = [f"# {circuit.name}"]
    lines += [f"INPUT({n})" for n in circuit.inputs]
    lines += [f"OUTPUT({n})" for n in circuit.outputs]
    lines += [f"{s} = DFF({d})" for s, d in circuit.flops]
    lines += [f"{g.out} = {g.fn}({', '.join(g.ins)})" for g in circuit.gates]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ camouflaging

def camouflage(
    circuit: Circuit,
    gate_ids: Sequence[str],
    candidates: Sequence[str],
    reset_state: int = 0,
) -> CamoCircuit:
    """Erase the identity of the given gates, attaching candidate functions.

    ``gate_ids`` name gates by their output net.  The original function tag
    of each selected gate is removed from the returned circuit so nothing in
    the attack path can recover it.
    """
    if not gate_ids:
        raise CamouflageError("at least one gate must be camouflaged (k >= 1)")
    if len(set(gate_ids)) != len(gate_ids):
        dupes = sorted({g for g in gate_ids if list(gate_ids).count(g) > 1})
        raise CamouflageError(f"duplicate gate-id(s): {', '.join(dupes)}")
    cands = tuple(c.upper() for c in candidates)
    if len(cands) < 2:
        raise CamouflageError("candidate list must offer at least two functions (t >= 2)")
    for c in cands:
        if c not in GATE_FUNCTIONS:
            raise CamouflageError(f"unknown candidate function {c!r}")
    by_out = circuit.gate_by_out
    ids = set(gate_ids)
    for gid in gate_ids:
        gate = by_out.get(gid)
        if gate is None:
            raise CamouflageError(f"unknown gate-id {gid!r}")
        for c in cands:
            try:
                _check_arity(c, len(gate.ins), gid)
            except BenchError as exc:
                raise CamouflageError(f"candidate {c} incompatible with gate {gid!r}: {exc}") from exc
    if not 0 <= reset_state < (1 << circuit.num_flops):
        raise CamouflageError(
            f"reset state {reset_state:#x} does not fit in {circuit.num_flops} flip-flops"
        )
    erased = tuple(
        Gate(g.out, CAMO_TAG, g.ins) if g.out in ids else g for g in circuit.gates
    )
    base = Circuit(circuit.name, circuit.inputs, circuit.outputs, circuit.flops, erased)
    cells = tuple(CamoCell(gid, cands) for gid in gate_ids)
    return CamoCircuit(base=base, cells=cells, reset_state=reset_state)


# ----------------------------------------------------------- sidecar files
#
# The camouflage sidecar is the attacker-visible annotation: a candidate
# list, an optional reset line (l bits, flip-flop declaration order), and one
# camouflaged gate-id per line.  Secret / completion files pair each gate-id
# with a candidate index, in sidecar order.

def format_sidecar(camo: CamoCircuit) -> str:
    lines = ["candidates: " + " ".join(camo.cells[0].candidates)]
    l = camo.num_flops
    if l:
        lines.append("reset: " + format_bits(camo.reset_state, l))
    lines += [c.gate_out for c in camo.cells]
    return "\n".join(lines) + "\n"


def parse_sidecar(text: str, circuit: Circuit) -> CamoCircuit:
    candidates: list[str] | None = None
    reset = 0
    gate_ids: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("candidates:"):
            candidates = line.split(":", 1)[1].split()
        elif line.lower().startswith("reset:"):
            bits = line.split(":", 1)[1].strip()
            try:
                reset = parse_bits(bits, circuit.num_flops)
            except ValueError as exc:
                raise BenchSyntaxError(f"bad reset state: {exc}", lineno) from None
        else:
            if not _ID_RE.match(line):
                raise BenchSyntaxError(f"bad gate-id {line!r}", lineno)
            gate_ids.append(line)
    if candidates is None:
        raise CamouflageError("sidecar is missing the candidates: line")
    return camouflage(circuit, gate_ids, candidates, reset)


def format_completion_file(camo: CamoCircuit, completion: Completion) -> str:
    completion.check(camo)
    return "".join(
        f"{cell.gate_out} {v}\n" for cell, v in zip(camo.cells, completion.choices)
    )


def parse_completion_file(text: str, camo: CamoCircuit) -> Completion:
    """Read `<gate-id> <candidate-index>` lines, in sidecar cell order."""
    assigned: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not parts[1].isdigit():
            raise BenchSyntaxError(f"expected '<gate-id> <index>', got {line!r}", lineno)
        assigned[parts[0]] = int(parts[1])
    choices = []
    for cell in camo.cells:
        if cell.gate_out not in assigned:
            raise CamouflageError(f"completion file misses cell {cell.gate_out!r}")
        v = assigned[cell.gate_out]
        if v >= cell.t:
            raise CamouflageError(
                f"completion file gives cell {cell.gate_out!r} index {v}, "
                f"out of range 0..{cell.t - 1}"
            )
        choices.append(v)
    extra = set(assigned) - {c.gate_out for c in camo.cells}
    if extra:
        raise CamouflageError(f"completion file names unknown cells: {sorted(extra)}")
    return Completion(tuple(choices))


# -------------------------------------------------------------- simulation

_OPS = {
    "AND": lambda vals, mask: _fold_and(vals),
    "OR": lambda vals, mask: _fold_or(vals),
    "NAND": lambda vals, mask: _fold_and(vals) ^ mask,
    "NOR": lambda vals, mask: _fold_or(vals) ^ mask,
    "XOR": lambda vals, mask: _fold_xor(vals),
    "XNOR": lambda vals, mask: _fold_xor(vals) ^ mask,
    "NOT": lambda vals, mask: vals[0] ^ mask,
    "BUF": lambda vals, mask: vals[0],
}


def _fold_and(vals):
    r = vals[0]
    for v in vals[1:]:
        r &= v
    return r


def _fold_or(vals):
    r = vals[0]
    for v in vals[1:]:
        r |= v
    return r


def _fold_xor(vals):
    r = vals[0]
    for v in vals[1:]:
        r ^= v
    return r


class Evaluator:
    """Bit-parallel evaluator for one (CamoCircuit, Completion) pair.

    Net values are Python ints holding one scenario per bit, so a single
    pass evaluates arbitrarily many (state, input) scenarios at once.
    """

    def __init__(self, camo: CamoCircuit, completion: Completion):
        completion.check(camo)
        self.camo = camo
        self.completion = completion
        base = camo.base
        cidx = camo.cell_index
        resolved = []
        for g in base.gates:
            fn = g.fn
            if g.out in cidx:
                fn = camo.cells[cidx[g.out]].candidates[completion.choices[cidx[g.out]]]
            elif fn == CAMO_TAG:
                raise ValueError(f"gate {g.out!r} is camouflaged but not listed as a cell")
            resolved.append((g.out, _OPS[fn], g.ins))
        self._plan = resolved
        self._base = base

    def eval(
        self, state_bits: Sequence[int], input_bits: Sequence[int], width: int
    ) -> tuple[list[int], list[int]]:
        """One combinational pass over `width` scenarios packed in int bits.

        ``state_bits[i]`` / ``input_bits[i]`` carry the value of state/input
        wire i across all scenarios.  Returns (output_bits, next_state_bits)
        in the same packing.
        """
        base = self._base
        mask = (1 << width) - 1
        vals: dict[str, int] = {}
        for n, v in zip(base.inputs, input_bits):
            vals[n] = v & mask
        for (s, _), v in zip(base.flops, state_bits):
            vals[s] = v & mask
        for out, op, ins in self._plan:
            vals[out] = op([vals[n] for n in ins], mask)
        outs = [vals[n] for n in base.outputs]
        nxt = [vals[d] for _, d in base.flops]
        return outs, nxt


def step(
    camo: CamoCircuit, completion: Completion, state: int, inp: int
) -> tuple[int, int]:
    """One clock cycle: returns (output mask, next-state mask).

    Pure function of its arguments; gates are evaluated in topological order
    with camouflaged gates replaced by their selected candidate.
    """
    m, l = camo.num_inputs, camo.num_flops
    if not 0 <= inp < (1 << m):
        raise ValueError(f"input {inp:#x} does not fit in {m} bits")
    if not 0 <= state < (1 << l):
        raise ValueError(f"state {state:#x} does not fit in {l} bits")
    ev = Evaluator(camo, completion)
    outs, nxt = ev.eval(
        [(state >> i) & 1 for i in range(l)],
        [(inp >> i) & 1 for i in range(m)],
        width=1,
    )
    out_mask = sum(b << i for i, b in enumerate(outs))
    next_mask = sum(b << i for i, b in enumerate(nxt))
    return out_mask, next_mask


def run_sequence(camo: CamoCircuit, completion: Completion, seq: BitSeq) -> BitSeq:
    """Apply an input sequence from reset; one output step per input step."""
    if seq.width != camo.num_inputs:
        raise ValueError(f"sequence width {seq.width} != {camo.num_inputs} inputs")
    ev = Evaluator(camo, completion)
    m, l = camo.num_inputs, camo.num_flops
    state = camo.reset_state
    outs: list[int] = []
    for inp in seq.steps:
        o, nxt = ev.eval(
            [(state >> i) & 1 for i in range(l)],
            [(inp >> i) & 1 for i in range(m)],
            width=1,
        )
        outs.append(sum(b << i for i, b in enumerate(o)))
        state = sum(b << i for i, b in enumerate(nxt))
    return BitSeq(camo.num_outputs, tuple(outs))
