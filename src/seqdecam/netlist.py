"""Gate-level sequential netlists: `.bench` parsing, camouflaging, simulation.

The circuit IR is immutable.  A circuit is a DAG of gates over named nets,
with D flip-flops acting as cut points between clock cycles.  Camouflaging
replaces the function tag of selected gates with an opaque cell carrying a
list of candidate functions; a completion picks one candidate per cell.

Simulation runs one completion at a time and takes one of two paths, chosen
by the call.  One scenario per cycle (`Evaluator.step`, `Evaluator.run`,
`step`, `run_sequence`) walks the circuit's truth tables (`SlotPlan.walk`):
one table lookup per gate on 0/1 values.  Many scenarios at once go through
`Evaluator.eval`, which packs one scenario per bit of a Python int and runs
each gate as a bitwise fold.
"""

from __future__ import annotations

import operator
import re
import warnings
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from typing import Iterable, Sequence

# The function alphabet, the one place each function is defined: its fold
# over the inputs (AND, OR, XOR, or BUF for the one input of NOT and BUF;
# every other function takes >= 2 inputs) and whether the output is
# inverted.  XOR/XNOR are parity / inverted parity for arity > 2.
GATES = {
    "AND": ("AND", False), "OR": ("OR", False),
    "NAND": ("AND", True), "NOR": ("OR", True),
    "XOR": ("XOR", False), "XNOR": ("XOR", True),
    "NOT": ("BUF", True), "BUF": ("BUF", False),
}
GATE_FUNCTIONS = tuple(GATES)
UNARY_FUNCTIONS = tuple(fn for fn, (fold, _) in GATES.items() if fold == "BUF")

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
class SlotPlan:
    """The walk over one circuit's gates that simulation and CNF frames share.

    Every net is a slot: the inputs, then the flops' present-state nets,
    then each gate's output in topological order, so one cycle's values are
    a list that grows by one per gate.  A gate is (cell index, or -1 for a
    plain gate; its function names, a cell's candidates or a plain gate's
    one tag; input slots).  The first `sources` slots are the inputs and
    the flops.
    """

    gates: tuple[tuple[int, tuple[str, ...], tuple[int, ...]], ...]
    outputs: tuple[int, ...]
    nexts: tuple[int, ...]
    sources: int

    @cached_property
    def walk(self) -> "TableWalk":
        """The plan as a table walk for one-scenario simulation, built on first use.

        A gate of up to three inputs is one step; a wider one is a chain of
        steps, the first over three inputs and each later one over the
        previous step's value and up to two more inputs, with the gate's
        inversion (NAND, NOR, XNOR, NOT) on its last step only.  A step is
        (table, a, b, c): its value is ``table[v[a] | v[b] << 1 | v[c] << 2]``
        over the 0/1 values ``v``, each step appending one value after the
        sources; a step of fewer inputs repeats its last input slot, which
        its table ignores.  Tables are shared by every gate of the same
        function and arity.
        """
        slot = list(range(self.sources))  # plan slot -> walk slot
        steps: list[tuple[tuple[int, ...], int, int, int]] = []
        cells: list[tuple[int, int, tuple[tuple[int, ...], ...]]] = []
        for ci, fns, ins in self.gates:
            ins = [slot[s] for s in ins]
            parts = [ins[:3]] + [ins[i : i + 2] for i in range(3, len(ins), 2)]
            for j, part in enumerate(parts):
                if j:  # the previous step's value first
                    part = [self.sources + len(steps) - 1, *part]
                last = j == len(parts) - 1
                # a chain folds with the gate's fold and inverts at its end
                tabs = tuple(_truth_table(GATES[fn][0], last and GATES[fn][1], len(part))
                             for fn in fns)
                if ci >= 0 and tabs.count(tabs[0]) < len(tabs):
                    cells.append((len(steps), ci, tabs))
                pad = part + [part[-1]] * (3 - len(part))
                steps.append((tabs[0], pad[0], pad[1], pad[2]))
            slot.append(self.sources + len(steps) - 1)
        return TableWalk(
            tuple(steps), tuple(cells),
            tuple(slot[s] for s in self.outputs), tuple(slot[s] for s in self.nexts),
        )


@dataclass(frozen=True)
class TableWalk:
    """A circuit's truth-table steps (see `SlotPlan.walk`).

    ``steps`` holds every step with a cell's first candidate in place;
    ``cells`` lists (step index, cell index, one table per candidate) for
    the steps whose table depends on a cell's choice.  ``outputs`` and
    ``nexts`` are walk slots.
    """

    steps: tuple[tuple[tuple[int, ...], int, int, int], ...]
    cells: tuple[tuple[int, int, tuple[tuple[int, ...], ...]], ...]
    outputs: tuple[int, ...]
    nexts: tuple[int, ...]


# plain gates share one function tuple per tag: every live circuit caches its plan
_PLAIN_FNS = {fn: (fn,) for fn in GATE_FUNCTIONS}


@dataclass(frozen=True)
class CamoCircuit:
    """A circuit with k camouflaged cells and a fixed reset state.

    ``base`` carries ``CAMO_TAG`` at every camouflaged gate; the original
    function tags are erased and are not recoverable from this object.
    ``reset_state`` is an integer bit mask, bit i = initial value of the
    i-th declared flip-flop.  A cell may name no gate of ``base``: the
    reduced circuits of `observable_cone` keep every cell of the full one,
    so both number the cells, and their completions, alike.
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

    @cached_property
    def plan(self) -> SlotPlan:
        """The slot plan of the circuit, built once.  Raises ValueError for a
        camouflaged gate that is not a cell and for a function outside
        `GATE_FUNCTIONS`."""
        base = self.base
        slot = {n: i for i, n in enumerate(base.inputs)}
        for s, _ in base.flops:
            slot[s] = len(slot)
        cidx = self.cell_index
        gates = []
        for g in base.gates:  # in topological order, so every input has its slot
            ci = cidx.get(g.out, -1)
            if ci >= 0:
                fns = self.cells[ci].candidates
            elif g.fn == CAMO_TAG:
                raise ValueError(f"gate {g.out!r} is camouflaged but not listed as a cell")
            else:
                fns = _PLAIN_FNS.get(g.fn, (g.fn,))
            for fn in fns:
                if fn not in GATE_FUNCTIONS:
                    raise ValueError(f"gate {g.out!r} has unknown function {fn!r}")
            gates.append((ci, fns, tuple(slot[n] for n in g.ins)))
            slot[g.out] = len(slot)
        return SlotPlan(
            tuple(gates), tuple(slot[n] for n in base.outputs), tuple(slot[d] for _, d in base.flops),
            len(base.inputs) + len(base.flops),
        )

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


def observable_cone(camo: CamoCircuit) -> tuple[CamoCircuit, tuple[int, ...]]:
    """The outputs' sequential cone of influence: (reduced circuit, cells in it).

    Walks back from the outputs through gate inputs and flip-flop data nets.
    The reduced circuit keeps every input and output, the flops and gates
    the walk reaches (in their order, reset bits remapped) and every cell of
    `camo`, so a completion of `camo` is one of the reduced circuit too; a
    cell outside the cone just has no gate there.  The second item holds the
    indices of the cells inside the cone.  Nothing outside the cone can
    reach an output at any time, so the reduced circuit under a completion
    gives the same outputs as the full one on every sequence.  Returns
    `camo` itself when nothing is outside.
    """
    base = camo.base
    data = dict(base.flops)
    by_out = {g.out: g for g in base.gates}  # not `gate_by_out`, which stays cached
    live: set[str] = set()
    todo = list(base.outputs)
    while todo:
        net = todo.pop()
        if net in live:
            continue
        live.add(net)
        if net in data:
            todo.append(data[net])
        elif net in by_out:
            todo.extend(by_out[net].ins)
    flops = [(i, f) for i, f in enumerate(base.flops) if f[0] in live]
    gates = tuple(g for g in base.gates if g.out in live)
    kept = tuple(i for i, c in enumerate(camo.cells) if c.gate_out in live)
    if len(flops) == base.num_flops and len(gates) == len(base.gates):
        return camo, kept
    reset = sum(((camo.reset_state >> i) & 1) << j for j, (i, _) in enumerate(flops))
    reduced = Circuit(base.name, base.inputs, base.outputs, tuple(f for _, f in flops), gates)
    return CamoCircuit(reduced, camo.cells, reset), kept


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
    repeated = sorted({c for c in cands if cands.count(c) > 1})
    if repeated:
        raise CamouflageError(f"repeated candidate function(s): {', '.join(repeated)}")
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
    reset: int | None = None
    gate_ids: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("candidates:"):
            if candidates is not None:
                raise BenchSyntaxError("repeated candidates: line", lineno)
            candidates = line.split(":", 1)[1].split()
        elif line.lower().startswith("reset:"):
            if reset is not None:
                raise BenchSyntaxError("repeated reset: line", lineno)
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
    return camouflage(circuit, gate_ids, candidates, reset or 0)


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
        if len(parts) != 2 or not parts[1].isdecimal():
            raise BenchSyntaxError(f"expected '<gate-id> <index>', got {line!r}", lineno)
        if parts[0] in assigned:
            raise BenchSyntaxError(f"repeated cell {parts[0]!r}", lineno)
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

# the bitwise op each fold applies between two inputs; BUF has one input
_FOLDS = {"AND": operator.and_, "OR": operator.or_, "XOR": operator.xor, "BUF": operator.and_}


def _bit_op(fn: str):
    """`fn` on bit-parallel values: op(vals, mask), `mask` all ones."""
    fold, inverted = GATES[fn]
    f = _FOLDS[fold]
    if inverted:
        return lambda vals, mask: reduce(f, vals) ^ mask
    return lambda vals, mask: reduce(f, vals)


_OPS = {fn: _bit_op(fn) for fn in GATES}


@cache
def _truth_table(fold: str, inverted: bool, arity: int) -> tuple[int, ...]:
    """A fold over the low `arity` bits of a 3-bit index (bit j = input j),
    inverted or not; the higher bits are ignored.  One table per key."""
    f = _FOLDS[fold]
    return tuple(reduce(f, [(i >> j) & 1 for j in range(arity)]) ^ inverted for i in range(8))


def _walk(steps, vals: list[int]) -> None:
    """One cycle of a table walk: append each step's 0/1 value to `vals`,
    which holds the sources' values."""
    append = vals.append
    for tab, a, b, c in steps:
        append(tab[vals[a] | vals[b] << 1 | vals[c] << 2])


class Evaluator:
    """Evaluator of a CamoCircuit under one completion.

    A clock cycle of one scenario (`step`, `run`) walks the circuit's truth
    tables (`SlotPlan.walk`), with the cells' tables picked once per
    evaluator.

    `eval` is bit-parallel: wire values are Python ints holding one
    scenario per bit, kept in a list indexed by the slots of
    `CamoCircuit.plan`, so a single pass evaluates arbitrarily many (state,
    input) scenarios at once.  Its op list is built on the first `eval`
    call.
    """

    def __init__(self, camo: CamoCircuit, completion: Completion):
        completion.check(camo)
        self.camo = camo
        self._choices = completion.choices
        self._plan = camo.plan  # raises for a gate the plan cannot take
        # read once: eval and step run once per cycle
        self._num_inputs = camo.num_inputs
        self._num_flops = camo.num_flops
        self._ops: list | None = None
        self._steps: list | None = None  # the table walk's steps, cells resolved

    def _build_ops(self) -> list:
        choices = self._choices
        self._ops = [(_OPS[fns[choices[ci]] if ci >= 0 else fns[0]], ins)
                     for ci, fns, ins in self._plan.gates]
        return self._ops

    def eval(
        self, state_bits: Sequence[int], input_bits: Sequence[int], width: int
    ) -> tuple[list[int], list[int]]:
        """One combinational pass over `width` scenarios.

        ``state_bits[i]`` / ``input_bits[i]`` carry the value of state/input
        wire i across the scenarios.  Returns (output_bits,
        next_state_bits), each `width` bits wide.  Raises ValueError unless
        there is one state wire per flop and one input wire per input.
        """
        if len(state_bits) != self._num_flops or len(input_bits) != self._num_inputs:
            raise ValueError(
                f"{len(state_bits)} state and {len(input_bits)} input wires for "
                f"{self._num_flops} flops and {self._num_inputs} inputs"
            )
        mask = (1 << width) - 1
        vals = [v & mask for v in input_bits]
        vals += [v & mask for v in state_bits]
        ops = self._ops if self._ops is not None else self._build_ops()
        append = vals.append
        for op, ins in ops:
            append(op([vals[s] for s in ins], mask))
        plan = self._plan
        return [vals[s] for s in plan.outputs], [vals[s] for s in plan.nexts]

    def _walk_steps(self) -> list:
        """The table walk's steps with this evaluator's cell choices in place."""
        if self._steps is None:
            walk = self._plan.walk
            choices = self._choices
            steps = list(walk.steps)
            for i, ci, tabs in walk.cells:
                _, a, b, c = steps[i]
                steps[i] = (tabs[choices[ci]], a, b, c)
            self._steps = steps
        return self._steps

    def step(self, state: int, inp: int) -> tuple[int, int]:
        """One clock cycle on bit masks (bit i = wire i): returns (output
        mask, next-state mask)."""
        steps = self._walk_steps()
        walk = self._plan.walk
        vals = [(inp >> i) & 1 for i in range(self._num_inputs)]
        vals += [(state >> i) & 1 for i in range(self._num_flops)]
        _walk(steps, vals)
        return (sum(vals[s] << i for i, s in enumerate(walk.outputs)),
                sum(vals[s] << i for i, s in enumerate(walk.nexts)))

    def run(self, seq: BitSeq) -> BitSeq:
        """Apply an input sequence from reset; one output step per input
        step."""
        camo = self.camo
        if seq.width != self._num_inputs:
            raise ValueError(f"sequence width {seq.width} != {self._num_inputs} inputs")
        steps = self._walk_steps()
        walk = self._plan.walk
        outputs = tuple(enumerate(walk.outputs))
        nexts = walk.nexts
        wires = range(self._num_inputs)
        reset = camo.reset_state
        state = [(reset >> i) & 1 for i in range(self._num_flops)]
        outs: list[int] = []
        for inp in seq.steps:
            vals = [(inp >> i) & 1 for i in wires]
            vals += state
            _walk(steps, vals)
            outs.append(sum(vals[s] << i for i, s in outputs))
            state = [vals[s] for s in nexts]
        return BitSeq(camo.num_outputs, tuple(outs))


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
    return Evaluator(camo, completion).step(state, inp)


def run_sequence(camo: CamoCircuit, completion: Completion, seq: BitSeq) -> BitSeq:
    """Apply an input sequence from reset; one output step per input step."""
    return Evaluator(camo, completion).run(seq)
