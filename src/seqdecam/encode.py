"""CNF encodings of the solver queries behind the attack.

Camouflaged gates become key-controlled cells: each cell gets ceil(log2 t)
key variables selecting among its t candidate functions (indices >= t are
blocked), and time-unrolled circuit copies are keyed by such vectors.  A
cell whose candidates all give the same literal in a frame (equal constants,
say NAND(1, 1) = NOR(1, 1) = 0, or one hash-shared gate) is that literal
there, with no key guard, so a constant from reset or from a record's inputs
propagates through it.  The queries encoded here:

* consistency -- a key vector reproduces every recorded query exactly;
* BMC disagreement -- two consistency-constrained copies share b frames of
  free inputs from reset and differ at some observed output;
* UC -- two *distinct* consistent key vectors exist;
* CE -- two consistent key vectors differ on output or next-state of the
  outputs' cone of influence for some free (input, state) pair,
  unreachable states included.

Every query is built and solved on one incremental `AttackInstance`, BMC,
UC and CE with the two key vectors assumed distinct (`_emit_keys_equal`).
UC and CE are UNSAT with no solver call once the solver's level 0 fixes
the key bits of every cell they compare (`AttackInstance._settled`).
`encode_bmc_disagreement` and `encode_ce` return its clause database with
the query's selector asserted, `encode_uc` with the keys asserted distinct;
`encode_consistency` and `encode_keyed_frame` are standalone single-key
encodings, the reference the CNF is checked against simulation with.  Every
frame is emitted along the circuit's slot plan (`CamoCircuit.plan`), the
walk the simulator takes too.  The attack runs on the outputs' cone; only
the oracle runs the full chip: an `AttackInstance` holds the reduced
circuit of `observable_cone`, which keeps every cell under its own index
and gives the full circuit's outputs, and every frame it emits is one of
that circuit.  So CE compares the cone's flops' next states, and a dead
cell that feeds a dead flop cannot make it SAT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .cnf import FALSE, TRUE, CnfBuilder, CnfInstance
from .netlist import GATES, BitSeq, CamoCircuit, Completion, observable_cone
from .oracle import QuerySet, record
from . import sat as satmod


@dataclass(frozen=True)
class KeyVector:
    """Per-cell key variable groups; cell i selects candidates[choices[i]]."""

    cells: tuple[tuple[int, ...], ...]
    ts: tuple[int, ...]

    def all_vars(self) -> list[int]:
        return [v for cell in self.cells for v in cell]

    def value_lits(self, cell: int, value: int) -> list[int]:
        """Literals asserting that cell's key bits equal `value`."""
        bits = self.cells[cell]
        return [bits[i] if (value >> i) & 1 else -bits[i] for i in range(len(bits))]

    @cached_property
    def off_lits(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per cell, per candidate j: the negations of `value_lits(cell, j)`,
        a clause's guard "unless the cell selects candidate j"."""
        return tuple(
            tuple(tuple(-l for l in self.value_lits(ci, j)) for j in range(t))
            for ci, t in enumerate(self.ts)
        )

    def decode(self, result: "satmod.SolveResult") -> Completion:
        """The completion a SAT result gives."""
        return Completion(tuple(map(result.word, self.cells)))


def new_key_vector(bld: CnfBuilder, camo: CamoCircuit, name: str) -> KeyVector:
    """Allocate key variables for every cell; block candidate indices >= t."""
    cells = []
    for cell in camo.cells:
        nbits = max(1, (cell.t - 1).bit_length())
        bits = tuple(bld.new_vars(nbits))
        for bad in range(cell.t, 1 << nbits):
            bld.add(*(-bits[i] if (bad >> i) & 1 else bits[i] for i in range(nbits)))
        cells.append(bits)
    kv = KeyVector(tuple(cells), tuple(c.t for c in camo.cells))
    bld.group(name, kv.all_vars())
    return kv


def _emit_gate(bld: CnfBuilder, fn: str, ins: list[int]) -> int:
    fold, inverted = GATES[fn]
    if fold == "AND":
        out = bld.emit_and(ins)
    elif fold == "OR":  # the negated AND of the negated inputs
        out = -bld.emit_and([-l for l in ins])
    elif fold == "XOR":
        out = bld.emit_xor(ins)
    else:
        out = ins[0]
    return -out if inverted else out


def emit_keyed_frame(
    bld: CnfBuilder,
    camo: CamoCircuit,
    key: KeyVector,
    state_lits: Sequence[int],
    input_lits: Sequence[int],
) -> tuple[list[int], list[int]]:
    """One clock cycle of the keyed circuit; returns (output, next-state) literals.

    Any satisfying assignment makes the returned literals equal to
    step(camo, decode(key), state, input).  Each candidate's gate is emitted
    with `bld`'s constant folding and hashing.  A cell whose candidates all
    give the same literal is that literal, since every valid key selects
    it; otherwise the cell gets an output variable, and each candidate's
    definition of it is guarded by that candidate's key value.
    The frame walks `camo.plan`, whose cell indices index `key`'s cells: a
    reduced circuit from `observable_cone` is keyed by its full circuit's
    key vector.  Raises ValueError unless there is one state literal per
    flop and one input literal per input, and, through `camo.plan`, for a
    gate the plan cannot take.
    """
    if len(state_lits) != camo.num_flops or len(input_lits) != camo.num_inputs:
        raise ValueError(
            f"{len(state_lits)} state and {len(input_lits)} input literals for "
            f"{camo.num_flops} flops and {camo.num_inputs} inputs"
        )
    plan = camo.plan
    clauses = bld.clauses
    off_lits = key.off_lits
    vals = [*input_lits, *state_lits]
    for ci, fns, slots in plan.gates:
        ins = [vals[s] for s in slots]
        if ci < 0:
            vals.append(_emit_gate(bld, fns[0], ins))
            continue
        cands = [_emit_gate(bld, fn, ins) for fn in fns]
        if len(set(cands)) == 1:
            # every candidate gives the same literal, so every valid key does
            vals.append(cands[0])
            continue
        out = bld.new_var(implied=True)
        for off, v in zip(off_lits[ci], cands):
            # (cell selects this candidate) -> (out <-> its output); key bits
            # and out are never constants, so only the candidate's output folds
            if v == TRUE:
                clauses.append((*off, out))
            elif v == FALSE:
                clauses.append((*off, -out))
            else:
                clauses.append((*off, -out, v))
                clauses.append((*off, out, -v))
        vals.append(out)
    return [vals[s] for s in plan.outputs], [vals[s] for s in plan.nexts]


def _const_bits(mask: int, width: int) -> list[int]:
    return [TRUE if (mask >> i) & 1 else FALSE for i in range(width)]


def emit_consistency(bld: CnfBuilder, camo: CamoCircuit, key: KeyVector, qs: QuerySet) -> None:
    """Constrain `key` to completions reproducing every recorded query.

    Each record chains keyed frames from reset over its input steps, as
    constants, and pins every frame's outputs to the recorded ones.  Raises
    ValueError when a record's output and input lengths differ.
    """
    for seq, out in qs:
        if len(out) != len(seq):
            raise ValueError(f"output has {len(out)} steps for {len(seq)} input steps")
        state = _const_bits(camo.reset_state, camo.num_flops)
        for step, want in zip(seq.steps, out.steps):
            ins = _const_bits(step, camo.num_inputs)
            outs, state = emit_keyed_frame(bld, camo, key, state, ins)
            for i, ol in enumerate(outs):
                bld.add(ol if (want >> i) & 1 else -ol)


def encode_keyed_frame(camo: CamoCircuit) -> CnfInstance:
    """Standalone single-frame instance with free key/state/input variables.

    Groups: key, state, input, output, next.
    """
    bld = CnfBuilder()
    key = new_key_vector(bld, camo, "key")
    state = bld.new_vars(camo.num_flops)
    inputs = bld.new_vars(camo.num_inputs)
    outs, nxt = emit_keyed_frame(bld, camo, key, state, inputs)
    bld.group("state", state)
    bld.group("input", inputs)
    bld.group("output", outs)
    bld.group("next", nxt)
    return bld.build()


def encode_consistency(camo: CamoCircuit, qs: QuerySet) -> CnfInstance:
    """Satisfying keys are exactly the completions consistent with qs."""
    bld = CnfBuilder()
    key = new_key_vector(bld, camo, "key")
    emit_consistency(bld, camo, key, qs)
    return bld.build()


def encode_bmc_disagreement(camo: CamoCircuit, qs: QuerySet, bound: int) -> CnfInstance:
    """Two consistent completions that differ within `bound` shared-input frames.

    Groups: key1, key2, and in0..in{bound-1} for the free input frames.
    """
    inst = AttackInstance.from_queries(camo, qs)
    inst.bld.add(inst.bound_selector(bound))
    return inst.bld.build()


def _emit_any_mismatch(bld: CnfBuilder, a: Sequence[int], b: Sequence[int]) -> int:
    """A literal that can only be true when vectors a and b differ somewhere;
    FALSE when they never can."""
    ms = []
    for x, y in zip(a, b):
        m = bld.emit_mismatch(x, y)
        if m == TRUE:
            return TRUE
        if m is not None:
            ms.append(m)
    if not ms:
        return FALSE
    if len(ms) == 1:
        return ms[0]
    flag = bld.new_var()
    bld.add(-flag, *ms)
    return flag


def _emit_keys_equal(bld: CnfBuilder, k1: KeyVector, k2: KeyVector) -> int:
    """A literal true exactly when the two key vectors decode identically.

    Defined both ways over raw key bits, which decode one-to-one (indices
    >= t are blocked), so UC is its negation assumed alone.  BMC and CE
    assume it false too: that loses them no model, since equal completions
    give equal outputs and next states.  The solver knows from the start
    that the keys differ.  keys_eq spans every cell, so a level-0 value for
    it needs every cell settled, unobservable ones included; the level-0
    key bits of the compared cells alone certify UC and CE
    (`AttackInstance._settled`).
    """
    eqs = [-bld.emit_xor([a, b]) for a, b in zip(k1.all_vars(), k2.all_vars())]
    return bld.emit_and(eqs)


def encode_uc(camo: CamoCircuit, qs: QuerySet) -> CnfInstance:
    """SAT iff two distinct completions are both consistent with qs."""
    inst = AttackInstance.from_queries(camo, qs)
    inst.bld.add(-inst._keys_eq)
    return inst.bld.build()


def encode_ce(camo: CamoCircuit, qs: QuerySet) -> CnfInstance:
    """SAT iff two consistent completions differ combinationally.

    The shared state variables range over all 2^l values of the l flops in
    the outputs' cone of influence, unreachable ones included, so UNSAT is
    a sound but conservative certificate that qs is discriminating.
    Groups: key1, key2, ce_state, ce_input.
    """
    inst = AttackInstance.from_queries(camo, qs)
    inst.bld.add(inst.ce_selector())
    return inst.bld.build()


class AttackInstance:
    """One growing CNF backing every solver query: the only place a query
    is built or solved.

    `qs` holds the records, which only `add_record` grows.  Consistency
    constraints are emitted once per (record, key vector) and shared by all
    queries; the BMC disagreement OR and the CE mismatch OR are each guarded
    by a selector, an assumption literal, so a single incremental solver
    context answers all of them.  BMC, CE and UC assume the key vectors
    distinct (`_emit_keys_equal`).  The key vectors cover every cell of
    `camo`.  The attack runs on the outputs' cone; only the oracle runs the
    full chip: `camo` is the reduced circuit of `observable_cone`, which
    keeps every cell under its own index, and `observable` holds the indices
    of the cells inside the cone.
    """

    def __init__(self, camo: CamoCircuit):
        self.camo, self.observable = observable_cone(camo)
        self.qs = QuerySet()
        self.bld = CnfBuilder()
        self.k1 = new_key_vector(self.bld, self.camo, "key1")
        self.k2 = new_key_vector(self.bld, self.camo, "key2")
        self._keys_eq = _emit_keys_equal(self.bld, self.k1, self.k2)
        self.frame_inputs: list[list[int]] = []
        self._frame_flags: list[int] = []
        self._s1 = _const_bits(self.camo.reset_state, self.camo.num_flops)
        self._s2 = list(self._s1)
        self._bound_sel: dict[int, int] = {}
        self._ce_sel: int | None = None
        self._emitted_clauses = 0
        self._emitted_implied = 0
        self._ctx = satmod.SatContext(CnfInstance(1, ()))

    @classmethod
    def from_queries(cls, camo: CamoCircuit, qs: QuerySet) -> "AttackInstance":
        """An instance holding every record of qs."""
        inst = cls(camo)
        for seq, out in qs:
            inst.add_record(seq, out)
        return inst

    # ------------------------------------------------------------- plumbing

    def _sync(self) -> None:
        clauses = self.bld.clauses
        implied = self.bld.implied_vars
        if self._emitted_clauses < len(clauses) or self._ctx.num_vars < self.bld.num_vars:
            self._ctx.add_clauses(
                clauses[self._emitted_clauses :],
                self.bld.num_vars,
                implied[self._emitted_implied :],
            )
            self._emitted_clauses = len(clauses)
            self._emitted_implied = len(implied)

    def _solve(self, assumptions, budget) -> "satmod.SolveResult":
        self._sync()
        return self._ctx.solve(assumptions, time_budget=budget)

    @property
    def stats(self) -> "satmod.SolveStats":
        """Running counters of the one solver behind every query (see
        `SatContext.stats`); the work of a run of queries is the change."""
        return self._ctx.stats

    # ------------------------------------------------------------- building

    def ensure_frames(self, bound: int) -> None:
        bld, camo = self.bld, self.camo
        while len(self.frame_inputs) < bound:
            f = len(self.frame_inputs)
            ins = bld.new_vars(camo.num_inputs)
            bld.group(f"in{f}", ins)
            o1, self._s1 = emit_keyed_frame(bld, camo, self.k1, self._s1, ins)
            o2, self._s2 = emit_keyed_frame(bld, camo, self.k2, self._s2, ins)
            self.frame_inputs.append(ins)
            self._frame_flags.append(_emit_any_mismatch(bld, o1, o2))

    def bound_selector(self, bound: int) -> int:
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self.ensure_frames(bound)
        sel = self._bound_sel.get(bound)
        if sel is None:
            sel = self.bld.new_var()
            self.bld.add(-sel, *self._frame_flags[:bound])
            self._bound_sel[bound] = sel
        return sel

    def ce_selector(self) -> int:
        if self._ce_sel is None:
            bld, camo = self.bld, self.camo
            self._ce_sel = bld.new_var()
            state = bld.new_vars(camo.num_flops)
            inputs = bld.new_vars(camo.num_inputs)
            bld.group("ce_state", state)
            bld.group("ce_input", inputs)
            o1, n1 = emit_keyed_frame(bld, camo, self.k1, state, inputs)
            o2, n2 = emit_keyed_frame(bld, camo, self.k2, state, inputs)
            bld.add(-self._ce_sel, _emit_any_mismatch(bld, o1 + n1, o2 + n2))
        return self._ce_sel

    def add_record(self, seq: BitSeq, out: BitSeq) -> bool:
        """Add (seq, out) to `qs` and constrain both key vectors by it.

        Returns False, emitting nothing, when the pair is already recorded.
        Raises OracleConflictError when seq was recorded with another output
        and ValueError when the lengths differ, before any clause is emitted.
        """
        grown = record(self.qs, seq, out)
        if len(grown) == len(self.qs):
            return False
        qs = QuerySet(((seq, out),))
        for key in (self.k1, self.k2):
            emit_consistency(self.bld, self.camo, key, qs)
        self.qs = grown
        return True

    # -------------------------------------------------------------- queries

    def solve_bmc(self, bound: int, budget: float | None = None) -> "satmod.SolveResult":
        return self._solve([self.bound_selector(bound), -self._keys_eq], budget)

    def decode_bmc(self, result: "satmod.SolveResult", bound: int) -> tuple[Completion, Completion, BitSeq]:
        x1 = self.k1.decode(result)
        x2 = self.k2.decode(result)
        steps = tuple(result.word(self.frame_inputs[f]) for f in range(bound))
        return x1, x2, BitSeq(self.camo.num_inputs, steps)

    def _settled(self, cells: Iterable[int]) -> bool:
        """Whether level 0 of the synced solver fixes every k1 key bit of
        each of `cells` that has two or more candidates.

        Then all consistent completions select the same candidate in each
        of those cells.  Exact: every clause not guarded by an assumption is
        a key encoding, a record's consistency constraint, or a definition
        that any pair of consistent completions extends (frames,
        one-directional mismatches, selector- and epoch-guarded clauses,
        the keys_eq definition), and learnt clauses follow from these.  So
        each consistent completion, as k1 and k2 alike, extends to a model,
        and a level-0 value of a k1 bit is its value in every one of them.
        """
        self._sync()
        fixed, key = self._ctx.fixed_value, self.k1
        return all(fixed(b) is not None for c in cells if key.ts[c] > 1 for b in key.cells[c])

    def solve_uc(self, budget: float | None = None) -> "satmod.SolveResult":
        """UNSAT iff at most one completion is consistent.

        UNSAT with no solver call once level 0 settles every cell
        (`_settled`): a single cell left open, observable or not, can keep
        two consistent completions apart.
        """
        if self._settled(range(self.camo.k)):
            return satmod.SolveResult(satmod.UNSAT)
        return self._solve([-self._keys_eq], budget)

    def solve_ce(self, budget: float | None = None) -> "satmod.SolveResult":
        """UNSAT iff all consistent completions are combinationally identical
        on the outputs' cone of influence.

        Sound for termination (UNSAT implies `qs` is discriminating) but
        conservative: disagreement confined to unreachable states is SAT.
        UNSAT with no solver call and no CE frame once level 0 settles every
        cell in the cone (`_settled`): all consistent completions then run
        the same reduced circuit, which has no gate for the other cells.
        """
        if self._settled(self.observable):
            return satmod.SolveResult(satmod.UNSAT)
        return self._solve([self.ce_selector(), -self._keys_eq], budget)

    def solve_consistent(
        self, pin: Sequence[int] = (), budget: float | None = None
    ) -> "satmod.SolveResult":
        """SAT iff some completion (under optional pinned key literals) is consistent."""
        return self._solve(list(pin), budget)

    def enumerate_consistent(
        self,
        cap: int,
        budget: float | None = None,
        stop: Callable[[list[Completion]], bool] | None = None,
    ) -> list[Completion] | None:
        """Consistent completions, one per consistent choice of the cells in
        the outputs' cone (`observable`), in the order found; None once there
        are more than `cap`.  The cells outside the cone take whatever
        choice the model gives them, which is consistent too.

        After every model within the cap, `stop(found)` is called with the
        list so far, that model last; True ends the listing there and
        returns the list, which may then be incomplete.

        Each model is found by a plain query of this instance and then
        excluded by a blocking clause: the negated k1 key bits of the cells
        in the cone, guarded by a one-shot epoch literal that every model
        search of this call assumes.  The blocking clauses enter the solver
        like every other clause, through `bld` and `_sync`, so every model
        is verified against every clause, blocking clauses included.  On
        every exit (UNSAT, the cap, a timeout, a True from `stop` or an
        exception raised inside it) the epoch is retired by the unit clause
        -epoch, which satisfies the blocking clauses for good, so they do
        not constrain later queries on this instance.  Raises
        SolverTimeoutError when one model search exceeds `budget` seconds.
        The counters of its solver calls are read off `stats`, like those of
        every other query.
        """
        epoch = self.bld.new_var()
        kv = self.k1
        key = [v for c in self.observable for v in kv.cells[c]]
        found: list[Completion] = []
        try:
            while True:
                res = self._solve([epoch], budget)
                if res.status == satmod.TIMEOUT:
                    raise satmod.SolverTimeoutError("solver budget exhausted during enumeration")
                if res.status == satmod.UNSAT:
                    return found
                found.append(kv.decode(res))
                if len(found) > cap:
                    return None
                if stop is not None and stop(found):
                    return found
                model = res.raw_model
                self.bld.add(-epoch, *[-b if model[b] else b for b in key])
        finally:
            self.bld.add(-epoch)
            self._sync()
