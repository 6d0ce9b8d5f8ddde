"""CNF encodings of the solver queries behind the attack.

Camouflaged gates become key-controlled cells: each cell gets ceil(log2 t)
key variables selecting among its t candidate functions (indices >= t are
blocked), and time-unrolled circuit copies are keyed by such vectors.  The
queries encoded here:

* consistency -- a key vector reproduces every recorded query exactly;
* BMC disagreement -- two consistency-constrained copies share b frames of
  free inputs from reset and differ at some observed output;
* UC -- two *distinct* consistent key vectors exist;
* CE -- two consistent key vectors differ on output or next-state for some
  free (input, state) pair, unreachable states included.

Every query is built and solved on one incremental `AttackInstance`.
`encode_bmc_disagreement`, `encode_uc` and `encode_ce` return its clause
database with the query's selector asserted; `encode_consistency` and
`encode_keyed_frame` are standalone single-key encodings, the reference the
CNF is checked against simulation with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cnf import FALSE, TRUE, CnfBuilder, CnfInstance
from .netlist import BitSeq, CamoCircuit, Completion
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

    def decode(self, result: "satmod.SolveResult") -> Completion:
        choices = []
        for bits in self.cells:
            v = 0
            for i, lit in enumerate(bits):
                v |= result.lit_value(lit) << i
            choices.append(v)
        return Completion(tuple(choices))


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


def emit_keyed_frame(
    bld: CnfBuilder,
    camo: CamoCircuit,
    key: KeyVector,
    state_lits: Sequence[int],
    input_lits: Sequence[int],
) -> tuple[list[int], list[int]]:
    """One clock cycle of the keyed circuit; returns (output, next-state) literals.

    Any satisfying assignment makes the returned literals equal to
    step(camo, decode(key), state, input).  Camouflaged gates are encoded by
    guarding each candidate's definition with that candidate's key value.
    """
    base = camo.base
    cidx = camo.cell_index
    vals: dict[str, int] = {}
    for n, lit in zip(base.inputs, input_lits):
        vals[n] = lit
    for (s, _), lit in zip(base.flops, state_lits):
        vals[s] = lit
    for g in base.gates:
        ins = [vals[n] for n in g.ins]
        ci = cidx.get(g.out)
        if ci is None:
            vals[g.out] = bld.emit_fn(g.fn, ins)
        else:
            out = bld.new_var(implied=True)
            for j, cand in enumerate(camo.cells[ci].candidates):
                vj = bld.emit_fn(cand, ins)
                bld.add_guarded_equal(key.value_lits(ci, j), out, vj)
            vals[g.out] = out
    outs = [vals[n] for n in base.outputs]
    nxt = [vals[d] for _, d in base.flops]
    return outs, nxt


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
                bld.add_guarded_equal((), ol, TRUE if (want >> i) & 1 else FALSE)


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


def _emit_any_mismatch(bld: CnfBuilder, a: Sequence[int], b: Sequence[int]) -> int | None:
    """A literal that can only be true when vectors a and b differ somewhere."""
    ms = []
    for x, y in zip(a, b):
        m = bld.emit_mismatch(x, y)
        if m is TRUE:
            return TRUE
        if m is not None:
            ms.append(m)
    if not ms:
        return None
    if len(ms) == 1:
        return ms[0]
    flag = bld.new_var()
    bld.add(-flag, *ms)
    return flag


def _emit_keys_equal(bld: CnfBuilder, k1: KeyVector, k2: KeyVector) -> int:
    """A literal true exactly when the two key vectors decode identically."""
    eqs = [-bld.emit_xor([a, b]) for a, b in zip(k1.all_vars(), k2.all_vars())]
    return bld.emit_and(eqs)


def _bridge_equal_keys(
    bld: CnfBuilder, keys_eq: int, a: Sequence[int], b: Sequence[int]
) -> None:
    """Lemma: identical completions behave identically.

    Both copies compute the same function of the same (shared) inputs and
    reset state, so every model with the key vectors equal already has the
    corresponding wire pairs equal, frame by frame; stating it as clauses
    lets unit propagation refute "some observable differs" instantly once
    the surviving completion is unique, instead of re-deriving circuit
    equivalence by search.
    """
    for x, y in zip(a, b):
        bld.add_guarded_equal((keys_eq,), x, y)


def encode_uc(camo: CamoCircuit, qs: QuerySet) -> CnfInstance:
    """SAT iff two distinct completions are both consistent with qs."""
    inst = AttackInstance.from_queries(camo, qs)
    inst.bld.add(inst.uc_selector())
    return inst.bld.build()


def encode_ce(camo: CamoCircuit, qs: QuerySet) -> CnfInstance:
    """SAT iff two consistent completions differ combinationally.

    The shared state variables range over all 2^l values, including
    unreachable ones, so UNSAT is a sound but conservative certificate that
    qs is discriminating.  Groups: key1, key2, ce_state, ce_input.
    """
    inst = AttackInstance.from_queries(camo, qs)
    inst.bld.add(inst.ce_selector())
    return inst.bld.build()


class AttackInstance:
    """One growing CNF backing every solver query: the only place a query
    is built or solved.

    `qs` holds the records, which only `add_record` grows.  Consistency
    constraints are emitted once per (record, key vector) and shared by all
    queries; the BMC disagreement OR, the UC distinctness OR and the CE
    mismatch OR are each guarded by a selector, an assumption literal, so a
    single incremental solver context answers all of them.
    """

    def __init__(self, camo: CamoCircuit):
        self.camo = camo
        self.qs = QuerySet()
        self.bld = CnfBuilder()
        self.k1 = new_key_vector(self.bld, camo, "key1")
        self.k2 = new_key_vector(self.bld, camo, "key2")
        self._keys_eq = _emit_keys_equal(self.bld, self.k1, self.k2)
        self.frame_inputs: list[list[int]] = []
        self._frame_flags: list[int] = []
        self._s1 = _const_bits(camo.reset_state, camo.num_flops)
        self._s2 = list(self._s1)
        self._bound_sel: dict[int, int] = {}
        self._uc_sel: int | None = None
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
        while len(self.frame_inputs) < bound:
            f = len(self.frame_inputs)
            ins = self.bld.new_vars(self.camo.num_inputs)
            self.bld.group(f"in{f}", ins)
            o1, self._s1 = emit_keyed_frame(self.bld, self.camo, self.k1, self._s1, ins)
            o2, self._s2 = emit_keyed_frame(self.bld, self.camo, self.k2, self._s2, ins)
            _bridge_equal_keys(self.bld, self._keys_eq, o1 + self._s1, o2 + self._s2)
            flag = _emit_any_mismatch(self.bld, o1, o2)
            self.frame_inputs.append(ins)
            self._frame_flags.append(flag if flag is not None else FALSE)

    def bound_selector(self, bound: int) -> int:
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self.ensure_frames(bound)
        sel = self._bound_sel.get(bound)
        if sel is None:
            sel = self.bld.new_var()
            self.bld.add(-sel, *[f for f in self._frame_flags[:bound] if f != FALSE])
            self._bound_sel[bound] = sel
        return sel

    def uc_selector(self) -> int:
        if self._uc_sel is None:
            self._uc_sel = self.bld.new_var()
            diff = _emit_any_mismatch(self.bld, self.k1.all_vars(), self.k2.all_vars())
            self.bld.add(-self._uc_sel, *( [diff] if diff is not None else [] ))
        return self._uc_sel

    def ce_selector(self) -> int:
        if self._ce_sel is None:
            self._ce_sel = self.bld.new_var()
            state = self.bld.new_vars(self.camo.num_flops)
            inputs = self.bld.new_vars(self.camo.num_inputs)
            self.bld.group("ce_state", state)
            self.bld.group("ce_input", inputs)
            o1, n1 = emit_keyed_frame(self.bld, self.camo, self.k1, state, inputs)
            o2, n2 = emit_keyed_frame(self.bld, self.camo, self.k2, state, inputs)
            _bridge_equal_keys(self.bld, self._keys_eq, o1 + n1, o2 + n2)
            flag = _emit_any_mismatch(self.bld, o1 + n1, o2 + n2)
            self.bld.add(-self._ce_sel, *( [flag] if flag is not None else [] ))
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
        for key in (self.k1, self.k2):
            emit_consistency(self.bld, self.camo, key, QuerySet(((seq, out),)))
        self.qs = grown
        return True

    # -------------------------------------------------------------- queries

    def solve_bmc(self, bound: int, budget: float | None = None) -> "satmod.SolveResult":
        sel = self.bound_selector(bound)
        return self._solve([sel], budget)

    def decode_bmc(self, result: "satmod.SolveResult", bound: int) -> tuple[Completion, Completion, BitSeq]:
        x1 = self.k1.decode(result)
        x2 = self.k2.decode(result)
        steps = []
        for f in range(bound):
            mask = 0
            for i, lit in enumerate(self.frame_inputs[f]):
                mask |= result.lit_value(lit) << i
            steps.append(mask)
        return x1, x2, BitSeq(self.camo.num_inputs, tuple(steps))

    def solve_uc(self, budget: float | None = None) -> "satmod.SolveResult":
        return self._solve([self.uc_selector()], budget)

    def solve_ce(self, budget: float | None = None) -> "satmod.SolveResult":
        """UNSAT iff all consistent completions are combinationally identical.

        Sound for termination (UNSAT implies `qs` is discriminating) but
        conservative: disagreement confined to unreachable states is SAT.
        """
        return self._solve([self.ce_selector()], budget)

    def solve_consistent(
        self, pin: Sequence[int] = (), budget: float | None = None
    ) -> "satmod.SolveResult":
        """SAT iff some completion (under optional pinned key literals) is consistent."""
        return self._solve(list(pin), budget)

    def enumerate_consistent(
        self, cap: int, budget: float | None = None
    ) -> list[Completion] | None:
        """The distinct consistent completions, in the order found; None once
        there are more than `cap`.

        One resumed search: each model is excluded by a blocking clause (the
        negated key bits of k1) from which the solver backjumps and searches
        on, instead of starting again from level 0.  The solver decides k1's
        bits after every other variable (`SatContext.decide_last`), so they
        sit at the top of the trail and a blocking clause backjumps over
        them alone: the rest of the model (k2, the frames, k2's consistency)
        stays assigned for the next search.  Every model is still verified
        against every clause, blocking clauses included.  The blocking
        clauses are guarded by a one-shot epoch literal, assumed by every
        model search of this call, so they do not constrain later queries on
        this instance.  Raises SolverTimeoutError when one model search
        exceeds `budget` seconds.  The counters of its solver calls are read
        off `stats`, like those of every other query.  On every exit the
        solver's trail is back at level 0 and its decision order is as
        before the call.
        """
        epoch = self.bld.new_var()
        self._sync()
        ctx = self._ctx
        key = self.k1.all_vars()
        found: list[Completion] = []
        ctx.decide_last(key)
        try:
            while True:
                res = ctx.solve([epoch], time_budget=budget, resume=True)
                if res.status == satmod.TIMEOUT:
                    raise satmod.SolverTimeoutError("solver budget exhausted during enumeration")
                if res.status == satmod.UNSAT:
                    return found
                found.append(self.k1.decode(res))
                if len(found) > cap:
                    return None
                model = res.raw_model
                ctx.block([-epoch] + [-b if model[b] else b for b in key])
        finally:
            ctx.rewind()
