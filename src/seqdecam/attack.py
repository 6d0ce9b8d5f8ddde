"""The iterative decamouflaging attack and its reference procedures.

The main loop grows a set of input sequences: a bounded search
(`find_distinguishing`) finds two completions that agree with everything
observed so far yet disagree within the current bound, the oracle
arbitrates, and the loser is eliminated.  After every new record the two
sufficient conditions are asked: unique completion (UC), then combinational
equivalence (CE); either one ends the attack.  When no bounded
distinguisher remains and neither holds, an unbounded check (UMC) runs
before the bound grows.  Several answers come from the outputs' sequential
cone of influence (`netlist.observable_cone`, held once as
`AttackInstance.cone`): a cell outside it cannot reach an output, so every
choice for it is equivalent to every other and consistent once any
completion is.  So UC, which such a cell with two or more candidates makes
SAT by construction, is not asked next to one; a partial completion calls
such a cell ambiguous without pinning it; and UMC lists one surviving
completion per consistent choice of the observable cells, one plain solver
call each with a blocking clause on those cells after it, and checks each
one, as soon as it is listed, for sequential equivalence with the first on
the reduced circuit (which keeps every cell, so a completion runs on it as
it is) by one explicit product-machine search; the first one inequivalent
to the first ends the listing and refutes.  A bound that closes at the
product diameter 2^(2l) certifies on its own.  Every check takes the
attack's one incremental `AttackInstance`, which holds the records
(`inst.qs`) and answers every solver question about them over frames of
the reduced circuit, which gives the full one's outputs; so a dead cell
that feeds a dead flop cannot make CE SAT.  Each check the loop runs
becomes one `IterationRecord`: its solver work is the change in the
instance's running `stats` and its wall time spans the whole check
(encoding, oracle round trip and re-simulation included).  A certified
attack returns the bounded-search witness that survived the last record,
which has been re-simulated against every record; only without one is a
completion solved for.  When no cell lies in the cone
at all, every completion is sequentially equivalent to every other, so the
attack certifies UMC before any frame, solver call or oracle query and
returns the all-zeros completion.  The report names the cells outside the
cone as unobservable.
Small-instance ground truth comes from an exhaustive pairwise-equivalence
procedure over the whole completion space.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from typing import Sequence

from . import sat as satmod
from .encode import AttackInstance
# perfbench/tracing.py patches these four names here, so they stay importable
from .encode import encode_bmc_disagreement, encode_ce, encode_consistency, encode_uc  # noqa: F401
from .netlist import BitSeq, CamoCircuit, Completion, Evaluator, run_sequence
from .oracle import QuerySet
from .sat import SolverTimeoutError

UC, CE, UMC = "UC", "CE", "UMC"
EXHAUSTED, TIMEOUT_TAG = "EXHAUSTED", "TIMEOUT"
# caps of the explicit product search in check_umc, read when the check runs
PRODUCT_STATE_CAP = 1 << 26
PRODUCT_EXPAND_CAP = 1 << 26
# widest wire, in scenarios, that a product search evaluates
WIRE_BITS = 1 << 17


class InconclusiveError(RuntimeError):
    """A check hit a configured cap or budget before reaching an answer."""


class ProductCapError(InconclusiveError):
    pass


class OracleInconsistentError(RuntimeError):
    """No completion can reproduce the observed black-box behavior."""


class EncodingBugError(RuntimeError):
    """A solver model failed re-simulation; the CNF encoding is wrong."""


@dataclass(frozen=True)
class AttackConfig:
    bmc_inc: int = 10
    max_bound: int = 120
    solver_budget: float | None = None  # seconds per solver call
    umc_mode: str = "explicit"  # explicit | skip (the enumeration-based check)
    umc_enum_cap: int = 4096  # most completions of the observable cells UMC lists

    def __post_init__(self):
        if self.bmc_inc < 1:
            raise ValueError("bmc_inc must be >= 1")
        if self.max_bound < self.bmc_inc:
            raise ValueError("max_bound must be >= bmc_inc")
        # NaN fails the comparison too: as a deadline it would never pass
        if self.solver_budget is not None and not self.solver_budget >= 0:
            raise ValueError(f"solver_budget must be >= 0, got {self.solver_budget}")
        if self.umc_mode not in ("explicit", "skip"):
            raise ValueError(f"unknown umc_mode {self.umc_mode!r}")
        if self.umc_enum_cap < 1:
            raise ValueError(f"umc_enum_cap must be >= 1, got {self.umc_enum_cap}")


@dataclass(frozen=True)
class IterationRecord:
    bound: int
    # sequence | bound | uc | ce | umc; no uc while a cell with two or more
    # candidates lies outside the outputs' cone (UC is SAT by construction);
    # with no cell in the cone, one umc at bound 0 and no solver work
    event: str
    seq_len: int | None
    conflicts: int
    decisions: int
    wall: float
    # solver status for sequence/bound/uc/ce; for umc: UMC, refuted or
    # "inconclusive: <reason>"
    status: str | None = None


@dataclass(frozen=True)
class AttackReport:
    disc_set: QuerySet
    completions: tuple[Completion, ...]
    termination: str
    iterations: tuple[IterationRecord, ...]
    query_count: int
    step_count: int
    bound_reached: int
    wall: float
    partial: dict[str, int | None] | None = None
    # cells outside the outputs' cone of influence, by gate output net; a
    # partial still gives them None and a certified attack counts them fixed
    unobservable: tuple[str, ...] = ()

    @property
    def success(self) -> bool:
        return self.termination in (UC, CE, UMC)

    @property
    def max_seq_len(self) -> int:
        return max((len(i) for i, _ in self.disc_set), default=0)

    @property
    def gates_fixed(self) -> int:
        if self.success:
            return len(self.completions[0].choices) if self.completions else 0
        if self.partial is None:
            return 0
        return sum(1 for v in self.partial.values() if v is not None)


def consistent(camo: CamoCircuit, x: Completion, qs: QuerySet) -> bool:
    """Does completion x reproduce every recorded observation?"""
    ev = Evaluator(camo, x)
    return all(ev.run(seq) == out for seq, out in qs)


# ------------------------------------------------------- bounded search

def find_distinguishing(
    inst: AttackInstance, bound: int, budget: float | None = None
) -> tuple[Completion, Completion, BitSeq] | None:
    """Two consistent completions plus an input sequence they disagree on.

    Returns None when no two completions consistent with `inst.qs` can be
    told apart by any sequence of length <= bound.  The returned sequence is
    truncated at its first disagreeing step and re-simulated as a self-check.
    """
    res = inst.solve_bmc(bound, budget)
    if res.status == satmod.TIMEOUT:
        raise SolverTimeoutError(f"bounded search at b={bound} exceeded its budget")
    if res.status == satmod.UNSAT:
        return None
    x1, x2, seq = inst.decode_bmc(res, bound)
    camo = inst.camo
    o1 = run_sequence(camo, x1, seq)
    o2 = run_sequence(camo, x2, seq)
    cut = next((i for i, (a, b) in enumerate(zip(o1.steps, o2.steps)) if a != b), None)
    if cut is None:
        raise EncodingBugError("solver model decodes to completions that do not disagree")
    if not consistent(camo, x1, inst.qs) or not consistent(camo, x2, inst.qs):
        raise EncodingBugError("solver model decodes to a completion inconsistent with records")
    return x1, x2, seq.prefix(cut + 1)


# --------------------------------------------- explicit product machine

def product_equiv(
    camo: CamoCircuit,
    x1: Completion,
    x2: Completion,
    state_cap: int = PRODUCT_STATE_CAP,
    expand_cap: int = PRODUCT_EXPAND_CAP,
) -> BitSeq | None:
    """Sequential equivalence of two completions from reset.

    Breadth-first reachability over joint state pairs, expanding every input
    per state; returns None when equivalent, and the shortest disagreeing
    input sequence otherwise.  Raises ProductCapError when the state or
    expansion caps are hit.
    """
    if x1 == x2:
        return None
    m, l = camo.num_inputs, camo.num_flops
    p = 1 << m
    if p > expand_cap:
        raise ProductCapError(f"2^{m} inputs per state exceeds the expansion cap")
    ev1 = Evaluator(camo, x1)
    ev2 = Evaluator(camo, x2)
    s0 = camo.reset_state
    start = (s0 << l) | s0 if l else 0
    visited = {start}
    states: list[int] = [start]
    parent = [-1]
    via = [0]
    frontier = [0]
    expansions = 0
    chunk_states = max(1, WIRE_BITS // p)
    input_patterns = [_input_pattern(i, m) for i in range(m)]

    def witness(idx: int, last_input: int) -> BitSeq:
        rev = [last_input]
        while parent[idx] != -1:
            rev.append(via[idx])
            idx = parent[idx]
        return BitSeq(m, tuple(reversed(rev)))

    while frontier:
        nxt_frontier: list[int] = []
        for c0 in range(0, len(frontier), chunk_states):
            chunk = frontier[c0 : c0 + chunk_states]
            w = len(chunk) * p
            expansions += w
            if expansions > expand_cap:
                raise ProductCapError(f"product expansion cap {expand_cap} exceeded")
            ins, wires = _pack_chunk([states[idx] for idx in chunk], 2 * l, input_patterns)
            st2, st1 = wires[:l], wires[l:]
            o1, n1 = ev1.eval(st1, ins, w)
            o2, n2 = ev2.eval(st2, ins, w)
            mism = 0
            for a, b in zip(o1, o2):
                mism |= a ^ b
            if mism:
                j = (mism & -mism).bit_length() - 1
                return witness(chunk[j // p], j % p)
            for key, j in zip(*_distinct_keys([*n2, *n1], w)):  # key (s1 << l) | s2
                if key not in visited:
                    visited.add(key)
                    states.append(key)
                    parent.append(chunk[j // p])
                    via.append(j % p)
                    nxt_frontier.append(len(states) - 1)
                    if len(states) > state_cap:
                        raise ProductCapError(f"product state cap {state_cap} exceeded")
        frontier = nxt_frontier
    return None


def _input_pattern(bit: int, m: int) -> int:
    """Bit mask over the 2^m input enumeration where input wire `bit` is 1."""
    half = 1 << bit
    pat = ((1 << half) - 1) << half  # one period: 2^bit zeros, then 2^bit ones
    width = 2 * half
    while width < 1 << m:
        pat |= pat << width
        width *= 2
    return pat


def _pack_chunk(
    keys: Sequence[int], nbits: int, input_patterns: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Input and state wires for every (key, input) scenario of a chunk.

    Scenario c * 2^m + v holds state key keys[c] and input value v, where m
    is the number of input patterns; returns (input wires, nbits key wires),
    key wire i carrying bit i of each scenario's key.
    """
    p = 1 << len(input_patterns)
    block = (1 << p) - 1
    reps = ((1 << (len(keys) * p)) - 1) // block  # 1 at each block start
    ins = [pat * reps for pat in input_patterns]
    wires = []
    for i in range(nbits):
        acc = 0
        for ci, key in enumerate(keys):
            if (key >> i) & 1:
                acc |= block << (ci * p)
        wires.append(acc)
    return ins, wires


def _distinct_keys(wires: Sequence[int], width: int) -> tuple[list[int], list[int]]:
    """The distinct scenario keys in ascending order and the first scenario
    of each; bit i of scenario j's key is bit j of wires[i].

    Splits the scenarios by key (`_refined_keys`), which costs little while
    the keys are few, and falls back on computing every scenario's key
    (`_transposed_keys`) when the parts grow many.  Raises ProductCapError
    for more than 64 wires, which a key cannot hold.
    """
    if len(wires) > 64:
        raise ProductCapError(f"{len(wires)} state bits exceed the 64-bit state key")
    keys = _refined_keys(wires, width)
    return _transposed_keys(wires, width) if keys is None else keys


def _refined_keys(wires: Sequence[int], width: int) -> tuple[list[int], list[int]] | None:
    """`_distinct_keys` by partition refinement, or None past its budget.

    A part is a key and the mask of its scenarios.  Wires are taken from
    the highest key bit down and each part's 0 half is kept before its 1
    half, so the parts stay in ascending key order; a part's first scenario
    is the lowest bit of its mask.

    Refinement gives up as soon as it would cost more than
    `_transposed_keys`, counting the splits it has made and, since parts
    only ever split, at least as many per remaining wire as it holds now.
    Costs are in units of about 1.15 ns, each within a factor of two of
    what a 2-vCPU x86-64 VM measured for widths 64 to 2^17 and 6 to 64
    wires.  A split, two big-int operations over the chunk, costs
    width/32 + 256 (0.3 us at width 64, 5 us at 2^17; measured 0.2-0.4 and
    1.7-2.8 us).  The transposition costs 2 * wires * (width + 1024) +
    32 * width (for 30 wires 0.08 ms at width 64 and 14 ms at 2^17;
    measured 0.04 and 13-16 ms with few distinct keys, and sorting many
    distinct keys adds up to 30 ms).
    """
    budget = 2 * len(wires) * (width + 1024) + 32 * width
    split = width // 32 + 256
    keys, masks = [0], [(1 << width) - 1]
    for i in range(len(wires) - 1, -1, -1):
        if len(keys) * (i + 1) * split > budget:
            return None
        budget -= len(keys) * split
        wire, bit = wires[i], 1 << i
        next_keys, next_masks = [], []
        for key, mask in zip(keys, masks):
            one = mask & wire
            if one != mask:
                next_keys.append(key)
                next_masks.append(mask ^ one)
            if one:
                next_keys.append(key | bit)
                next_masks.append(one)
        keys, masks = next_keys, next_masks
    return keys, [(mask & -mask).bit_length() - 1 for mask in masks]


# an 8x8 bit-matrix transpose of every 64-bit lane (Hacker's Delight,
# section 7-3): bit q of lane byte b trades places with bit b of byte q
_TRANSPOSE_STEPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _transposed_keys(wires: Sequence[int], width: int) -> tuple[list[int], list[int]]:
    """`_distinct_keys` from every scenario's key.

    Eight wires at a time are interleaved byte by byte, so that one 64-bit
    lane holds their values in eight scenarios; transposing every lane at
    once, by shifts and masks over the whole integer, makes each lane byte
    one byte of a scenario's key.  The keys are read as little-endian
    uint64s; a dict over them in reverse keeps each one's first scenario.
    """
    nbytes = (width + 7) // 8
    steps = [(s, int.from_bytes(m.to_bytes(8, "little") * nbytes, "little"))
             for s, m in _TRANSPOSE_STEPS]
    key_bytes = bytearray(64 * nbytes)  # 8 per scenario
    for g in range(0, len(wires), 8):
        lanes = bytearray(8 * nbytes)
        for q, wire in enumerate(wires[g : g + 8]):
            lanes[q::8] = wire.to_bytes(nbytes, "little")
        x = int.from_bytes(lanes, "little")
        for s, m in steps:
            t = (x ^ (x >> s)) & m
            x ^= t ^ (t << s)
        key_bytes[g // 8 :: 8] = x.to_bytes(8 * nbytes, "little")
    words = array("Q", key_bytes)
    if sys.byteorder == "big":
        words.byteswap()
    del words[width:]
    keys = words.tolist()
    first = dict(zip(reversed(keys), range(width - 1, -1, -1)))
    keys = sorted(first)
    return keys, list(map(first.__getitem__, keys))


# -------------------------------------------------------- unbounded check

def check_umc(inst: AttackInstance, cfg: AttackConfig | None = None) -> bool:
    """True iff `inst.qs` is discriminating; raises InconclusiveError at the caps.

    Asked on the outputs' cone of influence (`observable_cone`): it lists
    one consistent completion per consistent choice of the observable
    cells, one solver query each (see `AttackInstance.enumerate_consistent`),
    and checks each one, as soon as it is listed, for sequential
    equivalence with the first by one `product_equiv` search on the reduced
    circuit, which keeps every cell and ignores those outside the cone.
    Equivalence is transitive, so this is exact: the consistent completions
    are the listed choices of the observable cells times every choice of
    the other cells, and two completions are equivalent exactly when they
    are equivalent on the reduced circuit.  The first completion
    inequivalent to the first ends the listing and refutes the check, and
    a check that certifies lists exactly as a plain listing does.  More
    than `cfg.umc_enum_cap` completions (every one of the first
    `cfg.umc_enum_cap` equivalent to the first), a solver call over its
    budget or a product cap (ProductCapError, at the `PRODUCT_*_CAP` values
    when the check runs) leaves the check inconclusive, with the reason in
    the error.  Every solver call is a query of `inst`, so the work of the
    check is the change in `inst.stats`.
    """
    cfg = cfg or AttackConfig()
    if cfg.umc_mode == "skip":
        raise InconclusiveError("unbounded check disabled (umc_mode=skip)")
    reduced = inst.cone[0]
    refuted = False

    def refutes(comps: list[Completion]) -> bool:
        """Is the completion listed last inequivalent to the first?"""
        nonlocal refuted
        refuted = len(comps) > 1 and product_equiv(
            reduced, comps[0], comps[-1], PRODUCT_STATE_CAP, PRODUCT_EXPAND_CAP
        ) is not None
        return refuted

    try:
        comps = inst.enumerate_consistent(cfg.umc_enum_cap, cfg.solver_budget, refutes)
    except SolverTimeoutError as exc:
        raise InconclusiveError(str(exc)) from exc
    if refuted:
        return False
    if comps is None:
        raise InconclusiveError(f"more than {cfg.umc_enum_cap} consistent completions")
    if not comps:
        raise OracleInconsistentError("no completion is consistent with the observations")
    return True


def brute_force_disc(
    camo: CamoCircuit,
    qs: QuerySet,
    completion_cap: int = 4096,
    state_cap: int = PRODUCT_STATE_CAP,
    expand_cap: int = PRODUCT_EXPAND_CAP,
) -> bool:
    """Ground truth for small instances: is qs discriminating?

    Walks every pair of completions in the full space, keeps the pairs that
    both reproduce the observations, and checks each such pair for
    sequential equivalence from reset.
    """
    total = camo.completion_count()
    if total > completion_cap:
        raise InconclusiveError(f"completion space {total} exceeds cap {completion_cap}")
    comps = [x for x in camo.all_completions() if consistent(camo, x, qs)]
    if not comps:
        raise OracleInconsistentError("no completion is consistent with the observations")
    # plain pairwise on purpose: the independent reference for check_umc
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if product_equiv(camo, comps[i], comps[j], state_cap, expand_cap) is not None:
                return False
    return True


# ------------------------------------------------------------- completion

def recover_completion(inst: AttackInstance, budget: float | None = None) -> Completion:
    """Any completion consistent with `inst.qs` (correct when it is discriminating).

    `run_attack` solves for it only when no bounded-search witness survived
    the last record, for example when the attack certifies with no record.
    """
    res = inst.solve_consistent(budget=budget)
    if res.status == satmod.UNSAT:
        raise OracleInconsistentError(
            "no completion reproduces the observed behavior; the black box does not "
            "match the netlist (or the encoding is broken)"
        )
    if res.status == satmod.TIMEOUT:
        raise SolverTimeoutError("completion recovery exceeded its budget")
    x = inst.k1.decode(res)
    if not consistent(inst.camo, x, inst.qs):
        raise EncodingBugError("recovered completion fails re-simulation")
    return x


def partial_completion(inst: AttackInstance, budget: float | None = None) -> dict[str, int | None]:
    """Per-gate verdicts: candidate index if every completion consistent
    with `inst.qs` agrees on that cell, None when the cell is still
    ambiguous (or a sub-query timed out).

    One unpinned solve comes first: UNSAT raises OracleInconsistentError,
    even when no cell is pinned after it.  A cell outside the outputs' cone
    of influence (`inst.cone`) is never pinned: every choice for it is
    consistent once any completion is, so with two or more candidates it is
    ambiguous, and with one it is fixed at 0 once a solve has shown a
    consistent completion.  The other cells' candidates are pinned one at a
    time, but every SAT answer is a verified consistent completion and
    shows a feasible value for every cell at once: a value already shown is
    not asked again, and a cell with two feasible values is settled as
    ambiguous.
    """
    cells = inst.camo.cells
    kept = set(inst.cone[1])
    seen: list[set[int]] = [set() for _ in cells]

    def show(res: satmod.SolveResult, first: int) -> None:
        for cj in range(first, len(cells)):  # the cells not yet settled
            if len(seen[cj]) < 2:
                seen[cj].add(res.word(inst.k1.cells[cj]))

    res = inst.solve_consistent(budget=budget)
    if res.status == satmod.UNSAT:
        raise OracleInconsistentError("no completion is consistent with the observations")
    if res.status == satmod.SAT:
        show(res, 0)
    verdicts: dict[str, int | None] = {}
    for ci, cell in enumerate(cells):
        if ci not in kept:
            verdicts[cell.gate_out] = 0 if cell.t == 1 and seen[ci] else None
            continue
        timed_out = False
        for v in range(cell.t):
            if len(seen[ci]) > 1:
                break
            if v in seen[ci]:
                continue
            res = inst.solve_consistent(inst.k1.value_lits(ci, v), budget)
            if res.status == satmod.TIMEOUT:
                timed_out = True
                break
            if res.status == satmod.SAT:
                show(res, ci)
        if timed_out:
            verdicts[cell.gate_out] = None
        elif not seen[ci]:
            raise OracleInconsistentError(
                f"no candidate of cell {cell.gate_out!r} is consistent with the observations"
            )
        else:
            verdicts[cell.gate_out] = min(seen[ci]) if len(seen[ci]) == 1 else None
    return verdicts


# --------------------------------------------------------------- the loop

def run_attack(camo: CamoCircuit, oracle, cfg: AttackConfig | None = None) -> AttackReport:
    """The complete attack: grow a discriminating set, then read off a completion.

    `oracle` is anything with query(BitSeq) -> BitSeq plus query_count /
    step_count attributes (BlackBox or PipeOracle).  UC is asked only while
    every cell with two or more candidates lies in the outputs' cone of
    influence: outside it, two completions that differ in that cell alone
    are both consistent, so UC is SAT by construction and CE is asked
    alone.  The progress check re-simulates both bounded-search witnesses
    on the new record alone: `find_distinguishing` has just checked them
    against every older one.  A certified attack's completion is the
    witness that survived the last record; only when there is none (no
    record, or neither witness survived) is it solved for
    (`recover_completion`).  When no cell lies in the cone, the attack ends
    UMC at once with one `umc` record and the all-zeros completion, which
    is exact: every completion is then sequentially equivalent, and
    `check_umc` would say the same of the empty query set.
    """
    cfg = cfg or AttackConfig()
    t_start = time.monotonic()
    inst = AttackInstance(camo)
    kept = set(inst.cone[1])
    hidden = [i for i in range(camo.k) if i not in kept]
    ask_uc = all(camo.cells[i].t < 2 for i in hidden)  # else UC is SAT by construction
    iterations: list[IterationRecord] = []
    bound = 0
    termination: str | None = None
    # the bounded-search witness that survived the latest record, if one did;
    # it has been re-simulated against every record of inst.qs
    survivor: Completion | None = None

    def log(check) -> str:
        """Run check() -> (event, status, seq_len), record it, return the status.

        The record's counters are the change in `inst.stats` across the check
        and its wall time spans all of it, encoding and re-simulation included.
        """
        t0, before = time.monotonic(), inst.stats
        event, status, seq_len = check()
        after = inst.stats
        iterations.append(
            IterationRecord(
                bound, event, seq_len, after.conflicts - before.conflicts,
                after.decisions - before.decisions, round(time.monotonic() - t0, 6), status,
            )
        )
        return status

    def grow():
        nonlocal survivor
        found = find_distinguishing(inst, bound, cfg.solver_budget)
        if found is None:
            return "bound", satmod.UNSAT, None
        x1, x2, seq = found
        out = oracle.query(seq)
        if not inst.add_record(seq, out):
            raise EncodingBugError("bounded search returned an already-recorded sequence")
        # progress: the two witnesses disagree on seq, so at most one of
        # them survives the new record; find_distinguishing has re-simulated
        # both against every older one
        alive = [x for x in (x1, x2) if run_sequence(camo, x, seq) == out]
        if len(alive) == 2:
            raise EncodingBugError("neither counterexample completion was eliminated")
        survivor = alive[0] if alive else None
        return "sequence", satmod.SAT, len(seq)

    def umc():
        try:
            return "umc", UMC if check_umc(inst, cfg) else "refuted", None
        except InconclusiveError as exc:
            return "umc", f"inconclusive: {exc}", None

    def sufficient() -> str | None:
        # UC before CE: UC is the stronger verdict and keeps its label
        uc = ask_uc and log(lambda: ("uc", inst.solve_uc(cfg.solver_budget).status, None))
        if uc == satmod.UNSAT:
            return UC
        ce = log(lambda: ("ce", inst.solve_ce(cfg.solver_budget).status, None))
        return CE if ce == satmod.UNSAT else None

    if not kept:
        # no cell reaches an output, so every completion is sequentially
        # equivalent to every other: the empty query set is discriminating
        # (UMC on the cone, which lists one completion for the empty choice)
        log(lambda: ("umc", UMC, None))
        termination = UMC
        survivor = Completion((0,) * camo.k)

    # record counts at which UC/CE and UMC last ran; their verdicts depend
    # only on the query set, so an unchanged set is never asked again
    sufficient_at: int | None = None
    umc_at: int | None = None
    while termination is None:
        if bound + cfg.bmc_inc > cfg.max_bound:
            termination = EXHAUSTED
            break
        bound += cfg.bmc_inc
        try:
            while termination is None and log(grow) == satmod.SAT:
                # UC or CE puts every pair of survivors in lock-step from
                # reset, so the proof that would close this bound cannot
                # change the outcome
                termination = sufficient()
                sufficient_at = len(inst.qs)
        except SolverTimeoutError:
            termination = TIMEOUT_TAG
        if termination is not None:
            break
        if sufficient_at != len(inst.qs):
            termination = sufficient()
            sufficient_at = len(inst.qs)
            if termination is not None:
                break
        if cfg.umc_mode != "skip" and umc_at != len(inst.qs):
            umc_at = len(inst.qs)
            if log(umc) == UMC:
                termination = UMC
        # the bound closed UNSAT, and no shortest distinguisher of two l-flop
        # copies is longer than the product diameter 2^(2l), so a bound that
        # deep certifies, whatever left the unbounded check out: a cap, the
        # solver budget or umc_mode="skip"
        if termination is None and bound >= 1 << (2 * camo.num_flops):
            termination = UMC

    completions: tuple[Completion, ...] = ()
    partial: dict[str, int | None] | None = None
    if termination in (UC, CE, UMC):
        try:
            if survivor is None:
                survivor = recover_completion(inst, cfg.solver_budget)
            completions = (survivor,)
        except SolverTimeoutError:
            termination = TIMEOUT_TAG
    if termination in (EXHAUSTED, TIMEOUT_TAG):
        partial = partial_completion(inst, cfg.solver_budget)

    return AttackReport(
        disc_set=inst.qs,
        completions=completions,
        termination=termination,
        iterations=tuple(iterations),
        query_count=oracle.query_count,
        step_count=oracle.step_count,
        bound_reached=bound,
        wall=round(time.monotonic() - t_start, 6),
        partial=partial,
        unobservable=tuple(camo.cells[i].gate_out for i in hidden),
    )
