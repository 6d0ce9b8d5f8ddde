"""The iterative decamouflaging attack and its reference procedures.

The main loop grows a set of input sequences: a bounded search finds two
completions that agree with everything observed so far yet disagree within
the current bound, the oracle arbitrates, and the loser is eliminated.
After every new record the two sufficient conditions are asked: unique
completion (UC), then combinational equivalence (CE); either one ends the
attack.  When no bounded distinguisher remains and neither holds, an
unbounded check (UMC) runs before the bound grows: it lists the surviving
completions in one resumed SAT search and checks each one for sequential
equivalence with the first, in lock-step over the states the first reaches
from reset and by explicit product-machine reachability for any survivor
that leaves lock-step.  Small-instance ground truth comes from an exhaustive
pairwise-equivalence procedure over the whole completion space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import sat as satmod
from .encode import AttackInstance
# perfbench/tracing.py patches these four names here, so they stay importable
from .encode import encode_bmc_disagreement, encode_ce, encode_consistency, encode_uc  # noqa: F401
from .netlist import BitSeq, CamoCircuit, Completion, Evaluator, run_sequence
from .oracle import QuerySet, record
from .sat import SolverTimeoutError

UC, CE, UMC = "UC", "CE", "UMC"
EXHAUSTED, TIMEOUT_TAG = "EXHAUSTED", "TIMEOUT"


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
    umc_mode: str = "explicit"  # explicit | bmc | skip
    umc_enum_cap: int = 4096
    product_state_cap: int = 1 << 26
    product_expand_cap: int = 1 << 26
    enumerate_all: bool = False

    def __post_init__(self):
        if self.bmc_inc < 1:
            raise ValueError("bmc_inc must be >= 1")
        if self.max_bound < self.bmc_inc:
            raise ValueError("max_bound must be >= bmc_inc")
        if self.umc_mode not in ("explicit", "bmc", "skip"):
            raise ValueError(f"unknown umc_mode {self.umc_mode!r}")


@dataclass(frozen=True)
class IterationRecord:
    bound: int
    event: str  # sequence | bound | uc | ce | umc
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
    return all(run_sequence(camo, x, seq) == out for seq, out in qs)


# ------------------------------------------------------- bounded search

def find_distinguishing(
    camo: CamoCircuit,
    qs: QuerySet,
    bound: int,
    budget: float | None = None,
    stats: satmod.SolveStats | None = None,
    instance: AttackInstance | None = None,
) -> tuple[Completion, Completion, BitSeq] | None:
    """Two qs-consistent completions plus an input sequence they disagree on.

    Returns None when no two consistent completions can be told apart by any
    sequence of length <= bound.  The returned sequence is truncated at its
    first disagreeing step and re-simulated as a self-check.  `instance`,
    when given, must hold the records of qs; `stats`, when given,
    accumulates the counters of the solver call.
    """
    inst = instance or AttackInstance.from_queries(camo, qs)
    res = inst.solve_bmc(bound, budget)
    if stats is not None:
        stats.add(res.stats)
    if res.status == satmod.TIMEOUT:
        raise SolverTimeoutError(f"bounded search at b={bound} exceeded its budget")
    if res.status == satmod.UNSAT:
        return None
    return _check_triple(camo, qs, *inst.decode_bmc(res, bound))


def _check_triple(
    camo: CamoCircuit, qs: QuerySet, x1: Completion, x2: Completion, seq: BitSeq
) -> tuple[Completion, Completion, BitSeq]:
    """Truncate at the first disagreeing step and verify the model's claims."""
    o1 = run_sequence(camo, x1, seq)
    o2 = run_sequence(camo, x2, seq)
    cut = next((i for i, (a, b) in enumerate(zip(o1.steps, o2.steps)) if a != b), None)
    if cut is None:
        raise EncodingBugError("solver model decodes to completions that do not disagree")
    if not consistent(camo, x1, qs) or not consistent(camo, x2, qs):
        raise EncodingBugError("solver model decodes to a completion inconsistent with records")
    return x1, x2, seq.prefix(cut + 1)


# ---------------------------------------------------- termination checks

def check_uc(camo: CamoCircuit, qs: QuerySet, budget: float | None = None,
             instance: AttackInstance | None = None) -> bool:
    """True iff exactly one completion is consistent with qs (timeout: False)."""
    inst = instance or AttackInstance.from_queries(camo, qs)
    return inst.solve_uc(budget).status == satmod.UNSAT


def check_ce(camo: CamoCircuit, qs: QuerySet, budget: float | None = None,
             instance: AttackInstance | None = None) -> bool:
    """True iff all qs-consistent completions are combinationally identical.

    Sound for termination (implies qs is discriminating) but conservative:
    disagreement confined to unreachable states still returns False.
    """
    inst = instance or AttackInstance.from_queries(camo, qs)
    return inst.solve_ce(budget).status == satmod.UNSAT


# --------------------------------------------- explicit product machine

@dataclass(frozen=True)
class ProductState:
    """Joint state of the two circuit copies during product exploration."""

    s1: int
    s2: int

    def pack(self, num_flops: int) -> int:
        return (self.s1 << num_flops) | self.s2

    @staticmethod
    def unpack(key: int, num_flops: int) -> "ProductState":
        return ProductState(key >> num_flops, key & ((1 << num_flops) - 1))


def product_reachable_pairs(
    camo: CamoCircuit,
    x1: Completion,
    x2: Completion,
    state_cap: int = 1 << 26,
    expand_cap: int = 1 << 26,
) -> list[ProductState]:
    """All joint states reachable from (reset, reset) under shared inputs.

    Only defined when the pair is equivalent (exploration stops early at the
    first observable mismatch otherwise).
    """
    witness, packed = _product_bfs(camo, x1, x2, state_cap, expand_cap)
    if witness is not None:
        raise ValueError("completions are inequivalent; the reach set is partial")
    l = camo.num_flops
    return [ProductState.unpack(key, l) for key in packed]


def product_equiv(
    camo: CamoCircuit,
    x1: Completion,
    x2: Completion,
    state_cap: int = 1 << 26,
    expand_cap: int = 1 << 26,
) -> BitSeq | None:
    """Sequential equivalence of two completions from reset.

    Breadth-first reachability over joint state pairs, expanding every input
    per state; returns None when equivalent, and the shortest disagreeing
    input sequence otherwise.  Raises ProductCapError when the state or
    expansion caps are hit.
    """
    if x1 == x2:
        return None
    return _product_bfs(camo, x1, x2, state_cap, expand_cap)[0]


def _product_bfs(
    camo: CamoCircuit,
    x1: Completion,
    x2: Completion,
    state_cap: int,
    expand_cap: int,
) -> tuple[BitSeq | None, list[int]]:
    m, l = camo.num_inputs, camo.num_flops
    p = 1 << m
    if p > expand_cap:
        raise ProductCapError(f"2^{m} inputs per state exceeds the expansion cap")
    ev1 = Evaluator(camo, x1)
    ev2 = Evaluator(camo, x2)
    s0 = camo.reset_state
    start = (s0 << l) | s0 if l else 0
    visited = {start: 0}
    states: list[int] = [start]
    parent = [-1]
    via = [0]
    frontier = [0]
    expansions = 0
    chunk_states = max(1, (1 << 17) // p)
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
                return witness(chunk[j // p], j % p), states
            keys = _pair_keys(n1, n2, w, l)
            uniq, first = np.unique(keys, return_index=True)
            for key, j in zip(uniq.tolist(), first.tolist()):
                if key not in visited:
                    visited[key] = len(states)
                    states.append(key)
                    parent.append(chunk[j // p])
                    via.append(j % p)
                    nxt_frontier.append(len(states) - 1)
                    if len(states) > state_cap:
                        raise ProductCapError(f"product state cap {state_cap} exceeded")
        frontier = nxt_frontier
    return None, states


def _input_pattern(bit: int, m: int) -> int:
    """Bit mask over the 2^m input enumeration where input wire `bit` is 1."""
    p = 1 << m
    pat = 0
    for v in range(p):
        if (v >> bit) & 1:
            pat |= 1 << v
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


def _bits_array(x: int, width: int) -> np.ndarray:
    raw = np.frombuffer(x.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width]


def _scenario_keys(wires: Sequence[int], width: int) -> np.ndarray:
    """Per-scenario integer whose bit i is the value of wires[i] (at most 64 wires)."""
    keys = np.zeros(width, dtype=np.uint64)
    for i, wire in enumerate(wires):
        keys |= _bits_array(wire, width).astype(np.uint64) << np.uint64(i)
    return keys


def _pair_keys(n1: Sequence[int], n2: Sequence[int], width: int, l: int) -> np.ndarray:
    """Per-scenario (s1 << l) | s2 keys for the joint next state."""
    if 2 * l > 63:
        raise ProductCapError("more than 31 flip-flops per copy; explicit product disabled")
    return _scenario_keys([*n2, *n1], width)


def _first_inequivalent(
    camo: CamoCircuit, comps: Sequence[Completion], state_cap: int, expand_cap: int
) -> BitSeq | None:
    """A sequence on which some completion disagrees with comps[0] from reset,
    or None when every completion is sequentially equivalent to it.

    Equivalence is transitive, so each completion is checked against the
    reference comps[0] alone.  One breadth-first search walks the states the
    reference reaches from reset and evaluates every completion still in
    lock-step on the same (state, input) scenarios.  A completion that
    matches the reference's outputs and next states on all of them visits
    exactly the reference's states, so it is equivalent; one that leaves
    lock-step gets the exact product search of `product_equiv` at once.
    Raises ProductCapError at the caps.
    """
    if len(comps) < 2:
        return None
    m, l = camo.num_inputs, camo.num_flops
    p = 1 << m
    if p > expand_cap:
        raise ProductCapError(f"2^{m} inputs per state exceeds the expansion cap")
    if l > 64:
        raise ProductCapError("more than 64 flip-flops; explicit reachability disabled")
    ref = comps[0]
    ev_ref = Evaluator(camo, ref)
    lockstep = [(x, Evaluator(camo, x)) for x in comps[1:]]
    visited = {camo.reset_state}
    frontier = [camo.reset_state]
    expansions = 0
    chunk_states = max(1, (1 << 17) // p)
    input_patterns = [_input_pattern(i, m) for i in range(m)]
    while frontier:
        nxt_frontier: list[int] = []
        for c0 in range(0, len(frontier), chunk_states):
            chunk = frontier[c0 : c0 + chunk_states]
            w = len(chunk) * p
            expansions += w
            if expansions > expand_cap:
                raise ProductCapError(f"product expansion cap {expand_cap} exceeded")
            ins, st = _pack_chunk(chunk, l, input_patterns)
            want = ev_ref.eval(st, ins, w)
            still = []
            for x, ev in lockstep:
                if ev.eval(st, ins, w) == want:
                    still.append((x, ev))
                    continue
                witness = product_equiv(camo, ref, x, state_cap, expand_cap)
                if witness is not None:
                    return witness
            lockstep = still
            if not lockstep:
                return None
            for key in np.unique(_scenario_keys(want[1], w)).tolist():
                if key not in visited:
                    visited.add(key)
                    nxt_frontier.append(key)
                    if len(visited) > state_cap:
                        raise ProductCapError(f"product state cap {state_cap} exceeded")
        frontier = nxt_frontier
    return None


# -------------------------------------------------------- unbounded check

def check_umc(
    camo: CamoCircuit,
    qs: QuerySet,
    cfg: AttackConfig | None = None,
    instance: AttackInstance | None = None,
    stats: satmod.SolveStats | None = None,
) -> bool:
    """True iff qs is discriminating; raises InconclusiveError at the caps.

    Explicit mode lists the consistent completions in one resumed SAT
    search (see `AttackInstance.enumerate_consistent`) and checks each one
    for sequential equivalence with the first (see `_first_inequivalent`).
    When an enumeration or product cap is hit, or a solver call times out,
    it degrades to bounded search at the product-diameter bound 2^(2l); that
    search runs only when max_bound reaches the diameter, since a shallower
    one cannot certify.  Inconclusive outcomes name every reason.  Every
    solver call is a query of `instance`, which must hold the records of qs
    (the attack passes its own; one is built from qs when none is given), so
    the fallback search adds its frames there rather than building a second
    CNF.  `stats`, when given, accumulates the counters of those calls.
    """
    cfg = cfg or AttackConfig()
    if cfg.umc_mode == "skip":
        raise InconclusiveError("unbounded check disabled (umc_mode=skip)")
    inst = instance or AttackInstance.from_queries(camo, qs)
    if cfg.umc_mode == "explicit":
        try:
            return _umc_explicit(camo, qs, cfg, inst, stats)
        except InconclusiveError as exc:
            try:  # degrade to bounded search at the diameter
                return _umc_bmc(camo, qs, cfg, inst, stats)
            except InconclusiveError as fallback:
                raise InconclusiveError(f"{exc}; {fallback}") from fallback
    return _umc_bmc(camo, qs, cfg, inst, stats)


def _umc_explicit(
    camo: CamoCircuit,
    qs: QuerySet,
    cfg: AttackConfig,
    instance: AttackInstance,
    stats: satmod.SolveStats | None,
) -> bool:
    comps = _enumerate_consistent(camo, qs, cfg, instance, stats)
    if not comps:
        raise OracleInconsistentError("no completion is consistent with the observations")
    return _first_inequivalent(
        camo, comps, cfg.product_state_cap, cfg.product_expand_cap
    ) is None


def _enumerate_consistent(
    camo: CamoCircuit,
    qs: QuerySet,
    cfg: AttackConfig,
    instance: AttackInstance | None,
    stats: satmod.SolveStats | None,
) -> list[Completion]:
    inst = instance or AttackInstance.from_queries(camo, qs)
    try:
        comps = inst.enumerate_consistent(cfg.umc_enum_cap, cfg.solver_budget, stats)
    except SolverTimeoutError as exc:
        raise InconclusiveError(str(exc)) from exc
    if comps is None:
        raise InconclusiveError(f"more than {cfg.umc_enum_cap} consistent completions")
    return comps


def _umc_bmc(
    camo: CamoCircuit,
    qs: QuerySet,
    cfg: AttackConfig,
    instance: AttackInstance,
    stats: satmod.SolveStats | None,
) -> bool:
    # no shortest distinguisher of two l-flop copies is longer than the
    # product diameter 2^(2l), so only a search that deep can certify
    diameter = 1 << (2 * camo.num_flops)
    if diameter > cfg.max_bound:
        raise InconclusiveError(
            f"bounded search cannot certify: max_bound {cfg.max_bound} is below "
            f"the product diameter {diameter}"
        )
    try:
        found = find_distinguishing(camo, qs, diameter, cfg.solver_budget, stats, instance)
    except SolverTimeoutError as exc:
        raise InconclusiveError(str(exc)) from exc
    return found is None


def brute_force_disc(
    camo: CamoCircuit,
    qs: QuerySet,
    completion_cap: int = 4096,
    state_cap: int = 1 << 26,
    expand_cap: int = 1 << 26,
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
    # plain pairwise on purpose: the independent reference for _first_inequivalent
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if product_equiv(camo, comps[i], comps[j], state_cap, expand_cap) is not None:
                return False
    return True


# ------------------------------------------------------------- completion

def recover_completion(
    camo: CamoCircuit,
    qs: QuerySet,
    budget: float | None = None,
    instance: AttackInstance | None = None,
) -> Completion:
    """Any completion consistent with qs (correct whenever qs is discriminating)."""
    inst = instance or AttackInstance.from_queries(camo, qs)
    res = inst.solve_consistent(budget=budget)
    if res.status == satmod.UNSAT:
        raise OracleInconsistentError(
            "no completion reproduces the observed behavior; the black box does not "
            "match the netlist (or the encoding is broken)"
        )
    if res.status == satmod.TIMEOUT:
        raise SolverTimeoutError("completion recovery exceeded its budget")
    x = inst.k1.decode(res)
    if not consistent(camo, x, qs):
        raise EncodingBugError("recovered completion fails re-simulation")
    return x


def partial_completion(
    camo: CamoCircuit,
    qs: QuerySet,
    budget: float | None = None,
    instance: AttackInstance | None = None,
) -> dict[str, int | None]:
    """Per-gate verdicts: candidate index if every consistent completion
    agrees on that cell, None when the cell is still ambiguous (or a
    sub-query timed out)."""
    inst = instance or AttackInstance.from_queries(camo, qs)
    verdicts: dict[str, int | None] = {}
    for ci, cell in enumerate(camo.cells):
        feasible: list[int] = []
        timed_out = False
        for v in range(cell.t):
            status = inst.solve_consistent(inst.k1.value_lits(ci, v), budget).status
            if status == satmod.TIMEOUT:
                timed_out = True
                break
            if status == satmod.SAT:
                feasible.append(v)
                if len(feasible) > 1:
                    break
        if timed_out:
            verdicts[cell.gate_out] = None
        elif not feasible:
            raise OracleInconsistentError(
                f"no candidate of cell {cell.gate_out!r} is consistent with the observations"
            )
        else:
            verdicts[cell.gate_out] = feasible[0] if len(feasible) == 1 else None
    return verdicts


# --------------------------------------------------------------- the loop

def run_attack(camo: CamoCircuit, oracle, cfg: AttackConfig | None = None) -> AttackReport:
    """The complete attack: grow a discriminating set, then read off a completion.

    `oracle` is anything with query(BitSeq) -> BitSeq plus query_count /
    step_count attributes (BlackBox or PipeOracle).
    """
    cfg = cfg or AttackConfig()
    t_start = time.monotonic()
    inst = AttackInstance(camo)
    qs = QuerySet()
    iterations: list[IterationRecord] = []
    bound = 0
    termination: str | None = None

    def log(event: str, res: "satmod.SolveResult", seq_len: int | None = None) -> None:
        iterations.append(
            IterationRecord(
                bound, event, seq_len, res.stats.conflicts, res.stats.decisions,
                round(res.stats.wall_time, 6), res.status,
            )
        )

    def sufficient() -> str | None:
        # UC before CE: UC is the stronger verdict and keeps its label
        res = inst.solve_uc(cfg.solver_budget)
        log("uc", res)
        if res.status == satmod.UNSAT:
            return UC
        res = inst.solve_ce(cfg.solver_budget)
        log("ce", res)
        return CE if res.status == satmod.UNSAT else None

    # record counts at which UC/CE and UMC last ran; their verdicts depend
    # only on the query set, so an unchanged set is never asked again
    sufficient_at: int | None = None
    umc_at: int | None = None
    while termination is None:
        if bound + cfg.bmc_inc > cfg.max_bound:
            termination = EXHAUSTED
            break
        bound += cfg.bmc_inc
        while True:
            res = inst.solve_bmc(bound, cfg.solver_budget)
            if res.status == satmod.TIMEOUT:
                termination = TIMEOUT_TAG
                break
            if res.status == satmod.UNSAT:
                log("bound", res)
                break
            x1, x2, raw = inst.decode_bmc(res, bound)
            x1, x2, seq = _check_triple(camo, qs, x1, x2, raw)
            out = oracle.query(seq)
            grown = record(qs, seq, out)
            if len(grown) == len(qs):
                raise EncodingBugError("bounded search returned an already-recorded sequence")
            qs = grown
            # progress: the two witnesses disagree on seq, so at most one of
            # them survives the new record
            if consistent(camo, x1, qs) and consistent(camo, x2, qs):
                raise EncodingBugError("neither counterexample completion was eliminated")
            inst.add_record(seq, out)
            log("sequence", res, len(seq))
            # UC or CE puts every pair of survivors in lock-step from reset,
            # so the proof that would close this bound cannot change the outcome
            termination = sufficient()
            sufficient_at = len(qs)
            if termination is not None:
                break
        if termination is not None:
            break
        if sufficient_at != len(qs):
            termination = sufficient()
            sufficient_at = len(qs)
            if termination is not None:
                break
        if cfg.umc_mode != "skip" and umc_at != len(qs):
            umc_at = len(qs)
            t0 = time.monotonic()
            used = satmod.SolveStats()
            try:
                status = UMC if check_umc(camo, qs, cfg, inst, used) else "refuted"
            except InconclusiveError as exc:
                status = f"inconclusive: {exc}"
            iterations.append(
                IterationRecord(
                    bound, "umc", None, used.conflicts, used.decisions,
                    round(time.monotonic() - t0, 6), status,
                )
            )
            if status == UMC:
                termination = UMC
                break

    completions: tuple[Completion, ...] = ()
    partial: dict[str, int | None] | None = None
    if termination in (UC, CE, UMC):
        try:
            x = recover_completion(camo, qs, cfg.solver_budget, inst)
        except SolverTimeoutError:
            termination = TIMEOUT_TAG
        else:
            completions = (x,)
            if cfg.enumerate_all:
                try:
                    allc = inst.enumerate_consistent(cfg.umc_enum_cap, cfg.solver_budget)
                    # with a discriminating set every survivor is correct, so
                    # they must all be mutually equivalent
                    w = None if allc is None else _first_inequivalent(
                        camo, allc, cfg.product_state_cap, cfg.product_expand_cap
                    )
                except (SolverTimeoutError, ProductCapError):
                    allc = None  # a budget or a product cap: keep the one verified completion
                if allc is not None:
                    if w is not None:
                        raise EncodingBugError(
                            "termination check accepted a non-discriminating set: "
                            f"completions differ on {w.to_strings()}"
                        )
                    completions = tuple(allc)
    if termination in (EXHAUSTED, TIMEOUT_TAG):
        partial = partial_completion(camo, qs, cfg.solver_budget, instance=inst)

    return AttackReport(
        disc_set=qs,
        completions=completions,
        termination=termination,
        iterations=tuple(iterations),
        query_count=oracle.query_count,
        step_count=oracle.step_count,
        bound_reached=bound,
        wall=round(time.monotonic() - t_start, 6),
        partial=partial,
    )
