"""The benchmark tracer's patch sites, and the one query path it measures.

``perfbench/tracing.py`` wraps program entry points by name; this checks
that every name still resolves and is put back, and that every solver call
of the public attack functions is a query of an `AttackInstance` (the
tracer files any other call under the "oneshot" kind).
"""

import sys

from seqdecam import attack as atk
from seqdecam.encode import AttackInstance, encode_consistency
from seqdecam.netlist import BitSeq, run_sequence
from seqdecam.oracle import BlackBox, QuerySet, record
from seqdecam.sat import SAT, UNSAT

from conftest import ROOT, S27_SECRET

sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402


def _sites():
    for sites in tracing._SPANS.values():
        yield from sites
    for attr in tracing._QUERIES:
        yield AttackInstance, attr


def _lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_resolve_and_every_solver_call_is_an_instance_query(s27_camo):
    before = {(owner, attr): _lookup(owner, attr) for owner, attr in _sites()}
    qs = QuerySet()
    for steps in [(8, 9), (4, 8)]:
        seq = BitSeq(4, steps)
        qs = record(qs, seq, run_sequence(s27_camo, S27_SECRET, seq))
    with tracing.installed(tracing.Tracer()) as tr:
        for (owner, attr), orig in before.items():
            assert _lookup(owner, attr) is not orig, f"{attr} is not patched"
        empty, full = AttackInstance(s27_camo), AttackInstance.from_queries(s27_camo, qs)
        assert atk.find_distinguishing(empty, 2) is not None
        assert full.solve_uc().status == UNSAT
        assert empty.solve_ce().status == SAT
        assert atk.check_umc(empty) is False
        assert atk.check_umc(full)
        assert atk.recover_completion(full) == S27_SECRET
        assert atk.partial_completion(empty) == {"G13": None, "G10": None}
        cfg = atk.AttackConfig(bmc_inc=2, max_bound=16)
        assert atk.run_attack(s27_camo, BlackBox(s27_camo, S27_SECRET), cfg).success
    for (owner, attr), orig in before.items():
        assert _lookup(owner, attr) is orig, f"{attr} was not restored"
    calls = {k: n for k, n in tr.counts.items() if k.startswith("sat.calls.")}
    assert not [k for k in calls if k.startswith("sat.calls.oneshot.")], calls
    for kind in ("bmc", "uc", "ce", "consistent", "enum"):
        assert any(k.startswith(f"sat.calls.{kind}.") for k in calls), (kind, calls)


def test_frame_span_sees_the_bounded_search_ce_and_consistency_frames(s27_camo):
    # each of the three looks up the module-level encode.emit_keyed_frame,
    # so encode.frame times every frame an attack emits
    seq = BitSeq(4, (8, 9))
    out = run_sequence(s27_camo, S27_SECRET, seq)
    with tracing.installed(tracing.Tracer()) as tr:
        inst = AttackInstance(s27_camo)
        inst.ensure_frames(3)  # bounded search: one frame per key vector and step
        assert tr.calls["encode.frame"] == 6
        inst.ce_selector()  # CE: one free frame per key vector
        assert tr.calls["encode.frame"] == 8
        inst.add_record(seq, out)  # consistency: each key vector over each step
        assert tr.calls["encode.frame"] == 12
        encode_consistency(s27_camo, record(QuerySet(), seq, out))
        assert tr.calls["encode.frame"] == 14
