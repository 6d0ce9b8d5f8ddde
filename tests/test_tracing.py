"""The benchmark tracer's patch sites, and the one query path it measures.

``perfbench/tracing.py`` wraps program entry points by name; this checks
that every name still resolves and is put back, and that every solver call
of the public attack functions is a query of an `AttackInstance` (the
tracer files any other call under the "oneshot" kind).
"""

import sys

from seqdecam import attack as atk
from seqdecam.encode import AttackInstance
from seqdecam.netlist import BitSeq, run_sequence
from seqdecam.oracle import BlackBox, QuerySet, record

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
        assert atk.find_distinguishing(s27_camo, QuerySet(), 2) is not None
        assert atk.check_uc(s27_camo, qs) is True
        assert atk.check_ce(s27_camo, QuerySet()) is False
        assert atk.check_umc(s27_camo, QuerySet()) is False
        assert atk.check_umc(s27_camo, qs, atk.AttackConfig(umc_mode="bmc", max_bound=64))
        assert atk.recover_completion(s27_camo, qs) == S27_SECRET
        assert atk.partial_completion(s27_camo, QuerySet()) == {"G13": None, "G10": None}
        cfg = atk.AttackConfig(bmc_inc=2, max_bound=16)
        assert atk.run_attack(s27_camo, BlackBox(s27_camo, S27_SECRET), cfg).success
    for (owner, attr), orig in before.items():
        assert _lookup(owner, attr) is orig, f"{attr} was not restored"
    calls = {k: n for k, n in tr.counts.items() if k.startswith("sat.calls.")}
    assert not [k for k in calls if k.startswith("sat.calls.oneshot.")], calls
    for kind in ("bmc", "uc", "ce", "consistent", "enum"):
        assert any(k.startswith(f"sat.calls.{kind}.") for k in calls), (kind, calls)
