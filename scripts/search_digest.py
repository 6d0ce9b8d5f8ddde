#!/usr/bin/env python3
"""Fingerprint the search a benchmark workload makes: three SHA-256 digests.

    python3 scripts/search_digest.py table344 100

Runs every attack of the workload (``perfbench/workloads.py``) once, in
order, against an in-process black box, and prints

* ``outcome``: one digest over every attack's termination, completions,
  discriminating set, partial completion, query and step counts, bound
  reached, unobservable cells, and each iteration record's bound, event,
  sequence length, conflicts, decisions and status (wall times left out);
* ``clauses``: one digest over the final clause list of every
  `AttackInstance` the attacks build, in the order they are built;
* ``queries``: one digest over every attack's termination, completions,
  discriminating set, and query and step counts (no solver counters).

Two checkouts that print the same digests for a workload and seed made the
same solver calls on the same CNF and reached the same answers.  Two that
print the same ``queries`` digest asked the oracle the same questions and
concluded alike, however differently their solvers searched.  Run from the
root of a checkout.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave the checkout as it was found
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from seqdecam import attack, encode, oracle  # noqa: E402
import workloads  # noqa: E402


def _queries(rep: attack.AttackReport) -> tuple:
    disc = tuple((i.steps, o.steps) for i, o in rep.disc_set)
    return (rep.termination, tuple(x.choices for x in rep.completions), disc,
            rep.query_count, rep.step_count)


def _outcome(rep: attack.AttackReport) -> tuple:
    records = tuple((it.bound, it.event, it.seq_len, it.conflicts, it.decisions, it.status)
                    for it in rep.iterations)
    disc = tuple((i.steps, o.steps) for i, o in rep.disc_set)
    partial = sorted(rep.partial.items()) if rep.partial is not None else None
    return (rep.termination, tuple(x.choices for x in rep.completions), disc, partial,
            rep.query_count, rep.step_count, rep.bound_reached, rep.unobservable, records)


def digests(workload: str, seed: int) -> tuple[str, str, str]:
    """(outcome, clause, queries) digests of one pass over the workload."""
    instances: list[encode.AttackInstance] = []

    class Recorded(encode.AttackInstance):
        def __init__(self, camo):
            super().__init__(camo)
            instances.append(self)

    outcome, clauses, queries = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    attack.AttackInstance = Recorded  # the name run_attack builds its instance by
    try:
        for a in workloads.build(workload, seed, ROOT):
            rep = attack.run_attack(a.camo, oracle.BlackBox(a.camo, a.secret), a.cfg)
            outcome.update(repr((a.label, _outcome(rep))).encode())
            queries.update(repr((a.label, _queries(rep))).encode())
            for inst in instances:
                clauses.update(repr((a.label, inst.bld.num_vars, inst.bld.clauses)).encode())
            instances.clear()
    finally:
        attack.AttackInstance = encode.AttackInstance
    return outcome.hexdigest(), clauses.hexdigest(), queries.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in workloads.WORKLOADS or not argv[1].lstrip("-").isdigit():
        print(f"usage: search_digest.py WORKLOAD SEED  (WORKLOAD: {', '.join(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    outcome, clauses, queries = digests(argv[0], int(argv[1]))
    print(f"outcome {outcome}")
    print(f"clauses {clauses}")
    print(f"queries {queries}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
