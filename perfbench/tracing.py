"""Spans and counters around the public entry points of each layer.

Tracing is installed from outside the program: :func:`installed` replaces
the attribute a caller looks up (a module global such as
``encode.emit_keyed_frame`` or a class attribute such as
``sat.Cdcl.solve``) with a wrapper that opens a span, and puts the original
back on exit.  Nothing under ``src/`` knows about it.

A span is (name, start, end, parent).  Spans are kept in memory; the first
``LOG_CAP`` of them are kept verbatim for :meth:`Tracer.write`, and every
span, logged or not, is folded into per-name call counts and self time (its
duration minus the part its child spans cover) as it closes.  Spans are
timed on the tracer's clock; the benchmark gives it one that stops while a
host-speed probe runs (see ``pace.py``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from seqdecam import attack, cnf, encode, gen, netlist, oracle, sat

KINDS = ("bmc", "uc", "ce", "consistent", "enum", "oneshot")
STATUSES = ("SAT", "UNSAT")
ROOT = "attack.run"

# span name -> the (module or class, attribute) pairs callers look it up by
_SPANS = {
    "netlist.parse": [(netlist, "parse_bench"), (gen, "parse_bench")],
    "netlist.resim": [(attack, "run_sequence")],
    "netlist.eval": [(netlist.Evaluator, "eval")],
    "oracle.query": [(oracle.BlackBox, "query")],
    "encode.frame": [(encode, "emit_keyed_frame")],
    "encode.record": [(encode.AttackInstance, "add_record")],
    "encode.oneshot": [
        (attack, "encode_bmc_disagreement"),
        (attack, "encode_uc"),
        (attack, "encode_ce"),
        (attack, "encode_consistency"),
    ],
    "sat.sync": [(encode.AttackInstance, "_sync")],
    "sat.load": [(sat.SatContext, "__init__")],
    "sat.check": [(sat.SatContext, "solve")],
    "sat.search": [(sat.Cdcl, "solve")],
    "attack.consistent": [(attack, "consistent")],
    "attack.product": [(attack, "product_equiv")],
    "attack.umc": [(attack, "check_umc")],
    "attack.partial": [(attack, "partial_completion")],
    "cnf.build": [(cnf.CnfBuilder, "build")],
    "encode.instance": [(encode.AttackInstance, "__init__")],
}

# AttackInstance query methods -> (kind their solver calls are filed under,
# span name); solver calls outside them (stateless encode_* paths) are "oneshot"
_QUERIES = {
    "solve_bmc": ("bmc", "encode.query"),
    "solve_uc": ("uc", "encode.query"),
    "solve_ce": ("ce", "encode.query"),
    "solve_consistent": ("consistent", "encode.query"),
    "enumerate_consistent": ("enum", "encode.enum"),
}

SPAN_NAMES = (ROOT, *_SPANS, "encode.query", "encode.enum")


LOG_CAP = 50_000  # spans kept verbatim for the span file


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.dropped = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.kinds: list[str] = []
        self.instances: list = []
        self._stack: list[list] = []  # [name, start, child seconds, log index or -1]

    def begin(self, name: str) -> None:
        idx = -1
        if len(self.spans) < LOG_CAP:
            idx = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))  # times filled in by end()
        else:
            self.dropped += 1
        self._stack.append([name, self.clock(), 0.0, idx])

    def end(self) -> float:
        name, start, child, idx = self._stack.pop()
        stop = self.clock()
        dur = stop - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx] = (name, start, stop, self.spans[idx][3])
        return dur

    def reset(self) -> None:
        """Forget the per-pass totals; the span log is kept."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.seconds.clear()

    def attack_done(self) -> None:
        """Read CNF sizes off the builders of the attack that just ended."""
        for inst in self.instances:
            self.counts["cnf.vars"] += inst.bld.num_vars
            self.counts["cnf.clauses"] += len(inst.bld.clauses)
        self.instances.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, stop, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": stop,
                                     "parent": parent}) + "\n")


def _span(tr: Tracer, name: str, fn, before=None, after=None):
    """Wrap `fn` in a span; `after(result, seconds, args, kwargs, before(args))`
    turns the call into counters."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        state = before(args) if before is not None else None
        tr.begin(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            dur = tr.end()
        if after is not None:
            after(res, dur, args, kwargs, state)
        return res

    return wrapped


def _query(tr: Tracer, kind: str, name: str, fn):
    """Wrap an AttackInstance query method: its solver calls are of `kind`."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tr.kinds.append(kind)
        tr.begin(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            tr.end()
            tr.kinds.pop()
        if kind == "enum":
            tr.counts["encode.enum_capped"] += res is None
        return res

    return wrapped


def _hooks(tr: Tracer) -> dict:
    """span name -> (before, after) pair turning its calls into counters."""
    c = tr.counts

    def eval_after(res, dur, args, kwargs, _):
        c["netlist.eval_scenarios"] += kwargs["width"] if "width" in kwargs else args[3]

    def query_after(res, dur, args, kwargs, _):
        c["oracle.steps"] += len(args[1])

    def check_after(res, dur, args, kwargs, _):
        key = f"{tr.kinds[-1] if tr.kinds else 'oneshot'}.{res.status}"
        c[f"sat.calls.{key}"] += 1
        tr.seconds[f"sat.solve_s.{key}"] += dur
        c[f"sat.conflicts.{key}"] += res.stats.conflicts
        c["sat.conflicts"] += res.stats.conflicts
        c["sat.decisions"] += res.stats.decisions
        c["sat.propagations"] += res.stats.propagations

    def sync_after(res, dur, args, kwargs, emitted_before):
        c["sat.sync_clauses"] += args[0]._emitted_clauses - emitted_before

    def umc_after(res, dur, args, kwargs, _):
        c["attack.umc_true"] += bool(res)

    # one-shot builders report their size when built; the incremental
    # AttackInstance builder is read when its attack ends
    def build_after(res, dur, args, kwargs, _):
        c["cnf.vars"] += res.num_vars
        c["cnf.clauses"] += len(res.clauses)

    def instance_after(res, dur, args, kwargs, _):
        tr.instances.append(args[0])

    return {
        "netlist.eval": (None, eval_after),
        "oracle.query": (None, query_after),
        "sat.check": (None, check_after),
        "sat.sync": (lambda args: args[0]._emitted_clauses, sync_after),
        "attack.umc": (None, umc_after),
        "cnf.build": (None, build_after),
        "encode.instance": (None, instance_after),
    }


@contextmanager
def installed(tr: Tracer):
    """Patch every traced entry point for the duration of the block."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapped_of):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, wrapped_of(orig))

    hooks = _hooks(tr)
    try:
        for name, sites in _SPANS.items():
            for owner, attr in sites:
                patch(owner, attr, lambda f, n=name: _span(tr, n, f, *hooks.get(n, (None, None))))
        for attr, (kind, name) in _QUERIES.items():
            patch(encode.AttackInstance, attr, lambda f, k=kind, n=name: _query(tr, k, n, f))
        yield tr
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

