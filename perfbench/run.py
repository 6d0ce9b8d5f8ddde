#!/usr/bin/env python3
"""Attack benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload table344 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  After setting up the workload's attack
list from ``--seed`` it runs the list again and again, one attack at a time
in one process (a closed loop with one client), starting passes until
``--seconds`` have gone by.  With ``--trace 0`` it reports the end-to-end
metrics of untraced passes.  With ``--trace 1`` it alternates untraced and
traced passes and reports per-layer self times and counters from the
traced ones, the share of attack time the spans cover, and the tracing
overhead (traced over untraced pass time).

Every time is scaled to a fixed host speed by the probes of ``pace.py``:
the machine's own speed drifts by up to 1.9x, more than any bound the
benchmark could hold on raw wall time.  Per attack the benchmark reports
its fastest scaled time over the run's passes, since what the probes miss
only ever slows an attack down.

Outside the timed region every attack of the first pass is checked
independently against its secret, and every later pass must repeat the
first pass's outcomes exactly.  A traced run also compares its
deterministic counters with those of an earlier traced run of the same
sources and seed, kept under ``.perfbench/`` in the checkout.

Every metric is printed as ``name = value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when any attack failed or a check disagreed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
CHECK_STATE_CAP = 1 << 16
CHECK_EXPAND_CAP = 1 << 22


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "seqdecam" / "__init__.py").is_file():
        print(f"error: no src/seqdecam under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.dont_write_bytecode = True  # leave the checkout as it was found
    sys.path.insert(0, str(ROOT / "src"))
    import pace
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    attacks = workloads.build(args.workload, args.seed, ROOT)
    gc.collect()
    gc.freeze()  # set-up objects stay out of the collections timed below

    bench = Bench(attacks, tracing, pace.Pacer())
    if args.trace:
        pacer = bench.pacer
        tr = tracing.Tracer(pacer.clock)
        with tracing.installed(tr), pacer.running():  # the set-up again, for netlist.parse
            start = pacer.clock()
            workloads.build(args.workload, args.seed, ROOT)
            end = pacer.clock()
        scale = pacer.scaled(start, end) / (end - start)
        parse = (tr.self_s["netlist.parse"] * scale, tr.calls["netlist.parse"])
        tr.reset()
        bench.measure(args.seconds, tr)
        metrics = bench.layer_metrics(*parse)
    else:
        # set-up is timed in fresh interpreters, twice before the passes and
        # once after each of the first three, so its samples spread over the
        # run like the passes do
        setups = [setup_once(args.workload, args.seed) for _ in range(2)]

        def more_setups():
            if len(setups) < SETUP_SAMPLES:
                setups.append(setup_once(args.workload, args.seed))

        bench.measure(args.seconds, None, between=more_setups)
        metrics = bench.end_to_end(statistics.median(setups))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    bench.check()

    problems = list(bench.problems)
    if args.trace:
        problems += compare_counters(bench.counters, args.workload, args.seed)
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        tr.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
    problems += names_match_benchmark_json(metrics, args.trace)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    n, failed = len(bench.attacks), len(bench.failed)
    print(f"# attacks per pass = {n}, passes = {len(bench.untraced_s[0])} untraced, "
          f"{len(bench.traced_s[0])} traced")
    print(f"# certified_frac = {bench.certified / n:.6g} ratio")
    print(f"# fail_frac = {failed / n:.6g} ratio")
    print(f"# unchecked (product-check cap hit) = {bench.unchecked} count")
    if args.trace:
        print(f"# spans logged = {len(tr.spans)}, not logged = {tr.dropped}")
    print("# env " + json.dumps(environment()))
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    ok = not failed and not problems
    print(json.dumps({
        "correct": ok,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


class Bench:
    """Runs passes over one attack list and keeps what the metrics need."""

    def __init__(self, attacks, tracing_mod, pacer):
        from seqdecam import attack, netlist, oracle

        self.attacks = attacks
        self._attack = attack
        self._netlist = netlist
        self._oracle = oracle
        self._tracing = tracing_mod
        self.pacer = pacer
        # per attack, its scaled time in every untraced / traced pass
        self.untraced_s: list[list[float]] = [[] for _ in attacks]
        self.traced_s: list[list[float]] = [[] for _ in attacks]
        self.first: list = []  # report (or exception) per attack, first pass
        self.failed: dict[int, str] = {}
        self.problems: list[str] = []
        self.layer_passes: list[dict] = []
        self.counters: dict[str, int] = {}
        self.certified = 0
        self.unchecked = 0

    # ---------------------------------------------------------- measuring

    def measure(self, seconds: float, tr, between=None) -> None:
        """Run passes until `seconds` of them have gone by; `between()` runs
        after each pass, off the clock."""
        spent = 0.0
        traced = False
        while True:
            t0 = time.perf_counter()
            outcomes = self._pass(tr if traced else None)
            spent += time.perf_counter() - t0
            if not self.first:
                self.first = outcomes
            else:
                self._same_as_first(outcomes)
            if between is not None:
                between()
            if spent >= seconds and (
                tr is None or self.traced_s[0]
            ):
                break
            traced = tr is not None and not traced

    def _pass(self, tr) -> list:
        attack, oracle, pacer = self._attack, self._oracle, self.pacer
        gc.collect()
        outcomes = []
        spans = []  # (start, end) of each attack on the pacer's clock
        with self._tracing.installed(tr) if tr is not None else nullcontext(), pacer.running():
            for a in self.attacks:
                box = oracle.BlackBox(a.camo, a.secret)
                if tr is not None:
                    tr.begin(self._tracing.ROOT)
                t0 = pacer.clock()
                try:
                    rep = attack.run_attack(a.camo, box, a.cfg)
                except Exception as exc:  # counted and reported, the pass goes on
                    rep = exc
                spans.append((t0, pacer.clock()))
                if tr is not None:
                    tr.end()
                    tr.attack_done()
                outcomes.append(rep)
        for per_attack, span in zip(self.traced_s if tr else self.untraced_s, spans):
            per_attack.append(pacer.scaled(*span))
        if tr is not None:
            start, end = spans[0][0], spans[-1][1]
            self._take_layers(tr, pacer.scaled(start, end) / (end - start))
        return outcomes

    def _same_as_first(self, outcomes: list) -> None:
        for i, (a, b) in enumerate(zip(self.first, outcomes)):
            if _digest(a) != _digest(b):
                self._fail(i, "a later pass ended differently from the first")

    # ------------------------------------------------------------ checking

    def check(self) -> None:
        """Check the first pass's outcomes against the secrets (untimed)."""
        attack, netlist = self._attack, self._netlist
        for i, (a, rep) in enumerate(zip(self.attacks, self.first)):
            if isinstance(rep, Exception):
                self._fail(i, f"{type(rep).__name__}: {rep}")
                continue
            if rep.success:
                self.certified += 1
                for x in rep.completions:
                    if any(netlist.run_sequence(a.camo, x, s) != o for s, o in rep.disc_set):
                        self._fail(i, "completion does not reproduce the observations")
                        break
                    try:
                        w = attack.product_equiv(a.camo, x, a.secret,
                                                 CHECK_STATE_CAP, CHECK_EXPAND_CAP)
                    except attack.ProductCapError:
                        self.unchecked += 1
                        continue
                    if w is not None:
                        self._fail(i, f"completion differs from the secret on {w.to_strings()}")
                        break
            elif rep.partial is not None:
                for cell, v in zip(a.camo.cells, a.secret.choices):
                    got = rep.partial.get(cell.gate_out)
                    if got is not None and got != v:
                        self._fail(i, f"partial completion fixes {cell.gate_out} wrongly")
                        break
            else:
                self._fail(i, f"{rep.termination} without a partial completion")

    def _fail(self, i: int, why: str) -> None:
        self.failed.setdefault(i, f"{self.attacks[i].label}: {why}")
        print(f"FAILED {self.failed[i]}", file=sys.stderr)

    # ------------------------------------------------------------- metrics

    def end_to_end(self, setup_s: float) -> dict[str, tuple[float, str]]:
        reps = [r for r in self.first if not isinstance(r, Exception)]
        n = max(1, len(reps))
        k = sum(a.camo.k for a, r in zip(self.attacks, self.first)
                if not isinstance(r, Exception))
        per_attack = [min(ts) for ts in self.untraced_s]
        ms = sorted(t * 1e3 for t in per_attack)
        return {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(per_attack), "s"),
            "attack_p50_ms": (statistics.median(ms), "ms"),
            "attack_p99_ms": (_percentile(ms, 0.99), "ms"),
            "oracle_queries": (sum(r.query_count for r in reps) / n, "count"),
            "oracle_steps": (sum(r.step_count for r in reps) / n, "count"),
            "gates_fixed_frac": (sum(r.gates_fixed for r in reps) / max(1, k), "ratio"),
        }

    def _take_layers(self, tr, scale: float) -> None:
        """Fold one traced pass into per-layer numbers, its seconds times the
        pass's host-speed `scale`, then clear the tracer."""
        span_s = {name: tr.self_s[name] * scale for name in self._tracing.SPAN_NAMES}
        attack_s = sum(tr.self_s.values()) * scale  # every span sits under an attack.run
        counts = dict(tr.counts)
        counts.update({f"{n}.calls": tr.calls[n] for n in self._tracing.SPAN_NAMES})
        self.layer_passes.append({
            "span_s": span_s,
            "solve_s": {k: v * scale for k, v in tr.seconds.items()},
            "counts": counts,
            "attack_s": attack_s,
        })
        tr.reset()

    def layer_metrics(self, parse_s: float, parse_calls: int) -> dict:
        tracing = self._tracing
        passes = self.layer_passes
        counts = passes[0]["counts"]
        for p in passes[1:]:
            if p["counts"] != counts:
                self.problems.append("two traced passes gave different counters")
        self.counters = dict(sorted(counts.items()))
        self.counters["netlist.parse.calls"] = parse_calls

        def fastest(get) -> float:
            return min(get(p) for p in passes)

        m: dict[str, tuple[float, str]] = {}
        for name in tracing.SPAN_NAMES:
            key = "attack.loop_self_s" if name == tracing.ROOT else f"{name}_s"
            m[key] = (fastest(lambda p: p["span_s"][name]), "s")
        m["netlist.parse_s"] = (parse_s, "s")
        c = counts.get
        for key in ("sat.conflicts", "sat.decisions", "sat.propagations",
                    "sat.conflicts.bmc.UNSAT", "sat.sync_clauses", "cnf.vars", "cnf.clauses",
                    "encode.enum_capped", "netlist.eval_scenarios", "oracle.steps"):
            m[key] = (c(key, 0), "count")
        for key, counter in (("encode.frame_calls", "encode.frame.calls"),
                             ("encode.enum_models", "sat.calls.enum.SAT"),
                             ("attack.product_calls", "attack.product.calls"),
                             ("oracle.queries", "oracle.query.calls")):
            m[key] = (c(counter, 0), "count")
        for kind in tracing.KINDS:
            for status in tracing.STATUSES:
                key = f"{kind}.{status}"
                m[f"sat.calls.{key}"] = (c(f"sat.calls.{key}", 0), "count")
                m[f"sat.solve_s.{key}"] = (
                    fastest(lambda p: p["solve_s"].get(f"sat.solve_s.{key}", 0.0)), "s")
        search, ev = m["sat.search_s"][0], m["netlist.eval_s"][0]
        m["sat.props_per_s"] = (c("sat.propagations", 0) / search if search else 0.0, "1/s")
        m["netlist.scenarios_per_s"] = (
            c("netlist.eval_scenarios", 0) / ev if ev else 0.0, "1/s")
        umc = c("attack.umc.calls", 0)
        m["attack.umc_certified"] = (c("attack.umc_true", 0) / umc if umc else 0.0, "ratio")
        covered = statistics.median(1 - p["span_s"][tracing.ROOT] / p["attack_s"] for p in passes)
        m["trace.coverage"] = (covered, "ratio")
        traced = sum(min(ts) for ts in self.traced_s)
        m["trace.overhead_frac"] = (traced / sum(min(ts) for ts in self.untraced_s) - 1, "ratio")
        return m


SETUP_CHILD = """
import sys, time
root, workload, seed = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import pace
before = pace.probe_seconds(15)
t0 = time.perf_counter()
import pathlib, tracing, workloads  # tracing imports the whole package
workloads.build(workload, int(seed), pathlib.Path(root))
took = time.perf_counter() - t0
print(took * pace.REF_S / ((before + pace.probe_seconds(15)) / 2))
"""


def setup_once(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter (import, parse, generate), scaled
    to the reference speed by probes just before and after it."""
    out = subprocess.run(
        [sys.executable, "-B", "-c", SETUP_CHILD, str(ROOT), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def _digest(rep):
    """What a repeated attack must reproduce exactly."""
    if isinstance(rep, Exception):
        return (type(rep).__name__, str(rep))
    return (rep.termination, rep.completions, rep.disc_set, rep.partial,
            rep.query_count, rep.step_count, rep.bound_reached)


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def _fingerprint() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def compare_counters(counters: dict, workload: str, seed: int) -> list[str]:
    """Keep the first traced run's counters; later runs of the same sources
    and seed must reproduce them exactly."""
    path = ROOT / ".perfbench" / "counters" / f"{_fingerprint()}-{workload}-{seed}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counters, indent=1, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    diff = sorted(k for k in set(before) | set(counters) if before.get(k) != counters.get(k))
    return [f"counter {k} was {before.get(k)} in an earlier traced run of these sources, "
            f"now {counters.get(k)}" for k in diff]


def names_match_benchmark_json(metrics: dict, trace: int) -> list[str]:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return []
    spec = json.loads(path.read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: u for k, (_, u) in metrics.items()}
    if want == got:
        return []
    return [f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, units "
            f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}"]


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "sources": _fingerprint(),
    }


if __name__ == "__main__":
    sys.exit(main())
