"""Command-line front end and experiment harness.

Subcommands: camouflage (random gate selection, writes sidecar + sealed
secret), attack (runs the full loop against an in-process or piped oracle),
verify (product-machine equivalence of a claimed completion against the
secret), report (aggregates run records into a table), serve-oracle (answers
the pipe protocol on stdio).  Exit codes: 0 success, 1 attack failure,
inequivalence, or an oracle conflict or timeout, 2 usage error, 3
inconclusive verification.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from . import attack as atk
from . import netlist as nl
from .oracle import BlackBox, OracleConflictError, OracleTimeoutError, PipeOracle, serve_pipe_oracle


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunRecord:
    """One attack run as reported in the aggregate tables."""

    benchmark: str
    k: int
    seed: int
    disc_size: int
    max_steps: int
    time_s: float
    termination: str
    gates_fixed: int
    success: bool


def _load_circuit(path: str) -> nl.Circuit:
    p = Path(path)
    return nl.parse_bench(p.read_text(), p.stem)


def _load_camo(bench: str, sidecar: str) -> nl.CamoCircuit:
    return nl.parse_sidecar(Path(sidecar).read_text(), _load_circuit(bench))


def cmd_camouflage(args) -> int:
    circuit = _load_circuit(args.bench)
    candidates = [c.strip().upper() for c in args.candidates.split(",")]
    eligible = sorted(g.out for g in circuit.gates if g.fn in candidates)
    if args.k > len(eligible):
        raise UsageError(
            f"k={args.k} but only {len(eligible)} gates implement one of {candidates}"
        )
    rng = random.Random(args.seed)
    chosen = rng.sample(eligible, args.k)
    camo = nl.camouflage(circuit, chosen, candidates, reset_state=0)
    by_out = circuit.gate_by_out
    secret = nl.Completion(tuple(candidates.index(by_out[g].fn) for g in chosen))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{Path(args.bench).stem}.k{args.k}.s{args.seed}"
    sidecar = out / f"{stem}.sidecar"
    secret_path = out / f"{stem}.secret"
    sidecar.write_text(nl.format_sidecar(camo))
    secret_path.write_text(nl.format_completion_file(camo, secret))
    print(f"sidecar: {sidecar}")
    print(f"secret:  {secret_path}")
    return 0


def _make_config(args) -> atk.AttackConfig:
    return atk.AttackConfig(
        bmc_inc=args.bmc_inc,
        max_bound=args.max_bound,
        solver_budget=args.solver_timeout,
        umc_mode=args.umc_mode,
    )


def _attack_one(bench: str, sidecar: str, secret: str | None, oracle_cmd: str | None,
                cfg: atk.AttackConfig, seed: int, out_dir: str) -> RunRecord:
    camo = _load_camo(bench, sidecar)
    if oracle_cmd:
        oracle = PipeOracle(oracle_cmd, camo.num_inputs, camo.num_outputs)
    else:
        # the secret is read here and nowhere else: it only seeds the oracle
        secret_x = nl.parse_completion_file(Path(secret).read_text(), camo)
        oracle = BlackBox(camo, secret_x)
    try:
        report = atk.run_attack(camo, oracle, cfg)
    finally:
        if oracle_cmd:
            oracle.close()
    stem = Path(sidecar).stem
    rec = RunRecord(
        benchmark=Path(bench).stem,
        k=camo.k,
        seed=seed,
        disc_size=len(report.disc_set),
        max_steps=report.max_seq_len,
        time_s=round(report.wall, 3),
        termination=report.termination,
        gates_fixed=report.gates_fixed,
        success=report.success,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.runrecord.json").write_text(json.dumps(asdict(rec), indent=2) + "\n")
    (out / f"{stem}.report.json").write_text(json.dumps(_report_json(camo, report), indent=2) + "\n")
    if report.success:
        (out / f"{stem}.completion").write_text(
            nl.format_completion_file(camo, report.completions[0])
        )
    return rec


def _report_json(camo: nl.CamoCircuit, report: atk.AttackReport) -> dict:
    return {
        "termination": report.termination,
        "completions": [
            {c.gate_out: v for c, v in zip(camo.cells, x.choices)} for x in report.completions
        ],
        "disc_set": [
            {"inputs": i.to_strings(), "outputs": o.to_strings()} for i, o in report.disc_set
        ],
        "iterations": [
            {
                "bound": it.bound,
                "event": it.event,
                "seq_len": it.seq_len,
                "conflicts": it.conflicts,
                "decisions": it.decisions,
                "wall_s": it.wall,
                "status": it.status,
            }
            for it in report.iterations
        ],
        "query_count": report.query_count,
        "step_count": report.step_count,
        "bound_reached": report.bound_reached,
        "wall_s": round(report.wall, 3),
        "partial": report.partial,
    }


def _attack_job(job) -> dict:
    return _attack_one(*job)


def cmd_attack(args) -> int:
    cfg = _make_config(args)
    sidecar = Path(args.sidecar)
    if sidecar.is_dir():
        sidecars = sorted(sidecar.glob("*.sidecar"))
        if not sidecars:
            raise UsageError(f"no *.sidecar files under {sidecar}")
        jobs = []
        for sc in sidecars:
            secret = sc.with_suffix(".secret")
            if not secret.exists():
                raise UsageError(f"missing secret file {secret}")
            jobs.append((args.bench, str(sc), str(secret), None, cfg, args.seed, args.out))
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                records = list(pool.map(_attack_job, jobs))
        else:
            records = [_attack_job(j) for j in jobs]
    else:
        if bool(args.secret) == bool(args.oracle_cmd):
            raise UsageError("provide exactly one of --secret or --oracle-cmd")
        records = [
            _attack_one(args.bench, args.sidecar, args.secret, args.oracle_cmd, cfg, args.seed,
                        args.out)
        ]
    ok = True
    for rec in records:
        ok &= rec.success
        print(
            f"{rec.benchmark} k={rec.k}: termination={rec.termination} "
            f"disc={rec.disc_size} max_steps={rec.max_steps} "
            f"fixed={rec.gates_fixed}/{rec.k} time={rec.time_s}s"
        )
    return 0 if ok else 1


def cmd_verify(args) -> int:
    camo = _load_camo(args.bench, args.sidecar)
    secret = nl.parse_completion_file(Path(args.secret).read_text(), camo)
    claimed = nl.parse_completion_file(Path(args.completion).read_text(), camo)
    try:
        witness = atk.product_equiv(camo, claimed, secret)
    except atk.ProductCapError as exc:
        print(f"INCONCLUSIVE: {exc}")
        return 3
    if witness is None:
        print("EQUIVALENT")
        return 0
    print("INEQUIVALENT witness: " + " ".join(witness.to_strings()))
    return 1


def cmd_report(args) -> int:
    records = []
    for path in sorted(Path(args.dir).glob("*.runrecord.json")):
        records.append(json.loads(path.read_text()))
    if not records:
        raise UsageError(f"no *.runrecord.json files under {args.dir}")
    rows = _aggregate(records)
    cols = (
        "benchmark runs success disc_min disc_max steps_min steps_max "
        "time_min time_max UC/CE/UMC"
    ).split()
    widths = [max(len(c), *(len(str(r[c])) for r in rows)) for c in cols]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for r in rows:
        print("  ".join(str(r[c]).ljust(w) for c, w in zip(cols, widths)))
    failures = [r for r in records if not r["success"]]
    if failures:
        hist: dict[int, int] = {}
        for r in failures:
            hist[r["gates_fixed"]] = hist.get(r["gates_fixed"], 0) + 1
        print("\npartial completions on failed runs (gates fixed: runs):")
        for fixed in sorted(hist):
            print(f"  {fixed}: {hist[fixed]}")
    if args.csv:
        lines = [",".join(cols)]
        lines += [",".join(str(r[c]) for c in cols) for r in rows]
        Path(args.csv).write_text("\n".join(lines) + "\n")
        print(f"\ncsv: {args.csv}")
    return 0


def _aggregate(records: list[dict]) -> list[dict]:
    by_bench: dict[str, list[dict]] = {}
    for r in records:
        by_bench.setdefault(r["benchmark"], []).append(r)
    rows = []
    for bench in sorted(by_bench):
        rs = by_bench[bench]
        succ = [r for r in rs if r["success"]]
        tallies = {t: sum(1 for r in rs if r["termination"] == t) for t in ("UC", "CE", "UMC")}

        def agg(key, fn):
            return fn(r[key] for r in succ) if succ else "-"

        rows.append(
            {
                "benchmark": bench,
                "runs": len(rs),
                "success": len(succ),
                "disc_min": agg("disc_size", min),
                "disc_max": agg("disc_size", max),
                "steps_min": agg("max_steps", min),
                "steps_max": agg("max_steps", max),
                "time_min": agg("time_s", min),
                "time_max": agg("time_s", max),
                "UC/CE/UMC": f"{tallies['UC']}/{tallies['CE']}/{tallies['UMC']}",
            }
        )
    return rows


def cmd_serve_oracle(args) -> int:
    camo = _load_camo(args.bench, args.sidecar)
    secret = nl.parse_completion_file(Path(args.secret).read_text(), camo)
    serve_pipe_oracle(BlackBox(camo, secret), sys.stdin, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="seqdecam", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("camouflage", help="pick k random gates to camouflage")
    p.add_argument("--bench", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--candidates", default="NAND,NOR")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_camouflage)

    p = sub.add_parser("attack", help="run the decamouflaging attack")
    p.add_argument("--bench", required=True)
    p.add_argument("--sidecar", required=True, help="sidecar file, or a directory of them")
    p.add_argument("--secret", help="secret completion file (builds the oracle in-process)")
    p.add_argument("--oracle-cmd", help="command serving the pipe oracle protocol")
    p.add_argument("--bmc-inc", type=int, default=10)
    p.add_argument("--max-bound", type=int, default=120)
    p.add_argument("--umc-mode", default="explicit", choices=["explicit", "bmc", "skip"])
    p.add_argument("--solver-timeout", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("verify", help="check a claimed completion against the secret")
    p.add_argument("--bench", required=True)
    p.add_argument("--sidecar", required=True)
    p.add_argument("--secret", required=True)
    p.add_argument("--completion", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="aggregate run records into a table")
    p.add_argument("dir")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("serve-oracle", help="answer pipe-protocol queries on stdio")
    p.add_argument("--bench", required=True)
    p.add_argument("--sidecar", required=True)
    p.add_argument("--secret", required=True)
    p.set_defaults(func=cmd_serve_oracle)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, nl.BenchError, nl.CamouflageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OracleConflictError, atk.OracleInconsistentError) as exc:
        print(f"oracle conflict: {exc}", file=sys.stderr)
        return 1
    except OracleTimeoutError as exc:
        print(f"oracle timeout: {exc}", file=sys.stderr)
        return 1
    except atk.InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
