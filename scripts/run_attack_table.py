#!/usr/bin/env python3
"""Run the attack over benchmarks x seeds and print the aggregate table.

Mirrors the random-camouflaging experiment: k gates picked per seed, one
attack per (benchmark, seed), run records collected and summarized.

    python scripts/run_attack_table.py --bench s344 s349 --k 32 --seeds 10 \
        --out results/ --jobs 4

Each table lives in <out>/<bench>/k<k>/ (sidecars in in/, run records in
runs/, and table.csv), so tables of another k under the same --out stay
apart.  A benchmark stops at its first step that fails, and the script goes
on to the next one and exits with the first such code; attacks that end
without success (exit 1) are results, and their benchmark is still
reported.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from seqdecam.cli import main as cli  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", nargs="+", required=True, help="benchmark names")
    ap.add_argument("--k", type=int, default=32)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default="results")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--bmc-inc", type=int, default=10)
    ap.add_argument("--max-bound", type=int, default=120)
    args = ap.parse_args()

    out = Path(args.out)
    rc = 0
    for name in args.bench:
        bench = BENCH_DIR / f"{name}.bench"
        if not bench.exists():
            print(f"{name}: missing {bench}; run scripts/fetch_benchmarks.py first")
            rc = rc or 1
            continue
        step = _table(bench, out / name / f"k{args.k}", args)
        rc = rc or step
    return rc


def _table(bench: Path, out: Path, args) -> int:
    """Camouflage, attack and report one benchmark: the exit code of the
    first step that fails, else the attack's."""
    indir = out / "in"
    for seed in range(args.seeds):
        step = cli([
            "camouflage", "--bench", str(bench), "--k", str(args.k),
            "--seed", str(seed), "--out", str(indir),
        ])
        if step:
            return step
    attacked = cli([
        "attack", "--bench", str(bench), "--sidecar", str(indir),
        "--bmc-inc", str(args.bmc_inc), "--max-bound", str(args.max_bound),
        "--jobs", str(args.jobs), "--out", str(out / "runs"),
    ])
    if attacked not in (0, 1):
        return attacked
    return cli(["report", str(out / "runs"), "--csv", str(out / "table.csv")]) or attacked


if __name__ == "__main__":
    sys.exit(main())
