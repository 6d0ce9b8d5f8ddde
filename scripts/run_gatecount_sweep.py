#!/usr/bin/env python3
"""Sweep the number of camouflaged gates on one benchmark and report the
discriminating-set growth (s1196 with k = 32..256 in the reference
experiment).

    python scripts/run_gatecount_sweep.py --bench s1196 --ks 32 64 128 256

Stops at the first step that fails and exits with its code; an attack that
ends without success (exit 1) is a result, and the sweep goes on.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from seqdecam.cli import main as cli  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", default="s1196")
    ap.add_argument("--ks", type=int, nargs="+", default=[32, 64, 128, 256])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/sweep")
    args = ap.parse_args()

    bench = BENCH_DIR / f"{args.bench}.bench"
    if not bench.exists():
        print(f"missing {bench}; run scripts/fetch_benchmarks.py first")
        return 1
    out = Path(args.out)
    rc = 0
    for k in args.ks:
        indir = out / f"k{k}" / "in"
        step = cli([
            "camouflage", "--bench", str(bench), "--k", str(k),
            "--seed", str(args.seed), "--out", str(indir),
        ])
        if step:
            return step
        sidecar = indir / f"{bench.stem}.k{k}.s{args.seed}.sidecar"  # the name camouflage gives
        step = cli([
            "attack", "--bench", str(bench), "--sidecar", str(sidecar),
            "--secret", str(sidecar.with_suffix(".secret")),
            "--out", str(out / f"k{k}" / "runs"),
        ])
        if step not in (0, 1):
            return step
        rc = rc or step
    print("\naggregate:")
    for k in args.ks:
        step = cli(["report", str(out / f"k{k}" / "runs")])
        if step:
            return step
    return rc


if __name__ == "__main__":
    sys.exit(main())
