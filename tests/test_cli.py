import functools
import json
import sys
import time
from pathlib import Path

import pytest

from seqdecam import cli, oracle
from seqdecam.cli import main

from conftest import bench_path

S27 = str(bench_path("s27"))


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workdir(tmp_path):
    rc = run_cli(
        "camouflage", "--bench", S27, "--k", "2", "--candidates", "NAND,NOR",
        "--seed", "3", "--out", tmp_path,
    )
    assert rc == 0
    return tmp_path


def _sidecar(d: Path) -> Path:
    return next(d.glob("*.sidecar"))


def _secret(d: Path) -> Path:
    return next(d.glob("*.secret"))


def test_camouflage_is_seed_deterministic(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_cli("camouflage", "--bench", S27, "--k", "2", "--seed", "5", "--out", a)
    run_cli("camouflage", "--bench", S27, "--k", "2", "--seed", "5", "--out", b)
    run_cli("camouflage", "--bench", S27, "--k", "3", "--seed", "6", "--out", c)
    assert _sidecar(a).read_text() == _sidecar(b).read_text()
    assert _secret(a).read_text() == _secret(b).read_text()
    assert _sidecar(a).read_text() != _sidecar(c).read_text()


def test_camouflage_k_exceeds_eligible(tmp_path):
    rc = run_cli("camouflage", "--bench", S27, "--k", "99", "--out", tmp_path)
    assert rc == 2


def test_camouflage_secret_matches_original_functions(workdir, s27):
    camo_lines = _sidecar(workdir).read_text().splitlines()
    candidates = camo_lines[0].split(":")[1].split()
    for line in _secret(workdir).read_text().splitlines():
        gate, idx = line.split()
        assert s27.gate_by_out[gate].fn == candidates[int(idx)]


def test_attack_verify_report_roundtrip(workdir):
    rc = run_cli(
        "attack", "--bench", S27, "--sidecar", _sidecar(workdir),
        "--secret", _secret(workdir), "--bmc-inc", "2", "--max-bound", "16",
        "--seed", "3", "--out", workdir,
    )
    assert rc == 0
    rec = json.loads(next(workdir.glob("*.runrecord.json")).read_text())
    assert rec["success"] and rec["termination"] in ("UC", "CE", "UMC")
    assert rec["seed"] == 3  # reported from --seed
    assert rec["max_steps"] <= 2
    report = json.loads(next(workdir.glob("*.report.json")).read_text())
    assert all(it["status"] for it in report["iterations"])
    completion = next(workdir.glob("*.completion"))
    rc = run_cli(
        "verify", "--bench", S27, "--sidecar", _sidecar(workdir),
        "--secret", _secret(workdir), "--completion", completion,
    )
    assert rc == 0
    rc = run_cli("report", workdir, "--csv", workdir / "table.csv")
    assert rc == 0
    csv = (workdir / "table.csv").read_text().splitlines()
    assert csv[0].startswith("benchmark,runs,success")
    assert csv[1].split(",")[0] == "s27"


def test_attack_runrecord_reproducible(workdir, tmp_path):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        rc = run_cli(
            "attack", "--bench", S27, "--sidecar", _sidecar(workdir),
            "--secret", _secret(workdir), "--bmc-inc", "2", "--max-bound", "16",
            "--out", out,
        )
        assert rc == 0
        rec = json.loads(next(out.glob("*.runrecord.json")).read_text())
        rec.pop("time_s")
        outs.append(rec)
    assert outs[0] == outs[1]


def test_attack_requires_one_oracle_source(workdir):
    rc = run_cli(
        "attack", "--bench", S27, "--sidecar", _sidecar(workdir), "--out", workdir
    )
    assert rc == 2


def test_verify_flags_wrong_completion(workdir):
    wrong = workdir / "wrong.completion"
    text = _secret(workdir).read_text()
    flipped = []
    for line in text.splitlines():
        gate, idx = line.split()
        flipped.append(f"{gate} {1 - int(idx)}")
    wrong.write_text("\n".join(flipped) + "\n")
    rc = run_cli(
        "verify", "--bench", S27, "--sidecar", _sidecar(workdir),
        "--secret", _secret(workdir), "--completion", wrong,
    )
    assert rc == 1


def test_verify_secret_against_itself(workdir):
    rc = run_cli(
        "verify", "--bench", S27, "--sidecar", _sidecar(workdir),
        "--secret", _secret(workdir), "--completion", _secret(workdir),
    )
    assert rc == 0


def test_attack_against_pipe_oracle(workdir, tmp_path):
    cmd = (
        f"{sys.executable} -m seqdecam.cli serve-oracle --bench {S27} "
        f"--sidecar {_sidecar(workdir)} --secret {_secret(workdir)}"
    )
    rc = run_cli(
        "attack", "--bench", S27, "--sidecar", _sidecar(workdir),
        "--oracle-cmd", cmd, "--bmc-inc", "2", "--max-bound", "16",
        "--out", tmp_path / "pipe",
    )
    assert rc == 0
    rec = json.loads(next((tmp_path / "pipe").glob("*.runrecord.json")).read_text())
    assert rec["success"]


def test_attack_detects_corrupted_oracle(workdir, tmp_path, capsys):
    # the served chip is a mutated netlist: no completion of the attacker's
    # circuit can reproduce it, which must surface as an oracle conflict
    mutated = tmp_path / "mutant.bench"
    mutated.write_text(
        bench_path("s27").read_text().replace("G17 = NOT(G11)", "G17 = BUF(G11)")
    )
    cmd = (
        f"{sys.executable} -m seqdecam.cli serve-oracle --bench {mutated} "
        f"--sidecar {_sidecar(workdir)} --secret {_secret(workdir)}"
    )
    rc = run_cli(
        "attack", "--bench", S27, "--sidecar", _sidecar(workdir),
        "--oracle-cmd", cmd, "--bmc-inc", "2", "--max-bound", "16",
        "--out", tmp_path / "bad",
    )
    assert rc == 1
    assert "oracle conflict" in capsys.readouterr().err


def test_attack_against_hung_oracle_exits_1(workdir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "PipeOracle", functools.partial(oracle.PipeOracle, timeout=0.5))
    cmd = f"{sys.executable} -c 'import time; time.sleep(60)'"
    t0 = time.monotonic()
    rc = run_cli(
        "attack", "--bench", S27, "--sidecar", _sidecar(workdir),
        "--oracle-cmd", cmd, "--bmc-inc", "2", "--max-bound", "16",
        "--out", tmp_path / "hung",
    )
    assert rc == 1
    assert time.monotonic() - t0 < 5
    assert "oracle timeout" in capsys.readouterr().err


def test_attack_directory_mode_with_jobs(tmp_path):
    for seed in (1, 2):
        run_cli("camouflage", "--bench", S27, "--k", "2", "--seed", seed, "--out", tmp_path / "in")
    rc = run_cli(
        "attack", "--bench", S27, "--sidecar", tmp_path / "in",
        "--bmc-inc", "2", "--max-bound", "16", "--jobs", "2", "--seed", "5",
        "--out", tmp_path / "out",
    )
    assert rc == 0
    recs = [json.loads(p.read_text()) for p in (tmp_path / "out").glob("*.runrecord.json")]
    assert len(recs) == 2 and all(r["seed"] == 5 for r in recs)


def test_report_single_record_min_equals_max(tmp_path, capsys):
    rec = {
        "benchmark": "x", "k": 2, "seed": 0, "disc_size": 3, "max_steps": 4,
        "time_s": 1.5, "termination": "UC", "gates_fixed": 2, "success": True,
    }
    (tmp_path / "x.runrecord.json").write_text(json.dumps(rec))
    assert run_cli("report", tmp_path) == 0
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("x")][0]
    assert "3" in row and "1/0/0" in row


def test_report_mixed_outcomes_histogram(tmp_path, capsys):
    recs = [
        {"benchmark": "y", "k": 4, "seed": s, "disc_size": 2, "max_steps": 2,
         "time_s": 0.1, "termination": "UC" if s < 6 else "EXHAUSTED",
         "gates_fixed": 4 if s < 6 else 3, "success": s < 6}
        for s in range(10)
    ]
    for s, r in enumerate(recs):
        (tmp_path / f"y{s}.runrecord.json").write_text(json.dumps(r))
    assert run_cli("report", tmp_path) == 0
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("y")][0]
    assert " 6" in row  # six successes
    assert "partial completions" in out
    assert "3: 4" in out  # four failed runs fixed 3 gates each


def test_report_empty_dir_is_usage_error(tmp_path):
    assert run_cli("report", tmp_path) == 2


def test_verify_inconclusive_exit_code(workdir, monkeypatch):
    import seqdecam.cli as cli_mod
    from seqdecam.attack import ProductCapError

    def boom(*a, **k):
        raise ProductCapError("cap")

    monkeypatch.setattr(cli_mod.atk, "product_equiv", boom)
    rc = run_cli(
        "verify", "--bench", S27, "--sidecar", _sidecar(workdir),
        "--secret", _secret(workdir), "--completion", _secret(workdir),
    )
    assert rc == 3
