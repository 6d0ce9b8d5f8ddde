import functools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from seqdecam import attack as atk
from seqdecam import cli, oracle
from seqdecam import netlist as nl
from seqdecam.cli import main

from conftest import ROOT, bench_path, cone_only_cases

S27 = str(bench_path("s27"))


def run_cli(*argv):
    return main([str(a) for a in argv])


def _camouflage_s27(out: Path, seed: int) -> Path:
    rc = run_cli(
        "camouflage", "--bench", S27, "--k", "2", "--candidates", "NAND,NOR",
        "--seed", seed, "--out", out,
    )
    assert rc == 0
    return out


@pytest.fixture
def workdir(tmp_path):
    return _camouflage_s27(tmp_path, 3)


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
    for k in ("99", "-1", "0"):
        rc = run_cli("camouflage", "--bench", S27, "--k", k, "--out", tmp_path)
        assert rc == 2
    assert not list(tmp_path.iterdir())


def test_a_repeated_candidate_is_usage_error(workdir, tmp_path, capsys):
    rc = run_cli("camouflage", "--bench", S27, "--k", "2", "--candidates", "NAND,NAND",
                 "--out", tmp_path / "twice")
    assert rc == 2 and "repeated candidate function(s): NAND" in capsys.readouterr().err
    assert not (tmp_path / "twice").exists()
    # a sidecar that repeats one, read by attack, verify and serve-oracle
    sidecar = workdir / "repeated.sidecar.txt"
    sidecar.write_text(_sidecar(workdir).read_text().replace("NAND NOR", "NAND NAND"))
    common = ("--bench", S27, "--sidecar", sidecar, "--secret", _secret(workdir))
    for argv in (("attack", *common, "--out", tmp_path / "out"),
                 ("verify", *common, "--completion", _secret(workdir)),
                 ("serve-oracle", *common)):
        assert run_cli(*argv) == 2
        assert "repeated candidate function(s): NAND" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_attack_rejects_a_bad_schedule_or_umc_mode(workdir, capsys):
    base = ("attack", "--bench", S27, "--sidecar", _sidecar(workdir),
            "--secret", _secret(workdir), "--out", workdir)
    for flags in (("--bmc-inc", "0"), ("--max-bound", "5", "--bmc-inc", "10"),
                  ("--solver-timeout", "nan"), ("--solver-timeout", "-1")):
        assert run_cli(*base, *flags) == 2
        assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:  # argparse's own usage error
        run_cli(*base, "--umc-mode", "bmc")
    assert exc.value.code == 2
    assert not list(workdir.glob("*.runrecord.json"))


def test_attack_names_unobservable_cells(tmp_path, capsys):
    # cell g latches into a flop that no output reads
    bench = tmp_path / "dead.bench"
    bench.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ns = DFF(g)\ng = AND(a, s)\n")
    sidecar = tmp_path / "dead.sidecar"
    sidecar.write_text("candidates: AND OR\nreset: 0\ng\ny\n")
    secret = tmp_path / "dead.secret"
    secret.write_text("g 1\ny 0\n")
    rc = run_cli("attack", "--bench", bench, "--sidecar", sidecar, "--secret", secret,
                 "--bmc-inc", "1", "--max-bound", "8", "--out", tmp_path / "out")
    assert rc == 0
    out = capsys.readouterr().out
    assert "termination=CE" in out and "fixed=2/2" in out and "unobservable=g" in out
    report = json.loads(next((tmp_path / "out").glob("*.report.json")).read_text())
    assert report["unobservable"] == ["g"]
    # CE's frame covers only the cone, so the dead flop leaves it UNSAT
    assert [(it["event"], it["status"]) for it in report["iterations"]
            if it["event"] in ("ce", "umc")] == [("ce", "UNSAT")]
    rec = json.loads(next((tmp_path / "out").glob("*.runrecord.json")).read_text())
    assert rec["unobservable"] == ["g"]


@pytest.mark.parametrize("case", cone_only_cases(), ids=lambda case: case[0])
def test_attack_with_no_observable_cell_reports_the_cone_certificate(tmp_path, case):
    name, circuit, camo, secret = case
    bench, sidecar, secret_path = (tmp_path / f"{name}.{ext}" for ext in ("bench", "sidecar", "secret"))
    bench.write_text(nl.serialize_bench(circuit))
    sidecar.write_text(nl.format_sidecar(camo))
    secret_path.write_text(nl.format_completion_file(camo, secret))
    out = tmp_path / "out"
    rc = run_cli("attack", "--bench", bench, "--sidecar", sidecar, "--secret", secret_path,
                 "--bmc-inc", "1", "--max-bound", "8", "--out", out)
    assert rc == 0
    report = json.loads((out / f"{name}.report.json").read_text())
    cells = [c.gate_out for c in camo.cells]
    assert report["termination"] == "UMC" and report["unobservable"] == cells
    assert (report["query_count"], report["step_count"], report["disc_set"]) == (0, 0, [])
    assert report["bound_reached"] == 0
    [it] = report["iterations"]
    assert {k: it[k] for k in ("bound", "event", "seq_len", "conflicts", "decisions", "status")} == {
        "bound": 0, "event": "umc", "seq_len": None, "conflicts": 0, "decisions": 0, "status": "UMC"
    }
    assert report["completions"] == [dict.fromkeys(cells, 0)]
    # the all-zeros completion is sequentially equivalent to the secret
    rc = run_cli("verify", "--bench", bench, "--sidecar", sidecar, "--secret", secret_path,
                 "--completion", out / f"{name}.completion")
    assert rc == 0


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


def test_attack_against_an_oracle_that_outlives_its_input(workdir, tmp_path, monkeypatch):
    # the oracle answers every query, then ignores the end of its input: the
    # finished attack still writes its run files, and the process is killed
    monkeypatch.setattr(oracle, "CLOSE_GRACE_S", 0.5)
    serve = ["serve-oracle", "--bench", S27, "--sidecar", str(_sidecar(workdir)),
             "--secret", str(_secret(workdir))]
    script = f"import time\nfrom seqdecam.cli import main\nmain({serve!r})\ntime.sleep(60)"
    closed = []
    real_close = oracle.PipeOracle.close

    def close(self):
        real_close(self)
        closed.append(self._proc.returncode)

    monkeypatch.setattr(oracle.PipeOracle, "close", close)
    t0 = time.monotonic()
    rc = run_cli(
        "attack", "--bench", S27, "--sidecar", _sidecar(workdir),
        "--oracle-cmd", f'{sys.executable} -c "{script}"', "--bmc-inc", "2",
        "--max-bound", "16", "--out", tmp_path / "lingering",
    )
    assert rc == 0
    assert time.monotonic() - t0 < 10
    assert len(closed) == 1 and closed[0] is not None
    stem = _sidecar(workdir).stem
    for name in (f"{stem}.runrecord.json", f"{stem}.report.json", f"{stem}.completion"):
        assert (tmp_path / "lingering" / name).exists()


def test_attack_detects_corrupted_oracle(tmp_path, capsys):
    # the served chip is a mutated netlist that no completion of the
    # attacker's circuit reproduces on every input: a lie the attack meets
    # must surface as an oracle conflict.  Whether it meets one depends on
    # its queries.  Under camouflage seed 3's cells the mutant lies at step 0
    # only on inputs 8, 9, 12 and 13, and the attack asks one query,
    # (0, 1) -> (0, 0), which two equivalent completions reproduce, so it
    # rightly certifies.  Under seed 2's cells it lies on 8 of the 16 inputs
    # at step 0, and the attack meets a lie.  That the guard fires exactly
    # when no completion reproduces the answers is
    # test_oracle_conflict_iff_no_completion_reproduces
    workdir = _camouflage_s27(tmp_path / "camo", 2)
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


_FLIPPED = {"NOT": "BUF", "BUF": "NOT", "AND": "NAND", "NAND": "AND", "OR": "NOR", "NOR": "OR"}


def test_oracle_conflict_iff_no_completion_reproduces(tmp_path):
    # every single-gate flip of s27 served as the chip, under the cells of
    # camouflage seeds 1-10: the attack raises an oracle conflict if and only
    # if no completion reproduces the answers the chip gave it
    s27 = nl.parse_bench(bench_path("s27").read_text(), "s27")
    detected = 0
    for seed in range(1, 11):
        d = _camouflage_s27(tmp_path / str(seed), seed)
        camo = nl.parse_sidecar(_sidecar(d).read_text(), s27)
        secret = nl.parse_completion_file(_secret(d).read_text(), camo)
        for g in s27.gates:
            gates = tuple(
                nl.Gate(h.out, _FLIPPED[h.fn], h.ins) if h is g else h for h in s27.gates
            )
            mutant = nl.Circuit(s27.name, s27.inputs, s27.outputs, s27.flops, gates)
            chip = nl.camouflage(mutant, [c.gate_out for c in camo.cells], ["NAND", "NOR"])
            box = oracle.BlackBox(chip, secret)
            answers = []

            def query(seq, ask=box.query):
                answers.append((seq, ask(seq)))
                return answers[-1][1]

            box.query = query
            try:
                atk.run_attack(camo, box, atk.AttackConfig(bmc_inc=2, max_bound=16))
                raised = False
            except (oracle.OracleConflictError, atk.OracleInconsistentError):
                raised = True
            qs = oracle.QuerySet(tuple(answers))
            reproduced = any(atk.consistent(camo, x, qs) for x in camo.all_completions())
            assert raised != reproduced, (seed, g.out)
            detected += raised
    assert detected > 0


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


@pytest.mark.parametrize(
    "script",
    [
        None,  # exits at once: the query meets a closed pipe
        "for line in sys.stdin: print('E unknown request', flush=True)",
        "for line in sys.stdin: print('A' + ' 2' * int(line.split()[1]), flush=True)",
    ],
    ids=["closed", "error-line", "bad-step"],
)
def test_attack_against_broken_oracle_exits_1(workdir, tmp_path, capsys, script):
    cmd = "true" if script is None else f'{sys.executable} -c "import sys\n{script}"'
    t0 = time.monotonic()
    rc = run_cli(
        "attack", "--bench", S27, "--sidecar", _sidecar(workdir),
        "--oracle-cmd", cmd, "--bmc-inc", "2", "--max-bound", "16",
        "--out", tmp_path / "broken",
    )
    assert rc == 1
    assert time.monotonic() - t0 < 5
    assert "oracle error" in capsys.readouterr().err


def test_files_that_repeat_a_line_are_usage_errors(workdir, capsys):
    # verify, attack and serve-oracle all read the sidecar, and verify and
    # attack the completion files
    sidecar = _sidecar(workdir).read_text()
    twice_sidecar = workdir / "twice.sidecar.txt"
    twice_sidecar.write_text(sidecar + "candidates: NAND NOR\n")
    secret = _secret(workdir).read_text()
    twice_secret = workdir / "twice.secret"
    twice_secret.write_text(secret + secret.splitlines()[0] + "\n")
    for sidecar_path, secret_path in ((twice_sidecar, _secret(workdir)),
                                      (_sidecar(workdir), twice_secret)):
        common = ("--bench", S27, "--sidecar", sidecar_path, "--secret", secret_path)
        for argv in (("verify", *common, "--completion", _secret(workdir)),
                     ("attack", *common, "--out", workdir / "out")):
            assert run_cli(*argv) == 2
            assert "repeated" in capsys.readouterr().err
    assert run_cli("verify", "--bench", S27, "--sidecar", _sidecar(workdir),
                   "--secret", _secret(workdir), "--completion", twice_secret) == 2
    assert "repeated cell" in capsys.readouterr().err
    assert run_cli("serve-oracle", "--bench", S27, "--sidecar", twice_sidecar,
                   "--secret", _secret(workdir)) == 2
    assert "repeated candidates: line" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_verify_rejects_malformed_sidecar_and_completion(workdir, capsys):
    bad_sidecar = workdir / "bad.sidecar.txt"
    bad_sidecar.write_text("candidates: NAND NOR\nreset: 01\nG13\n")
    bad_completion = workdir / "bad.completion"
    cells = [line.split()[0] for line in _secret(workdir).read_text().splitlines()]
    bad_completion.write_text("".join(f"{c} 5\n" for c in cells))
    for sidecar, completion in ((bad_sidecar, _secret(workdir)), (_sidecar(workdir), bad_completion)):
        rc = run_cli(
            "verify", "--bench", S27, "--sidecar", sidecar,
            "--secret", _secret(workdir), "--completion", completion,
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


def _verify_argv(workdir, **files):
    """verify's argv over the workdir's files, some replaced by `files`."""
    paths = {"bench": S27, "sidecar": _sidecar(workdir), "secret": _secret(workdir),
             "completion": _secret(workdir), **files}
    return ["verify", *(a for k, v in paths.items() for a in (f"--{k}", v))]


def test_completion_index_that_is_not_a_decimal_is_usage_error(workdir, capsys):
    # str.isdigit accepts a superscript two, which int() then refuses
    cells = [line.split()[0] for line in _secret(workdir).read_text().splitlines()]
    odd = workdir / "odd.completion"
    odd.write_text(f"{cells[0]} \u00b2\n{cells[1]} 0\n", encoding="utf-8")
    assert run_cli(*_verify_argv(workdir, completion=odd)) == 2
    assert "expected '<gate-id> <index>'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["bench", "sidecar", "secret", "completion"])
def test_a_directory_given_as_an_input_file_is_usage_error(workdir, capsys, flag):
    assert run_cli(*_verify_argv(workdir, **{flag: workdir})) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


@pytest.mark.parametrize("flag", ["bench", "sidecar", "secret", "completion"])
def test_a_file_that_is_not_utf8_is_usage_error(workdir, capsys, flag):
    raw = workdir / "latin1.txt"
    raw.write_bytes(b"# caf\xe9\n")
    assert run_cli(*_verify_argv(workdir, **{flag: raw})) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


@pytest.mark.parametrize("text", ["{not json", '{"benchmark": "x"}', "[1, 2]"],
                         ids=["bad-json", "missing-key", "not-an-object"])
def test_report_over_a_malformed_run_record_is_usage_error(tmp_path, capsys, text):
    (tmp_path / "x.runrecord.json").write_text(text)
    assert run_cli("report", tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: ")


_GOOD_RECORDS = (
    {"benchmark": "x", "k": 2, "seed": 0, "disc_size": 3, "max_steps": 4, "time_s": 1.5,
     "termination": "UC", "gates_fixed": 2, "success": True},
    {"benchmark": "x", "k": 2, "seed": 1, "disc_size": 2, "max_steps": 1, "time_s": 0.5,
     "termination": "EXHAUSTED", "gates_fixed": 1, "success": False},
)


@pytest.mark.parametrize("index, key, value", [
    (0, "benchmark", ["s27"]), (0, "termination", 3), (0, "success", "yes"), (0, "success", 1),
    (0, "disc_size", "two"), (0, "max_steps", 2.5), (0, "disc_size", True),
    (1, "gates_fixed", [1]), (1, "gates_fixed", False), (0, "time_s", "1.5"),
    (0, "time_s", True), (0, "time_s", None),
])
def test_report_over_a_run_record_of_the_wrong_type_is_usage_error(tmp_path, capsys,
                                                                  index, key, value):
    # checked before any line of the table is printed
    for i, rec in enumerate(_GOOD_RECORDS):
        rec = {**rec, key: value} if i == index else rec
        (tmp_path / f"r{i}.runrecord.json").write_text(json.dumps(rec))
    assert run_cli("report", tmp_path) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: {tmp_path / f'r{index}.runrecord.json'} has {key} ")
    assert out.err.count("\n") == 1 and out.out == ""


def test_report_takes_an_int_time(tmp_path, capsys):
    for i, rec in enumerate(_GOOD_RECORDS):
        (tmp_path / f"r{i}.runrecord.json").write_text(json.dumps({**rec, "time_s": 2}))
    assert run_cli("report", tmp_path) == 0
    assert "1/0/0" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", [" ", "'unterminated", None, "/nonexistent/oracle"],
                         ids=["blank", "unclosed-quote", "not-executable", "missing"])
def test_an_oracle_command_that_cannot_start_is_usage_error(workdir, tmp_path, capsys,
                                                            monkeypatch, cmd):
    def no_attack(*args):
        raise AssertionError("the attack ran without an oracle process")

    monkeypatch.setattr(atk, "run_attack", no_attack)
    if cmd is None:
        script = tmp_path / "oracle.sh"
        script.write_text("#!/bin/sh\n")
        script.chmod(0o644)
        cmd = str(script)
    rc = run_cli("attack", "--bench", S27, "--sidecar", _sidecar(workdir),
                 "--oracle-cmd", cmd, "--out", tmp_path / "out")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot start --oracle-cmd") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_attack_over_a_sidecar_directory_takes_no_oracle_source(workdir, capsys):
    # the directory's own .secret files are the oracles; a --secret or
    # --oracle-cmd next to it used to be ignored without a word
    for flag, value in (("--secret", _secret(workdir)), ("--oracle-cmd", "false")):
        rc = run_cli("attack", "--bench", S27, "--sidecar", workdir, flag, value,
                     "--out", workdir / "out")
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not (workdir / "out").exists()


def test_an_output_path_that_cannot_be_written_is_usage_error(workdir, tmp_path, capsys,
                                                               monkeypatch):
    # each is refused before any work: no attack runs, no table is printed
    def no_attack(*args):
        raise AssertionError("the attack ran before its --out was checked")

    monkeypatch.setattr(atk, "run_attack", no_attack)
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    for out in (taken, taken / "sub"):
        rc = run_cli("camouflage", "--bench", S27, "--k", "2", "--out", out)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot write into")
        rc = run_cli("attack", "--bench", S27, "--sidecar", _sidecar(workdir),
                     "--secret", _secret(workdir), "--out", out)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot write into")
    assert taken.read_text() == "keep me\n"
    rec = {
        "benchmark": "x", "k": 2, "seed": 0, "disc_size": 3, "max_steps": 4,
        "time_s": 1.5, "termination": "UC", "gates_fixed": 2, "success": True,
    }
    (tmp_path / "x.runrecord.json").write_text(json.dumps(rec))
    for csv in (workdir, tmp_path / "missing" / "t.csv", taken / "t.csv"):
        assert run_cli("report", tmp_path, "--csv", csv) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: cannot write") and out.out == ""


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


def _script(name, *argv):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, argv)],
                          capture_output=True, text=True, timeout=120)


def test_gatecount_sweep_stops_at_a_failed_step(tmp_path):
    # s27 has 5 gates a NAND/NOR cell can hide, so k=50 cannot be camouflaged
    run = _script("run_gatecount_sweep.py", "--bench", "s27", "--ks", "2", "50",
                  "--out", tmp_path)
    assert run.returncode == 2
    assert "k=50 but only 5 gates" in run.stderr and "Traceback" not in run.stderr
    assert list((tmp_path / "k2" / "runs").glob("*.runrecord.json"))
    assert not (tmp_path / "k50" / "runs").exists()


def test_attack_table_stops_a_benchmark_at_a_failed_step(tmp_path):
    # tables of two k under one --out keep their own sidecars and runs
    for k in (2, 3):
        run = _script("run_attack_table.py", "--bench", "s27", "--k", k, "--seeds", "1",
                      "--out", tmp_path / "ok")
        assert run.returncode == 0
        header, row = (tmp_path / "ok" / "s27" / f"k{k}" / "table.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["runs"] == "1"
    run = _script("run_attack_table.py", "--bench", "s27", "--k", "50", "--seeds", "1",
                  "--out", tmp_path / "bad")
    assert run.returncode == 2
    assert run.stderr.strip() == "error: k=50 but only 5 gates implement one of ['NAND', 'NOR']"
    assert not (tmp_path / "bad" / "s27" / "k50" / "runs").exists()


def test_importing_the_package_loads_no_numpy():
    # the package depends on the standard library alone; a fresh interpreter
    # (conftest puts src on its PYTHONPATH) imports it and its command line
    probe = "import sys, seqdecam, seqdecam.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "False"
