import gc
import io
import random
import shlex
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from seqdecam import oracle as oracle_mod
from seqdecam.netlist import BitSeq, Completion, run_sequence
from seqdecam.gen import random_camo, random_circuit
from seqdecam.oracle import (
    BlackBox, OracleConflictError, OracleTimeoutError, PipeOracle, QuerySet, record,
    serve_pipe_oracle,
)

from conftest import S27_SECRET


@pytest.fixture
def s27_box(s27_camo):
    return BlackBox(s27_camo, S27_SECRET)


def test_empty_query_counts(s27_box):
    out = s27_box.query(BitSeq(4))
    assert out == BitSeq(1)
    assert s27_box.query_count == 1
    assert s27_box.step_count == 0


def test_single_step_queries_all_zero_information(s27_box, s27_camo):
    # every 1-step answer matches every completion, so nothing is learned
    for i in range(16):
        out = s27_box.query(BitSeq(4, (i,)))
        for x in s27_camo.all_completions():
            assert run_sequence(s27_camo, x, BitSeq(4, (i,))) == out


def test_two_step_sequence_reveals_first_cell(s27_box):
    out = s27_box.query(BitSeq(4, (8, 9)))
    assert out.steps[-1] == 1  # G13 is a NAND in the secret


def test_width_mismatch(s27_box):
    with pytest.raises(ValueError):
        s27_box.query(BitSeq(3, (1,)))


def test_counters_are_thread_safe(s27_box):
    def worker():
        for _ in range(50):
            s27_box.query(BitSeq(4, (5, 2)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert s27_box.query_count == 400
    assert s27_box.step_count == 800


def test_secret_not_on_public_surface(s27_camo):
    box = BlackBox(s27_camo, S27_SECRET)
    public = {k: v for k, v in vars(box).items() if not k.startswith("_")}
    assert not any(isinstance(v, Completion) for v in public.values())
    assert "secret" not in dir(box)


def test_query_determinism_over_random_circuits():
    rng = random.Random(99)
    for _ in range(1000):
        camo, secret = random_camo(rng, random_circuit(rng))
        box = BlackBox(camo, secret)
        m = camo.num_inputs
        seq = BitSeq(m, tuple(rng.randrange(1 << m) for _ in range(rng.randint(0, 5))))
        assert box.query(seq) == box.query(seq)


# ---------------------------------------------------------------- QuerySet

def test_record_set_semantics():
    i1 = BitSeq(2, (1, 3))
    o1 = BitSeq(1, (0, 1))
    qs = record(QuerySet(), i1, o1)
    assert len(qs) == 1
    assert len(record(qs, i1, o1)) == 1  # exact duplicate is a no-op
    with pytest.raises(OracleConflictError):
        record(qs, i1, BitSeq(1, (0, 0)))


def test_record_length_check():
    with pytest.raises(ValueError):
        record(QuerySet(), BitSeq(2, (1,)), BitSeq(1, (0, 1)))


# ------------------------------------------------------------ pipe protocol

def test_pipe_protocol_roundtrip(s27_camo):
    box = BlackBox(s27_camo, S27_SECRET)
    requests = "Q 2 0001 1001\nQ 0\nnonsense\nQ 1 001\n"
    out = io.StringIO()
    serve_pipe_oracle(box, io.StringIO(requests), out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "A 0 1"  # the G13-revealing sequence
    assert lines[1] == "A"
    assert lines[2].startswith("E ")
    assert lines[3].startswith("E ")  # wrong width
    assert box.query_count == 2


SLEEPING_ORACLE = [sys.executable, "-c", "import time; time.sleep(60)"]


def test_pipe_oracle_times_out_on_a_hung_process():
    oracle = PipeOracle(SLEEPING_ORACLE, 4, 1, timeout=0.5)
    t0 = time.monotonic()
    with pytest.raises(OracleTimeoutError):
        oracle.query(BitSeq(4, (1, 2)))
    assert time.monotonic() - t0 < 5
    oracle.close()
    assert oracle._proc.returncode is not None  # the hung process was killed


# answers every query with all-zero outputs, then outlives the end of its input
LINGERING_ORACLE = [
    sys.executable, "-c",
    "import sys, time\n"
    "for line in sys.stdin: print('A' + ' 0' * int(line.split()[1]), flush=True)\n"
    "time.sleep(60)",
]


def test_pipe_oracle_close_kills_a_process_that_outlives_its_input(monkeypatch):
    monkeypatch.setattr(oracle_mod, "CLOSE_GRACE_S", 0.5)
    oracle = PipeOracle(LINGERING_ORACLE, 4, 1)
    assert oracle.query(BitSeq(4, (1, 2))) == BitSeq(1, (0, 0))
    t0 = time.monotonic()
    oracle.close()
    assert time.monotonic() - t0 < 5
    assert oracle._proc.returncode is not None


def _running(pid):
    """Is process pid alive, a zombie not counted?"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_pipe_oracle_close_ends_every_process_of_the_command(monkeypatch, tmp_path):
    # a shell runs the lingering oracle, which writes its pid first, as its
    # child and would sleep after it; close ends both, not just the shell
    monkeypatch.setattr(oracle_mod, "CLOSE_GRACE_S", 0.5)
    pidfile = tmp_path / "oracle.pid"
    code = f"import os\nopen({str(pidfile)!r}, 'w').write(str(os.getpid()))\n" + LINGERING_ORACLE[2]
    oracle = PipeOracle(["sh", "-c", shlex.join([sys.executable, "-c", code]) + "; sleep 30"], 4, 1)
    assert oracle.query(BitSeq(4, (1, 2))) == BitSeq(1, (0, 0))
    child = int(pidfile.read_text())
    assert _running(child)
    oracle.close()
    deadline = time.monotonic() + 5
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(child)
    assert oracle._proc.returncode is not None


def test_pipe_oracle_close_releases_its_pipes(monkeypatch):
    # after a clean exit, a kill at close and a kill at a query's timeout,
    # close leaves no pipe open for the garbage collector to warn about
    monkeypatch.setattr(oracle_mod, "CLOSE_GRACE_S", 0.5)
    answering = [*LINGERING_ORACLE[:2], LINGERING_ORACLE[2].replace("time.sleep(60)", "")]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", ResourceWarning)
        for argv in (answering, LINGERING_ORACLE, SLEEPING_ORACLE):
            oracle = PipeOracle(argv, 4, 1, timeout=0.5)
            try:
                oracle.query(BitSeq(4, (1, 2)))
            except OracleTimeoutError:
                assert argv is SLEEPING_ORACLE
            oracle.close()
            assert oracle._proc.stdin.closed and oracle._proc.stdout.closed
            del oracle
            gc.collect()
    assert [w.message for w in seen if issubclass(w.category, ResourceWarning)] == []
