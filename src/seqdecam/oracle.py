"""The attacker's black-box chip: answers input-sequence queries from reset.

The secret completion is sealed inside a closure; nothing on the public
surface of :class:`BlackBox` exposes it.  A line-oriented pipe protocol is
provided so the oracle can also live in a separate process.
"""

from __future__ import annotations

import os
import queue
import shlex
import signal
import subprocess
import threading
from dataclasses import dataclass
from typing import IO, Callable

from .netlist import BitSeq, CamoCircuit, Completion, parse_bits, run_sequence


class OracleConflictError(RuntimeError):
    """Two observations of the same input sequence disagreed."""


class OracleTimeoutError(TimeoutError):
    """An oracle process did not answer a query within its deadline."""


class OracleProtocolError(RuntimeError):
    """An oracle process closed its pipe, reported an error or sent a malformed answer."""


QUERY_TIMEOUT_S = 60.0
# how long `PipeOracle.close` waits for the process to exit after EOF
# before it kills it, and then for its stdout to reach EOF
CLOSE_GRACE_S = 10.0


def _seal(circuit: CamoCircuit, secret: Completion) -> Callable[[BitSeq], BitSeq]:
    secret.check(circuit)

    def answer(seq: BitSeq) -> BitSeq:
        return run_sequence(circuit, secret, seq)

    return answer


class BlackBox:
    """Query surface over a camouflaged circuit with a hidden completion.

    Counts queries and total applied input steps; counter updates are
    thread-safe.  The completion passed to the constructor is not stored on
    the instance.
    """

    def __init__(self, circuit: CamoCircuit, secret: Completion):
        self.num_inputs = circuit.num_inputs
        self.num_outputs = circuit.num_outputs
        self.query_count = 0
        self.step_count = 0
        self._answer = _seal(circuit, secret)
        self._lock = threading.Lock()

    def query(self, seq: BitSeq) -> BitSeq:
        if seq.width != self.num_inputs:
            raise ValueError(f"query width {seq.width} != {self.num_inputs} inputs")
        with self._lock:
            self.query_count += 1
            self.step_count += len(seq)
        return self._answer(seq)


@dataclass(frozen=True)
class QuerySet:
    """Observed (input sequence, output sequence) pairs with set semantics."""

    records: tuple[tuple[BitSeq, BitSeq], ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def record(qs: QuerySet, seq: BitSeq, out: BitSeq) -> QuerySet:
    """Return qs with (seq, out) added; duplicate pairs are a no-op.

    Raises OracleConflictError when seq was already recorded with a
    different output: the oracle must be deterministic.
    """
    if len(out) != len(seq):
        raise ValueError(f"output has {len(out)} steps for {len(seq)} input steps")
    for i, o in qs.records:
        if i == seq:
            if o == out:
                return qs
            raise OracleConflictError(
                f"sequence {seq.to_strings()} observed with both "
                f"{o.to_strings()} and {out.to_strings()}"
            )
    return QuerySet(qs.records + ((seq, out),))


# ------------------------------------------------------------ pipe protocol
#
# One line per query.  Request:  Q <p> <i0> <i1> ... <i{p-1}>
# with each step an m-char bitstring; response:  A <o0> ... <o{p-1}>.
# The circuit resets before every query.  Malformed requests get an
# "E <message>" line; the server keeps running until EOF.

def serve_pipe_oracle(box: BlackBox, infile: IO[str], outfile: IO[str]) -> None:
    """Answer protocol requests from `infile` until EOF."""
    for line in infile:
        line = line.strip()
        if not line:
            continue
        try:
            parts = line.split()
            if parts[0] != "Q":
                raise ValueError(f"unknown request {parts[0]!r}")
            p = int(parts[1])
            if len(parts) != 2 + p:
                raise ValueError(f"expected {p} steps, got {len(parts) - 2}")
            steps = tuple(parse_bits(s, box.num_inputs) for s in parts[2:])
            out = box.query(BitSeq(box.num_inputs, steps))
            outfile.write("A" + "".join(" " + s for s in out.to_strings()) + "\n")
        except Exception as exc:  # protocol errors must not kill the server
            outfile.write(f"E {exc}\n")
        outfile.flush()


class PipeOracle:
    """Client for an oracle process speaking the pipe protocol on stdio.

    The command runs in a process group of its own, and killing the oracle
    kills that whole group, so a shell's children go with it.  Each query
    waits at most ``timeout`` seconds for its answer line; past that the
    oracle is killed and the query raises OracleTimeoutError.  A daemon
    thread reads the process's stdout into a queue, so a hung or
    half-written answer cannot block the caller.  A command that is empty
    or does not split (an unclosed quote) raises ValueError, and one that
    cannot be started OSError.
    """

    def __init__(self, argv: list[str] | str, num_inputs: int, num_outputs: int,
                 timeout: float = QUERY_TIMEOUT_S):
        if isinstance(argv, str):
            argv = shlex.split(argv)
        if not argv:
            raise ValueError("empty oracle command")
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.timeout = timeout
        self.query_count = 0
        self.step_count = 0
        self._lock = threading.Lock()
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
            start_new_session=True,
        )
        self._lines: queue.Queue[str] = queue.Queue()
        self._reader = threading.Thread(target=self._read_lines, daemon=True)
        self._reader.start()

    def _read_lines(self) -> None:
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put("")  # EOF

    def _kill(self) -> None:
        """Kill every process left in the oracle's process group."""
        try:
            os.killpg(self._proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the whole group has exited
            pass

    def query(self, seq: BitSeq) -> BitSeq:
        if seq.width != self.num_inputs:
            raise ValueError(f"query width {seq.width} != {self.num_inputs} inputs")
        req = f"Q {len(seq)}" + "".join(" " + s for s in seq.to_strings()) + "\n"
        with self._lock:
            self.query_count += 1
            self.step_count += len(seq)
            try:
                self._proc.stdin.write(req)
                self._proc.stdin.flush()
            except BrokenPipeError:
                raise OracleProtocolError("oracle process stopped reading queries") from None
            try:
                resp = self._lines.get(timeout=self.timeout)
            except queue.Empty:
                self._kill()
                raise OracleTimeoutError(
                    f"oracle process gave no answer within {self.timeout:g} s"
                ) from None
        if not resp:
            raise OracleProtocolError("oracle process closed the pipe without an answer")
        parts = resp.split()
        if not parts or parts[0] != "A":
            raise OracleProtocolError(f"expected an answer line, got {resp.strip()!r}")
        if len(parts) - 1 != len(seq):
            raise OracleConflictError(
                f"oracle returned {len(parts) - 1} output steps for {len(seq)} inputs"
            )
        try:
            steps = tuple(parse_bits(s, self.num_outputs) for s in parts[1:])
        except ValueError as exc:
            raise OracleProtocolError(f"malformed answer {resp.strip()!r}: {exc}") from None
        return BitSeq(self.num_outputs, steps)

    def close(self) -> None:
        """End the process's input, wait for it, then release its stdout; a
        dead process is fine.

        A process still running `CLOSE_GRACE_S` seconds after its input
        ended is killed, so closing never raises for a slow exit, and so is
        every process left in its group, such as a shell's children.  The
        stdout pipe is closed once the reader thread has seen its EOF, which
        comes when no process holds it any more.
        """
        try:
            self._proc.stdin.close()
        except BrokenPipeError:  # unsent request bytes of a process that has exited
            pass
        try:
            self._proc.wait(timeout=CLOSE_GRACE_S)
        except subprocess.TimeoutExpired:
            pass
        self._kill()
        self._proc.wait()
        self._reader.join(CLOSE_GRACE_S)
        if not self._reader.is_alive():  # else a process outside the group holds the pipe
            self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
