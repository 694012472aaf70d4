"""External programs driven over a line protocol, bit-exact: request =
input coordinates joined by single tabs plus LF on stdin, reply = one
LF-terminated output token on stdout.

Only `exec:` program specs load this module, so that builtin and table
programs never compile it, nor import the modules a child process needs.
"""

from __future__ import annotations

import collections
import os
import select
import subprocess
import time
from collections.abc import Iterable, Iterator

from .errors import ProgramFailure
from .programs import Program
from .trace import InputTuple

# An exec: program's stream keeps at most this many requests in flight, in at
# most this many bytes of request text: Linux's smallest pipe capacity, so
# writing a window never blocks on a child that stopped reading.
_WINDOW = 64
_WINDOW_BYTES = 4096


class CommandProgram(Program):
    """External executable driven over the tab/LF line protocol.

    One child process serves every call until close(). evaluate() sends one
    request line and waits for its reply; pairs(), which every driver
    streams through, keeps up to 64 requests in flight, written as one
    batch, and reads the replies in order, so the child must read its
    requests as a stream and answer each in turn. The handle reads the
    replies itself, with poll() on the child's stdout and stderr (POSIX), so
    it starts no reader thread. Replies must arrive within `timeout` seconds.
    """

    def __init__(self, argv: list[str], arity: int, timeout: float = 10.0):
        if not argv:
            raise ValueError("argv must not be empty")
        super().__init__(arity, " ".join(argv))
        self.argv = list(argv)
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        # Requests written whose replies are unread, and the pairs() stream that wrote them.
        self._in_flight = 0
        self._owner: object | None = None

    def _spawn(self) -> None:
        try:
            proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as exc:
            raise ProgramFailure(f"cannot start {self.name!r}: {exc}") from exc
        self._proc = proc
        # Fresh per child, so that no line of a killed child is read as a reply.
        self._lines: collections.deque[bytes] = collections.deque()  # unread stdout lines
        self._stderr_tail: collections.deque[bytes] = collections.deque(maxlen=50)
        self._stdout = proc.stdout.fileno()
        # Each pipe not yet at EOF: fd -> [where its lines go, its unfinished line].
        self._pipes = {fd: [sink, bytearray()] for fd, sink in (
            (self._stdout, self._lines), (proc.stderr.fileno(), self._stderr_tail))}
        self._poll = select.poll()
        for fd in self._pipes:
            self._poll.register(fd, select.POLLIN)

    def _pump(self, timeout: float) -> bool:
        """Wait at most `timeout` seconds for the child's open pipes and read a
        chunk from each that is ready, splitting it into lines; at EOF a
        pipe's unfinished line is its last. False if no pipe was ready."""
        ready = self._poll.poll(timeout * 1000)
        for fd, _ in ready:
            chunk = os.read(fd, 65536)
            sink, unfinished = self._pipes[fd]
            unfinished += chunk  # in place: a long line is not copied per chunk
            if b"\n" in chunk:
                *lines, unfinished[:] = bytes(unfinished).split(b"\n")
                sink.extend([line + b"\n" for line in lines])
            if chunk:
                continue
            if unfinished:
                sink.append(bytes(unfinished))
            self._poll.unregister(fd)
            del self._pipes[fd]
        return bool(ready)

    def _next_line(self, deadline: float) -> bytes | None:
        """The next stdout line, or None at EOF or after `deadline`."""
        while not self._lines:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self._stdout not in self._pipes:
                return None
            self._pump(remaining)
        return self._lines.popleft()

    def _wait(self, proc: subprocess.Popen, timeout: float) -> bool:
        """Read the child's pipes to EOF, so that it never blocks on a full
        one, then wait for it to exit, all within `timeout` seconds. True if
        it exited."""
        deadline = time.monotonic() + timeout
        while self._pipes and (remaining := deadline - time.monotonic()) > 0:
            self._pump(remaining)
        try:
            proc.wait(max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return False
        return True

    def _exit_failure(self, proc: subprocess.Popen, when: str = "") -> ProgramFailure:
        """The failure of a child that exited or closed its stdout, with the
        rest of its stderr; one still running after the timeout is stopped."""
        if not self._wait(proc, self.timeout):
            self._shutdown()
        return self._failure(f"process exited with code {proc.returncode}{when}")

    def _failure(self, problem: str) -> ProgramFailure:
        """The failure `problem` of this program, with the child's stderr read so far."""
        stderr = b"".join(self._stderr_tail).decode("utf-8", errors="replace")
        return ProgramFailure(f"{self.name!r}: {problem}", stderr=stderr)

    def _parse_reply(self, raw: bytes) -> str:
        if not raw.endswith(b"\n"):
            raise self._failure(f"reply is not LF-terminated: {raw!r}")
        try:
            token = raw[:-1].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self._failure(f"reply is not valid UTF-8: {raw!r}") from exc
        if token.split() != [token]:  # is_token() of a str
            raise self._failure(f"malformed reply (expected one output token): {token!r}")
        return token

    def pairs(self, order: Iterable[InputTuple]) -> Iterator[tuple[InputTuple, str]]:
        """Program.pairs(), with requests sent ahead: each window of
        requests goes out in one write once the consumer reaches its first
        request, and each reply is read when the consumer reaches its input.

        A memo hit sends nothing, also on an input whose request is still in
        flight. An input that fails its check or cannot be encoded, or an
        error raised while pulling it from `order`, ends the window and is
        raised once the inputs before it are consumed. Replies the consumer
        leaves unread are discarded by the next request or by close()."""
        order = iter(order)
        record, arity = self._record, self.arity
        owner = object()
        carry: list[InputTuple] = []  # the input that overflowed the last window
        while True:
            window: list[tuple[InputTuple, bool]] = []  # (inputs, request sent)
            requests: list[bytes] = []
            asked: set[InputTuple] = set()
            size = 0
            stop: Exception | None = None
            while len(requests) < _WINDOW:
                try:
                    inputs = carry.pop() if carry else next(order)
                    try:  # as in Program.pairs: a hit, or the one-expression check
                        hit = inputs in record or inputs in asked
                        valid = hit or (
                            inputs.__class__ is tuple and len(inputs) == arity
                            and " ".join(inputs).split() == list(inputs)
                        )
                    except TypeError:
                        hit = valid = False
                    if not valid:
                        self._check_inputs(inputs)
                    if hit:
                        window.append((inputs, False))
                        continue
                    line = ("\t".join(inputs) + "\n").encode("utf-8")
                except Exception as exc:  # StopIteration too: the end of `order`
                    stop = exc
                    break
                if requests and size + len(line) > _WINDOW_BYTES:
                    carry.append(inputs)
                    break
                asked.add(inputs)
                requests.append(line)
                size += len(line)
                window.append((inputs, True))
            try:
                for inputs, sent in window:
                    if not sent:
                        yield inputs, record[inputs]
                        continue
                    if requests:
                        self._send(requests, owner)
                        requests = []
                    out = record[inputs] = self._receive(owner)
                    yield inputs, out
                if isinstance(stop, StopIteration):
                    return
                if stop is not None:
                    raise stop
            finally:
                # The error's traceback holds this frame, which holds the
                # error: dropped here, the frame and the memo it holds are
                # freed by reference counting, not left for the collector.
                stop = None

    def _send(self, requests: list[bytes], owner: object) -> None:
        """Write `requests` with one write and flush. Replies that an earlier
        stream left unread are discarded first; a line the child has sent
        after that came unasked."""
        if self._in_flight:
            self._discard_in_flight()
        if self._proc is None:
            self._spawn()
        proc = self._proc
        if proc.poll() is not None:
            raise self._exit_failure(proc)
        # One reply line per request: a line that came unasked would be read
        # as the reply to this request and shift every later output by one.
        self._pump(0)
        if self._lines:
            stray = self._lines[0]
            self._shutdown()
            raise self._failure(f"unsolicited output line {stray!r}")
        try:
            proc.stdin.write(b"".join(requests))
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise self._failure(f"cannot write request: {exc}") from exc
        self._in_flight = len(requests)
        self._owner = owner

    def _receive(self, owner: object) -> str:
        """The reply to the oldest request in flight."""
        if self._owner is not owner or not self._in_flight:
            raise RuntimeError(
                f"{self.name!r}: the replies this stream waits for were discarded "
                "by a later request"
            )
        raw = self._next_line(time.monotonic() + self.timeout)
        if raw is None:
            if self._stdout in self._pipes:
                self._shutdown()
                raise self._failure(f"timed out after {self.timeout}s waiting for a reply")
            self._in_flight = 0
            raise self._exit_failure(self._proc, " before replying")
        self._in_flight -= 1
        return self._parse_reply(raw)

    def _discard_in_flight(self) -> None:
        """Read and drop the replies still in flight, all within one timeout.
        One request at a time would never have sent them, so a failure among
        them is not raised: the child is shut down instead."""
        deadline = time.monotonic() + self.timeout
        while self._in_flight:
            if self._next_line(deadline) is None:
                self._shutdown()
                return
            self._in_flight -= 1

    def close(self) -> None:
        """Stop the child once it has answered what was sent and exited, or
        the timeout has passed. ProgramFailure if it sent a line that no
        request asked for; the replies still in flight are dropped."""
        in_flight = self._in_flight
        leftover = self._shutdown(grace=self.timeout)[in_flight:]
        if leftover:
            raise self._failure(f"unsolicited output line {leftover[0]!r} left over at close")

    def _shutdown(self, grace: float = 0.0) -> list[bytes]:
        """Close the child's stdin, give it `grace` seconds to exit while its
        pipes are read, stop it and close its pipes; return the lines it sent
        that no reply read took."""
        proc = self._proc
        if proc is None:
            return []
        self._proc = None
        self._in_flight = 0
        try:
            proc.stdin.close()
        except OSError:
            pass
        if not self._wait(proc, grace):
            proc.terminate()
            if not self._wait(proc, 2):
                proc.kill()
                self._wait(proc, 2)
                proc.wait()
        # Closed also while a grandchild still holds them.
        proc.stdout.close()
        proc.stderr.close()
        return list(self._lines)
