"""Black-box program handles: builtins, table lookups, external commands.

Every handle evaluates each distinct input once, and its first output
answers every repeat, so what a monitor observes is deterministic. A table
file that gives one input two outputs is refused when it is loaded.
External commands speak a line protocol, bit-exact: request = input
coordinates joined by single tabs plus LF on stdin, reply = one LF-terminated
output token on stdout.
"""

from __future__ import annotations

import collections
import itertools
import os
import time
from collections.abc import Callable, Iterable, Iterator

from .errors import (
    DeterminismViolation,
    InputOutsideDomain,
    ParseError,
    ProgramFailure,
    UnknownBuiltin,
)
from .trace import (
    _INT_RE, Event, InputDomain, InputTuple, _checked_event, _io_row, check_input_tuple, file_lines,
    is_token, iter_io_lines,
)

# An exec: program's stream keeps at most this many requests in flight, in at
# most this many bytes of request text: Linux's smallest pipe capacity, so
# writing a window never blocks on a child that stopped reading.
_WINDOW = 64
_WINDOW_BYTES = 4096


class Program:
    """Base handle: arity and memo. Each distinct input is evaluated once,
    and its first output answers every repeat."""

    def __init__(self, arity: int, name: str):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.name = name
        self._record: dict[InputTuple, str] = {}

    def evaluate(self, inputs: InputTuple) -> str:
        if self._memo_has(inputs):
            return self._record[inputs]
        [(_, output)] = self.pairs((inputs,))
        return output

    def _memo_has(self, inputs: InputTuple, asked: set[InputTuple] | tuple = ()) -> bool:
        """True iff the memo serves `inputs`: recorded or in `asked`, it passed
        _check_inputs() then, so a hit is not checked again."""
        try:
            return inputs in self._record or inputs in asked
        except TypeError:
            return False

    def _check_inputs(self, inputs: InputTuple) -> None:
        """ValueError unless `inputs` is a tuple of `arity` value tokens."""
        check_input_tuple(inputs)
        if len(inputs) != self.arity:
            raise ValueError(
                f"program {self.name!r} has arity {self.arity}, got {len(inputs)} coordinates"
            )

    def observe(self, inputs: InputTuple) -> Event:
        """The event a monitor attached to this program sees for `inputs`."""
        return _checked_event(inputs, self.evaluate(inputs))

    def pairs(self, order: Iterable[InputTuple]) -> Iterator[tuple[InputTuple, str]]:
        """(observed inputs, output) for each input of `order`, yielded in
        order: what observe() gives, without the Event.

        A handle may send inputs ahead of the consumer. It still gives what
        one evaluate() call per input gives, each error included, at the same
        input; a consumer may stop at any point."""
        memo_has, check, call = self._memo_has, self._check_inputs, self._call
        record, name = self._record, self.name
        for inputs in order:
            if memo_has(inputs):
                yield inputs, record[inputs]
                continue
            check(inputs)
            out = call(inputs)
            if not is_token(out):
                raise ProgramFailure(f"program {name!r} produced an invalid output token: {out!r}")
            record[inputs] = out
            yield inputs, out

    def _call(self, inputs: InputTuple) -> str:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> Program:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, arity={self.arity})"


def stream(program, order: Iterable[InputTuple]) -> Iterator[tuple[InputTuple, str]]:
    """`program.pairs(order)`. A handle without pairs(), such as a wrapper
    around a Program, is observed once per input."""
    pairs = getattr(program, "pairs", None)
    if pairs is not None:
        return pairs(order)
    return ((e.inputs, e.output) for e in map(program.observe, order))


class BuiltinProgram(Program):
    def __init__(self, name: str, arity: int, fn: Callable[[InputTuple], str]):
        super().__init__(arity, name)
        self._fn = fn

    def _call(self, inputs: InputTuple) -> str:
        return self._fn(inputs)


def _int(name: str, token: str) -> int:
    if not _INT_RE.fullmatch(token):
        raise ProgramFailure(f"builtin {name!r} expects integer tokens, got {token!r}")
    return int(token)


def _bit(name: str, token: str) -> int:
    if token not in ("0", "1"):
        raise ProgramFailure(f"builtin {name!r} expects tokens 0/1, got {token!r}")
    return int(token)


def _benefits(i: InputTuple) -> str:
    return "true" if _int("benefits", i[0]) < 10000 else "false"


def _dist_benefits(i: InputTuple) -> str:
    s = _int("dist-benefits", i[0])
    a = _int("dist-benefits", i[1])
    return "true" if s < 10000 or a > 60 else "false"


def _xor(i: InputTuple) -> str:
    return str(_bit("xor", i[0]) ^ _bit("xor", i[1]))


def _or(i: InputTuple) -> str:
    return str(_bit("or", i[0]) | _bit("or", i[1]))


def _loyalty(i: InputTuple) -> str:
    n = _int("loyalty", i[0])
    if n <= 9:
        return "0"
    if n <= 19:
        return str(n - 10)
    if n <= 24:
        return str(10 * (n - 10))
    if n <= 29:
        return "150"
    return "500"


_BUILTINS: dict[str, tuple[int, Callable[[InputTuple], str]]] = {
    "benefits": (1, _benefits),
    "dist-benefits": (2, _dist_benefits),
    "xor": (2, _xor),
    "or": (2, _or),
    "loyalty": (1, _loyalty),
    "identity": (1, lambda i: i[0]),
}


def make_builtin(name: str) -> Program:
    """Named example program; `const:<v>` yields the constant program v."""
    if name.startswith("const:"):
        value = name[len("const:"):]
        if not is_token(value):
            raise UnknownBuiltin(f"const builtin needs a valid token, got {value!r}")
        return BuiltinProgram(name, 1, lambda i: value)
    entry = _BUILTINS.get(name)
    if entry is None:
        known = ", ".join(sorted(_BUILTINS) + ["const:<v>"])
        raise UnknownBuiltin(f"unknown builtin {name!r} (known: {known})")
    arity, fn = entry
    return BuiltinProgram(name, arity, fn)


class TableProgram(Program):
    """Program backed by an explicit input -> output mapping."""

    def __init__(self, mapping: dict[InputTuple, str], name: str = "table"):
        if not mapping:
            raise ValueError("table must have at least one row")
        arities = {len(k) for k in mapping}
        if len(arities) != 1:
            raise ValueError(f"table rows have mixed arities: {sorted(arities)}")
        super().__init__(arities.pop(), name)
        self.mapping = dict(mapping)

    def _call(self, inputs: InputTuple) -> str:
        try:
            return self.mapping[inputs]
        except KeyError:
            raise InputOutsideDomain(
                f"input {inputs} has no row in table {self.name!r}"
            ) from None

    @classmethod
    def load(cls, path: str) -> TableProgram:
        rows: dict[InputTuple, tuple[str, int]] = {}  # input -> (output, first line)
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, inputs, output in iter_io_lines(file_lines(fh)):
                prior = rows.setdefault(inputs, (output, line_no))
                if prior[0] != output:
                    raise DeterminismViolation(
                        f"line {line_no}: duplicate input {list(inputs)} with output "
                        f"{output!r}, conflicting with line {prior[1]}",
                        line=line_no,
                    )
        if not rows:
            raise ParseError("table file has no rows")
        return cls({inputs: output for inputs, (output, _) in rows.items()}, name=path)

    def infer_domain(self) -> InputDomain:
        """Per-source value sets of the rows, required to form a full product."""
        per_source = [set() for _ in range(self.arity)]
        for key in self.mapping:
            for j, c in enumerate(key):
                per_source[j].add(c)
        domain = InputDomain(per_source)
        if domain.size != len(self.mapping):
            raise ParseError(
                f"table {self.name!r} is not a full product domain: "
                f"{len(self.mapping)} rows, product size {domain.size}"
            )
        return domain


def save_table(mapping: dict[InputTuple, str], path: str) -> None:
    """Write a function table as JSONL rows (inverse of TableProgram.load)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(itertools.starmap(_io_row, mapping.items()))


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
        # Bound on the first start, so that builtin and table programs never
        # import the modules only a child process needs.
        global select, subprocess
        import select
        import subprocess

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
        return ProgramFailure(
            f"{self.name!r}: process exited with code {proc.returncode}{when}",
            stderr=self._stderr_excerpt(),
        )

    def _stderr_excerpt(self) -> str:
        return b"".join(self._stderr_tail).decode("utf-8", errors="replace")

    def _request_line(self, inputs: InputTuple) -> bytes:
        return ("\t".join(inputs) + "\n").encode("utf-8")

    def _parse_reply(self, raw: bytes) -> str:
        if not raw.endswith(b"\n"):
            raise ProgramFailure(
                f"{self.name!r}: reply is not LF-terminated: {raw!r}",
                stderr=self._stderr_excerpt(),
            )
        try:
            token = raw[:-1].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProgramFailure(
                f"{self.name!r}: reply is not valid UTF-8: {raw!r}",
                stderr=self._stderr_excerpt(),
            ) from exc
        if not is_token(token):
            raise ProgramFailure(
                f"{self.name!r}: malformed reply (expected one output token): {token!r}",
                stderr=self._stderr_excerpt(),
            )
        return token

    def pairs(self, order: Iterable[InputTuple]) -> Iterator[tuple[InputTuple, str]]:
        """Program.pairs(), with requests sent ahead: each window of
        requests goes out in one write once the consumer reaches its first
        request, and each reply is read when the consumer reaches its input.

        A memo hit sends nothing, also on an input whose request is still in
        flight. An input that fails its check, or an error raised while
        pulling it from `order`, ends the window and is raised once the
        inputs before it are consumed. Replies the consumer leaves unread
        are discarded by the next request or by close()."""
        order = iter(order)
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
                    hit = self._memo_has(inputs, asked)
                    if not hit:
                        self._check_inputs(inputs)
                except Exception as exc:  # StopIteration too: the end of `order`
                    stop = exc
                    break
                if hit:
                    window.append((inputs, False))
                    continue
                line = self._request_line(inputs)
                if requests and size + len(line) > _WINDOW_BYTES:
                    carry.append(inputs)
                    break
                asked.add(inputs)
                requests.append(line)
                size += len(line)
                window.append((inputs, True))
            for inputs, sent in window:
                if not sent:
                    yield inputs, self._record[inputs]
                    continue
                if requests:
                    self._send(requests, owner)
                    requests = []
                out = self._record[inputs] = self._receive(owner)
                yield inputs, out
            if isinstance(stop, StopIteration):
                return
            if stop is not None:
                raise stop

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
            raise ProgramFailure(
                f"{self.name!r}: unsolicited output line {stray!r}",
                stderr=self._stderr_excerpt(),
            )
        try:
            proc.stdin.write(b"".join(requests))
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ProgramFailure(
                f"{self.name!r}: cannot write request: {exc}",
                stderr=self._stderr_excerpt(),
            ) from exc
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
                raise ProgramFailure(
                    f"{self.name!r}: timed out after {self.timeout}s waiting for a reply",
                    stderr=self._stderr_excerpt(),
                )
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
        request asked for."""
        if self._in_flight:
            self._discard_in_flight()
        leftover = self._shutdown(grace=self.timeout)
        if leftover:
            raise ProgramFailure(
                f"{self.name!r}: unsolicited output line {leftover[0]!r} left over at close",
                stderr=self._stderr_excerpt(),
            )

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
