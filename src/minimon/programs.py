"""Black-box program handles: builtins, table lookups, external commands.

Every handle enforces the deterministic contract: the first output observed
for an input is recorded, and any later disagreement (possible when the memo
cache is disabled, or across duplicate table rows) is a DeterminismViolation.
External commands speak a line protocol, bit-exact: request = input
coordinates joined by single tabs plus LF on stdin, reply = one LF-terminated
output token on stdout.
"""

from __future__ import annotations

import collections
import itertools
import json
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
    _INT_RE, Event, InputDomain, InputTuple, _checked_event, check_input_tuple, file_lines, is_token,
    iter_io_lines,
)

# An exec: session stream keeps at most this many requests in flight, in at
# most this many bytes of request text: Linux's smallest pipe capacity, so
# writing a window never blocks on a child that stopped reading.
_WINDOW = 64
_WINDOW_BYTES = 4096


def _import_child_modules() -> None:
    """Bind the modules that only a child process needs, on its first start,
    so that builtin and table programs never import them."""
    global queue, subprocess, threading
    import queue
    import subprocess
    import threading


class Program:
    """Base handle: arity, memo cache, determinism record."""

    def __init__(self, arity: int, name: str, cache: bool = True):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.name = name
        self.cache_enabled = cache
        self._record: dict[InputTuple, str] = {}

    def evaluate(self, inputs: InputTuple) -> str:
        self._check_inputs(inputs)
        recorded = self._record.get(inputs)
        if recorded is not None and self.cache_enabled:
            return recorded
        return self._accept(inputs, self._call(inputs))

    def _check_inputs(self, inputs: InputTuple) -> None:
        """ValueError unless `inputs` is a tuple of `arity` value tokens."""
        check_input_tuple(inputs)
        if len(inputs) != self.arity:
            raise ValueError(
                f"program {self.name!r} has arity {self.arity}, got {len(inputs)} coordinates"
            )

    def _accept(self, inputs: InputTuple, out: str) -> str:
        """Check `out`, a fresh output for `inputs`, as a token, then _keep()
        it."""
        if not is_token(out):
            raise ProgramFailure(
                f"program {self.name!r} produced an invalid output token: {out!r}"
            )
        return self._keep(inputs, out)

    def _keep(self, inputs: InputTuple, out: str) -> str:
        """Check `out`, a fresh output token for `inputs`, against the first
        output recorded for `inputs`; record and return it."""
        recorded = self._record.setdefault(inputs, out)
        if out != recorded:
            raise DeterminismViolation(
                f"program {self.name!r} returned {out!r} for {inputs} "
                f"after previously returning {recorded!r}"
            )
        return out

    def observe(self, inputs: InputTuple) -> Event:
        """The event a monitor attached to this program sees for `inputs`."""
        return _checked_event(inputs, self.evaluate(inputs))

    def evaluate_all(self, order: Iterable[InputTuple]) -> Iterator[str]:
        """evaluate() of each input of `order`, yielded in order.

        A handle may send inputs ahead of the consumer. It still gives what
        one evaluate() call per input gives, each error included, at the same
        input; a consumer may stop at any point."""
        return map(self.evaluate, order)

    def observe_all(self, order: Iterable[InputTuple]) -> Iterator[Event]:
        """observe() of each input of `order`, as evaluate_all() gives it."""
        return map(self.observe, order)

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


def stream(program, method: str, order: Iterable[InputTuple]) -> Iterator:
    """`program.<method>_all(order)` for method "evaluate" or "observe". A
    handle that has only the one-input method, such as a wrapper around a
    Program, is called once per input."""
    batch = getattr(program, method + "_all", None)
    if batch is not None:
        return batch(order)
    return map(getattr(program, method), order)


class BuiltinProgram(Program):
    def __init__(self, name: str, arity: int, fn: Callable[[InputTuple], str], cache: bool = True):
        super().__init__(arity, name, cache)
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


def make_builtin(name: str, cache: bool = True) -> Program:
    """Named example program; `const:<v>` yields the constant program v."""
    if name.startswith("const:"):
        value = name[len("const:"):]
        if not is_token(value):
            raise UnknownBuiltin(f"const builtin needs a valid token, got {value!r}")
        return BuiltinProgram(name, 1, lambda i: value, cache)
    entry = _BUILTINS.get(name)
    if entry is None:
        known = ", ".join(sorted(_BUILTINS) + ["const:<v>"])
        raise UnknownBuiltin(f"unknown builtin {name!r} (known: {known})")
    arity, fn = entry
    return BuiltinProgram(name, arity, fn, cache)


class TableProgram(Program):
    """Program backed by an explicit input -> output mapping."""

    def __init__(self, mapping: dict[InputTuple, str], name: str = "table", cache: bool = True):
        if not mapping:
            raise ValueError("table must have at least one row")
        arities = {len(k) for k in mapping}
        if len(arities) != 1:
            raise ValueError(f"table rows have mixed arities: {sorted(arities)}")
        super().__init__(arities.pop(), name, cache)
        self.mapping = dict(mapping)

    def _call(self, inputs: InputTuple) -> str:
        try:
            return self.mapping[inputs]
        except KeyError:
            raise InputOutsideDomain(
                f"input {inputs} has no row in table {self.name!r}"
            ) from None

    @classmethod
    def load(cls, path: str, cache: bool = True) -> TableProgram:
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
        return cls({inputs: output for inputs, (output, _) in rows.items()}, name=path, cache=cache)

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
        for inputs, output in mapping.items():
            fh.write(json.dumps({"in": list(inputs), "out": output}, separators=(",", ":")) + "\n")


def _read_stdout(proc: subprocess.Popen, lines: queue.Queue) -> None:
    for line in proc.stdout:
        lines.put(line)
    lines.put(None)


def _read_stderr(proc: subprocess.Popen, tail: collections.deque) -> None:
    for line in proc.stderr:
        tail.append(line)


class CommandProgram(Program):
    """External executable driven over the tab/LF line protocol.

    Session mode (default) keeps one child process. evaluate() sends one
    request line and waits for its reply; evaluate_all() and observe_all(),
    which every driver uses, keep up to 64 requests in flight, written as
    one batch, and read the replies in order, so the child must read its
    requests as a stream and answer each in turn. Per-call mode spawns a
    fresh process per input. Replies must arrive within `timeout` seconds.
    """

    def __init__(
        self,
        argv: list[str],
        arity: int,
        session: bool = True,
        timeout: float = 10.0,
        cache: bool = True,
    ):
        if not argv:
            raise ValueError("argv must not be empty")
        super().__init__(arity, " ".join(argv), cache)
        self.argv = list(argv)
        self.session = session
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        # Requests written whose replies are unread, and the stream that
        # wrote them (None for a single evaluate()).
        self._in_flight = 0
        self._owner: object | None = None

    def _spawn(self) -> None:
        _import_child_modules()
        try:
            self._proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as exc:
            raise ProgramFailure(f"cannot start {self.name!r}: {exc}") from exc
        # Fresh per child: a killed child's reader must not leave its EOF
        # sentinel or stderr lines where the next child's replies are read.
        self._lines: queue.Queue[bytes | None] = queue.Queue()
        self._stderr_tail: collections.deque[bytes] = collections.deque(maxlen=50)
        self._readers = (
            threading.Thread(target=_read_stdout, args=(self._proc, self._lines), daemon=True),
            threading.Thread(target=_read_stderr, args=(self._proc, self._stderr_tail), daemon=True),
        )
        for reader in self._readers:
            reader.start()

    def _stderr_excerpt(self) -> str:
        return b"".join(self._stderr_tail).decode("utf-8", errors="replace")

    # _parse_reply has checked every reply as a token.
    _accept = Program._keep

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
                f"{self.name!r}: reply is not valid UTF-8: {raw!r}"
            ) from exc
        if not is_token(token):
            raise ProgramFailure(
                f"{self.name!r}: malformed reply (expected one output token): {token!r}",
                stderr=self._stderr_excerpt(),
            )
        return token

    def _unsolicited_line(self) -> bytes | None:
        """A line that is queued while no request is in flight, so no
        request asked for it. An EOF marker stays queued for the reply read."""
        try:
            raw = self._lines.get_nowait()
        except queue.Empty:
            return None
        if raw is None:
            self._lines.put(None)
        return raw

    def _call(self, inputs: InputTuple) -> str:
        if self.session:
            self._send([self._request_line(inputs)])
            return self._receive()
        return self._call_once(inputs)

    def evaluate_all(self, order: Iterable[InputTuple]) -> Iterator[str]:
        if not self.session:
            return super().evaluate_all(order)
        return (output for _, output in self._pipeline(iter(order)))

    def observe_all(self, order: Iterable[InputTuple]) -> Iterator[Event]:
        if not self.session:
            return super().observe_all(order)
        return itertools.starmap(_checked_event, self._pipeline(iter(order)))

    def _pipeline(self, order: Iterator[InputTuple]) -> Iterator[tuple[InputTuple, str]]:
        """(inputs, output) for each input of `order`, for the session
        evaluate_all() and observe_all(): each window of requests goes out in
        one write once the consumer reaches its first request, and each reply
        is read when the consumer reaches its input.

        A memo hit sends nothing, also on an input whose request is still in
        flight. An input that fails its check, or an error raised while
        pulling it from `order`, ends the window and is raised once the
        inputs before it are consumed. Replies the consumer leaves unread
        are discarded by the next request or by close()."""
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
                    self._check_inputs(inputs)
                except Exception as exc:  # StopIteration too: the end of `order`
                    stop = exc
                    break
                if self.cache_enabled and (inputs in asked or inputs in self._record):
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
                yield inputs, self._keep(inputs, self._receive(owner))
            if isinstance(stop, StopIteration):
                return
            if stop is not None:
                raise stop

    def _send(self, requests: list[bytes], owner: object | None = None) -> None:
        """Write `requests` with one write and flush. Replies that an earlier
        stream left unread are discarded first; a line still queued after
        that came unasked."""
        if self._in_flight:
            self._discard_in_flight()
        if self._proc is None:
            self._spawn()
        proc = self._proc
        assert proc is not None
        if proc.poll() is not None:
            raise ProgramFailure(
                f"{self.name!r}: process exited with code {proc.returncode}",
                stderr=self._stderr_excerpt(),
            )
        # One reply line per request: a line that came unasked would be read
        # as the reply to this request and shift every later output by one.
        stray = self._unsolicited_line()
        if stray is not None:
            self._shutdown()
            raise ProgramFailure(
                f"{self.name!r}: unsolicited output line {stray!r}",
                stderr=self._stderr_excerpt(),
            )
        try:
            assert proc.stdin is not None
            proc.stdin.write(b"".join(requests))
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ProgramFailure(
                f"{self.name!r}: cannot write request: {exc}",
                stderr=self._stderr_excerpt(),
            ) from exc
        self._in_flight = len(requests)
        self._owner = owner

    def _receive(self, owner: object | None = None) -> str:
        """The reply to the oldest request in flight."""
        if self._owner is not owner or not self._in_flight:
            raise RuntimeError(
                f"{self.name!r}: the replies this stream waits for were discarded "
                "by a later request"
            )
        try:
            raw = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            self._shutdown()
            raise ProgramFailure(
                f"{self.name!r}: timed out after {self.timeout}s waiting for a reply",
                stderr=self._stderr_excerpt(),
            ) from None
        if raw is None:
            self._in_flight = 0
            proc = self._proc
            assert proc is not None
            try:
                code = proc.wait(timeout=self.timeout)
            except subprocess.TimeoutExpired:
                self._shutdown()
                code = proc.returncode
            raise ProgramFailure(
                f"{self.name!r}: process exited with code {code} before replying",
                stderr=self._stderr_excerpt(),
            )
        self._in_flight -= 1
        return self._parse_reply(raw)

    def _discard_in_flight(self) -> None:
        """Read and drop the replies still in flight, all within one timeout.
        One request at a time would never have sent them, so a failure among
        them is not raised: the child is shut down instead."""
        deadline = time.monotonic() + self.timeout
        while self._in_flight:
            try:
                raw = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raw = None
            if raw is None:
                self._shutdown()
                return
            self._in_flight -= 1

    def _call_once(self, inputs: InputTuple) -> str:
        _import_child_modules()
        try:
            done = subprocess.run(
                self.argv,
                input=self._request_line(inputs),
                capture_output=True,
                timeout=self.timeout,
            )
        except subprocess.TimeoutExpired:
            raise ProgramFailure(
                f"{self.name!r}: timed out after {self.timeout}s"
            ) from None
        except OSError as exc:
            raise ProgramFailure(f"cannot start {self.name!r}: {exc}") from exc
        stderr = done.stderr.decode("utf-8", errors="replace")
        if done.returncode != 0:
            raise ProgramFailure(
                f"{self.name!r}: process exited with code {done.returncode}",
                stderr=stderr,
            )
        if done.stdout.count(b"\n") != 1:
            raise ProgramFailure(
                f"{self.name!r}: expected exactly one reply line, got {done.stdout!r}",
                stderr=stderr,
            )
        return self._parse_reply(done.stdout)

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
        """Close the child's stdin, give it `grace` seconds to exit, stop it
        and close its pipes; return the lines it sent that no reply read
        took."""
        proc = self._proc
        if proc is None:
            return []
        self._proc = None
        self._in_flight = 0
        try:
            if proc.stdin is not None:
                proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        # A reader ends at EOF, which a grandchild still holding the pipe can
        # delay; its pipe is closed only once the reader is done with it.
        for reader, pipe in zip(self._readers, (proc.stdout, proc.stderr)):
            reader.join(timeout=2)
            if not reader.is_alive():
                pipe.close()
        leftover = []
        while True:
            try:
                raw = self._lines.get_nowait()
            except queue.Empty:
                return leftover
            if raw is not None:
                leftover.append(raw)
