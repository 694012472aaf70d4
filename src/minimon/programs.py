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
import json
import queue
import subprocess
import threading
from typing import Callable

from .errors import (
    DeterminismViolation,
    InputOutsideDomain,
    ParseError,
    ProgramFailure,
    UnknownBuiltin,
)
from .trace import _INT_RE, Event, InputDomain, InputTuple, check_input_tuple, is_token, iter_io_lines


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
        check_input_tuple(inputs)
        if len(inputs) != self.arity:
            raise ValueError(
                f"program {self.name!r} has arity {self.arity}, got {len(inputs)} coordinates"
            )
        recorded = self._record.get(inputs)
        if recorded is not None and self.cache_enabled:
            return recorded
        out = self._call(inputs)
        if not is_token(out):
            raise ProgramFailure(
                f"program {self.name!r} produced an invalid output token: {out!r}"
            )
        if recorded is not None and out != recorded:
            raise DeterminismViolation(
                f"program {self.name!r} returned {out!r} for {inputs} "
                f"after previously returning {recorded!r}"
            )
        if recorded is None:
            self._record[inputs] = out
        return out

    def observe(self, inputs: InputTuple) -> Event:
        """The event a monitor attached to this program sees for `inputs`."""
        return Event(inputs, self.evaluate(inputs))

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
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        mapping: dict[InputTuple, str] = {}
        first_line: dict[InputTuple, int] = {}
        arity: int | None = None
        for line_no, inputs, output in iter_io_lines(text):
            if arity is None:
                arity = len(inputs)
            elif len(inputs) != arity:
                raise ParseError(
                    f"arity {len(inputs)} differs from earlier arity {arity}",
                    line=line_no,
                )
            prior = mapping.get(inputs)
            if prior is not None and prior != output:
                raise DeterminismViolation(
                    f"line {line_no}: duplicate input {list(inputs)} with output "
                    f"{output!r}, conflicting with line {first_line[inputs]}",
                    line=line_no,
                )
            if prior is None:
                mapping[inputs] = output
                first_line[inputs] = line_no
        if not mapping:
            raise ParseError("table file has no rows")
        return cls(mapping, name=path, cache=cache)

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

    Session mode (default) keeps one child process and sends one request line
    per evaluation; per-call mode spawns a fresh process per input. Replies
    must arrive within `timeout` seconds.
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

    def _spawn(self) -> None:
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
        threading.Thread(target=_read_stdout, args=(self._proc, self._lines), daemon=True).start()
        threading.Thread(target=_read_stderr, args=(self._proc, self._stderr_tail), daemon=True).start()

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
                f"{self.name!r}: reply is not valid UTF-8: {raw!r}"
            ) from exc
        if not is_token(token):
            raise ProgramFailure(
                f"{self.name!r}: malformed reply (expected one output token): {token!r}",
                stderr=self._stderr_excerpt(),
            )
        return token

    def _call(self, inputs: InputTuple) -> str:
        if self.session:
            return self._call_session(inputs)
        return self._call_once(inputs)

    def _call_session(self, inputs: InputTuple) -> str:
        if self._proc is None:
            self._spawn()
        proc = self._proc
        assert proc is not None
        if proc.poll() is not None:
            raise ProgramFailure(
                f"{self.name!r}: process exited with code {proc.returncode}",
                stderr=self._stderr_excerpt(),
            )
        try:
            assert proc.stdin is not None
            proc.stdin.write(self._request_line(inputs))
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ProgramFailure(
                f"{self.name!r}: cannot write request: {exc}",
                stderr=self._stderr_excerpt(),
            ) from exc
        try:
            raw = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            self.close()
            raise ProgramFailure(
                f"{self.name!r}: timed out after {self.timeout}s waiting for a reply",
                stderr=self._stderr_excerpt(),
            ) from None
        if raw is None:
            try:
                code = proc.wait(timeout=self.timeout)
            except subprocess.TimeoutExpired:
                self.close()
                code = proc.returncode
            raise ProgramFailure(
                f"{self.name!r}: process exited with code {code} before replying",
                stderr=self._stderr_excerpt(),
            )
        return self._parse_reply(raw)

    def _call_once(self, inputs: InputTuple) -> str:
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
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        try:
            if proc.stdin is not None:
                proc.stdin.close()
        except OSError:
            pass
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
