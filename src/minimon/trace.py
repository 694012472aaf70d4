"""Core data model: value tokens, events, deterministic traces, input domains.

Values are opaque text tokens compared by exact equality ("5000" != "05000").
A trace is a finite word of input-output events in which equal inputs always
carry equal outputs; violating that constraint is an error, never a verdict,
because it means the observed subject is not a deterministic program.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections.abc import Callable, Collection, Iterable, Iterator
from functools import partial
from io import TextIOBase
from operator import attrgetter, itemgetter

from .errors import DeterminismViolation, ParseError

InputTuple = tuple[str, ...]
_FirstSeen = dict[InputTuple, tuple[str, int]]  # input -> (output, first position)

_INT_RE = re.compile(r"-?[0-9]+")

_json_str = json.encoder.encode_basestring_ascii  # the C escaper json.dumps runs on text


def is_token(value: object) -> bool:
    """True iff `value` is a legal value token: non-empty text, no whitespace."""
    # str.split() breaks at exactly the characters str.isspace() accepts.
    return isinstance(value, str) and value != "" and value.split() == [value]


def check_token(value: object) -> str:
    if not is_token(value):
        raise ValueError(f"not a valid value token: {value!r}")
    return value  # type: ignore[return-value]


def check_input_tuple(coords: object) -> InputTuple:
    """Validate an input event: a non-empty tuple of value tokens."""
    if not isinstance(coords, tuple) or len(coords) == 0:
        raise ValueError(f"input event must be a non-empty tuple, got {coords!r}")
    for c in coords:
        check_token(c)
    return coords


def _canonical_source(tokens: set[str]) -> tuple[str, ...]:
    """The distinct tokens of one source in canonical order: numeric when
    every token is a decimal integer, text otherwise. Tokens with equal
    numeric value but different text ("05" vs "5") tie-break on the text."""
    if all(map(_INT_RE.fullmatch, tokens)):
        return tuple(sorted(tokens, key=lambda t: (int(t), t)))
    return tuple(sorted(tokens))


class _Record:
    """Base of the public record types: the equality and repr that a
    dataclass generates, over the fields a subclass annotates. Mutable, so
    unhashable: a class that defines __eq__ alone gets __hash__ = None."""

    def __init_subclass__(cls) -> None:
        # A class's own annotations only (Python 3.10+): none for _Frozen or a bare subclass.
        if cls.__annotations__:
            cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
            # An attrgetter binds no self: call self._values(self). One field gives the bare value.
            cls._values = attrgetter(*cls._fields)

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class _Frozen(_Record):
    """A record whose fields __init__ sets once; it hashes as their tuple."""

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Event(_Frozen):
    """One observation: an input tuple and the output it produced."""

    inputs: InputTuple
    output: str

    def __init__(self, inputs: InputTuple, output: str) -> None:
        self._set(inputs, output)
        check_input_tuple(inputs)
        check_token(output)

    @property
    def arity(self) -> int:
        return len(self.inputs)


class Trace:
    """An immutable deterministic trace (equal inputs imply equal outputs),
    kept as (inputs, output) pairs; reading an event builds its Event."""

    __slots__ = ("_pairs",)

    def __init__(self, events: Iterable[Event] = ()):
        pairs = []
        arity: int | None = None
        first_seen: _FirstSeen = {}
        for pos, e in enumerate(tuple(events)):
            if not isinstance(e, Event):
                raise TypeError(f"expected Event, got {type(e).__name__}")
            inputs, output = e.inputs, e.output
            if arity is None:
                arity = len(inputs)
            elif len(inputs) != arity:
                raise ValueError(
                    f"event {pos} has arity {len(inputs)}, trace has arity {arity}"
                )
            prior = first_seen.setdefault(inputs, (output, pos))
            if prior[0] != output:
                raise _conflict(inputs, output, pos, prior)
            pairs.append((inputs, output))
        self._pairs = tuple(pairs)

    @classmethod
    def _from_checked(cls, pairs: tuple[tuple[InputTuple, str], ...]) -> Trace:
        """A trace over (inputs, output) pairs of checked tokens already known
        to share one arity and to be deterministic. Skips the scan that
        __init__ makes."""
        trace = object.__new__(cls)
        trace._pairs = pairs
        return trace

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self)

    @property
    def arity(self) -> int | None:
        """Common arity of all events; None for the empty trace."""
        return len(self._pairs[0][0]) if self._pairs else None

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Event]:
        return itertools.starmap(_checked_event, self._pairs)

    def __getitem__(self, i: int | slice) -> Event | tuple[Event, ...]:
        if isinstance(i, slice):
            return tuple(itertools.starmap(_checked_event, self._pairs[i]))
        return _checked_event(*self._pairs[i])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Trace) and self._pairs == other._pairs

    def __hash__(self) -> int:
        # hash(tuple(events)), since Event.__hash__ is hash((inputs, output)).
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"Trace({len(self._pairs)} events, arity={self.arity})"

    def distinct_inputs(self) -> int:
        return len(dict(self._pairs))


class InputDomain:
    """A finite product domain, one ordered value set per input source."""

    __slots__ = ("_sources", "_sets")

    def __init__(self, sources: Iterable[Iterable[str]]):
        canon = []
        for k, src in enumerate(sources):
            tokens = set(src)
            if not tokens:
                raise ValueError(f"source {k} is empty")
            for t in tokens:
                check_token(t)
            canon.append(_canonical_source(tokens))
        if not canon:
            raise ValueError("domain needs at least one source")
        self._adopt(canon)

    def _adopt(self, canon: list[tuple[str, ...]]) -> None:
        """Adopt `canon`: non-empty, each source of distinct checked tokens in canonical order."""
        self._sources = tuple(canon)
        self._sets = tuple(map(frozenset, canon))

    @property
    def sources(self) -> tuple[tuple[str, ...], ...]:
        return self._sources

    @property
    def arity(self) -> int:
        return len(self._sources)

    @property
    def size(self) -> int:
        return math.prod(map(len, self._sources))

    def contains(self, inputs: InputTuple) -> bool:
        return len(inputs) == len(self._sets) and all(
            map(frozenset.__contains__, self._sets, inputs)
        )

    def enumerate(self) -> Iterator[InputTuple]:
        """Every element of the product exactly once, lexicographic in source
        order."""
        return itertools.product(*self._sources)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InputDomain) and self._sources == other._sources

    def __hash__(self) -> int:
        return hash(self._sources)

    def __repr__(self) -> str:
        return f"InputDomain(arity={self.arity}, size={self.size})"

    @classmethod
    def from_dict(cls, obj: object) -> InputDomain:
        """Build from `{"sources": [{"set": [...]} | {"range": [lo, hi]}, ...]}`."""
        if not isinstance(obj, dict) or set(obj) != {"sources"}:
            raise ParseError('domain must be an object with a single "sources" key')
        sources = obj["sources"]
        if not isinstance(sources, list) or not sources:
            raise ParseError('"sources" must be a non-empty array')
        built: list[tuple[str, ...]] = []
        for k, spec in enumerate(sources):
            if not isinstance(spec, dict) or len(spec) != 1:
                raise ParseError(f'source {k}: expected {{"set": ...}} or {{"range": ...}}')
            if "set" in spec:
                vals = spec["set"]
                if not isinstance(vals, list) or not vals:
                    raise ParseError(f'source {k}: "set" must be a non-empty array')
                for v in vals:
                    if not is_token(v):
                        raise ParseError(f"source {k}: invalid token {v!r}")
                built.append(_canonical_source(set(vals)))
            elif "range" in spec:
                rng = spec["range"]
                if (
                    not isinstance(rng, list)
                    or len(rng) != 2
                    or not all(isinstance(b, int) and not isinstance(b, bool) for b in rng)
                ):
                    raise ParseError(f'source {k}: "range" must be [lo, hi] integers')
                lo, hi = rng
                if lo > hi:
                    raise ParseError(f"source {k}: empty range {lo}..{hi}")
                # Ascending integers: distinct tokens, already in canonical order.
                built.append(tuple(map(str, range(lo, hi + 1))))
            else:
                raise ParseError(f'source {k}: expected "set" or "range"')
        domain = object.__new__(cls)  # checked and canonical: skip __init__
        domain._adopt(built)
        return domain


def load_domain(path: str) -> InputDomain:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"domain file is not valid JSON: {exc}") from exc
    return InputDomain.from_dict(obj)


def file_lines(fh: TextIOBase) -> Iterator[str]:
    """The lines of a file opened as UTF-8 text, streamed. Invalid UTF-8
    raises the error a whole-file read raises, whose byte position counts
    from the start of the file, not from the chunk the stream was decoding."""
    try:
        yield from fh
    except UnicodeDecodeError:
        if fh.seekable():
            fh.seek(0)
            fh.read()
        raise


_BLANK = object()  # what _json_line gives for a blank line


def _json_line(line: str, line_no: int) -> object:
    """The value of one JSONL line, numbered `line_no`, or _BLANK."""
    if not line.strip():
        return _BLANK
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=line_no) from exc
    except RecursionError:
        raise ParseError("invalid JSON: nesting too deep", line=line_no) from None


# The compact lines json.dumps(record, separators=(",", ":")) writes, which
# the readers split without a decode. A token character is one the JSON
# scanner reads as itself (no quote, backslash or control character) and
# is_token allows (re's \s on str is exactly what str.isspace accepts). So
# a line matches iff its record decodes with no escape, has these fields in
# this order, and holds only value tokens. A reader with an arity rule
# decodes its first record and then compiles the pattern for that record's
# arity, with one group per token; the inputs reader compiles _INPUT_LINE
# on its first call. re's cache keeps each, so a command that reads no
# JSONL file compiles none.
_TOKEN_CHAR = r'[^"\\\x00-\x20\s]'
_TOKEN = rf'"({_TOKEN_CHAR}+)"'  # group: one token
_TOKENS = rf'"({_TOKEN_CHAR}+(?:","{_TOKEN_CHAR}+)*)"'  # group: the tokens joined by '","'
_INPUT_LINE = rf'\{{"in":\[{_TOKENS}\](?:,"out":"{_TOKEN_CHAR}+")?\}}\n?'


def _io_line(arity: int) -> str:
    """The compact `{"in": [...], "out": ...}` line of `arity` inputs."""
    tokens = ",".join([_TOKEN] * arity)
    return rf'\{{"in":\[{tokens}\],"out":{_TOKEN}\}}\n?'


def _pre_line(arity: int) -> str:
    """The compact `{"from": [...], "to": [...]}` line of `arity` tokens each."""
    tokens = ",".join([_TOKEN] * arity)
    return rf'\{{"from":\[{tokens}\],"to":\[{tokens}\]\}}\n?'


def token_array(obj: dict, key: str, line_no: int) -> InputTuple:
    """The field `key` of a decoded record as a tuple of value tokens."""
    raw = obj[key]
    if not isinstance(raw, list) or len(raw) == 0:
        raise ParseError(f'"{key}" must be a non-empty array', line=line_no)
    for c in raw:
        if not is_token(c):
            raise ParseError(f'invalid token in "{key}": {c!r}', line=line_no)
    return tuple(raw)


def iter_io_lines(lines: Iterable[str], blanks: list[int]) -> Iterator[tuple[InputTuple, str]]:
    """Yield (inputs, output) for each JSONL record of `lines` (see
    _json_line) in trace and table files, any iterable of lines (a file's
    through file_lines), and append the number of each blank line skipped
    to `blanks`.

    Each record's shape and tokens are checked here, once, and every record
    must have the arity of the first; ParseError names the offending line.
    The first record is decoded and sets the arity; after it, a compact line
    of that arity (see _io_line) gives its tokens as the pattern's groups,
    without a decode. Every other line is decoded and goes through the
    per-field checks, which build every error message. Before the first
    fault every non-blank line is a record, so record_line(blanks, pos) is
    the file line of the record at position `pos`.
    """
    match = {}.get  # matches no line until the first record sets the arity
    arity: int | None = None
    for line_no, line in enumerate(lines, start=1):
        m = match(line)
        if m is not None:
            tokens = m.groups()
            yield tokens[:arity], tokens[arity]
            continue
        obj = _json_line(line, line_no)
        if obj is _BLANK:
            blanks.append(line_no)
            continue
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", line=line_no)
        if len(obj) != 2 or "in" not in obj or "out" not in obj:
            raise ParseError(
                f'expected exactly the fields "in" and "out", got {sorted(obj)}',
                line=line_no,
            )
        inputs = token_array(obj, "in", line_no)
        output = obj["out"]
        if not is_token(output):
            raise ParseError(f'invalid "out" token: {output!r}', line=line_no)
        if arity is None:
            arity = len(inputs)
            match = re.compile(_io_line(arity)).fullmatch
        elif len(inputs) != arity:
            raise ParseError(
                f"arity {len(inputs)} differs from earlier arity {arity}",
                line=line_no,
            )
        yield inputs, output


def record_line(blanks: list[int], pos: int) -> int:
    """The file line of the record at position `pos`, counted from 0, of a
    file whose blank lines before the first fault are `blanks`, ascending:
    pos + 1 plus the number of blank lines before it."""
    line = pos + 1
    for blank in blanks:
        if blank > line:
            break
        line += 1
    return line


def _conflict(
    inputs: InputTuple, output: str, pos: int, prior: tuple[str, int], line_of=None
) -> DeterminismViolation:
    """The DeterminismViolation for `inputs` giving `output` at position
    `pos` after `prior`, its (output, first position). With `line_of`, which
    gives the file line of a position, the message names both file lines."""
    if line_of is None:
        return DeterminismViolation(
            f"input {inputs} produced {output!r} at position {pos} "
            f"but {prior[0]!r} at position {prior[1]}",
            index=prior[1],
        )
    line = line_of(pos)
    return DeterminismViolation(
        f"line {line}: input {list(inputs)} produced {output!r} "
        f"but {prior[0]!r} on line {line_of(prior[1])}",
        index=prior[1],
        line=line,
    )


def _checked_event(inputs: InputTuple, output: str) -> Event:
    """An Event from a record iter_io_lines has already checked."""
    event = object.__new__(Event)
    object.__setattr__(event, "inputs", inputs)
    object.__setattr__(event, "output", output)
    return event


def _read_trace(lines: Iterable[str]) -> Trace:
    first_seen: _FirstSeen = {}
    record = first_seen.setdefault
    blanks: list[int] = []
    pairs: list[tuple[InputTuple, str]] = []
    for inputs, output in iter_io_lines(lines, blanks):
        pos = len(pairs)
        prior = record(inputs, (output, pos))
        if prior[0] != output:
            raise _conflict(inputs, output, pos, prior, partial(record_line, blanks))
        pairs.append((inputs, output))
    return Trace._from_checked(tuple(pairs))


def parse_trace(text: str) -> Trace:
    """Parse JSONL `{"in": [...], "out": "..."}` lines into a Trace.

    Raises ParseError with the offending line number, or DeterminismViolation
    when two lines give the same input different outputs.
    """
    return _read_trace(text.split("\n"))


def load_trace(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return _read_trace(file_lines(fh))


_PASS_ROWS = 1024  # rows that _jsonl_rows escapes in one pass


def _jsonl_rows(rows: Iterable[tuple], template: Callable[..., str]) -> Iterator[str]:
    """The JSONL lines json.dumps writes for `rows`, each a tuple of token
    sequences: template(*lengths), which has one "%s" per token, filled with
    the tokens' escaped text. One pass of the C escaper serves a chunk of rows.

    A chunk's tokens are joined with spaces, escaped as one string and split
    at the spaces again: JSON escapes no space and writes none. Its text is
    the first row's template once per row, filled by one `%`. A chunk with a
    token that holds a space, a value that is no `str`, or a row of other
    lengths is written row by row, each token escaped on its own, so the
    text, an error and the text written before it are as row by row."""
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _PASS_ROWS)):
        text = None
        try:
            lengths = [*map(len, chunk[0])]
            parts = [*itertools.chain.from_iterable(chunk)]
            if [*map(len, parts)] == lengths * len(chunk):
                joined = " ".join(itertools.chain.from_iterable(parts))
                pieces = _json_str(joined)[1:-1].split(" ")
                if len(pieces) == sum(lengths) * len(chunk):
                    text = template(*lengths) * len(chunk) % tuple(pieces)
        except TypeError:
            pass
        if text is not None:
            yield text
            continue
        for row in chunk:
            escaped = [[_json_str(token)[1:-1] for token in part] for part in row]
            yield template(*map(len, escaped)) % tuple(itertools.chain.from_iterable(escaped))


def _slots(n: int) -> str:
    """A JSON array of `n` strings, each a "%s"."""
    return "[" + ",".join(['"%s"'] * n) + "]"


def _io_template(n_in: int, _n_out: int) -> str:
    return '{"in":' + _slots(n_in) + ',"out":"%s"}\n'


def _io_rows(pairs: Collection[tuple[InputTuple, str]]) -> Iterator[str]:
    """The JSONL lines of (inputs, output) pairs: a trace or a function table."""
    rows = zip(map(itemgetter(0), pairs), zip(map(itemgetter(1), pairs)))
    return _jsonl_rows(rows, _io_template)


def serialize_trace(trace: Trace) -> str:
    """Inverse of parse_trace (round-trip identity), one event per line."""
    return "".join(_io_rows(trace._pairs))


def parse_input_lines(text: str) -> list[InputTuple]:
    """Parse an inputs file: JSONL with an "in" array per line; an extra "out"
    field is tolerated so recorded traces replay as input streams. A line
    equal to an earlier accepted one gives its tuple without a decode, and
    so does a compact line (see _INPUT_LINE)."""
    lines = text.split("\n")
    accepted: dict[str, InputTuple] = {}  # line text -> its input tuple
    match = re.compile(_INPUT_LINE).fullmatch
    for line_no, line in enumerate(lines, start=1):
        if line in accepted:
            continue
        m = match(line)
        if m is not None:
            accepted[line] = tuple(m[1].split('","'))
            continue
        obj = _json_line(line, line_no)
        if obj is _BLANK:
            continue
        if not isinstance(obj, dict) or "in" not in obj or not set(obj) <= {"in", "out"}:
            raise ParseError('expected an object with an "in" array', line=line_no)
        accepted[line] = token_array(obj, "in", line_no)
    return list(filter(None, map(accepted.get, lines)))  # drops blank lines
