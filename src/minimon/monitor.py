"""Incremental three-valued monitors for the two trace minimality notions.

A monitor consumes one event at a time and reports TRUE (conclusive
satisfaction: only possible with a declared domain, once every domain
element has been observed), FALSE (conclusive violation, with a witness), or
UNKNOWN. Conclusive verdicts latch: once reached they never change, which is
sound because violations survive every extension and full-coverage
satisfaction cannot be broken by deterministic repeats.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import InputOutsideDomain
from .properties import CollisionIndex, Mode, Verdict, Witness
from .trace import Event, InputDomain, InputTuple, Trace, _conflict, _FirstSeen, _Frozen


_UNKNOWN = Verdict.UNKNOWN


def _line(line_of, pos: int) -> str:
    """"line N: ", N the file line of position `pos`; "" without `line_of`."""
    return "" if line_of is None else f"line {line_of(pos)}: "


class MonitorConfig(_Frozen):
    """Monitoring mode plus the optional declared input domain.

    Without a domain the monitor can never conclude TRUE (two-case mode).
    """

    mode: Mode
    domain: InputDomain | None = None

    def __init__(self, mode: Mode, domain: InputDomain | None = None) -> None:
        self._set(mode, domain)


class Monitor:
    """Stateful monitor; feed a stream of (inputs, output) pairs with
    steps(), or one event with step(), which is a one-pair steps(); read
    verdict/witness.

    Violations are detected against a first-occurrence CollisionIndex, which
    also reproduces the least witness pair. Only a new input touches the
    index: O(1) in monolithic mode. In strong-distributed mode it is O(1)
    while the input's output is new; once the output was seen before, it is
    `arity` masked tuples of length arity - 1, so O(arity^2), plus a
    one-time masking of that output's first input. A repeat costs one
    dictionary lookup.

    `first_seen` maps each input stepped so far to (output, first
    position): the determinism record and the coverage count.
    """

    def __init__(self, config: MonitorConfig):
        self.config = config
        self._arity: int | None = config.domain.arity if config.domain else None
        self._size = config.domain.size if config.domain else None  # inputs that give TRUE
        self._events_seen = 0
        self.first_seen: _FirstSeen = {}
        self._index = CollisionIndex(config.mode)
        self._verdict = Verdict.UNKNOWN
        self._witness: Witness | None = None

    @property
    def verdict(self) -> Verdict:
        return self._verdict

    @property
    def witness(self) -> Witness | None:
        return self._witness

    @property
    def events_seen(self) -> int:
        return self._events_seen

    def step(self, event: Event) -> Verdict:
        """Consume one event and return the verdict for the trace so far."""
        [verdict] = self.steps(((event.inputs, event.output),))
        return verdict

    def steps(self, pairs: Iterable[tuple[InputTuple, str]], line_of=None) -> Iterator[Verdict]:
        """Step each (inputs, output) pair, whose tokens the caller has
        already checked, and yield the verdict after it.

        Each input is recorded once in `first_seen`. Only a new input is
        checked for arity and domain, and one that fails is not recorded: so
        every recorded input passed them, and a repeat is not checked again.
        An input of the monitor's arity is in the domain iff each token is
        in its source's value set, as InputDomain.contains says; the sets
        are bound once per stream. `line_of`, when given, maps a position to
        its file line (see trace.record_line): each error then starts with
        "line N: ", and a DeterminismViolation names both file lines. The
        counters live on the monitor, not in this loop, so a stream may
        follow step() calls or a refused input."""
        first_seen = self.first_seen
        record = first_seen.setdefault
        index = self._index.add
        domain = self.config.domain
        sets = domain._sets if domain is not None else None
        has = frozenset.__contains__
        size = self._size
        for inputs, output in pairs:
            pos = self._events_seen
            prior = record(inputs, (output, pos))
            if prior[0] != output:
                raise _conflict(inputs, output, pos, prior, line_of)
            new = prior[1] == pos
            if new:
                if self._arity is None:
                    self._arity = len(inputs)
                elif len(inputs) != self._arity:
                    del first_seen[inputs]
                    raise ValueError(
                        f"{_line(line_of, pos)}event has arity {len(inputs)}, "
                        f"monitor expects {self._arity}"
                    )
                if sets is not None and not all(map(has, sets, inputs)):
                    del first_seen[inputs]
                    raise InputOutsideDomain(
                        f"{_line(line_of, pos)}input {inputs} at position {pos} "
                        "is outside the declared domain",
                        position=pos,
                    )
            self._events_seen = pos + 1
            if self._verdict is _UNKNOWN:
                # Index `pos`, the record's own int, so no second int per input.
                hit = index(inputs, output, pos) if new else None
                if hit is not None:
                    self._verdict = Verdict.FALSE
                    self._witness = Witness(self.config.mode, hit[0], pos, hit[1])
                elif pos and len(first_seen) == size:
                    self._verdict = Verdict.TRUE
            yield self._verdict

    def first_occurrences(self, positions: Sequence[int]) -> list[tuple[InputTuple, str]]:
        """(inputs, output) of the events at `positions`, in order. Each must
        be the first occurrence of its input, as both witness positions and a
        DeterminismViolation's `index` are (KeyError otherwise); the monitor
        keeps no other event. `first_seen`'s insertion order is position
        order, which deleting a refused input keeps, so each is bisected for."""
        from bisect import bisect_left  # only a witness line needs it: not at start-up

        inputs, firsts = list(self.first_seen), list(self.first_seen.values())
        found = []
        for pos in positions:
            i = bisect_left(firsts, pos, key=lambda first: first[1])
            if i == len(firsts) or firsts[i][1] != pos:
                raise KeyError(pos)
            found.append((inputs[i], firsts[i][0]))
        return found


def monitor_eval(config: MonitorConfig, trace: Trace) -> tuple[Verdict, Witness | None]:
    """Verdict and witness for a whole trace (UNKNOWN, None when empty)."""
    mon = Monitor(config)
    for _ in mon.steps(trace._pairs):
        pass
    return mon.verdict, mon.witness


def prefix_verdicts(config: MonitorConfig, trace: Trace) -> list[Verdict]:
    """One verdict per non-empty prefix, computed in a single pass."""
    return list(Monitor(config).steps(trace._pairs))
