"""Incremental three-valued monitors for the two trace minimality notions.

A monitor consumes one event at a time and reports TRUE (conclusive
satisfaction: only possible with a declared domain, once every domain
element has been observed), FALSE (conclusive violation, with a witness), or
UNKNOWN. Conclusive verdicts latch: once reached they never change, which is
sound because violations survive every extension and full-coverage
satisfaction cannot be broken by deterministic repeats.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .errors import InputOutsideDomain
from .properties import CollisionIndex, Mode, Witness
from .trace import Event, InputDomain, InputTuple, Trace, _FirstSeen, _record


class Verdict(Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    UNKNOWN = "UNKNOWN"

    @property
    def conclusive(self) -> bool:
        return self is not Verdict.UNKNOWN

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MonitorConfig:
    """Monitoring mode plus the optional declared input domain.

    Without a domain the monitor can never conclude TRUE (two-case mode).
    """

    mode: Mode
    domain: InputDomain | None = None


class Monitor:
    """Stateful monitor; feed events with step(), read verdict/witness.

    Violations are detected against a first-occurrence CollisionIndex, which
    also reproduces the least witness pair. Only a new input touches the
    index: O(1) in monolithic mode. In strong-distributed mode it is O(1)
    while the input's output is new; once the output was seen before, it is
    `arity` masked tuples of length arity - 1, so O(arity^2), plus a
    one-time masking of that output's first input. A repeat costs one
    dictionary lookup.

    `first_seen` maps each input stepped so far to (output, first
    position): the determinism record and the coverage count. A reader may
    record an input there before step_io() does, at the position step_io()
    gives it, as trace.io_records does for check-trace.
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
        return self.step_io(event.inputs, event.output)

    def step_io(self, inputs: InputTuple, output: str) -> Verdict:
        """step() for one (inputs, output) observation whose tokens the
        caller has already checked, as iter_io_lines and Event do. Only a
        new input is checked for arity and domain, and one that fails is not
        recorded: so every recorded input passed them, and a repeat is not
        checked again."""
        pos = self._events_seen
        first = _record(self.first_seen, inputs, output, pos)
        if first == pos:
            try:
                if self._arity is None:
                    self._arity = len(inputs)
                elif len(inputs) != self._arity:
                    raise ValueError(
                        f"event has arity {len(inputs)}, monitor expects {self._arity}"
                    )
                domain = self.config.domain
                if domain is not None and not domain.contains(inputs):
                    raise InputOutsideDomain(
                        f"input {inputs} at position {pos} is outside the declared domain",
                        position=pos,
                    )
            except (ValueError, InputOutsideDomain):
                del self.first_seen[inputs]  # also a reader's record: refused
                raise
        self._events_seen = pos + 1

        if self._verdict is not Verdict.UNKNOWN:
            return self._verdict

        # Index `first`, the record's own int, so no second int per input.
        hit = self._index.add(inputs, output, first) if first == pos else None
        if hit is not None:
            self._verdict = Verdict.FALSE
            self._witness = Witness(self.config.mode, hit[0], pos, hit[1])
        elif pos >= 1 and len(self.first_seen) == self._size:
            self._verdict = Verdict.TRUE
        return self._verdict

    def trace_of(self, events: Sequence[Event]) -> Trace:
        """The Trace of `events`, which must be exactly the events stepped so
        far, built from this monitor's first-occurrence record instead of a
        second scan."""
        return Trace._from_checked(tuple(events), dict(self.first_seen))

    def first_occurrences(self, positions: Sequence[int]) -> list[tuple[InputTuple, str]]:
        """(inputs, output) of the events at `positions`, in order. Each must
        be the first occurrence of its input, as both witness positions and a
        DeterminismViolation's `index` are; the monitor keeps no other event."""
        wanted = set(positions)
        found = {
            pos: (inputs, output)
            for inputs, (output, pos) in self.first_seen.items()
            if pos in wanted
        }
        return [found[pos] for pos in positions]


def monitor_eval(config: MonitorConfig, trace: Trace) -> tuple[Verdict, Witness | None]:
    """Verdict and witness for a whole trace (UNKNOWN, None when empty)."""
    mon = Monitor(config)
    verdict = Verdict.UNKNOWN
    for event in trace:
        verdict = mon.step(event)
    return verdict, mon.witness


def prefix_verdicts(config: MonitorConfig, trace: Trace) -> list[Verdict]:
    """One verdict per non-empty prefix, computed in a single pass."""
    mon = Monitor(config)
    return [mon.step(event) for event in trace]
