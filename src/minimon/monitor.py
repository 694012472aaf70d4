"""Incremental three-valued monitors for the two trace minimality notions.

A monitor consumes one event at a time and reports TRUE (conclusive
satisfaction: only possible with a declared domain, once every domain
element has been observed), FALSE (conclusive violation, with a witness), or
UNKNOWN. Conclusive verdicts latch: once reached they never change, which is
sound because violations survive every extension and full-coverage
satisfaction cannot be broken by deterministic repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DeterminismViolation, InputOutsideDomain
from .properties import CollisionIndex, Mode, Witness
from .trace import Event, InputDomain, InputTuple, Trace


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
    index: O(1) in monolithic mode, and in strong-distributed mode `arity`
    masked tuples of length arity - 1, so O(arity^2). A repeat costs one
    dictionary lookup.
    """

    def __init__(self, config: MonitorConfig):
        self.config = config
        self._arity: int | None = config.domain.arity if config.domain else None
        self._events_seen = 0
        # input -> (output, first position); determinism record + coverage count
        self._seen_inputs: dict[InputTuple, tuple[str, int]] = {}
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
        pos = self._events_seen
        if self._arity is None:
            self._arity = event.arity
        elif event.arity != self._arity:
            raise ValueError(
                f"event has arity {event.arity}, monitor expects {self._arity}"
            )
        domain = self.config.domain
        if domain is not None and not domain.contains(event.inputs):
            raise InputOutsideDomain(
                f"input {event.inputs} at position {pos} is outside the declared domain",
                position=pos,
            )
        prior = self._seen_inputs.get(event.inputs)
        if prior is not None and prior[0] != event.output:
            raise DeterminismViolation(
                f"input {event.inputs} produced {event.output!r} at position {pos} "
                f"but {prior[0]!r} at position {prior[1]}",
                index=prior[1],
            )
        if prior is None:
            self._seen_inputs[event.inputs] = (event.output, pos)
        self._events_seen = pos + 1

        if self._verdict.conclusive:
            return self._verdict

        hit = self._index.add(event.inputs, event.output, pos) if prior is None else None
        if hit is not None:
            self._verdict = Verdict.FALSE
            self._witness = Witness(self.config.mode, hit[0], pos, hit[1])
        elif (
            domain is not None
            and pos >= 1
            and len(self._seen_inputs) == domain.size
        ):
            self._verdict = Verdict.TRUE
        return self._verdict


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
