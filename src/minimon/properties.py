"""Trace-level minimality predicates and witness extraction.

Monolithic minimality asks that distinct inputs never share an output;
strong distributed minimality restricts the same demand to input pairs that
differ in exactly one coordinate. Both are decided over whole traces here;
the incremental equivalents live in `monitor` and must agree.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum

from .trace import InputTuple, Trace, _Frozen


class Mode(Enum):
    MONOLITHIC = "monolithic"
    STRONG_DISTRIBUTED = "strong-distributed"

    def __str__(self) -> str:
        return self.value


class Witness(_Frozen):
    """A violating pair of trace positions.

    index_a < index_b, outputs equal; the inputs differ (monolithic) or
    differ at exactly `differing_source` (strong-distributed, 0-based).
    """

    _fields = ("kind", "index_a", "index_b", "differing_source")
    kind: Mode
    index_a: int
    index_b: int
    differing_source: int | None = None

    def __init__(
        self, kind: Mode, index_a: int, index_b: int, differing_source: int | None = None
    ) -> None:
        self._set(kind, index_a, index_b, differing_source)
        if not 0 <= index_a < index_b:
            raise ValueError(f"bad witness indices ({index_a}, {index_b})")
        if (differing_source is not None) != (kind is Mode.STRONG_DISTRIBUTED):
            raise ValueError("differing_source is for strong-distributed witnesses only")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "index_a": self.index_a,
            "index_b": self.index_b,
            "differing_source": self.differing_source,
        }


# Stands in the index for an output that two or more fed inputs share.
_SHARED = object()


class CollisionIndex:
    """First-occurrence collision index behind every minimality check.

    Feed each distinct input once, in increasing position order; since the
    fed inputs are distinct, any hit on an existing key is a collision.
    Monolithic keys are outputs. Strong-distributed keys are (source, input
    without that source, output), but only for outputs that repeat, since a
    collision needs a shared output: an output seen once keys just its
    (inputs, position). The second input with that output swaps the entry
    for a marker and keys the first input's masked tuples at its position.
    So a new input costs O(1) while its output is new, and O(arity^2) once
    it repeats, plus a one-time masking of that output's first input.
    """

    __slots__ = ("_sdist", "_first")

    def __init__(self, mode: Mode):
        self._sdist = mode is Mode.STRONG_DISTRIBUTED
        # A str key (an output) never equals a tuple key (a masked tuple).
        self._first: dict = {}

    def add(self, inputs: InputTuple, output: str, pos: int) -> tuple[int, int | None] | None:
        """Index a new input; return the least earlier colliding (position,
        differing_source), or None. differing_source is None in monolithic
        mode."""
        first = self._first
        if not self._sdist:
            prior = first.setdefault(output, pos)
            return None if prior == pos else (prior, None)
        lone = first.get(output)
        if lone is None:
            first[output] = (inputs, pos)
            return None
        if lone is not _SHARED:
            first[output] = _SHARED
            lone_inputs, lone_pos = lone
            for j in range(len(lone_inputs)):
                first[(j, lone_inputs[:j] + lone_inputs[j + 1:], output)] = lone_pos
        best = None
        for j in range(len(inputs)):
            prior = first.setdefault((j, inputs[:j] + inputs[j + 1:], output), pos)
            if prior != pos and (best is None or prior < best[0]):
                best = (prior, j)
        return best


def least_collision(
    mode: Mode, firsts: Iterable[tuple[InputTuple, str, int]]
) -> tuple[int, int, int | None] | None:
    """Least colliding (index_a, index_b, differing_source) among `firsts`,
    (inputs, output, position) triples of distinct inputs in increasing
    position order, or None."""
    index = CollisionIndex(mode)
    best = None
    for inputs, output, pos in firsts:
        hit = index.add(inputs, output, pos)
        if hit is not None and (best is None or hit[0] < best[0]):
            best = (hit[0], pos, hit[1])
    return best


def find_witness(mode: Mode, trace: Trace) -> Witness | None:
    """Least violating pair of `trace` under `mode`, or None.

    Only first occurrences are indexed: if either event of a violating pair
    repeats an earlier input, swapping in that earlier event gives a smaller
    violating pair, so the least pair never contains a repeat.
    """
    firsts = ((inputs, out, pos) for inputs, (out, pos) in trace._first_seen.items())
    best = least_collision(mode, firsts)
    return None if best is None else Witness(mode, *best)
