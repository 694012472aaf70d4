"""Input-minimiser synthesis by output partitioning, plus validation and
composition of arbitrary pre-processor tables.

A pre-processor maps the domain into itself without changing the program's
output and is idempotent; it is a minimiser when the program restricted to
the pre-processor's range is injective. Synthesis groups the domain by
output and sends every input to its class representative, which yields a
minimiser by construction.

The collision index and `random` are imported by the functions that run
them, so that `synth-min` loads neither.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Iterable, Iterator

from .errors import BudgetExceeded, InputOutsideDomain, ParseError
from .probes import check_arity, check_budget, stream
from .programs import Program
from .trace import (
    _BLANK, _PRE_LINE, InputDomain, InputTuple, _Frozen, _json_line,
    _json_tokens, _Record, file_lines, token_array,
)

DEFAULT_SYNTH_CAP = 10**6

REP_LEAST = "least"
REP_FIRST = "first"


class PartitionMap(_Record):
    """Domain inputs grouped by program output (groups in first-seen order,
    members in visitation order)."""

    _fields = ("classes",)
    classes: dict[str, tuple[InputTuple, ...]]

    def __init__(self, classes: dict[str, tuple[InputTuple, ...]]) -> None:
        self._set(classes)

    @property
    def count(self) -> int:
        return len(self.classes)


class MinimiserTable(_Record):
    """A total input -> representative map over some domain."""

    _fields = ("mapping", "arity")
    mapping: dict[InputTuple, InputTuple]
    arity: int

    def __init__(self, mapping: dict[InputTuple, InputTuple], arity: int) -> None:
        self._set(mapping, arity)

    @property
    def representatives(self) -> frozenset[InputTuple]:
        return frozenset(self.mapping.values())

    def apply(self, inputs: InputTuple) -> InputTuple:
        try:
            return self.mapping[inputs]
        except KeyError:
            raise InputOutsideDomain(
                f"input {inputs} has no entry in the minimiser table"
            ) from None


def _rep_picker(rep_strategy: str) -> Callable[[list[InputTuple]], InputTuple]:
    """The function from a class's members, in visitation order, to its representative."""
    if rep_strategy in (REP_LEAST, REP_FIRST):
        return operator.itemgetter(0)
    if rep_strategy.startswith("rand:"):
        import random

        raw = rep_strategy[len("rand:"):]
        try:
            return random.Random(int(raw)).choice
        except ValueError:
            raise ValueError(f"rand strategy needs an integer seed, got {raw!r}") from None
    raise ValueError(
        f"unknown rep_strategy {rep_strategy!r} (expected least, first, or rand:SEED)"
    )


def synthesize(
    program: Program,
    domain: InputDomain,
    rep_strategy: str = REP_LEAST,
) -> tuple[MinimiserTable, PartitionMap]:
    """Partition the domain by output and map each input to its class
    representative.

    The domain is visited in enumeration order, so "least" (each class's
    least element in enumeration order) and "first" (the first one visited)
    pick the same member; "rand:SEED" picks a seeded random member.
    Deterministic for a fixed strategy. A domain of more than
    DEFAULT_SYNTH_CAP elements raises BudgetExceeded before any probe.
    """
    pick = _rep_picker(rep_strategy)
    check_arity(program, domain)
    if domain.size > DEFAULT_SYNTH_CAP:
        raise BudgetExceeded(
            f"domain has {domain.size} elements, synthesis cap is {DEFAULT_SYNTH_CAP}"
        )
    visitation = list(domain.enumerate())
    classes: dict[str, list[InputTuple]] = {}
    for inputs, (_, out) in zip(visitation, stream(program, visitation)):
        classes.setdefault(out, []).append(inputs)

    reps = {out: pick(members) for out, members in classes.items()}
    mapping = {
        inputs: reps[out] for out, members in classes.items() for inputs in members
    }
    partition = PartitionMap({out: tuple(members) for out, members in classes.items()})
    return MinimiserTable(mapping, domain.arity), partition


class ValidationFailure(_Frozen):
    """One counterexample found by validate_preprocessor."""

    _fields = ("kind", "inputs", "note")
    kind: str
    inputs: tuple[InputTuple, ...]
    note: str

    def __init__(self, kind: str, inputs: tuple[InputTuple, ...], note: str) -> None:
        self._set(kind, inputs, note)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "inputs": [list(i) for i in self.inputs], "note": self.note}


class ValidationReport(_Record):
    """Outcome of validate_preprocessor."""

    _fields = ("is_preprocessor", "is_minimiser", "failures")
    is_preprocessor: bool
    is_minimiser: bool
    failures: list[ValidationFailure]

    def __init__(
        self, is_preprocessor: bool, is_minimiser: bool, failures: list[ValidationFailure]
    ) -> None:
        self._set(is_preprocessor, is_minimiser, failures)

    def to_dict(self) -> dict:
        return {
            "is_preprocessor": self.is_preprocessor,
            "is_minimiser": self.is_minimiser,
            "failures": [f.to_dict() for f in self.failures],
        }


def validate_preprocessor(
    program: Program, domain: InputDomain, table: MinimiserTable
) -> ValidationReport:
    """Check a candidate table over the whole domain: targets stay inside the
    domain, outputs are preserved, the map is idempotent, and (for minimiser
    status) the program is injective on the table's range. A domain larger
    than the budget (default 10^7, env-overridable), or one the table is not
    total on, is refused before any probe; then the program's stream
    evaluates each domain element once, and every check is a lookup."""
    from .properties import CollisionIndex, Mode

    check_budget(domain.size, "validation needs {} probes")
    mapping = table.mapping
    order = list(domain.enumerate())
    for inputs in order:
        if inputs not in mapping:
            raise InputOutsideDomain(
                f"table is not total on the domain: no entry for {inputs}"
            )
    outputs = {inputs: out for inputs, (_, out) in zip(order, stream(program, order))}
    failures: list[ValidationFailure] = []
    pre_ok = True
    flagged_targets: set[InputTuple] = set()
    reps_in_order: list[InputTuple] = []
    reps_seen: set[InputTuple] = set()
    for inputs in order:
        target = mapping[inputs]
        if target not in outputs:
            if target not in flagged_targets:
                flagged_targets.add(target)
                failures.append(ValidationFailure(
                    "target-outside-domain",
                    (inputs, target),
                    f"{inputs} maps to {target}, which is outside the domain",
                ))
            pre_ok = False
            continue
        if target not in reps_seen:
            reps_seen.add(target)
            reps_in_order.append(target)
            retarget = mapping.get(target)
            if retarget != target:
                failures.append(ValidationFailure(
                    "not-idempotent",
                    (inputs, target),
                    f"{inputs} maps to {target}, which maps on to {retarget}",
                ))
                pre_ok = False
        if outputs[target] != outputs[inputs]:
            failures.append(ValidationFailure(
                "changes-output",
                (inputs, target),
                f"program({inputs}) != program({target}) so the table changes behaviour",
            ))
            pre_ok = False

    injective = True
    index = CollisionIndex(Mode.MONOLITHIC)
    for pos, rep in enumerate(reps_in_order):
        out = outputs[rep]
        hit = index.add(rep, out, pos)
        if hit is not None:
            prior = reps_in_order[hit[0]]
            failures.append(ValidationFailure(
                "representatives-collide",
                (prior, rep),
                f"representatives {prior} and {rep} share output {out!r}",
            ))
            injective = False
    return ValidationReport(pre_ok, pre_ok and injective, failures)


class ComposedProgram(Program):
    """`program` behind a pre-processor: evaluates program(apply(table, i));
    monitors attached to it observe the pre-processed input."""

    def __init__(self, program: Program, table: MinimiserTable):
        if program.arity != table.arity:
            raise ValueError(
                f"program arity {program.arity} does not match table arity {table.arity}"
            )
        super().__init__(program.arity, f"pre+{program.name}")
        self.program = program
        self.table = table

    def pairs(self, order: Iterable[InputTuple]) -> Iterator[tuple[InputTuple, str]]:
        """The inner program's stream over the pre-processed inputs."""
        return self.program.pairs(map(self.table.apply, order))

    def close(self) -> None:
        self.program.close()


def compose(program: Program, table: MinimiserTable) -> ComposedProgram:
    return ComposedProgram(program, table)


def save_minimiser(table: MinimiserTable, path: str) -> None:
    """Write a table as the JSONL lines json.dumps writes (inverse of load_minimiser)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            '{"from":' + _json_tokens(src) + ',"to":' + _json_tokens(dst) + "}\n"
            for src, dst in table.mapping.items()
        )


def load_minimiser(path: str) -> MinimiserTable:
    """Read a JSONL pre-processor table: lines {"from": [...], "to": [...]}."""
    mapping: dict[InputTuple, InputTuple] = {}
    arity: int | None = None
    match = re.compile(_PRE_LINE).fullmatch
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(file_lines(fh), start=1):
            m = match(line)
            if m is not None:
                src, dst = tuple(m[1].split('","')), tuple(m[2].split('","'))
            if m is None or len(src) != arity or len(dst) != arity:
                obj = _json_line(line, line_no)
                if obj is _BLANK:
                    continue
                if not isinstance(obj, dict) or set(obj) != {"from", "to"}:
                    raise ParseError('expected exactly the fields "from" and "to"', line=line_no)
                src = token_array(obj, "from", line_no)
                dst = token_array(obj, "to", line_no)
                if arity is None:
                    arity = len(src)
                if len(src) != arity or len(dst) != arity:
                    raise ParseError(
                        f"arities {len(src)}/{len(dst)} differ from earlier arity {arity}",
                        line=line_no,
                    )
            if mapping.setdefault(src, dst) != dst:
                raise ParseError(
                    f"duplicate entry for {list(src)} with a different target", line=line_no
                )
    if arity is None:
        raise ParseError("minimiser table file has no entries")
    return MinimiserTable(mapping, arity)
