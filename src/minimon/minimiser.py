"""Input-minimiser synthesis by output partitioning, plus validation and
composition of arbitrary pre-processor tables.

A pre-processor maps the domain into itself without changing the program's
output and is idempotent; it is a minimiser when the program restricted to
the pre-processor's range is injective. Synthesis groups the domain by
output and sends every input to its class representative, which yields a
minimiser by construction.

`random` is imported by the function that runs it, so that `synth-min`
loads it only to pick random representatives.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Iterable, Iterator

from .errors import BudgetExceeded, InputOutsideDomain, ParseError
from .programs import Program, check_arity, check_budget, stream
from .trace import (
    _BLANK, InputDomain, InputTuple, _Frozen, _json_line, _jsonl_rows, _pre_line, _Record, _slots,
    file_lines, token_array,
)

DEFAULT_SYNTH_CAP = 10**6

REP_LEAST = "least"
REP_FIRST = "first"


class PartitionMap(_Record):
    """Domain inputs grouped by program output (groups in first-seen order,
    members in visitation order)."""

    classes: dict[str, tuple[InputTuple, ...]]

    def __init__(self, classes: dict[str, tuple[InputTuple, ...]]) -> None:
        self._set(classes)

    @property
    def count(self) -> int:
        return len(self.classes)


class MinimiserTable(_Record):
    """A total input -> representative map over some domain."""

    mapping: dict[InputTuple, InputTuple]
    arity: int

    def __init__(self, mapping: dict[InputTuple, InputTuple], arity: int) -> None:
        self._set(mapping, arity)

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

    kind: str
    inputs: tuple[InputTuple, ...]
    note: str

    def __init__(self, kind: str, inputs: tuple[InputTuple, ...], note: str) -> None:
        self._set(kind, inputs, note)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "inputs": [list(i) for i in self.inputs], "note": self.note}


class ValidationReport(_Record):
    """Outcome of validate_preprocessor."""

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
    status) the program is injective on the table's range. A program of
    another arity than the domain's, a domain larger than the budget
    (default 10^7, env-overridable), or one the table is not total on, is
    refused before any probe, in that order; then the program's stream
    evaluates each domain element once, and every check is a lookup."""
    check_arity(program, domain)
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
    targets: dict[InputTuple, None] = {}  # each target once, in first-seen order
    for inputs in order:
        target = mapping[inputs]
        if target not in targets:
            targets[target] = None
            if target not in outputs:
                failures.append(ValidationFailure(
                    "target-outside-domain",
                    (inputs, target),
                    f"{inputs} maps to {target}, which is outside the domain",
                ))
            elif mapping[target] != target:
                failures.append(ValidationFailure(
                    "not-idempotent",
                    (inputs, target),
                    f"{inputs} maps to {target}, which maps on to {mapping[target]}",
                ))
        if target in outputs and outputs[target] != outputs[inputs]:
            failures.append(ValidationFailure(
                "changes-output",
                (inputs, target),
                f"program({inputs}) != program({target}) so the table changes behaviour",
            ))
    pre_ok = not failures
    reps = [target for target in targets if target in outputs]
    first_rep: dict[str, InputTuple] = {}  # output -> its first representative
    for rep in reps:
        out = outputs[rep]
        prior = first_rep.setdefault(out, rep)
        if prior is not rep:
            failures.append(ValidationFailure(
                "representatives-collide",
                (prior, rep),
                f"representatives {prior} and {rep} share output {out!r}",
            ))
    return ValidationReport(pre_ok, not failures, failures)


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


def _pre_template(n_from: int, n_to: int) -> str:
    return '{"from":' + _slots(n_from) + ',"to":' + _slots(n_to) + "}\n"


def save_minimiser(table: MinimiserTable, path: str) -> None:
    """Write a table as the JSONL lines json.dumps writes (inverse of
    load_minimiser), one escaping pass per chunk of rows (see trace._jsonl_rows)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_jsonl_rows(table.mapping.items(), _pre_template))


def load_minimiser(path: str) -> MinimiserTable:
    """Read a JSONL pre-processor table: lines {"from": [...], "to": [...]}.
    Its arity rule and compact lines are read as iter_io_lines reads them."""
    mapping: dict[InputTuple, InputTuple] = {}
    arity: int | None = None
    match = {}.get  # matches no line until the first entry sets the arity
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(file_lines(fh), start=1):
            m = match(line)
            if m is not None:
                tokens = m.groups()
                src, dst = tokens[:arity], tokens[arity:]
            else:
                obj = _json_line(line, line_no)
                if obj is _BLANK:
                    continue
                if not isinstance(obj, dict) or set(obj) != {"from", "to"}:
                    raise ParseError('expected exactly the fields "from" and "to"', line=line_no)
                src = token_array(obj, "from", line_no)
                dst = token_array(obj, "to", line_no)
                if arity is None:
                    arity = len(src)
                    match = re.compile(_pre_line(arity)).fullmatch
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
