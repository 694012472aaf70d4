"""Shared test utilities: fixed example traces, random generators backed by an
underlying function (so generated traces are always deterministic), naive
quadratic oracles the fast implementations are checked against, and
reference JSONL readers."""

from __future__ import annotations

import itertools
import json
import random
import sys

from minimon import (
    DeterminismViolation, Event, FunctionTable, InputDomain, InputOutsideDomain, ParseError, Trace,
)
from minimon.minimiser import ValidationFailure, ValidationReport
from minimon.properties import CollisionIndex, Mode


def mono(inp: str, out: str) -> Event:
    return Event((inp,), out)


def table1_events() -> list[Event]:
    # salary -> benefits eligibility; third event repeats the first output
    return [
        mono("5000", "true"),
        mono("11000", "false"),
        mono("8000", "true"),
        mono("12000", "false"),
        mono("9000", "true"),
    ]


def table2_events() -> list[Event]:
    # (salary, age) -> eligibility; events 1 and 3 differ only in age
    return [
        Event(("5000", "45"), "true"),
        Event(("11000", "51"), "false"),
        Event(("4000", "21"), "true"),
        Event(("11000", "55"), "false"),
    ]


def random_function_trace(
    rnd: random.Random,
    arity: int | None = None,
    length: int | None = None,
    pool: int = 3,
    out_pool: int = 3,
) -> Trace:
    """A random trace that is deterministic by construction: inputs are drawn
    from a small product domain and outputs come from one random function."""
    if arity is None:
        arity = rnd.randint(1, 3)
    if length is None:
        length = rnd.randint(0, 50)
    sources = [[str(v) for v in range(rnd.randint(1, pool))] for _ in range(arity)]
    inputs = list(itertools.product(*sources))
    fn = {i: str(rnd.randrange(out_pool)) for i in inputs}
    return Trace(Event(i, fn[i]) for i in (rnd.choice(inputs) for _ in range(length)))


def random_full_table(
    rnd: random.Random,
    max_arity: int = 3,
    max_source: int = 4,
    min_size: int = 2,
) -> tuple[InputDomain, dict[tuple[str, ...], str]]:
    """A random total function table over a random product domain.

    Roughly a third of the tables are injective so conclusive-TRUE paths get
    exercised too.
    """
    while True:
        arity = rnd.randint(1, max_arity)
        sources = [
            [str(v) for v in range(rnd.randint(1, max_source))] for _ in range(arity)
        ]
        domain = InputDomain(sources)
        if domain.size >= min_size:
            break
    inputs = list(domain.enumerate())
    if rnd.random() < 0.34:
        mapping = {i: str(k) for k, i in enumerate(inputs)}
    else:
        out_pool = rnd.randint(1, max(1, domain.size - 1))
        mapping = {i: str(rnd.randrange(out_pool)) for i in inputs}
    return domain, mapping


def ref_trace_events(events) -> list[Event]:
    """The events Trace(events) keeps, or the first fault it raises: a
    non-Event, then an arity that differs from the first event's, then an
    output that differs from the input's earlier one."""
    events = list(events)
    for pos, e in enumerate(events):
        if not isinstance(e, Event):
            raise TypeError(f"expected Event, got {type(e).__name__}")
        if len(e.inputs) != len(events[0].inputs):
            raise ValueError(
                f"event {pos} has arity {len(e.inputs)}, trace has arity {len(events[0].inputs)}"
            )
        for prior, earlier in enumerate(events[:pos]):
            if earlier.inputs == e.inputs and earlier.output != e.output:
                raise DeterminismViolation(
                    f"input {e.inputs} produced {e.output!r} at position {pos} "
                    f"but {earlier.output!r} at position {prior}",
                    index=prior,
                )
    return events


def build_table(program, domain: InputDomain) -> FunctionTable:
    """The program's output for every domain element, in enumeration order."""
    return FunctionTable(domain, {i: program.evaluate(i) for i in domain.enumerate()})


def covers(domain: InputDomain, trace: Trace) -> bool:
    """True iff every element of `domain` occurs as an input of `trace`."""
    return {e.inputs for e in trace} == set(domain.enumerate())


def naive_mono_witness(trace: Trace) -> tuple[int, int] | None:
    """Least pair of positions with different inputs, equal outputs."""
    for a in range(len(trace)):
        for b in range(a + 1, len(trace)):
            if (
                trace[a].inputs != trace[b].inputs
                and trace[a].output == trace[b].output
            ):
                return (a, b)
    return None


def single_diff_source(a: tuple[str, ...], b: tuple[str, ...]) -> int | None:
    """The unique coordinate where `a` and `b` differ, or None when they
    differ at zero or several coordinates."""
    if len(a) != len(b):
        raise ValueError(f"arity mismatch: {len(a)} vs {len(b)}")
    found = None
    for j, (x, y) in enumerate(zip(a, b)):
        if x != y:
            if found is not None:
                return None
            found = j
    return found


def naive_sdm_witness(trace: Trace) -> tuple[int, int, int] | None:
    """Least pair of positions whose inputs differ at exactly one coordinate,
    with equal outputs; includes that coordinate."""
    for a in range(len(trace)):
        for b in range(a + 1, len(trace)):
            if trace[a].output != trace[b].output:
                continue
            j = single_diff_source(trace[a].inputs, trace[b].inputs)
            if j is not None:
                return (a, b, j)
    return None


def naive_dist_pair(table) -> tuple[int, str, str] | None:
    """(source, value_a, value_b) for the first source, in order, with two
    values that no context of the other sources tells apart: its least such
    pair of value ranks, found by comparing the outputs of every domain
    input that holds value_a with the same input holding value_b. None when
    every source is distinguished."""
    domain, outputs = table.domain, table.outputs
    for j, src in enumerate(domain.sources):
        for a in range(len(src)):
            for b in range(a + 1, len(src)):
                if all(
                    outputs[i] == outputs[i[:j] + (src[b],) + i[j + 1:]]
                    for i in domain.enumerate()
                    if i[j] == src[a]
                ):
                    return j, src[a], src[b]
    return None


class EagerSdistIndex:
    """Strong-distributed collision index that keys every input's masked
    tuples as it arrives, whether or not its output ever repeats: the
    reference the lazy CollisionIndex is checked against."""

    def __init__(self):
        self.first: dict = {}

    def add(self, inputs, output, pos):
        best = None
        for j in range(len(inputs)):
            prior = self.first.setdefault((j, inputs[:j] + inputs[j + 1:], output), pos)
            if prior != pos and (best is None or prior < best[0]):
                best = (prior, j)
        return best


def ref_validate_preprocessor(program, domain, table) -> ValidationReport:
    """validate_preprocessor as one walk of the domain that evaluates an
    input and its target on the spot and each representative again: the
    reference the single evaluation pass is checked against."""
    mapping = table.mapping
    failures = []
    pre_ok = True
    flagged_targets = set()
    reps_in_order = []
    reps_seen = set()
    for inputs in domain.enumerate():
        target = mapping.get(inputs)
        if target is None:
            raise InputOutsideDomain(
                f"table is not total on the domain: no entry for {inputs}"
            )
        if not domain.contains(target):
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
        if program.evaluate(target) != program.evaluate(inputs):
            failures.append(ValidationFailure(
                "changes-output",
                (inputs, target),
                f"program({inputs}) != program({target}) so the table changes behaviour",
            ))
            pre_ok = False
    injective = True
    index = CollisionIndex(Mode.MONOLITHIC)
    for pos, rep in enumerate(reps_in_order):
        out = program.evaluate(rep)
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


# exec: worker that reads each request's coordinates as mixed-radix digits and
# replies "o<value mod MODULUS>": injective while MODULUS covers the domain,
# colliding early when it is small. With a COUNT_FILE it writes how many
# requests it read there at EOF.
MOD_WORKER = """\
import sys
modulus, radix = int(sys.argv[1]), int(sys.argv[2])
served = 0
for line in sys.stdin:
    served += 1
    value = 0
    for digit in line.rstrip("\\n").split("\\t"):
        value = value * radix + int(digit)
    sys.stdout.write("o%d\\n" % (value % modulus))
    sys.stdout.flush()
if len(sys.argv) > 3:
    with open(sys.argv[3], "w") as fh:
        fh.write(str(served))
"""


def mod_worker(modulus: int, radix: int, count_file=None) -> list[str]:
    """argv of MOD_WORKER; -S skips site imports for a fast start."""
    argv = [sys.executable, "-S", "-c", MOD_WORKER, str(modulus), str(radix)]
    return argv + [str(count_file)] if count_file is not None else argv


def outputs(program, order):
    """The output of each input of `order`, as `program.pairs(order)` yields it."""
    return (out for _, out in program.pairs(order))


# Reference JSONL readers: one json.loads and per-field checks for each line,
# with a per-character token test. The fast readers must accept the same
# records and raise the same errors (class, message, line) at the same line.


def ref_is_token(value: object) -> bool:
    return isinstance(value, str) and value != "" and not any(ch.isspace() for ch in value)


def ref_json_lines(lines):
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=line_no) from exc
        except RecursionError:
            raise ParseError("invalid JSON: nesting too deep", line=line_no) from None
        yield line_no, obj


def ref_token_array(obj: dict, key: str, line_no: int) -> tuple[str, ...]:
    raw = obj[key]
    if not isinstance(raw, list) or len(raw) == 0:
        raise ParseError(f'"{key}" must be a non-empty array', line=line_no)
    for c in raw:
        if not ref_is_token(c):
            raise ParseError(f'invalid token in "{key}": {c!r}', line=line_no)
    return tuple(raw)


def ref_io_records(lines):
    """(line_number, inputs, output) per record of a trace or table file."""
    arity = None
    for line_no, obj in ref_json_lines(lines):
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", line=line_no)
        if len(obj) != 2 or "in" not in obj or "out" not in obj:
            raise ParseError(
                f'expected exactly the fields "in" and "out", got {sorted(obj)}', line=line_no
            )
        inputs = ref_token_array(obj, "in", line_no)
        output = obj["out"]
        if not ref_is_token(output):
            raise ParseError(f'invalid "out" token: {output!r}', line=line_no)
        if arity is None:
            arity = len(inputs)
        elif len(inputs) != arity:
            raise ParseError(f"arity {len(inputs)} differs from earlier arity {arity}", line=line_no)
        yield line_no, inputs, output


def ref_parse_trace(lines) -> Trace:
    """A trace from the records, or the first parse or determinism fault."""
    first: dict[tuple[str, ...], tuple[str, int, int]] = {}
    events = []
    for line_no, inputs, output in ref_io_records(lines):
        prior = first.setdefault(inputs, (output, len(events), line_no))
        if prior[0] != output:
            raise DeterminismViolation(
                f"line {line_no}: input {list(inputs)} produced {output!r} "
                f"but {prior[0]!r} on line {prior[2]}",
                index=prior[1],
                line=line_no,
            )
        events.append(Event(inputs, output))
    return Trace(events)


def ref_table_rows(lines) -> dict[tuple[str, ...], str]:
    """A function table file's rows, or its first parse fault or duplicate
    input with another output, which names both file lines."""
    rows: dict[tuple[str, ...], tuple[str, int]] = {}  # input -> (output, first line)
    for line_no, inputs, output in ref_io_records(lines):
        prior = rows.setdefault(inputs, (output, line_no))
        if prior[0] != output:
            raise DeterminismViolation(
                f"line {line_no}: duplicate input {list(inputs)} with output {output!r}, "
                f"conflicting with line {prior[1]}",
                line=line_no,
            )
    return {inputs: output for inputs, (output, _) in rows.items()}


def ref_input_lines(lines) -> list[tuple[str, ...]]:
    inputs = []
    for line_no, obj in ref_json_lines(lines):
        if not isinstance(obj, dict) or "in" not in obj or not set(obj) <= {"in", "out"}:
            raise ParseError('expected an object with an "in" array', line=line_no)
        inputs.append(ref_token_array(obj, "in", line_no))
    return inputs


def ref_minimiser(lines) -> tuple[dict, int]:
    """(mapping, arity) of a pre-processor table file."""
    mapping: dict = {}
    arity = None
    for line_no, obj in ref_json_lines(lines):
        if not isinstance(obj, dict) or set(obj) != {"from", "to"}:
            raise ParseError('expected exactly the fields "from" and "to"', line=line_no)
        src = ref_token_array(obj, "from", line_no)
        dst = ref_token_array(obj, "to", line_no)
        if arity is None:
            arity = len(src)
        if len(src) != arity or len(dst) != arity:
            raise ParseError(
                f"arities {len(src)}/{len(dst)} differ from earlier arity {arity}", line=line_no
            )
        if mapping.setdefault(src, dst) != dst:
            raise ParseError(f"duplicate entry for {list(src)} with a different target", line=line_no)
    if arity is None:
        raise ParseError("minimiser table file has no entries")
    return mapping, arity
