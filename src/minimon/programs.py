"""Black-box program handles: builtins and table lookups, and what every
whole-domain run shares.

Every handle evaluates each distinct input once, and its first output
answers every repeat, so what a monitor observes is deterministic. A table
file that gives one input two outputs is refused when it is loaded.
External commands (`exec:`) are `command.CommandProgram`, and the bundled
examples that `builtin:<name>` names are in `examples`: each loads only for
the programs that run it.

`tester` and `minimiser` make the same checks before their first probe (the
program takes the domain's arity, and the planned work fits the probe
budget), and read the program's answers through the same stream.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator

from .errors import (
    BudgetExceeded,
    DeterminismViolation,
    InputOutsideDomain,
    ParseError,
    ProgramFailure,
    UnknownBuiltin,
)
from .trace import (
    Event, InputDomain, InputTuple, _checked_event, _io_rows, check_input_tuple, file_lines,
    is_token, iter_io_lines, record_line,
)


class Program:
    """Base handle: arity and memo. Each distinct input is evaluated once,
    and its first output answers every repeat."""

    def __init__(self, arity: int, name: str):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.name = name
        self._record: dict[InputTuple, str] = {}

    def evaluate(self, inputs: InputTuple) -> str:
        """The output for `inputs`: the one pair of pairs((inputs,))."""
        [(_, output)] = self.pairs((inputs,))
        return output

    def _check_inputs(self, inputs: InputTuple) -> None:
        """ValueError unless `inputs` is a tuple of `arity` value tokens."""
        check_input_tuple(inputs)
        if len(inputs) != self.arity:
            raise ValueError(
                f"program {self.name!r} has arity {self.arity}, got {len(inputs)} coordinates"
            )

    def observe(self, inputs: InputTuple) -> Event:
        """The event a monitor attached to this program sees for `inputs`:
        the one pair of pairs((inputs,))."""
        [pair] = self.pairs((inputs,))
        return _checked_event(*pair)

    def pairs(self, order: Iterable[InputTuple]) -> Iterator[tuple[InputTuple, str]]:
        """(observed inputs, output) for each input of `order`, yielded in
        order: what observe() gives, without the Event.

        A memo hit is not checked again. A new input is checked by one
        expression (is_token's rule for each item, on an exact tuple), and
        what it refuses by _check_inputs(), which accepts it or raises; an
        output likewise, with is_token().

        A handle may send inputs ahead of the consumer. It still gives what
        one one-input stream per input gives, each error included, at the
        same input; a consumer may stop at any point."""
        check, call = self._check_inputs, self._call
        record, name, arity = self._record, self.name, self.arity
        for inputs in order:
            try:
                hit = inputs in record
                valid = hit or (
                    inputs.__class__ is tuple and len(inputs) == arity
                    and " ".join(inputs).split() == list(inputs)
                )
            except TypeError:  # unhashable, or an item that is no str
                hit = valid = False
            if hit:
                yield inputs, record[inputs]
                continue
            if not valid:
                check(inputs)
            out = call(inputs)
            if not (out.__class__ is str and out.split() == [out]) and not is_token(out):
                raise ProgramFailure(f"program {name!r} produced an invalid output token: {out!r}")
            record[inputs] = out
            yield inputs, out

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


DEFAULT_BUDGET = 10**7
BUDGET_ENV_VAR = "MINIMON_BUDGET"


def check_budget(planned: int, need: str) -> None:
    """BudgetExceeded when `planned` exceeds the budget: DEFAULT_BUDGET, or
    the integer in MINIMON_BUDGET; `need` starts the message, with {} for
    `planned`."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    try:
        budget = DEFAULT_BUDGET if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if planned > budget:
        raise BudgetExceeded(f"{need.format(planned)}, budget is {budget}")


def check_arity(program, domain: InputDomain) -> None:
    """ValueError unless `program` takes inputs of the domain's arity."""
    if program.arity != domain.arity:
        raise ValueError(
            f"program arity {program.arity} does not match domain arity {domain.arity}"
        )


def stream(program, order: Iterable[InputTuple]) -> Iterator[tuple[InputTuple, str]]:
    """`program.pairs(order)`. A handle without pairs(), such as a wrapper
    around a Program, is observed once per input."""
    pairs = getattr(program, "pairs", None)
    if pairs is not None:
        return pairs(order)
    return ((e.inputs, e.output) for e in map(program.observe, order))


class BuiltinProgram(Program):
    def __init__(self, name: str, arity: int, fn: Callable[[InputTuple], str]):
        super().__init__(arity, name)
        self._call = fn


def make_builtin(name: str) -> Program:
    """Named example program; `const:<v>` yields the constant program v."""
    if name.startswith("const:"):
        value = name[len("const:"):]
        if not is_token(value):
            raise UnknownBuiltin(f"const builtin needs a valid token, got {value!r}")
        return BuiltinProgram(name, 1, lambda i: value)
    from .examples import BUILTINS

    entry = BUILTINS.get(name)
    if entry is None:
        known = ", ".join(sorted(BUILTINS) + ["const:<v>"])
        raise UnknownBuiltin(f"unknown builtin {name!r} (known: {known})")
    arity, fn = entry
    return BuiltinProgram(name, arity, fn)


class TableProgram(Program):
    """Program backed by an explicit input -> output mapping."""

    def __init__(self, mapping: dict[InputTuple, str], name: str = "table"):
        if not mapping:
            raise ValueError("table must have at least one row")
        arities = {len(k) for k in mapping}
        if len(arities) != 1:
            raise ValueError(f"table rows have mixed arities: {sorted(arities)}")
        super().__init__(arities.pop(), name)
        self.mapping = dict(mapping)

    def _call(self, inputs: InputTuple) -> str:
        try:
            return self.mapping[inputs]
        except KeyError:
            raise InputOutsideDomain(
                f"input {inputs} has no row in table {self.name!r}"
            ) from None

    @classmethod
    def load(cls, path: str) -> TableProgram:
        rows: dict[InputTuple, tuple[str, int]] = {}  # input -> (output, first position)
        blanks: list[int] = []
        with open(path, "r", encoding="utf-8") as fh:
            for pos, (inputs, output) in enumerate(iter_io_lines(file_lines(fh), blanks)):
                prior = rows.setdefault(inputs, (output, pos))
                if prior[0] != output:
                    line = record_line(blanks, pos)
                    raise DeterminismViolation(
                        f"line {line}: duplicate input {list(inputs)} with output "
                        f"{output!r}, conflicting with line {record_line(blanks, prior[1])}",
                        line=line,
                    )
        if not rows:
            raise ParseError("table file has no rows")
        return cls({inputs: output for inputs, (output, _) in rows.items()}, name=path)

    def infer_domain(self) -> InputDomain:
        """Per-source value sets of the rows, required to form a full product."""
        domain = InputDomain(zip(*self.mapping))
        if domain.size != len(self.mapping):
            raise ParseError(
                f"table {self.name!r} is not a full product domain: "
                f"{len(self.mapping)} rows, product size {domain.size}"
            )
        return domain


def save_table(mapping: dict[InputTuple, str], path: str) -> None:
    """Write a function table as the JSONL rows json.dumps writes (inverse
    of TableProgram.load), one escaping pass per chunk of rows (see
    trace._jsonl_rows)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_io_rows(mapping.items()))
