"""Black-box program handles: builtins and table lookups.

Every handle evaluates each distinct input once, and its first output
answers every repeat, so what a monitor observes is deterministic. A table
file that gives one input two outputs is refused when it is loaded.
External commands (`exec:`) are `command.CommandProgram`, and the bundled
examples that `builtin:<name>` names are in `examples`: each loads only for
the programs that run it.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator

from .errors import (
    DeterminismViolation,
    InputOutsideDomain,
    ParseError,
    ProgramFailure,
    UnknownBuiltin,
)
from .trace import (
    Event, InputDomain, InputTuple, _checked_event, _io_row, check_input_tuple, file_lines,
    is_token, iter_io_lines,
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
        if self._memo_has(inputs):
            return self._record[inputs]
        [(_, output)] = self.pairs((inputs,))
        return output

    def _memo_has(self, inputs: InputTuple, asked: set[InputTuple] | tuple = ()) -> bool:
        """True iff the memo serves `inputs`: recorded or in `asked`, it passed
        _check_inputs() then, so a hit is not checked again."""
        try:
            return inputs in self._record or inputs in asked
        except TypeError:
            return False

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

        A handle may send inputs ahead of the consumer. It still gives what
        one evaluate() call per input gives, each error included, at the same
        input; a consumer may stop at any point."""
        memo_has, check, call = self._memo_has, self._check_inputs, self._call
        record, name = self._record, self.name
        for inputs in order:
            if memo_has(inputs):
                yield inputs, record[inputs]
                continue
            check(inputs)
            out = call(inputs)
            if not is_token(out):
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


class BuiltinProgram(Program):
    def __init__(self, name: str, arity: int, fn: Callable[[InputTuple], str]):
        super().__init__(arity, name)
        self._fn = fn

    def _call(self, inputs: InputTuple) -> str:
        return self._fn(inputs)


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
        rows: dict[InputTuple, tuple[str, int]] = {}  # input -> (output, first line)
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, inputs, output in iter_io_lines(file_lines(fh)):
                prior = rows.setdefault(inputs, (output, line_no))
                if prior[0] != output:
                    raise DeterminismViolation(
                        f"line {line_no}: duplicate input {list(inputs)} with output "
                        f"{output!r}, conflicting with line {prior[1]}",
                        line=line_no,
                    )
        if not rows:
            raise ParseError("table file has no rows")
        return cls({inputs: output for inputs, (output, _) in rows.items()}, name=path)

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
        fh.writelines(itertools.starmap(_io_row, mapping.items()))
