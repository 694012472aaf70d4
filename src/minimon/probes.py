"""What every whole-domain run shares: the checks it makes before its first
probe (the program takes the domain's arity, and the planned work fits the
probe budget), and the stream of the program's answers.

`tester` and `minimiser` run them; a command that runs neither, such as
`monitor`, does not load this module.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator

from .errors import BudgetExceeded
from .trace import InputDomain, InputTuple

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
