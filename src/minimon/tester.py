"""Pre-deployment testing: drive a program over its whole finite domain until
the monitor concludes, plus exhaustive minimality oracles over full tables.

The test loop probes each domain element exactly once, in a seeded random
permutation by default, stepping a monitor on every observation. A conclusive
verdict is guaranteed within domain.size probes: a violation stops early,
otherwise full coverage forces TRUE on the last probe.
"""

from __future__ import annotations

import itertools
import os
import random

from .errors import BudgetExceeded, DomainMismatch
from .monitor import Monitor, MonitorConfig, Verdict
from .programs import stream
from .properties import Mode, Witness, least_collision
from .trace import InputDomain, InputTuple, Trace, _Frozen, _Record

RANDOM_PERMUTATION = "random-permutation"
LEXICOGRAPHIC = "lexicographic"

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


class FunctionTable(_Record):
    """A program materialised as a total map over a product domain."""

    _fields = ("domain", "outputs")
    domain: InputDomain
    outputs: dict[InputTuple, str]

    def __init__(self, domain: InputDomain, outputs: dict[InputTuple, str]) -> None:
        self._set(domain, outputs)


def build_table(program, domain: InputDomain) -> FunctionTable:
    """Invoke the program once per domain element, in enumeration order. A
    domain larger than the budget is refused before any probe."""
    check_arity(program, domain)
    check_budget(domain.size, "table needs {} probes")
    order = list(domain.enumerate())
    pairs = zip(order, stream(program, order))
    return FunctionTable(domain, {inputs: out for inputs, (_, out) in pairs})


class CollisionWitness(_Frozen):
    """Two domain inputs sharing an output; `differing_source` set when the
    collision is between inputs at Hamming distance 1."""

    _fields = ("input_a", "input_b", "differing_source")
    input_a: InputTuple
    input_b: InputTuple
    differing_source: int | None = None

    def __init__(
        self, input_a: InputTuple, input_b: InputTuple, differing_source: int | None = None
    ) -> None:
        self._set(input_a, input_b, differing_source)


class IndistinguishablePair(_Frozen):
    """Two values of one source that no context of the others separates."""

    _fields = ("source", "value_a", "value_b")
    source: int
    value_a: str
    value_b: str

    def __init__(self, source: int, value_a: str, value_b: str) -> None:
        self._set(source, value_a, value_b)


def _table_collision(table: FunctionTable, mode: Mode) -> tuple[bool, CollisionWitness | None]:
    enumerated = enumerate(table.domain.enumerate())
    firsts = ((inputs, table.outputs[inputs], pos) for pos, inputs in enumerated)
    best = least_collision(mode, firsts)
    if best is None:
        return True, None
    input_a, input_b = (
        next(itertools.islice(table.domain.enumerate(), pos, None)) for pos in best[:2]
    )
    return False, CollisionWitness(input_a, input_b, differing_source=best[2])


def table_mono_minimal(table: FunctionTable) -> tuple[bool, CollisionWitness | None]:
    """True iff the table is injective; else the least colliding input pair
    (by enumeration order)."""
    return _table_collision(table, Mode.MONOLITHIC)


def table_strong_dist_minimal(table: FunctionTable) -> tuple[bool, CollisionWitness | None]:
    """True iff every input pair differing in exactly one coordinate has
    distinct outputs; else the least such colliding pair."""
    return _table_collision(table, Mode.STRONG_DISTRIBUTED)


def table_dist_minimal(table: FunctionTable) -> tuple[bool, IndistinguishablePair | None]:
    """True iff for every source, every pair of its values is distinguished by
    the outputs in at least one context of the other sources.

    Two values are indistinguishable exactly when their full output vectors
    over all contexts are equal, so each source is checked by grouping its
    values by output vector. The scan costs arity * domain.size table lookups
    and refuses to start past the budget (default 10^7, env-overridable).
    """
    domain = table.domain
    check_budget(domain.arity * domain.size, "distributed-minimality scan needs {} table lookups")
    output_of = table.outputs.__getitem__
    for j, src in enumerate(domain.sources):
        before, after = domain.sources[:j], domain.sources[j + 1:]
        groups: dict[tuple[str, ...], list[int]] = {}
        for rank, u in enumerate(src):
            # Every context of the other sources, in product order, with u at j.
            vec = tuple(map(output_of, itertools.product(*before, (u,), *after)))
            groups.setdefault(vec, []).append(rank)
        best: tuple[int, int] | None = None
        for ranks in groups.values():
            if len(ranks) >= 2 and (best is None or (ranks[0], ranks[1]) < best):
                best = (ranks[0], ranks[1])
        if best is not None:
            return False, IndistinguishablePair(j, src[best[0]], src[best[1]])
    return True, None


class TestReport(_Record):
    """Outcome of a full-domain test run. Verdicts are always conclusive."""

    _fields = ("verdict", "witness", "steps", "trace", "strategy", "seed")
    verdict: Verdict
    witness: Witness | None
    steps: int
    trace: Trace
    strategy: str
    seed: int | None

    def __init__(
        self, verdict: Verdict, witness: Witness | None, steps: int, trace: Trace,
        strategy: str, seed: int | None,
    ) -> None:
        self._set(verdict, witness, steps, trace, strategy, seed)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "witness": self.witness.to_dict() if self.witness else None,
            "steps": self.steps,
            "strategy": self.strategy,
            "seed": self.seed,
        }


def run_test(
    program,
    domain: InputDomain,
    mode: Mode,
    strategy: str = RANDOM_PERMUTATION,
    seed: int = 0,
) -> TestReport:
    """Probe every domain element until the monitor concludes.

    The monitor steps the (observed inputs, output) pairs that
    `program.pairs()` streams, so for pre-processed compositions the declared
    domain must be the pre-processor's range; otherwise observed inputs
    repeat, the domain runs out inconclusively, and DomainMismatch is raised
    (same for a size-1 domain, which can never reach the two-event minimum
    for a conclusive verdict). A domain larger than the budget (default
    10^7, env-overridable) is refused before any probe.
    """
    if strategy not in (RANDOM_PERMUTATION, LEXICOGRAPHIC):
        raise ValueError(f"unknown strategy {strategy!r}")
    check_arity(program, domain)
    check_budget(domain.size, "test needs up to {} probes")
    order = list(domain.enumerate())
    if strategy == RANDOM_PERMUTATION:
        random.Random(seed).shuffle(order)
    monitor = Monitor(MonitorConfig(mode, domain))
    # `observed` keeps each pair the monitor steps, for the report's trace.
    observed, stepped = itertools.tee(stream(program, order))
    for verdict in monitor.steps(stepped):
        if verdict is not Verdict.UNKNOWN:
            pairs = tuple(itertools.islice(observed, monitor.events_seen))
            return TestReport(
                verdict,
                monitor.witness,
                len(pairs),
                monitor.trace_of(pairs),
                strategy,
                seed if strategy == RANDOM_PERMUTATION else None,
            )
    raise DomainMismatch(
        f"probed all {domain.size} domain elements without a conclusive verdict; "
        "either the domain has fewer than 2 elements or the declared domain is "
        "not the domain of observed inputs (compositions must be tested over "
        "the pre-processor's range)"
    )
