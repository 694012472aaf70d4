"""Shared test utilities: fixed example traces, random generators backed by an
underlying function (so generated traces are always deterministic), and naive
quadratic oracles the fast implementations are checked against."""

from __future__ import annotations

import itertools
import random
import sys

from minimon import Event, InputDomain, Trace
from minimon.properties import single_diff_source


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
