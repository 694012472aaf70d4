"""Cross-command agreement: on one full function table, the oracle, the
whole-domain test and the trace check decide the same notion, and a
synthesised minimiser validates."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math

from hypothesis import HealthCheck, example, given, settings, strategies as st

from minimon import Event, Trace
from minimon.cli import main

from helpers import naive_mono_witness, naive_sdm_witness


def run(*argv: str) -> tuple[int, str]:
    """Exit code and stdout of one in-process command; stderr must be empty."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert err.getvalue() == ""
    return code, out.getvalue()


@st.composite
def full_tables(draw):
    """(sources, outputs in enumeration order) of a full table of arity 1-3,
    at most 4 values per source and at least 2 inputs, over a 1-3 letter
    output alphabet."""
    sizes = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda s: math.prod(s) >= 2)
    )
    letters = "abc"[: draw(st.integers(1, 3))]
    n = math.prod(sizes)
    outputs = draw(st.lists(st.sampled_from(letters), min_size=n, max_size=n))
    return [[str(v) for v in range(size)] for size in sizes], outputs


def oracle_line(mode: str, inputs: list[tuple[str, ...]], trace: Trace) -> str | None:
    """The oracle's witness line: the least colliding pair of the whole
    table, from the naive quadratic scan."""
    if mode == "mono":
        pair, source = naive_mono_witness(trace), None
    else:
        found = naive_sdm_witness(trace)
        pair, source = (None, None) if found is None else (found[:2], found[2])
    if pair is None:
        return None
    a, b = ("/".join(inputs[k]) for k in pair)
    text = f"witness: inputs {a} and {b} share an output"
    return text if source is None else f"{text}, differing source {source}"


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(full_tables())
@example(table=([["0", "1", "2", "3"]], ["a", "b", "b", "a"]))
def test_commands_agree_on_full_tables(tmp_path, table):
    sources, outputs = table
    inputs = list(itertools.product(*sources))
    table_path = tmp_path / "table.jsonl"
    table_path.write_text(
        "".join(json.dumps({"in": list(i), "out": o}) + "\n" for i, o in zip(inputs, outputs))
    )
    domain_path = tmp_path / "domain.json"
    domain_path.write_text(json.dumps({"sources": [{"set": s} for s in sources]}))
    table_file, domain_file = str(table_path), str(domain_path)
    trace = Trace(Event(i, o) for i, o in zip(inputs, outputs))

    minimal = {}
    for mode in ("mono", "sdist"):
        code, oracle_out = run("oracle", "--table", table_file, "--notion", mode)
        test_code, test_out = run(
            "test", "--program", f"table:{table_file}", "--domain", domain_file,
            "--mode", mode, "--strategy", "lex",
        )
        trace_code, trace_out = run(
            "check-trace", "--trace", table_file, "--mode", mode, "--domain", domain_file
        )
        assert test_code == trace_code == code
        verdict, _steps, *test_witness = test_out.splitlines()
        assert [verdict, *test_witness] == trace_out.splitlines()
        expected = oracle_line(mode, inputs, trace)
        assert oracle_out.splitlines()[1:] == ([] if expected is None else [expected])
        minimal[mode] = code == 0
    minimal["dist"] = run("oracle", "--table", table_file, "--notion", "dist")[0] == 0
    assert minimal["mono"] <= minimal["sdist"] <= minimal["dist"]

    pre_file = str(tmp_path / "pre.jsonl")
    over = ("--program", f"table:{table_file}", "--domain", domain_file)
    assert run("synth-min", *over, "--out", pre_file)[0] == 0
    assert run("check-pre", *over, "--pre", pre_file) == (0, "preprocessor: yes\nminimiser: yes\n")


def test_oracle_and_monitors_name_different_pairs(tmp_path):
    """On outputs a, b, b, a the oracle names the least pair of the whole
    table, the monitors the least pair of the first violating prefix."""
    table_file = tmp_path / "table.jsonl"
    table_file.write_text(
        "".join(json.dumps({"in": [str(k)], "out": o}) + "\n" for k, o in enumerate("abba"))
    )
    assert run("oracle", "--table", str(table_file), "--notion", "mono") == (
        1, "non-minimal\nwitness: inputs 0 and 3 share an output\n"
    )
    assert run("check-trace", "--trace", str(table_file), "--mode", "mono") == (
        1, "FALSE\nwitness: events 1 and 2, inputs 1 and 2, shared output b\n"
    )
