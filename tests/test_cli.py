"""End-to-end command-line tests via `python -m minimon`."""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from minimon import (
    InputDomain,
    MinimonError,
    MonitorConfig,
    load_minimiser,
    monitor_eval,
    parse_trace,
    prefix_verdicts,
)
from minimon.cli import _MODES, cmd_check_trace, main

TABLE1_TRACE = (
    '{"in":["5000"],"out":"true"}\n'
    '{"in":["11000"],"out":"false"}\n'
    '{"in":["8000"],"out":"true"}\n'
    '{"in":["12000"],"out":"false"}\n'
    '{"in":["9000"],"out":"true"}\n'
)

TABLE2_TRACE = (
    '{"in":["5000","45"],"out":"true"}\n'
    '{"in":["11000","51"],"out":"false"}\n'
    '{"in":["4000","21"],"out":"true"}\n'
    '{"in":["11000","55"],"out":"false"}\n'
)

XOR_TRACE = (
    '{"in":["0","0"],"out":"0"}\n'
    '{"in":["0","1"],"out":"1"}\n'
    '{"in":["1","0"],"out":"1"}\n'
    '{"in":["1","1"],"out":"0"}\n'
)

OR_TABLE = (
    '{"in":["0","0"],"out":"0"}\n'
    '{"in":["0","1"],"out":"1"}\n'
    '{"in":["1","0"],"out":"1"}\n'
    '{"in":["1","1"],"out":"1"}\n'
)

PROJECTION_TABLE = (
    '{"in":["0","0"],"out":"0"}\n'
    '{"in":["0","1"],"out":"0"}\n'
    '{"in":["1","0"],"out":"1"}\n'
    '{"in":["1","1"],"out":"1"}\n'
)

BITS_DOMAIN = '{"sources":[{"set":["0","1"]},{"set":["0","1"]}]}'


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "minimon", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


class TestCheckTrace:
    def test_threshold_trace_violation(self, files):
        trace = files("t1.jsonl", TABLE1_TRACE)
        result = run_cli("check-trace", "--trace", trace, "--mode", "mono")
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert lines[0] == "FALSE"
        assert "events 0 and 2" in lines[1]
        assert "shared output true" in lines[1]

    def test_threshold_trace_json(self, files):
        trace = files("t1.jsonl", TABLE1_TRACE)
        result = run_cli("check-trace", "--trace", trace, "--mode", "mono", "--json")
        assert result.returncode == 1
        assert json.loads(result.stdout) == {
            "command": "check-trace",
            "mode": "monolithic",
            "events": 5,
            "verdict": "FALSE",
            "witness": {
                "kind": "monolithic",
                "index_a": 0,
                "index_b": 2,
                "differing_source": None,
            },
            "prefix_verdicts": ["UNKNOWN", "UNKNOWN", "FALSE", "FALSE", "FALSE"],
        }

    def test_two_source_trace_strong_dist(self, files):
        trace = files("t2.jsonl", TABLE2_TRACE)
        result = run_cli("check-trace", "--trace", trace, "--mode", "sdist")
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert lines[0] == "FALSE"
        assert "events 1 and 3" in lines[1]
        assert "differing source 1" in lines[1]

    def test_full_coverage_true(self, files):
        trace = files("xor.jsonl", XOR_TRACE)
        domain = files("bits.json", BITS_DOMAIN)
        result = run_cli(
            "check-trace", "--trace", trace, "--mode", "sdist", "--domain", domain
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "TRUE"

    def test_empty_trace_unknown(self, files):
        trace = files("empty.jsonl", "")
        result = run_cli("check-trace", "--trace", trace, "--mode", "mono")
        assert result.returncode == 2
        assert result.stdout.splitlines()[0] == "UNKNOWN"

    def test_parse_error(self, files):
        trace = files("bad.jsonl", '{"in":["1"],"out":"a"}\nnot json\n')
        result = run_cli("check-trace", "--trace", trace, "--mode", "mono")
        assert result.returncode == 3
        assert "error:" in result.stderr
        assert "line 2" in result.stderr


    def test_conflict_names_both_lines(self, files):
        trace = files(
            "conflict.jsonl",
            '{"in":["1"],"out":"a"}\n\n{"in":["2"],"out":"a"}\n{"in":["1"],"out":"b"}\n',
        )
        result = run_cli("check-trace", "--trace", trace, "--mode", "mono")
        assert result.returncode == 3
        assert result.stderr == (
            "error: line 4: input ['1'] produced 'b' but 'a' on line 1\n"
        )


_FAULTS = (None, "conflict", "arity", "token", "json", "outside", "domain-arity")


def _faulty_trace(rnd: random.Random, fault: str | None, with_domain: bool):
    """JSONL text with repeats and blank lines, at most one fault, and the
    domain object that goes with it (None without a domain)."""
    arity = rnd.randint(1, 3)
    values = [str(v) for v in range(rnd.randint(1, 3))]
    pool = list(itertools.product(values, repeat=arity))
    fn = {i: rnd.choice("xyz") for i in pool}
    records = [{"in": list(i), "out": fn[i]} for i in
               (rnd.choice(pool) for _ in range(rnd.randint(0, 12)))]
    at = rnd.randint(0, len(records))
    if fault == "conflict" and at > 0:
        prior = rnd.choice(records[:at])
        records.insert(at, {"in": prior["in"], "out": prior["out"] + "2"})
    elif fault == "arity" and (at > 0 or not with_domain):
        # (first, it would clash with the domain's arity too: two faults)
        records.insert(at, {"in": list(pool[0]) + ["0"], "out": "x"})
    elif fault == "token":
        records.insert(at, rnd.choice([{"in": ["a b"] * arity, "out": "x"},
                                       {"in": list(pool[0]), "out": ""}]))
    elif fault == "json":
        records.insert(at, "not json")
    elif fault == "outside":
        records.insert(at, {"in": ["w"] * arity, "out": "w"})
    lines = [r if isinstance(r, str) else json.dumps(r) for r in records]
    for _ in range(rnd.randint(0, 3)):
        lines.insert(rnd.randint(0, len(lines)), rnd.choice(["", "  "]))
    text = "\n".join(lines) + rnd.choice(["", "\n"])
    domain = None
    if with_domain:
        extra = 1 if fault == "domain-arity" else 0
        domain = {"sources": [{"set": values}] * (arity + extra)}
    return text, domain


def _parse_then_monitor(text, domain, mode, as_json):
    """check-trace's output and exit code (or its error) from parsing the
    whole file first and then monitoring the Trace: the reference that the
    streamed command must match."""
    config = MonitorConfig(mode, domain and InputDomain.from_dict(domain))
    try:
        trace = parse_trace(text)
        verdicts = prefix_verdicts(config, trace)
        verdict, witness = monitor_eval(config, trace)
    except (MinimonError, ValueError) as exc:
        return exc
    if as_json:
        out = json.dumps({
            "command": "check-trace",
            "mode": mode.value,
            "events": len(trace),
            "verdict": verdict.value,
            "witness": witness.to_dict() if witness else None,
            "prefix_verdicts": [v.value for v in verdicts],
        }) + "\n"
    else:
        out = verdict.value + "\n"
        if witness is not None:
            a, b = trace[witness.index_a], trace[witness.index_b]
            out += (
                f"witness: events {witness.index_a} and {witness.index_b}, "
                f"inputs {'/'.join(a.inputs)} and {'/'.join(b.inputs)}, "
                f"shared output {b.output}"
            )
            if witness.differing_source is not None:
                out += f", differing source {witness.differing_source}"
            out += "\n"
    return out, {"TRUE": 0, "FALSE": 1, "UNKNOWN": 2}[verdict.value]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["mono", "sdist"]),
    with_domain=st.booleans(),
    fault=st.sampled_from(_FAULTS),
    as_json=st.booleans(),
)
def test_streamed_check_trace_matches_parse_then_monitor(seed, mode, with_domain, fault, as_json):
    """With at most one fault in the file, streaming gives the same output,
    exit code and error (class, message, line, position) as parsing the
    whole trace first."""
    text, domain = _faulty_trace(random.Random(seed), fault, with_domain)
    expected = _parse_then_monitor(text, domain, _MODES[mode], as_json)
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.jsonl")
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        domain_path = None
        if domain is not None:
            domain_path = os.path.join(tmp, "domain.json")
            with open(domain_path, "w", encoding="utf-8") as fh:
                json.dump(domain, fh)
        args = argparse.Namespace(trace=trace_path, mode=mode, domain=domain_path, json=as_json)
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                got = (stdout, cmd_check_trace(args))
        except (MinimonError, ValueError) as exc:
            got = exc
        if isinstance(expected, Exception):
            assert type(got) is type(expected)
            assert str(got) == str(expected)
            for attr in ("line", "index", "position"):
                assert getattr(got, attr, None) == getattr(expected, attr, None)
            argv = ["check-trace", "--trace", trace_path, "--mode", mode]
            argv += ["--domain", domain_path] if domain_path else []
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                assert main(argv + (["--json"] if as_json else [])) == 3
            assert stderr.getvalue() == f"error: {expected}\n"
        else:
            assert not isinstance(got, Exception), got
            assert (got[0].getvalue(), got[1]) == expected


class TestMonitor:
    def test_replay_inputs_until_violation(self, files):
        inputs = files(
            "inputs.jsonl",
            '{"in":["5000"]}\n{"in":["11000"]}\n{"in":["8000"]}\n{"in":["12000"]}\n',
        )
        result = run_cli(
            "monitor", "--program", "builtin:benefits", "--mode", "mono",
            "--inputs", inputs,
        )
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert len(lines) == 4  # three steps plus the witness line
        assert lines[0] == "1\t5000\ttrue\tUNKNOWN"
        assert lines[1] == "2\t11000\tfalse\tUNKNOWN"
        assert lines[2] == "3\t8000\ttrue\tFALSE"
        assert lines[3].startswith("witness: events 0 and 2")

    def test_random_sampling_finds_violation(self, files):
        domain = files("d.json", '{"sources":[{"range":[0,99]}]}')
        result = run_cli(
            "monitor", "--program", "builtin:benefits", "--mode", "mono",
            "--domain", domain, "--random", "--seed", "4",
        )
        assert result.returncode == 1
        assert result.stdout.splitlines()[-1].startswith("witness:")

    def test_preprocessed_program_stays_unknown(self, files, tmp_path):
        domain = files("d.json", '{"sources":[{"range":[1,30000]}]}')
        out = str(tmp_path / "min.jsonl")
        synth = run_cli(
            "synth-min", "--program", "builtin:benefits", "--domain", domain,
            "--out", out,
        )
        assert synth.returncode == 0
        result = run_cli(
            "monitor", "--program", "builtin:benefits", "--mode", "mono",
            "--domain", domain, "--random", "--pre", out, "--max-steps", "50",
        )
        assert result.returncode == 2
        lines = result.stdout.splitlines()
        assert len(lines) == 50
        assert all(line.endswith("UNKNOWN") for line in lines)
        observed = {line.split("\t")[1] for line in lines}
        assert observed <= {"1", "10000"}

    def test_random_without_domain(self):
        result = run_cli(
            "monitor", "--program", "builtin:benefits", "--mode", "mono", "--random"
        )
        assert result.returncode == 3
        assert "error:" in result.stderr


class TestTest:
    def test_xor_strong_dist_json(self, files):
        domain = files("bits.json", BITS_DOMAIN)
        result = run_cli(
            "test", "--program", "builtin:xor", "--domain", domain,
            "--mode", "sdist", "--json",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["verdict"] == "TRUE"
        assert payload["steps"] == 4
        assert payload["domain_size"] == 4
        assert payload["witness"] is None
        assert payload["command"] == "test"

    def test_threshold_program_fails(self, files):
        domain = files("d.json", '{"sources":[{"range":[0,30000]}]}')
        result = run_cli(
            "test", "--program", "builtin:benefits", "--domain", domain,
            "--mode", "mono",
        )
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert lines[0] == "FALSE"
        assert lines[1].endswith("of 30001")
        assert lines[2].startswith("witness:")

    def test_preprocessed_program_passes_over_representatives(self, files, tmp_path):
        raw_domain = files("raw.json", '{"sources":[{"range":[1,30000]}]}')
        reps_domain = files("reps.json", '{"sources":[{"set":["1","10000"]}]}')
        out = str(tmp_path / "min.jsonl")
        synth = run_cli(
            "synth-min", "--program", "builtin:benefits", "--domain", raw_domain,
            "--out", out,
        )
        assert synth.returncode == 0
        result = run_cli(
            "test", "--program", "builtin:benefits", "--domain", reps_domain,
            "--mode", "mono", "--pre", out, "--json",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["verdict"] == "TRUE"
        assert payload["steps"] == 2

    def test_lexicographic_strategy(self, files):
        domain = files("d.json", '{"sources":[{"range":[0,30000]}]}')
        result = run_cli(
            "test", "--program", "builtin:benefits", "--domain", domain,
            "--mode", "mono", "--strategy", "lex", "--json",
        )
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["steps"] == 2  # 0 and 1 share an output immediately
        assert payload["seed"] is None


class TestSynthMin:
    def test_segmented_program(self, files, tmp_path):
        domain = files("d.json", '{"sources":[{"range":[0,100]}]}')
        out = str(tmp_path / "min.jsonl")
        result = run_cli(
            "synth-min", "--program", "builtin:loyalty", "--domain", domain,
            "--out", out,
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0].startswith("17 partitions (")
        assert lines[0].endswith("s)")
        assert lines[1] == f"wrote {out}"
        table = load_minimiser(out)
        assert len(table.mapping) == 101
        assert len(table.representatives) == 17

    def test_threshold_program(self, files, tmp_path):
        domain = files("d.json", '{"sources":[{"range":[1,30000]}]}')
        out = str(tmp_path / "min.jsonl")
        result = run_cli(
            "synth-min", "--program", "builtin:benefits", "--domain", domain,
            "--out", out,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0].startswith("2 partitions (")
        table = load_minimiser(out)
        assert table.representatives == {("1",), ("10000",)}


class TestCheckPre:
    def test_synthesized_table_validates(self, files, tmp_path):
        domain = files("d.json", '{"sources":[{"range":[1,30000]}]}')
        out = str(tmp_path / "min.jsonl")
        run_cli("synth-min", "--program", "builtin:benefits", "--domain", domain,
                "--out", out)
        result = run_cli(
            "check-pre", "--program", "builtin:benefits", "--domain", domain,
            "--pre", out,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines() == ["preprocessor: yes", "minimiser: yes"]

    def test_colliding_representatives_fail(self, files):
        program = files(
            "prog.jsonl",
            '{"in":["1"],"out":"a"}\n{"in":["2"],"out":"a"}\n'
            '{"in":["3"],"out":"b"}\n{"in":["4"],"out":"b"}\n',
        )
        domain = files("d.json", '{"sources":[{"range":[1,4]}]}')
        pre = files(
            "pre.jsonl",
            '{"from":["1"],"to":["1"]}\n{"from":["2"],"to":["1"]}\n'
            '{"from":["3"],"to":["3"]}\n{"from":["4"],"to":["4"]}\n',
        )
        result = run_cli(
            "check-pre", "--program", f"table:{program}", "--domain", domain,
            "--pre", pre,
        )
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert lines[0] == "preprocessor: yes"
        assert lines[1] == "minimiser: no"
        assert "representatives-collide" in lines[2]

    def test_json_report(self, files):
        program = files("prog.jsonl", '{"in":["1"],"out":"a"}\n{"in":["2"],"out":"b"}\n')
        domain = files("d.json", '{"sources":[{"set":["1","2"]}]}')
        pre = files("pre.jsonl", '{"from":["1"],"to":["1"]}\n{"from":["2"],"to":["2"]}\n')
        result = run_cli(
            "check-pre", "--program", f"table:{program}", "--domain", domain,
            "--pre", pre, "--json",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload == {
            "command": "check-pre",
            "is_preprocessor": True,
            "is_minimiser": True,
            "failures": [],
        }

    def test_budget_env_is_honoured(self, files):
        import os

        domain = files("d.json", '{"sources":[{"set":["1","2"]}]}')
        pre = files("pre.jsonl", '{"from":["1"],"to":["1"]}\n{"from":["2"],"to":["2"]}\n')
        args = ("check-pre", "--program", "builtin:identity", "--domain", domain, "--pre", pre)
        result = run_cli(*args, env=dict(os.environ, MINIMON_BUDGET="1"))
        assert result.returncode == 3
        assert result.stdout == ""
        assert "budget is 1" in result.stderr
        assert run_cli(*args, env=dict(os.environ, MINIMON_BUDGET="2")).returncode == 0


class TestOracle:
    def test_xor_table(self, files):
        table = files("xor.jsonl", XOR_TRACE)
        mono = run_cli("oracle", "--table", table, "--notion", "mono")
        assert mono.returncode == 1
        assert mono.stdout.splitlines()[0] == "non-minimal"
        sdist = run_cli("oracle", "--table", table, "--notion", "sdist")
        assert sdist.returncode == 0
        assert sdist.stdout.splitlines() == ["minimal"]
        dist = run_cli("oracle", "--table", table, "--notion", "dist")
        assert dist.returncode == 0

    def test_or_table(self, files):
        table = files("or.jsonl", OR_TABLE)
        sdist = run_cli("oracle", "--table", table, "--notion", "sdist")
        assert sdist.returncode == 1
        lines = sdist.stdout.splitlines()
        assert lines[0] == "non-minimal"
        assert "differing source 0" in lines[1]
        dist = run_cli("oracle", "--table", table, "--notion", "dist")
        assert dist.returncode == 0

    def test_projection_table_distributed(self, files):
        table = files("proj.jsonl", PROJECTION_TABLE)
        result = run_cli("oracle", "--table", table, "--notion", "dist")
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert lines[0] == "non-minimal"
        assert "source 1" in lines[1]
        assert "indistinguishable" in lines[1]

    def test_budget_env_is_honoured(self, files):
        import os

        table = files("xor.jsonl", XOR_TRACE)
        env = dict(os.environ, MINIMON_BUDGET="5")
        result = run_cli("oracle", "--table", table, "--notion", "dist", env=env)
        assert result.returncode == 3
        assert "budget" in result.stderr


class TestErrors:
    def test_unknown_builtin(self, files):
        domain = files("d.json", '{"sources":[{"set":["1","2"]}]}')
        result = run_cli(
            "test", "--program", "builtin:nope", "--domain", domain, "--mode", "mono"
        )
        assert result.returncode == 3
        assert "error:" in result.stderr

    def test_missing_trace_file(self):
        result = run_cli("check-trace", "--trace", "/no/such/file", "--mode", "mono")
        assert result.returncode == 3
        assert "error:" in result.stderr

    def test_bad_program_spec(self, files):
        domain = files("d.json", '{"sources":[{"set":["1","2"]}]}')
        result = run_cli(
            "test", "--program", "python:prog.py", "--domain", domain, "--mode", "mono"
        )
        assert result.returncode == 3
        assert "builtin:" in result.stderr

    def test_usage_errors_exit_3(self):
        assert run_cli().returncode == 3
        assert run_cli("check-trace").returncode == 3
        assert run_cli("frobnicate").returncode == 3
        result = run_cli("check-trace", "--trace", "x", "--mode", "nope")
        assert result.returncode == 3

    def test_singleton_domain_reports_mismatch(self, files):
        domain = files("d.json", '{"sources":[{"set":["7"]}]}')
        result = run_cli(
            "test", "--program", "builtin:identity", "--domain", domain,
            "--mode", "mono",
        )
        assert result.returncode == 3
        assert "error:" in result.stderr
