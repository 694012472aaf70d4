"""End-to-end command-line tests via `python -m minimon`."""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import pathlib
import random
import re
import resource
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from minimon import (
    DeterminismViolation,
    InputDomain,
    InputOutsideDomain,
    MinimonError,
    Mode,
    Monitor,
    MonitorConfig,
    ParseError,
    TableProgram,
    load_domain,
    load_minimiser,
    load_trace,
    monitor_eval,
    parse_trace,
)
from minimon.cli import _MODES, _ONE_OF, _SUBCOMMANDS, _make_parser, _read, cmd_check_trace, main
from minimon.trace import parse_input_lines

from helpers import (
    mod_worker, ref_input_lines, ref_io_records, ref_minimiser, ref_parse_trace, ref_table_rows,
)

# Runs argv (sys.argv[1:]) and prints its exit code and peak RSS in KiB, by
# wait4. A child's ru_maxrss starts at its parent's peak, so the command is
# started from this small process, not from the test's.
_PEAK_RSS = """\
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

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

    def test_peak_memory_does_not_grow_with_the_events(self, tmp_path, capsys):
        """Without --json, check-trace keeps no line number or verdict per
        event: its traced peak on 200,000 events over 100 inputs is within
        0.5 MiB of its peak on 20,000."""
        import tracemalloc

        lines = "".join(f'{{"in":["{n}"],"out":"o{n}"}}\n' for n in range(100))
        paths = []
        for events in (20_000, 200_000):
            paths.append(tmp_path / f"{events}.jsonl")
            paths[-1].write_text(lines * (events // 100))
        main(["check-trace", "--trace", str(paths[0]), "--mode", "mono"])  # imports, not traced
        peaks = []
        for path in paths:
            tracemalloc.start()
            try:
                assert main(["check-trace", "--trace", str(path), "--mode", "mono"]) == 2
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert capsys.readouterr().out == "UNKNOWN\n" * 3
        assert peaks[1] - peaks[0] <= 2**19, peaks

    def test_json_peak_memory_does_not_grow_with_the_events(self, tmp_path):
        """With --json, check-trace writes `prefix_verdicts` in pieces: its
        traced peak on 200,001 events over 101 inputs is within 0.5 MiB of
        its peak on 20,001, and each report is json.dumps' bytes."""
        import tracemalloc

        lines = "".join(f'{{"in":["{n}"],"out":"o{n}"}}\n' for n in range(100))
        violation = '{"in":["x"],"out":"o0"}\n'  # shares event 0's output
        paths = []
        for events in (20_000, 200_000):
            paths.append(tmp_path / f"{events}.jsonl")
            paths[-1].write_text(lines * (events // 100) + violation)
        out_path = tmp_path / "out.json"
        peaks = []
        with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            main(["check-trace", "--trace", str(paths[0]), "--mode", "mono", "--json"])  # imports
            for path in paths:
                tracemalloc.start()
                try:
                    assert main(["check-trace", "--trace", str(path), "--mode", "mono", "--json"]) == 1
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        reports = out_path.read_text(encoding="utf-8").splitlines(keepends=True)
        for report, events in zip(reports, (20_000, 20_000, 200_000)):
            assert report == json.dumps(json.loads(report)) + "\n"
            assert json.loads(report)["prefix_verdicts"] == ["UNKNOWN"] * events + ["FALSE"]
        assert len(reports) == 3
        assert peaks[1] - peaks[0] <= 2**19, peaks

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB")
    def test_process_peak_rss_does_not_grow_with_the_events(self, tmp_path):
        """The same through `python -m minimon`, which runs without the
        cyclic collector: the process's peak RSS on 200,000 events over 100
        inputs is within 1 MiB of its peak on 20,000."""
        lines = "".join(f'{{"in":["{n}"],"out":"o{n}"}}\n' for n in range(100))
        peaks = []
        for events in (20_000, 200_000):
            trace = tmp_path / f"{events}.jsonl"
            trace.write_text(lines * (events // 100))
            result = subprocess.run(
                [sys.executable, "-S", "-c", _PEAK_RSS, sys.executable, "-m", "minimon",
                 "check-trace", "--trace", str(trace), "--mode", "mono"],
                capture_output=True, text=True,
            )
            verdict, code, peak = result.stdout.split()
            assert (verdict, code) == ("UNKNOWN", "2"), result.stderr
            peaks.append(int(peak))
        assert abs(peaks[1] - peaks[0]) <= 1024, peaks

    @pytest.mark.parametrize(
        "unknown, false",
        [(0, 0), (1, 0), (4096, 0), (4097, 0), (1, 1), (4095, 1), (4096, 1), (3, 4097), (4097, 8193)],
    )
    def test_json_prefix_verdicts_across_pieces(self, tmp_path, capsys, unknown, false):
        """The pieces of `prefix_verdicts` join into json.dumps' bytes: for an
        empty trace, and where a run of UNKNOWN or of the final verdict ends
        at, before or after the end of a 4,096-item piece."""
        lines = [f'{{"in":["{n}"],"out":"o{n}"}}\n' for n in range(unknown)]
        lines += ['{"in":["x"],"out":"o0"}\n'] * false  # shares event 0's output
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(lines))
        code = main(["check-trace", "--trace", str(trace), "--mode", "mono", "--json"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert (code, out) == (1 if false else 2, json.dumps(report) + "\n")
        assert report["events"] == unknown + false
        assert report["prefix_verdicts"] == ["UNKNOWN"] * unknown + ["FALSE"] * false

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


    def test_invalid_utf8_position_counts_from_file_start(self, tmp_path):
        """check-trace decodes a regular file in chunks as it streams; the
        error still gives the bad byte's offset in the whole file."""
        good = "".join(f'{{"in":["{i}"],"out":"{i}"}}\n' for i in range(1000)).encode()
        path = tmp_path / "t.jsonl"
        path.write_bytes(good + b'{"in":["\xff"],"out":"a"}\n')
        result = run_cli("check-trace", "--trace", str(path), "--mode", "mono")
        assert result.returncode == 3
        offset = len(good) + len(b'{"in":["')
        assert result.stderr == (
            f"error: 'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte\n"
        )

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

    @pytest.mark.parametrize("trace, domain, error", [
        ('{"in":["0"],"out":"a"}\n\n{"in":["7"],"out":"b"}\n', '{"sources":[{"set":["0","1"]}]}',
         "line 3: input ('7',) at position 1 is outside the declared domain"),
        ('\n{"in":["0"],"out":"a"}\n', '{"sources":[{"set":["0","1"]},{"set":["0","1"]}]}',
         "line 2: event has arity 1, monitor expects 2"),
    ], ids=["outside", "arity"])
    def test_domain_errors_name_the_file_line(self, files, trace, domain, error):
        """A blank line before the record the domain refuses: the error names
        its file line, which is not its position + 1."""
        trace, domain = files("trace.jsonl", trace), files("d.json", domain)
        result = run_cli("check-trace", "--trace", trace, "--mode", "mono", "--domain", domain)
        assert (result.returncode, result.stdout, result.stderr) == (3, "", f"error: {error}\n")


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
    except (MinimonError, ValueError) as exc:
        return exc
    monitor = Monitor(config)
    try:
        verdicts = list(monitor.steps(trace._pairs))
    except (ValueError, InputOutsideDomain) as exc:
        # The monitor refused the event at events_seen: check-trace names its file line.
        line = [n for n, row in enumerate(text.split("\n"), 1) if row.strip()][monitor.events_seen]
        if isinstance(exc, InputOutsideDomain):
            return InputOutsideDomain(f"line {line}: {exc}", position=exc.position)
        return ValueError(f"line {line}: {exc}")
    verdict, witness = monitor_eval(config, trace)
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
    expected = _parse_then_monitor(text, domain, Mode[_MODES[mode]], as_json)
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


_BLANK_RUN = st.lists(st.sampled_from(["", " ", "\t"]), max_size=3)  # blank lines


@settings(max_examples=25, deadline=None)
@given(
    arity=st.integers(1, 3),
    mode=st.sampled_from(["mono", "sdist"]),
    compact=st.booleans(),
    data=st.data(),
)
def test_conflict_across_blank_lines_names_the_reference_lines(arity, mode, compact, data):
    """With blank lines before, between and after two records that give one
    input two outputs, check-trace's conflict names the lines and `index`
    that ref_parse_trace names, and TableProgram.load's duplicate row the
    lines that ref_table_rows names; also when the file is a pipe."""
    inputs = st.tuples(*[st.sampled_from(["0", "1", "é"])] * arity)
    first = data.draw(inputs)
    middle = data.draw(st.lists(inputs.filter(lambda i: i != first), max_size=4))
    records = [(first, "a"), *((i, "o" + "_".join(i)) for i in middle), (first, "b")]
    separators = (",", ":") if compact else (", ", ": ")
    lines = data.draw(_BLANK_RUN)
    for key, output in records:
        lines.append(json.dumps({"in": list(key), "out": output}, separators=separators))
        lines += data.draw(_BLANK_RUN)
    text = "\n".join(lines) + "\n"
    with pytest.raises(DeterminismViolation) as ref:
        ref_parse_trace(text.split("\n"))
    with pytest.raises(DeterminismViolation) as ref_row:
        ref_table_rows(text.split("\n"))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        args = argparse.Namespace(trace=path, mode=mode, domain=None, json=False)
        with pytest.raises(DeterminismViolation) as got, contextlib.redirect_stdout(io.StringIO()):
            cmd_check_trace(args)
        assert (str(got.value), got.value.line, got.value.index) == (
            str(ref.value), ref.value.line, ref.value.index
        )
        with pytest.raises(DeterminismViolation) as got:
            TableProgram.load(path)
        assert (str(got.value), got.value.line) == (str(ref_row.value), ref_row.value.line)
    piped = [
        (["check-trace", "--trace", "/dev/stdin", "--mode", mode], ref.value),
        (["oracle", "--table", "/dev/stdin", "--notion", "mono"], ref_row.value),
    ]
    for argv, expected in piped:
        result = subprocess.run(
            [sys.executable, "-m", "minimon", *argv], input=text.encode("utf-8"), capture_output=True
        )
        assert (result.returncode, result.stdout, result.stderr.decode("utf-8")) == (
            3, b"", f"error: {expected}\n"
        ), argv


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

    @pytest.mark.parametrize("max_steps", ["0", "-1"])
    def test_no_steps(self, files, max_steps):
        inputs = files("inputs.jsonl", '{"in":["1"]}\n{"in":["2"]}\n')
        result = run_cli(
            "monitor", "--program", "builtin:identity", "--mode", "mono",
            "--inputs", inputs, "--max-steps", max_steps,
        )
        assert (result.returncode, result.stdout, result.stderr) == (2, "", "")

    def test_random_with_a_huge_step_limit_stops_at_the_verdict(self, files):
        """--random draws inputs as the monitor steps: a limit of 10^9 steps
        costs nothing once the verdict is in. The command may use at most
        1 GiB of address space, so drawing every input up front fails it."""
        limited = (
            "import resource, runpy; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "runpy.run_module('minimon', run_name='__main__')"
        )
        domain = files("d.json", '{"sources":[{"range":[0,99]}]}')
        result = subprocess.run(
            [sys.executable, "-c", limited, "monitor", "--program", "builtin:benefits",
             "--mode", "mono", "--domain", domain, "--random", "--seed", "4",
             "--max-steps", "1000000000"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1, result.stderr
        lines = result.stdout.splitlines()
        assert lines[-2].endswith("FALSE") and lines[-1].startswith("witness:")

    def test_exec_early_false_is_the_same_at_every_window(self, files, tmp_path, monkeypatch, capsys):
        """Replay over exec: with the verdict in the first window: the same
        stdout with one request in flight as with 64, and close() raises
        nothing about the replies that arrive after the verdict."""
        from minimon import command

        inputs = files("inputs.jsonl", "".join(f'{{"in":["{n}"]}}\n' for n in range(100)))
        runs = []
        for window in (1, 64):
            monkeypatch.setattr(command, "_WINDOW", window)
            count = tmp_path / f"served{window}.txt"
            spec = "exec:" + shlex.join(mod_worker(3, 10, count))
            code = main(["monitor", "--program", spec, "--mode", "mono", "--inputs", inputs])
            runs.append((code, capsys.readouterr(), int(count.read_text())))
        (code_one, out_one, served_one), (code_piped, out_piped, served_piped) = runs
        assert code_one == code_piped == 1
        assert out_piped == out_one and out_one.err == ""
        assert out_one.out.splitlines()[:4] == [
            "1\t0\to0\tUNKNOWN", "2\t1\to1\tUNKNOWN", "3\t2\to2\tUNKNOWN", "4\t3\to0\tFALSE",
        ]
        assert served_one == 4 and served_piped <= 4 + 63

    def test_random_without_domain(self):
        result = run_cli(
            "monitor", "--program", "builtin:benefits", "--mode", "mono", "--random"
        )
        assert result.returncode == 3
        assert "error:" in result.stderr

    def test_completed_steps_are_written_before_an_input_outside_the_domain(self, files):
        """Input 130 of 150 is outside the domain: the 129 steps before it
        are all on stdout, past several write batches, and then the error."""
        values = [str(n) for n in range(150)]
        values[129] = "500"
        inputs = files("inputs.jsonl", "".join(f'{{"in":["{v}"]}}\n' for v in values))
        domain = files("d.json", '{"sources":[{"range":[0,199]}]}')
        result = run_cli(
            "monitor", "--program", "builtin:identity", "--mode", "mono",
            "--domain", domain, "--inputs", inputs,
        )
        assert result.returncode == 3
        assert result.stdout.splitlines() == [f"{n}\t{n - 1}\t{n - 1}\tUNKNOWN" for n in range(1, 130)]
        assert result.stderr == (
            "error: input ('500',) at position 129 is outside the declared domain\n"
        )

    def test_completed_steps_are_written_before_a_program_failure(self, files):
        """The exec: worker exits at request 100: the 99 steps it answered
        are all on stdout, and then the ProgramFailure."""
        inputs = files("inputs.jsonl", "".join(f'{{"in":["{n}"]}}\n' for n in range(150)))
        argv = [sys.executable, "-S", "-c", _EXIT_AT_REQUEST, "100"]
        result = run_cli(
            "monitor", "--program", "exec:" + shlex.join(argv), "--mode", "mono",
            "--inputs", inputs,
        )
        assert result.returncode == 3
        assert result.stdout.splitlines() == [f"{n}\t{n - 1}\tr{n - 1}\tUNKNOWN" for n in range(1, 100)]
        assert result.stderr == (
            f"error: {' '.join(argv)!r}: process exited with code 0 before replying\n"
        )

    def test_an_output_stdout_cannot_encode_ends_after_the_steps_before_it(self, files):
        """A step line that stdout's encoding cannot encode need not hold a
        lone surrogate: with an ASCII stdout, the batch is written line by
        line, so step 1 is written, then the encoder's error, exit 3."""
        table = files("t.jsonl", '{"in":["1"],"out":"a"}\n{"in":["2"],"out":"\\u00e9"}\n')
        inputs = files("inputs.jsonl", '{"in":["1"]}\n{"in":["2"]}\n')
        result = run_cli(
            "monitor", "--program", "table:" + table, "--mode", "mono", "--inputs", inputs,
            env={**os.environ, "PYTHONIOENCODING": "ascii"},
        )
        assert (result.returncode, result.stdout) == (3, "1\t1\ta\tUNKNOWN\n")
        assert result.stderr == (
            "error: 'ascii' codec can't encode character '\\xe9' in position 4: "
            "ordinal not in range(128)\n"
        )

    @pytest.mark.parametrize("case", ["false", "true", "max-steps", "unencodable"])
    def test_lines_per_write_changes_no_byte(self, case, files, monkeypatch, capsys):
        """A 200-step replay that ends early in FALSE, in TRUE, at
        --max-steps 150, or at an output that stdout cannot encode: the same
        stdout, stderr and exit code at every batch size."""
        from minimon import cli

        values = [str(n) for n in range(200)]
        program, extra, expected = "builtin:identity", [], (0, 200, "")
        if case == "false":  # input 150 shares input 0's output
            program = "table:" + files("t.jsonl", "".join(
                f'{{"in":["{n}"],"out":"o{n % 150}"}}\n' for n in range(200)))
            expected = (1, 152, "")
        elif case == "true":
            extra = ["--domain", files("d.json", '{"sources":[{"range":[0,199]}]}')]
        elif case == "max-steps":
            extra, expected = ["--max-steps", "150"], (2, 150, "")
        else:  # a lone surrogate escape is a valid token that UTF-8 cannot encode
            values[99] = "a\\ud800"
            expected = (3, 99, "error: 'utf-8' codec can't encode character '\\ud800' "
                               "in position 5: surrogates not allowed\n")
        inputs = files("inputs.jsonl", "".join(f'{{"in":["{v}"]}}\n' for v in values))
        runs = []
        for per_write in (1, 7, 64):
            monkeypatch.setattr(cli, "_LINES_PER_WRITE", per_write)
            code = main(["monitor", "--program", program, "--mode", "mono", "--inputs", inputs, *extra])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1] == runs[2]
        code, captured = runs[0]
        assert (code, len(captured.out.splitlines()), captured.err) == expected

    @pytest.mark.parametrize("tty, writes", [(True, 150), (False, 3)])
    def test_one_write_per_step_on_a_terminal(self, files, tty, writes):
        """On a terminal each step line is one write as its step completes;
        off one, 150 lines are 3 writes: 64, 64 and 22 lines."""

        class Stdout(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = []

            def isatty(self):
                return tty

            def write(self, text):
                self.writes.append(text)
                return super().write(text)

        inputs = files("inputs.jsonl", "".join(f'{{"in":["{n}"]}}\n' for n in range(200)))
        out = Stdout()
        with contextlib.redirect_stdout(out):
            code = main(["monitor", "--program", "builtin:identity", "--mode", "mono",
                         "--inputs", inputs, "--max-steps", "150"])
        assert code == 2
        assert len(out.writes) == writes
        assert "".join(out.writes) == "".join(f"{n}\t{n - 1}\t{n - 1}\tUNKNOWN\n" for n in range(1, 151))

    def test_closed_stdout_is_a_broken_pipe_error(self, files):
        """`minimon monitor ... | head -2`: once the reader is gone, the
        next write fails, and minimon exits 3 with one error line and no
        traceback."""
        domain = files("d.json", '{"sources":[{"range":[0,1000000]}]}')
        proc = subprocess.Popen(
            [sys.executable, "-m", "minimon", "monitor", "--program", "builtin:identity",
             "--mode", "mono", "--domain", domain, "--random", "--max-steps", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        with proc:
            head = [proc.stdout.readline() for _ in range(2)]
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 3
        assert [line.count(b"\t") for line in head] == [3, 3]
        assert err == b"error: [Errno 32] Broken pipe\n"


# Echoes "r<input>" until request argv[1], where it exits without a reply.
_EXIT_AT_REQUEST = """\
import sys
for served, line in enumerate(sys.stdin, start=1):
    if served == int(sys.argv[1]):
        sys.exit(0)
    sys.stdout.write("r" + line)
    sys.stdout.flush()
"""


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
        assert len(set(table.mapping.values())) == 17

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
        assert set(table.mapping.values()) == {("1",), ("10000",)}

    def test_domain_over_the_synthesis_cap_is_refused(self, files, tmp_path):
        """The cap is fixed: a budget over it does not lift it."""
        domain = files("d.json", '{"sources":[{"range":[1,1001]},{"range":[1,1000]}]}')
        out = tmp_path / "min.jsonl"
        args = ("synth-min", "--program", "builtin:xor", "--domain", domain, "--out", str(out))
        for env in (None, dict(os.environ, MINIMON_BUDGET="10000000000")):
            result = run_cli(*args, env=env)
            assert (result.returncode, result.stdout) == (3, "")
            assert result.stderr == "error: domain has 1001000 elements, synthesis cap is 1000000\n"
            assert not out.exists()


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

    def test_invalid_domain_json_exits_3(self, files):
        domain = files("d.json", '{"sources": [')
        result = run_cli("test", "--program", "builtin:identity", "--domain", domain, "--mode", "mono")
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith("error: domain file is not valid JSON: Expecting value")

    def test_usage_errors_exit_3(self):
        assert run_cli().returncode == 3
        assert run_cli("check-trace").returncode == 3
        assert run_cli("frobnicate").returncode == 3
        result = run_cli("check-trace", "--trace", "x", "--mode", "nope")
        assert result.returncode == 3

    @pytest.mark.parametrize("command", ["check-trace", "test"])
    def test_out_of_memory_exits_3(self, files, command):
        """A domain too large for memory is an error (exit 3), never FALSE
        (exit 1). Only the child's address space is limited, to 1 GiB."""
        domain = files("d.json", '{"sources":[{"range":[1,%d]}]}' % 10**12)
        if command == "check-trace":
            args = ["--trace", files("t.jsonl", TABLE1_TRACE)]
        else:
            args = ["--program", "builtin:identity"]

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        result = subprocess.run(
            [sys.executable, "-m", "minimon", command, *args, "--domain", domain, "--mode", "mono"],
            capture_output=True, text=True, preexec_fn=limit_memory, timeout=120,
        )
        assert (result.returncode, result.stdout, result.stderr) == (3, "", "error: out of memory\n")

    def test_singleton_domain_reports_mismatch(self, files):
        domain = files("d.json", '{"sources":[{"set":["7"]}]}')
        result = run_cli(
            "test", "--program", "builtin:identity", "--domain", domain,
            "--mode", "mono",
        )
        assert result.returncode == 3
        assert "error:" in result.stderr


# stdout, stderr and exit code of `minimon --help`, of each subcommand's
# help and of usage errors, recorded with COLUMNS=80 before the command line
# was read from an option table. argparse words them differently from one
# Python version to the next, so they are pinned on the version recorded.
_USAGE = json.loads(pathlib.Path(__file__).with_name("usage_corpus.json").read_text("utf-8"))
_pinned_usage = pytest.mark.skipif(
    sys.version_info[:2] != tuple(map(int, _USAGE["python"].split("."))),
    reason=f"usage bytes are recorded on Python {_USAGE['python']}",
)


def _usage_id(case):
    return " ".join(case["argv"]) or "(no argv)"


@_pinned_usage
@pytest.mark.parametrize("case", _USAGE["cases"], ids=_usage_id)
def test_usage_bytes_are_pinned_in_process(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", str(_USAGE["columns"]))
    with pytest.raises(SystemExit) as exit_:
        main(case["argv"])
    assert (exit_.value.code, *capsys.readouterr()) == (case["exit"], case["stdout"], case["stderr"])


@_pinned_usage
@pytest.mark.parametrize("case", _USAGE["cases"], ids=_usage_id)
def test_usage_bytes_are_pinned_through_python_m(case):
    result = run_cli(*case["argv"], env={**os.environ, "COLUMNS": str(_USAGE["columns"])})
    assert (result.returncode, result.stdout, result.stderr) == (
        case["exit"], case["stdout"], case["stderr"]
    )


# Exit code, stdout, stderr and written table of every subcommand, with and
# without --json and a domain, in both modes, on faulty inputs and `exec:`
# children that crash, send an extra line or a malformed reply. Each case
# runs in a directory holding the corpus's files, named by relative paths;
# "{python}" stands for sys.executable, and synth-min's elapsed time is
# masked. No case reaches argparse, so the bytes hold on every Python version.
_BEHAVIOUR = json.loads(pathlib.Path(__file__).with_name("behaviour_corpus.json").read_text("utf-8"))
_ELAPSED = re.compile(r"\(\d+\.\d{3} s\)")


@pytest.fixture(scope="module")
def behaviour_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("behaviour")
    for name, text in _BEHAVIOUR["files"].items():
        if isinstance(text, list):  # [piece, count] pairs
            text = "".join(piece * count for piece, count in text)
        (work / name).write_bytes(text.encode("utf-8"))
    for name, data in _BEHAVIOUR["binary_files"].items():
        (work / name).write_bytes(bytes.fromhex(data))
    return work


def _behaviour_id(case):
    return " ".join([f"{k}={v}" for k, v in case.get("env", {}).items()] + case["argv"])


@pytest.mark.parametrize("case", _BEHAVIOUR["cases"], ids=_behaviour_id)
def test_behaviour_bytes_are_pinned(case, behaviour_dir):
    python = sys.executable
    argv = [word.replace("{python}", shlex.quote(python)) for word in case["argv"]]
    env = {k: v for k, v in os.environ.items() if k != "MINIMON_BUDGET"}
    env.update(case.get("env", {}), PYTHONIOENCODING="utf-8",
               PYTHONPATH=str(pathlib.Path(__import__("minimon").__file__).parents[1]))
    result = subprocess.run([python, "-m", "minimon", *argv], cwd=behaviour_dir, env=env,
                            capture_output=True, timeout=60)

    def masked(raw):
        return _ELAPSED.sub("(ELAPSED s)", raw.decode("utf-8").replace(python, "{python}"))

    assert (result.returncode, masked(result.stdout), masked(result.stderr)) == (
        case["exit"], case["stdout"], case["stderr"]
    )
    if "wrote" in case:
        assert (behaviour_dir / case["wrote"]).read_bytes().decode("utf-8") == case["table"]


# Values that an option may meet: plain words, choices in and out of case,
# the spellings that int() accepts (" 7", "+7", "7_0", a non-ASCII digit),
# and words that start with "-", which argparse may or may not take as values.
_VALUES = ["x", "builtin:xor", "a=b", "", " ", "mono", "sdist", "dist", "lex", "rand", "MONO",
           "0", "7", " 7", "+7", "7_0", "٣", "1.5", "-1", "-", "--", "--mode", "-h"]
# Words that a well-formed command line does not hold where they are put.
_NOISE = ["-h", "--help", "--", "-", "-1", "--seed=-1", "--mode=mono", "--tr", "--p", "--json=1",
          "--bogus", "frobnicate", "", *_SUBCOMMANDS]


def _value(draw, keywords):
    """A value that `keywords`' type and choices take."""
    if "choices" in keywords:
        return draw(st.sampled_from(list(keywords["choices"])))
    if "type" in keywords:
        return draw(st.sampled_from(["0", "7", " 7", "+7", "7_0", "٣", "100000"]))
    return draw(st.sampled_from(["x", "builtin:xor", "a=b", "", " ", "mono", "7"]))


@st.composite
def _command_lines(draw, noisy):
    """An argv drawn from the option table. Without noise, it is of the one
    form that `_read` reads: each required option once, with a value that
    its type and choices take, and one of a one-of group. With noise, an
    option may also be left out or given a value from `_VALUES`, and up to
    three edits insert, drop or repeat words, abbreviate an option or join
    it to its value with `=`."""
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    options = _SUBCOMMANDS[name][2]
    one_of = draw(st.sampled_from(sorted(_ONE_OF)))
    argv = [name]
    for option in draw(st.permutations(list(options))):
        keywords = options[option]
        if keywords.get("required") or option == one_of:
            if noisy and draw(st.integers(0, 9)) == 0:
                continue
        elif (option in _ONE_OF and not noisy) or draw(st.booleans()):
            continue
        argv.append(option)
        if "action" not in keywords:
            if noisy and draw(st.integers(0, 3)) == 0:
                argv.append(draw(st.sampled_from(_VALUES) | st.text(max_size=3)))
            else:
                argv.append(_value(draw, keywords))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3])) if noisy else 0):
        at = draw(st.integers(0, len(argv) - 1)) if argv else 0
        edit = draw(st.sampled_from(["insert", "drop", "repeat", "abbreviate", "join"]))
        word = argv[at] if argv else ""
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(_NOISE + _VALUES)))
        elif edit == "drop" and argv:
            del argv[at]
        elif edit == "repeat":
            argv += argv[at:at + 2]
        elif edit == "abbreviate" and word.startswith("--") and len(word) > 3:
            argv[at] = word[:draw(st.integers(3, len(word) - 1))]
        elif edit == "join" and word.startswith("--") and at + 1 < len(argv):
            argv[at:at + 2] = [f"{word}={argv[at + 1]}"]
    return argv


def _argparse_namespace(argv):
    try:
        return vars(_make_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"argparse refuses {argv!r}")


@settings(max_examples=400, deadline=None)
@given(argv=_command_lines(noisy=True))
def test_reader_gives_what_argparse_gives_or_leaves_it_to_argparse(argv):
    """Wherever the reader accepts an argv, its namespace is argparse's:
    abbreviations, `=` forms, repeats, negative numbers and unknown words
    go to argparse."""
    args = _read(argv)
    if args is not None:
        assert vars(args) == _argparse_namespace(argv)


@settings(max_examples=200, deadline=None)
@given(argv=_command_lines(noisy=False))
def test_reader_reads_every_well_formed_command_line(argv):
    args = _read(argv)
    assert args is not None, argv
    assert vars(args) == _argparse_namespace(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--program", "x", "--domain", "d", "--mode", "mono", "--seed", "-1"],
        ["test", "--program", "x", "--domain", "d", "--mode", "mono", "--json", "--json"],
        ["test", "--program", "x", "--domain", "d", "--mode=mono"],
        ["test", "--prog", "x", "--domain", "d", "--mode", "mono"],
        ["check-trace", "--trace", "-", "--mode", "sdist"],
        ["monitor", "--program", "x", "--mode", "mono", "--random", "--max-steps", "-2"],
        ["oracle", "--table", "t", "--notion=dist"],
    ],
)
def test_reader_leaves_to_argparse_what_argparse_reads_otherwise(argv):
    """These argvs parse, but not in the one form the reader reads."""
    assert _read(argv) is None
    assert _argparse_namespace(argv)["subcommand"] == argv[0]


_MONITOR = ["monitor", "--program", "x", "--mode", "mono"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_MONITOR, "--inputs", "i", "--random"],
        _MONITOR,
        ["check-trace", "--trace", "t"],
        ["check-trace", "--trace", "t", "--mode", "MONO"],
        [*_MONITOR, "--random", "--seed", "1.5"],
        [*_MONITOR, "--random", "--seed"],
        ["check-trace", "--mode", "mono", "--trace", "--json"],
    ],
)
def test_reader_leaves_usage_errors_to_argparse(argv, capsys):
    assert _read(argv) is None
    with pytest.raises(SystemExit) as exit_:
        _make_parser().parse_args(argv)
    assert exit_.value.code == 3
    assert "error: " in capsys.readouterr().err


def test_main_reads_sys_argv_when_given_none(files, monkeypatch, capsys):
    table = files("xor.jsonl", XOR_TRACE)
    monkeypatch.setattr(sys, "argv", ["minimon", "oracle", "--table", table, "--notion", "dist"])
    assert main() == 0
    assert capsys.readouterr().out == "minimal\n"


# Nested far deeper than any JSON decoder recursion limit.
_DEEP = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_json_is_a_parse_error(files):
    """JSON nested too deep to decode is malformed input, not a verdict:
    every reader raises ParseError, at its line as the reference readers
    do, and every command exits 3 rather than 1 (FALSE)."""
    io_text = '{"in":["1"],"out":"1"}\n{"in":' + _DEEP + ',"out":"a"}\n'
    pre_text = '{"from":["1"],"to":["1"]}\n{"from":' + _DEEP + ',"to":["1"]}\n'
    trace = files("trace.jsonl", io_text)
    pre = files("pre.jsonl", pre_text)
    deep_domain = files("deep.json", _DEEP)
    readers = [
        (lambda: load_trace(trace), ref_io_records, io_text),
        (lambda: TableProgram.load(trace), ref_io_records, io_text),
        (lambda: parse_input_lines(io_text), ref_input_lines, io_text),
        (lambda: load_minimiser(pre), ref_minimiser, pre_text),
    ]
    for read, ref, text in readers:
        for reader in (read, lambda: list(ref(text.split("\n")))):
            with pytest.raises(ParseError) as exc:
                reader()
            assert (str(exc.value), exc.value.line) == ("line 2: invalid JSON: nesting too deep", 2)
    with pytest.raises(ParseError, match="^domain file is not valid JSON: ") as exc:
        load_domain(deep_domain)
    assert exc.value.line is None

    good_trace = files("good.jsonl", '{"in":["1"],"out":"1"}\n')
    good_pre = files("good-pre.jsonl", '{"from":["1"],"to":["1"]}\n')
    good_domain = files("d.json", '{"sources":[{"set":["1","2"]}]}')
    program = ("--program", "builtin:identity")
    commands = [
        ("check-trace", "--trace", trace, "--mode", "mono"),
        ("check-trace", "--trace", good_trace, "--mode", "mono", "--domain", deep_domain),
        ("monitor", *program, "--mode", "mono", "--inputs", trace),
        ("oracle", "--table", trace, "--notion", "mono"),
        ("check-pre", *program, "--domain", deep_domain, "--pre", good_pre),
        ("check-pre", *program, "--domain", good_domain, "--pre", pre),
    ]
    for command in commands:
        result = run_cli(*command)
        assert (result.returncode, result.stdout) == (3, ""), command
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr, command


# The ways into the CLI as a process, each as `python -c` code that runs it;
# the `minimon` script's is read from pyproject.toml, as its wrapper does.
_SCRIPT = re.search(
    r'^minimon = "([\w.]+):(\w+)"$',
    pathlib.Path(__file__).parent.parent.joinpath("pyproject.toml").read_text(),
    re.MULTILINE,
)
_WAYS_IN = {
    "python -m minimon": "import runpy; runpy.run_module('minimon', run_name='__main__')",
    "python -m minimon.cli": "import runpy; runpy.run_module('minimon.cli', run_name='__main__')",
    "minimon script": f"import sys; from {_SCRIPT[1]} import {_SCRIPT[2]}; sys.exit({_SCRIPT[2]}())",
}
# The ordinary exit, teardown included: the reference for how a process ends.
_ORDINARY_EXIT = "import sys; from minimon.cli import main; sys.exit(main())"


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


def _a_child_is_unreaped() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


# (argv, with {name} for a file of `exit_inputs`; MINIMON_BUDGET or None;
# exit code; what stderr holds)
_COMMANDS = {
    "check-trace": (["check-trace", "--trace", "{trace}", "--mode", "mono", "--domain", "{domain}"], None, 1, ""),
    "monitor-builtin": (["monitor", "--program", "builtin:xor", "--mode", "mono", "--inputs", "{inputs}"], None, 1, ""),
    "monitor-exec": (["monitor", "--program", "{worker}", "--mode", "sdist", "--inputs", "{inputs}"], None, 2, ""),
    "test": (["test", "--program", "{worker}", "--domain", "{domain}", "--mode", "mono"], None, 0, ""),
    "synth-min": (["synth-min", "--program", "{worker}", "--domain", "{domain}", "--out", "{out}"], None, 0, ""),
    "check-pre": (["check-pre", "--program", "{worker}", "--domain", "{domain}", "--pre", "{pre}"], None, 0, ""),
    "oracle": (["oracle", "--table", "{trace}", "--notion", "dist"], None, 0, ""),
    "parse-error": (["check-trace", "--trace", "{bad}", "--mode", "mono"], None, 3, "error: line 2: invalid JSON"),
    "program-failure": (["monitor", "--program", "{exits}", "--mode", "mono", "--inputs", "{inputs1}"], None, 3,
                        "process exited with code 0 before replying"),
    "budget-exceeded": (["test", "--program", "{worker}", "--domain", "{domain}", "--mode", "mono"], "1", 3,
                        "budget is 1"),
}


@pytest.fixture
def exit_inputs(files, tmp_path):
    return {
        "trace": files("t.jsonl", XOR_TRACE),
        "domain": files("d.json", BITS_DOMAIN),
        "inputs": files("inputs.jsonl", "".join(f'{{"in":["{n % 2}","{n // 2 % 2}"]}}\n' for n in range(100))),
        "inputs1": files("inputs1.jsonl", "".join(f'{{"in":["{n}"]}}\n' for n in range(100))),
        "pre": files("pre.jsonl", "".join(
            f'{{"from":["{a}","{b}"],"to":["{a}","{b}"]}}\n' for a in "01" for b in "01"
        )),
        "bad": files("bad.jsonl", '{"in":["0","0"],"out":"0"}\n{"in":["0"\n'),
        "out": str(tmp_path / "min.jsonl"),
        "worker": "exec:" + shlex.join(mod_worker(1000, 10)),
        # Exits at request 3, with the rest of the first window unanswered.
        "exits": "exec:" + shlex.join([sys.executable, "-S", "-c", _EXIT_AT_REQUEST, "3"]),
    }


class TestProcessEnd:
    """`python -m minimon`, `python -m minimon.cli` and the `minimon` script
    run `main()` and then end the process without interpreter teardown.
    That is safe only while a command leaves no file open and no child
    unreaped, and it must end the process as an ordinary exit would."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
    @pytest.mark.parametrize("name", _COMMANDS)
    def test_a_command_leaves_nothing_open(self, name, exit_inputs, monkeypatch, capsys):
        template, budget, code, err = _COMMANDS[name]
        if budget is not None:
            monkeypatch.setenv("MINIMON_BUDGET", budget)
        argv = [arg.format(**exit_inputs) for arg in template]
        assert not _a_child_is_unreaped(), "a child of an earlier test is unreaped"
        before = _open_fds()
        assert main(argv) == code
        stderr = capsys.readouterr().err
        assert (err in stderr) if err else (stderr == ""), stderr
        assert _open_fds() == before
        assert not _a_child_is_unreaped()

    @pytest.mark.parametrize("way", _WAYS_IN)
    def test_every_way_in_ends_without_teardown(self, way, files):
        """An object of the `-c` code's module would be freed in teardown;
        its finalizer never runs, and the verdict and exit code are those of
        an ordinary exit."""
        probe = (
            "import sys\n"
            "class Probe:\n"
            "    def __del__(self):\n"
            "        sys.stderr.write('teardown\\n')\n"
            "probe = Probe()\n"
        )
        trace = files("t.jsonl", TABLE1_TRACE)
        args = ["check-trace", "--trace", trace, "--mode", "mono"]
        ordinary = subprocess.run([sys.executable, "-c", probe + _ORDINARY_EXIT, *args],
                                  capture_output=True, text=True)
        result = subprocess.run([sys.executable, "-c", probe + _WAYS_IN[way], *args],
                                capture_output=True, text=True)
        assert ordinary.stderr == "teardown\n"
        assert (result.returncode, result.stdout, result.stderr) == (1, ordinary.stdout, "")

    @pytest.mark.parametrize("way", _WAYS_IN)
    def test_every_way_in_runs_the_command_without_the_collector(self, way, files):
        probe = "import atexit, gc\natexit.register(lambda: print('collector on:', gc.isenabled()))\n"
        trace = files("t.jsonl", TABLE1_TRACE)
        result = subprocess.run(
            [sys.executable, "-c", probe + _WAYS_IN[way], "check-trace", "--trace", trace, "--mode", "mono"],
            capture_output=True, text=True,
        )
        assert result.returncode == 1, result.stderr
        assert result.stdout.splitlines()[2:] == ["collector on: False"]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_callers_collector_setting(self, enabled, files, capsys):
        trace = files("t.jsonl", TABLE1_TRACE)
        if not enabled:
            gc.disable()
        try:
            assert main(["check-trace", "--trace", trace, "--mode", "mono"]) == 1
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_importing_the_entry_module_runs_nothing(self):
        from minimon import __main__ as entry

        assert callable(entry.run) and callable(entry.hard_exit)

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_is_reported_as_by_an_ordinary_exit(self, unbuffered, files):
        """Buffered, the verdict is written only by the final flush, which
        fails: the process then exits the ordinary way, which reports the
        failure with exit 120. Unbuffered, the print fails inside the
        command: exit 3 with one error line."""
        trace = files("t.jsonl", TABLE1_TRACE)
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"

        def run(*argv):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                return subprocess.run(
                    [sys.executable, *argv, "check-trace", "--trace", trace, "--mode", "mono"],
                    stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
                )
            finally:
                os.close(write_end)

        ordinary = run("-c", _ORDINARY_EXIT)
        result = run("-m", "minimon")
        assert (result.returncode, result.stderr) == (ordinary.returncode, ordinary.stderr)
        if unbuffered:
            assert (result.returncode, result.stderr) == (3, b"error: [Errno 32] Broken pipe\n")
        else:
            assert result.returncode == 120
            assert result.stderr.endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")

    def test_atexit_handlers_run_once_after_the_verdict(self, files):
        trace = files("t.jsonl", TABLE1_TRACE)
        code = (
            "import atexit, runpy; atexit.register(print, 'atexit handler'); "
            "runpy.run_module('minimon', run_name='__main__')"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, "check-trace", "--trace", trace, "--mode", "mono"],
            capture_output=True, text=True,
        )
        assert result.returncode == 1, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == "FALSE" and lines[1].startswith("witness: ")
        assert lines[2:] == ["atexit handler"]

    def test_synth_min_writes_the_same_file_as_in_process(self, files, tmp_path, capsys):
        domain = files("d.json", '{"sources":[{"range":[0,100]}]}')
        args = ["synth-min", "--program", "builtin:loyalty", "--domain", domain, "--out"]
        assert main([*args, str(tmp_path / "in-process.jsonl")]) == 0
        result = run_cli(*args, str(tmp_path / "process.jsonl"))
        assert result.returncode == 0, result.stderr
        written = (tmp_path / "process.jsonl").read_bytes()
        assert written == (tmp_path / "in-process.jsonl").read_bytes() != b""


# Each command's argv, with {name} for a file of `_sized_inputs`, and its exit code.
_ACYCLIC_COMMANDS = {
    "check-trace mono": (["check-trace", "--trace", "{trace}", "--mode", "mono", "--domain", "{domain}"], 1),
    "check-trace sdist": (["check-trace", "--trace", "{trace}", "--mode", "sdist", "--domain", "{domain}"], 1),
    "check-trace mono --json": (["check-trace", "--trace", "{trace}", "--mode", "mono", "--json"], 1),
    "check-trace sdist --json": (["check-trace", "--trace", "{trace}", "--mode", "sdist", "--json"], 1),
    "monitor builtin": (["monitor", "--program", "builtin:identity", "--mode", "mono", "--inputs", "{inputs}"], 2),
    "monitor exec": (["monitor", "--program", "{worker}", "--mode", "sdist", "--inputs", "{inputs}"], 2),
    "monitor exec --random": (["monitor", "--program", "{worker}", "--mode", "mono", "--random",
                               "--domain", "{domain}", "--max-steps", "{n}"], 2),
    "test builtin": (["test", "--program", "builtin:identity", "--domain", "{domain}", "--mode", "mono"], 0),
    "test exec": (["test", "--program", "{worker}", "--domain", "{domain}", "--mode", "sdist"], 0),
    "synth-min builtin": (["synth-min", "--program", "builtin:identity", "--domain", "{domain}", "--out", "{out}"], 0),
    "synth-min exec": (["synth-min", "--program", "{worker}", "--domain", "{domain}", "--out", "{out}"], 0),
    "check-pre builtin": (["check-pre", "--program", "builtin:identity", "--domain", "{domain}", "--pre", "{pre}"], 0),
    "check-pre exec": (["check-pre", "--program", "{worker}", "--domain", "{domain}", "--pre", "{pre}"], 0),
    "oracle dist": (["oracle", "--table", "{table}", "--notion", "dist"], 0),
    "oracle mono": (["oracle", "--table", "{table}", "--notion", "mono"], 0),
    "parse error": (["check-trace", "--trace", "{bad}", "--mode", "mono"], 3),
    "conflict": (["check-trace", "--trace", "{conflict}", "--mode", "sdist"], 3),
    "refused input": (["monitor", "--program", "{worker}", "--mode", "mono", "--inputs", "{refused}"], 3),
    "ProgramFailure": (["monitor", "--program", "{exits}", "--mode", "mono", "--inputs", "{inputs}"], 3),
}


def _sized_inputs(tmp_path, n: int) -> dict[str, str]:
    """Files for `_ACYCLIC_COMMANDS` over the inputs 0..n-1, named by size."""
    def write(name, lines):
        path = tmp_path / f"{name}-{n}"
        path.write_text("".join(lines))
        return str(path)

    ins = [f'{{"in":["{i}"]}}\n' for i in range(n)]
    events = [f'{{"in":["{i}"],"out":"o{i}"}}\n' for i in range(n)]
    return {
        "n": str(n),
        "domain": write("domain", [f'{{"sources":[{{"range":[0,{n}]}}]}}']),
        # Input n shares input 0's output: FALSE, with a witness, at the last event.
        "trace": write("trace", events + [f'{{"in":["{n}"],"out":"o0"}}\n']),
        "table": write("table", events),
        "inputs": write("inputs", ins),
        "pre": write("pre", [f'{{"from":["{i}"],"to":["{i}"]}}\n' for i in range(n + 1)]),
        "out": str(tmp_path / f"out-{n}"),
        "bad": write("bad", events + ['{"in":["0"\n']),
        "conflict": write("conflict", events + ['{"in":["0"],"out":"x"}\n']),
        "refused": write("refused", ins + ['{"in":["0","1"]}\n']),
        "worker": "exec:" + shlex.join(mod_worker(10**9, 10)),
        "exits": "exec:" + shlex.join([sys.executable, "-S", "-c", _EXIT_AT_REQUEST, str(n)]),
    }


class TestNoCyclicGarbage:
    """A command process runs without the cyclic collector, which is safe
    only while no command leaves cyclic garbage that grows with its input:
    reference counting must free all it builds but a few objects."""

    @pytest.mark.parametrize("name", _ACYCLIC_COMMANDS)
    def test_a_command_leaves_no_cycles_that_grow_with_its_input(self, name, tmp_path, capsys):
        template, code = _ACYCLIC_COMMANDS[name]
        found = []
        for n in (200, 200, 2000):  # the first run imports what the command loads
            argv = [arg.format(**_sized_inputs(tmp_path, n)) for arg in template]
            gc.collect()
            gc.disable()
            try:
                assert main(argv) == code, capsys.readouterr().err
                found.append(gc.collect())
            finally:
                gc.enable()
        capsys.readouterr()
        assert found[1] == found[2] <= 10, found
