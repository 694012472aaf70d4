"""Program handle tests: builtin semantics against reference tables, the
memo, table files, and the external line protocol."""

from __future__ import annotations

import contextlib
import gc
import itertools
import re
import sys
import textwrap
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from minimon import (
    DeterminismViolation,
    Event,
    InputDomain,
    InputOutsideDomain,
    MinimiserTable,
    Mode,
    ParseError,
    ProgramFailure,
    TableProgram,
    UnknownBuiltin,
    Verdict,
    compose,
    make_builtin,
    run_test,
    synthesize,
    validate_preprocessor,
)
from minimon import command, programs
from minimon.command import CommandProgram
from minimon.programs import BuiltinProgram, save_table
from minimon.tester import LEXICOGRAPHIC

from helpers import mod_worker, outputs, ref_is_token

BENEFITS_REFERENCE = {
    ("0",): "true",
    ("-5",): "true",
    ("9999",): "true",
    ("10000",): "false",
    ("10001",): "false",
    ("30000",): "false",
}

DIST_BENEFITS_REFERENCE = {
    ("5000", "61"): "true",
    ("5000", "45"): "true",
    ("11000", "45"): "false",
    ("11000", "61"): "true",
    ("9999", "60"): "true",
    ("10000", "60"): "false",
    ("10000", "61"): "true",
}

XOR_REFERENCE = {
    ("0", "0"): "0",
    ("0", "1"): "1",
    ("1", "0"): "1",
    ("1", "1"): "0",
}

OR_REFERENCE = {
    ("0", "0"): "0",
    ("0", "1"): "1",
    ("1", "0"): "1",
    ("1", "1"): "1",
}

# segment shapes: [0,10] constant, singletons up to 24, [25,29], [30,100]
LOYALTY_REFERENCE = {}
for n in range(0, 101):
    if n <= 10:
        LOYALTY_REFERENCE[(str(n),)] = "0"
    elif n <= 19:
        LOYALTY_REFERENCE[(str(n),)] = str(n - 10)
    elif n <= 24:
        LOYALTY_REFERENCE[(str(n),)] = str((n - 10) * 10)
    elif n <= 29:
        LOYALTY_REFERENCE[(str(n),)] = "150"
    else:
        LOYALTY_REFERENCE[(str(n),)] = "500"


@pytest.mark.parametrize(
    "name,reference",
    [
        ("benefits", BENEFITS_REFERENCE),
        ("dist-benefits", DIST_BENEFITS_REFERENCE),
        ("xor", XOR_REFERENCE),
        ("or", OR_REFERENCE),
        ("loyalty", LOYALTY_REFERENCE),
    ],
)
def test_builtin_matches_reference_table(name, reference):
    program = make_builtin(name)
    for inputs, expected in reference.items():
        assert program.evaluate(inputs) == expected, inputs


def test_loyalty_examples():
    loyalty = make_builtin("loyalty")
    assert loyalty.evaluate(("15",)) == "5"
    assert loyalty.evaluate(("27",)) == "150"
    assert loyalty.evaluate(("50",)) == "500"


def test_loyalty_partition_structure():
    loyalty = make_builtin("loyalty")
    middle = [loyalty.evaluate((str(n),)) for n in range(11, 25)]
    assert len(set(middle)) == 14
    for lo, hi in [(0, 10), (25, 29), (30, 100)]:
        outs = {loyalty.evaluate((str(n),)) for n in range(lo, hi + 1)}
        assert len(outs) == 1


def test_identity_and_const():
    assert make_builtin("identity").evaluate(("abc",)) == "abc"
    assert make_builtin("const:true").evaluate(("anything",)) == "true"


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin):
        make_builtin("nope")
    with pytest.raises(UnknownBuiltin):
        make_builtin("const:")


def test_non_integer_token_fails():
    with pytest.raises(ProgramFailure):
        make_builtin("benefits").evaluate(("12x",))


def test_non_bit_token_fails():
    with pytest.raises(ProgramFailure):
        make_builtin("xor").evaluate(("2", "0"))


def test_arity_checked():
    with pytest.raises(ValueError):
        make_builtin("benefits").evaluate(("1", "2"))
    with pytest.raises(ValueError, match="^arity must be >= 1$"):
        BuiltinProgram("nullary", 0, lambda i: "x")


def test_observe_returns_event():
    assert make_builtin("benefits").observe(("5000",)) == Event(("5000",), "true")


class TestCache:
    def test_cache_avoids_reinvocation(self):
        calls = []

        def fn(inputs):
            calls.append(inputs)
            return "x"

        program = BuiltinProgram("counted", 1, fn)
        assert program.evaluate(("1",)) == program.evaluate(("1",)) == "x"
        assert len(calls) == 1


class TestTableProgram:
    def test_lookup_and_missing_key(self):
        program = TableProgram(XOR_REFERENCE)
        assert program.evaluate(("0", "1")) == "1"
        with pytest.raises(InputOutsideDomain):
            program.evaluate(("2", "2"))

    def test_round_trip_against_builtin(self, tmp_path):
        domain = InputDomain([[str(n) for n in range(0, 101)]])
        loyalty = make_builtin("loyalty")
        mapping = {i: loyalty.evaluate(i) for i in domain.enumerate()}
        path = tmp_path / "loyalty.jsonl"
        save_table(mapping, str(path))
        reloaded = TableProgram.load(str(path))
        for i in domain.enumerate():
            assert reloaded.evaluate(i) == loyalty.evaluate(i)

    def test_conflicting_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"in":["1"],"out":"a"}\n{"in":["1"],"out":"b"}\n')
        with pytest.raises(DeterminismViolation) as exc:
            TableProgram.load(str(path))
        assert exc.value.line == 2

    def test_identical_duplicate_rows_allowed(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"in":["1"],"out":"a"}\n{"in":["1"],"out":"a"}\n')
        assert TableProgram.load(str(path)).evaluate(("1",)) == "a"

    def test_mixed_arity_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text('{"in":["1"],"out":"a"}\n{"in":["1","2"],"out":"a"}\n')
        with pytest.raises(ParseError):
            TableProgram.load(str(path))
        with pytest.raises(ValueError, match=r"^table rows have mixed arities: \[1, 2\]$"):
            TableProgram({("1",): "a", ("1", "2"): "a"})

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ParseError):
            TableProgram.load(str(path))
        with pytest.raises(ValueError, match="^table must have at least one row$"):
            TableProgram({})

    def test_infer_domain_requires_full_product(self):
        assert TableProgram(XOR_REFERENCE).infer_domain().size == 4
        partial = dict(XOR_REFERENCE)
        del partial[("1", "1")]
        with pytest.raises(ParseError):
            TableProgram(partial).infer_domain()


_ROW_TOKENS = st.sampled_from(["0", "00", "-0", "1", "01", "5", "05", "10", "a", "b"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_ROW_TOKENS, min_size=1, max_size=4), min_size=1, max_size=3), st.data())
def test_infer_domain_is_the_per_source_value_sets(sources, data):
    """On a full table, infer_domain() is the domain of each source's set of
    row values; on a partial one it raises the one ParseError."""
    product = list(dict.fromkeys(itertools.product(*sources)))
    dropped = data.draw(st.sets(st.integers(0, len(product) - 1), max_size=len(product) - 1))
    rows = [row for k, row in enumerate(product) if k not in dropped]
    program = TableProgram({row: "o" for row in rows})
    naive = InputDomain([{row[j] for row in rows} for j in range(len(sources))])
    if naive.size == len(rows):
        assert program.infer_domain() == naive
        return
    with pytest.raises(ParseError) as info:
        program.infer_domain()
    assert str(info.value) == (
        f"table 'table' is not a full product domain: {len(rows)} rows, product size {naive.size}"
    )


def _write_script(tmp_path, name: str, body: str) -> list[str]:
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return [sys.executable, str(path)]


BENEFITS_SERVER = """\
    import sys
    marker = sys.argv[1]
    with open(marker, "a") as fh:
        fh.write("started\\n")
    for line in sys.stdin:
        salary = int(line.rstrip("\\n").split("\\t")[0])
        sys.stdout.write("true\\n" if salary < 10000 else "false\\n")
        sys.stdout.flush()
"""


# Echoes "r<input>", but answers "b" with a second, unsolicited line; then
# creates the file named by its argument, when it has one.
CHATTY_ECHO = """\
    import sys
    for line in sys.stdin:
        v = line.rstrip("\\n")
        sys.stdout.write("r" + v + ("\\nextra\\n" if v == "b" else "\\n"))
        sys.stdout.flush()
        if v == "b" and len(sys.argv) > 1:
            open(sys.argv[1], "w").close()
"""


class TestCommandProgram:
    def test_session_mode_uses_one_process(self, tmp_path):
        marker = tmp_path / "starts.txt"
        argv = _write_script(tmp_path, "benefits.py", BENEFITS_SERVER) + [str(marker)]
        with CommandProgram(argv, arity=1) as program:
            assert program.evaluate(("5000",)) == "true"
            assert program.evaluate(("11000",)) == "false"
            assert program.evaluate(("9999",)) == "true"
        assert marker.read_text().count("started") == 1

    def test_evaluate_leaves_no_cycle_per_call(self):
        """Each evaluate() ends a pairs() stream at the end of its order: the
        stream leaves nothing in a cycle, so 1,000 calls leave nothing for
        the cyclic collector."""
        with CommandProgram(mod_worker(10**9, 10), arity=1) as program:
            gc.collect()
            gc.disable()
            try:
                assert [program.evaluate((str(n),)) for n in range(1000)] == [f"o{n}" for n in range(1000)]
                found = gc.collect()
            finally:
                gc.enable()
        assert found <= 10, found

    def test_tab_joined_request_framing(self, tmp_path):
        argv = _write_script(
            tmp_path,
            "xor.py",
            """\
            import sys
            for line in sys.stdin:
                a, b = line.rstrip("\\n").split("\\t")
                sys.stdout.write(str(int(a) ^ int(b)) + "\\n")
                sys.stdout.flush()
            """,
        )
        with CommandProgram(argv, arity=2) as program:
            assert program.evaluate(("1", "1")) == "0"
            assert program.evaluate(("0", "1")) == "1"

    def test_timeout(self, tmp_path):
        argv = _write_script(
            tmp_path,
            "sleeper.py",
            """\
            import sys, time
            sys.stdin.readline()
            time.sleep(30)
            """,
        )
        with CommandProgram(argv, arity=1, timeout=0.3) as program:
            with pytest.raises(ProgramFailure, match="timed out"):
                program.evaluate(("1",))

    def test_session_recovers_after_timeout(self, tmp_path):
        """A timed-out child is replaced by a fresh one whose replies are read
        from its own pipes, so the next call neither hangs nor misreads."""
        argv = _write_script(
            tmp_path,
            "slow_echo.py",
            """\
            import sys, time
            for line in sys.stdin:
                v = line.rstrip("\\n")
                if v == "slow":
                    time.sleep(0.5)
                sys.stdout.write("r" + v + "\\n")
                sys.stdout.flush()
            """,
        )
        with CommandProgram(argv, arity=1, timeout=0.3) as program:
            with pytest.raises(ProgramFailure, match="timed out"):
                program.evaluate(("slow",))
            result = []
            worker = threading.Thread(
                target=lambda: result.append(program.evaluate(("b",))), daemon=True
            )
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive(), "evaluate after a timeout did not return"
            assert result == ["rb"]

    def test_malformed_reply_with_embedded_tab(self, tmp_path):
        argv = _write_script(
            tmp_path,
            "tabby.py",
            """\
            import sys
            sys.stdin.readline()
            sys.stdout.write("a\\tb\\n")
            sys.stdout.flush()
            sys.stdin.readline()
            """,
        )
        with CommandProgram(argv, arity=1) as program:
            with pytest.raises(ProgramFailure, match="malformed"):
                program.evaluate(("1",))

    def test_extra_line_before_request_fails(self, tmp_path):
        """A line the worker sends unasked is never taken as the reply to
        the next request."""
        sent = tmp_path / "extra-sent"
        argv = _write_script(tmp_path, "chatty.py", CHATTY_ECHO) + [str(sent)]
        with CommandProgram(argv, arity=1) as program:
            assert program.evaluate(("a",)) == "ra"
            assert program.evaluate(("b",)) == "rb"
            deadline = time.monotonic() + 5
            while not sent.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(ProgramFailure, match="unsolicited output line b'extra"):
                program.evaluate(("c",))

    def test_extra_line_left_over_at_close_fails(self, tmp_path):
        argv = _write_script(tmp_path, "chatty.py", CHATTY_ECHO)
        program = CommandProgram(argv, arity=1)
        assert program.evaluate(("a",)) == "ra"
        assert program.evaluate(("b",)) == "rb"
        with pytest.raises(ProgramFailure, match="left over at close"):
            program.close()

    def test_partial_reply_line_fails(self, tmp_path):
        argv = _write_script(
            tmp_path,
            "partial.py",
            """\
            import sys
            sys.stdin.readline()
            sys.stdout.write("ra")
            """,
        )
        with CommandProgram(argv, arity=1) as program:
            with pytest.raises(ProgramFailure, match="not LF-terminated"):
                program.evaluate(("a",))

    def test_crash_mid_run_fails_every_later_call(self, tmp_path):
        argv = _write_script(
            tmp_path,
            "crash_third.py",
            """\
            import os, sys
            for n, line in enumerate(sys.stdin):
                if n == 2:
                    os._exit(4)
                sys.stdout.write("r" + line.rstrip("\\n") + "\\n")
                sys.stdout.flush()
            """,
        )
        with CommandProgram(argv, arity=1) as program:
            assert program.evaluate(("a",)) == "ra"
            assert program.evaluate(("b",)) == "rb"
            with pytest.raises(ProgramFailure, match="exited with code 4"):
                program.evaluate(("c",))
            with pytest.raises(ProgramFailure, match="exited with code 4"):
                program.evaluate(("d",))

    def test_process_exit_reports_stderr(self, tmp_path):
        argv = _write_script(
            tmp_path,
            "crasher.py",
            """\
            import sys
            print("boom detail", file=sys.stderr)
            sys.exit(2)
            """,
        )
        with CommandProgram(argv, arity=1) as program:
            with pytest.raises(ProgramFailure) as exc:
                program.evaluate(("1",))
        assert "boom detail" in str(exc.value)

    def test_missing_executable(self):
        with CommandProgram(["/no/such/binary"], arity=1) as program:
            with pytest.raises(ProgramFailure):
                program.evaluate(("1",))
        with pytest.raises(ValueError, match="^argv must not be empty$"):
            CommandProgram([], 1)

    def test_stderr_flood_neither_blocks_nor_loses_the_last_lines(self, tmp_path):
        """1 MiB of stderr before each reply: both pipes are read while a
        reply is awaited, and the child's last stderr line is in the
        failure."""
        argv = _write_script(
            tmp_path,
            "flood.py",
            """\
            import sys
            for n, line in enumerate(sys.stdin):
                sys.stderr.write(("x" * 1023 + "\\n") * 1024)
                sys.stderr.flush()
                if n == 3:
                    sys.stderr.write("last words\\n")
                    sys.exit(5)
                sys.stdout.write("r" + line)
                sys.stdout.flush()
            """,
        )
        with CommandProgram(argv, arity=1, timeout=5) as program:
            assert [program.evaluate((v,)) for v in "ab"] == ["ra", "rb"]
            got, error = _pull(outputs(program, [("c",), ("d",), ("e",)]))
        assert got == ["rc"]
        assert isinstance(error, ProgramFailure)
        assert "exited with code 5 before replying" in str(error)
        assert error.stderr == ("x" * 1023 + "\n") * 49 + "last words\n"

    def test_session_starts_no_thread(self):
        before = threading.active_count()
        with CommandProgram(mod_worker(1000, 10), arity=1) as program:
            order = [(str(n),) for n in range(200)]
            assert list(outputs(program, order)) == [f"o{n}" for n in range(200)]
            assert program.evaluate(("7",)) == "o7"
            assert threading.active_count() == before
        assert threading.active_count() == before

    def test_child_that_closes_stdout_fails_within_the_timeout(self, tmp_path):
        """A child that closes stdout and keeps running is stopped once the
        timeout has passed; the failure names its exit code."""
        argv = _write_script(
            tmp_path,
            "mute.py",
            """\
            import os, sys, time
            sys.stdin.readline()
            os.close(1)
            time.sleep(30)
            """,
        )
        with CommandProgram(argv, arity=1, timeout=0.5) as program:
            start = time.monotonic()
            with pytest.raises(ProgramFailure, match="exited with code -15 before replying"):
                program.evaluate(("1",))
            assert time.monotonic() - start < 0.5 + 2

    def test_child_that_closes_stdin_fails_the_next_write(self, tmp_path):
        """A child that stops reading but keeps running: the next request's
        write fails with the stderr excerpt, and close() stops the child
        although the unwritten request cannot be flushed."""
        argv = _write_script(
            tmp_path,
            "deaf.py",
            """\
            import os, sys, time
            line = sys.stdin.readline()
            sys.stderr.write("bye\\n")
            sys.stderr.flush()
            os.close(0)
            sys.stdout.write("r" + line)
            sys.stdout.flush()
            time.sleep(30)
            """,
        )
        program = CommandProgram(argv, arity=1, timeout=0.5)
        assert program.evaluate(("a",)) == "ra"
        proc = program._proc
        with pytest.raises(ProgramFailure) as exc:
            program.evaluate(("b",))
        assert str(exc.value).endswith(": cannot write request: [Errno 32] Broken pipe [stderr: bye]")
        start = time.monotonic()
        program.close()
        assert proc.returncode is not None and time.monotonic() - start < 0.5 + 2

    def test_close_stops_a_child_that_stalls_on_unread_replies(self, tmp_path):
        """The consumer stops after the first pair of a window, then the
        child stalls: close() drops the replies it waited a timeout for,
        raises nothing and leaves no child."""
        argv = _write_script(
            tmp_path,
            "stall.py",
            """\
            import sys, time
            sys.stdout.write("r" + sys.stdin.readline())
            sys.stdout.flush()
            time.sleep(30)
            """,
        )
        program = CommandProgram(argv, arity=1, timeout=0.5)
        stream = outputs(program, [("a",), ("b",), ("c",)])
        assert next(stream) == "ra"
        proc = program._proc
        start = time.monotonic()
        program.close()
        assert proc.returncode is not None and time.monotonic() - start < 0.5 + 2

    @pytest.mark.parametrize("child, failure", [
        # Answers every request, then sends one line at EOF that none asked for.
        ("""\
            import sys
            for line in sys.stdin:
                sys.stdout.write("r" + line)
                sys.stdout.flush()
            sys.stdout.write("unasked\\n")
            """, "unsolicited output line b'unasked\\n' left over at close"),
        # Answers 3 of the 10 requests and exits.
        ("""\
            import sys
            for n, line in enumerate(sys.stdin):
                sys.stdout.write("r" + line)
                sys.stdout.flush()
                if n == 2:
                    break
            """, None),
    ], ids=["extra-line-at-eof", "exits-after-three"])
    def test_close_with_replies_in_flight(self, tmp_path, child, failure):
        """The consumer stops after the first pair of a 10-request window:
        close() drops the 9 replies still in flight, fails only on a line
        sent beyond them, and leaves no child."""
        argv = _write_script(tmp_path, "child.py", child)
        program = CommandProgram(argv, arity=1, timeout=5)
        stream = outputs(program, [(str(n),) for n in range(10)])
        assert next(stream) == "r0"
        proc = program._proc
        if failure is None:
            program.close()
        else:
            with pytest.raises(ProgramFailure, match=re.escape(failure)):
                program.close()
        assert proc.returncode is not None and program._proc is None

    def test_close_kills_a_child_that_ignores_eof_and_sigterm(self, tmp_path):
        argv = _write_script(
            tmp_path,
            "stubborn.py",
            """\
            import signal, sys, time
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            for line in sys.stdin:
                sys.stdout.write("r" + line)
                sys.stdout.flush()
            time.sleep(30)
            """,
        )
        program = CommandProgram(argv, arity=1, timeout=0.3)
        assert program.evaluate(("a",)) == "ra"
        proc = program._proc
        program.close()
        assert proc.returncode == -9


def _pull(stream) -> tuple[list, BaseException | None]:
    """Items a stream yields before it raises, and what it raises."""
    got = []
    try:
        for item in stream:
            got.append(item)
    except Exception as exc:
        return got, exc
    return got, None


class TestPipeline:
    """pairs() on an exec: session: several requests in flight, everything
    observable as with one request at a time."""

    @pytest.mark.parametrize("window", [1, 64])
    def test_chatty_worker_under_run_test_fails(self, tmp_path, monkeypatch, window):
        monkeypatch.setattr(command, "_WINDOW", window)
        argv = _write_script(tmp_path, "chatty.py", CHATTY_ECHO)
        domain = InputDomain([["a", "b", "c", "d"]])
        with pytest.raises(ProgramFailure, match="unsolicited output line"):
            with CommandProgram(argv, arity=1) as program:
                run_test(program, domain, Mode.MONOLITHIC, strategy=LEXICOGRAPHIC)

    def test_worker_that_stops_reading_times_out(self, tmp_path):
        """Requests far beyond any pipe capacity: the stream writes one
        capped window, so it ends in the reply timeout, not a blocked write."""
        argv = _write_script(
            tmp_path,
            "one_line.py",
            """\
            import os, sys, time
            line = b""
            while not line.endswith(b"\\n"):
                line += os.read(0, 1)
            sys.stdout.write("r\\n")
            sys.stdout.flush()
            time.sleep(30)
            """,
        )
        order = [(f"{n:04d}" + "x" * 2000,) for n in range(200)]
        result = []
        with CommandProgram(argv, arity=1, timeout=0.5) as program:
            start = time.monotonic()
            worker = threading.Thread(
                target=lambda: result.append(_pull(outputs(program, order))), daemon=True
            )
            worker.start()
            worker.join(timeout=10)
            elapsed = time.monotonic() - start
            assert not worker.is_alive(), "the stream blocked"
        got, error = result[0]
        assert got == ["r"]
        assert isinstance(error, ProgramFailure) and "timed out" in str(error)
        assert elapsed < 0.5 + 2

    def test_crash_inside_a_window(self, tmp_path):
        argv = _write_script(
            tmp_path,
            "crash_third.py",
            """\
            import os, sys
            for n, line in enumerate(sys.stdin):
                if n == 2:
                    os._exit(4)
                sys.stdout.write("r" + line.rstrip("\\n") + "\\n")
                sys.stdout.flush()
            """,
        )
        with CommandProgram(argv, arity=1) as program:
            got, error = _pull(outputs(program, [(v,) for v in "abcdef"]))
        assert got == ["ra", "rb"]
        assert isinstance(error, ProgramFailure) and "exited with code 4" in str(error)

    @pytest.mark.parametrize("window", [1, 2, 64], ids=lambda window: f"{window}-True")
    def test_stream_matches_single_calls(self, tmp_path, monkeypatch, window):
        """Repeats are memo hits, also while their request is in flight; a
        bad input is raised at its position, after the outputs before it."""
        monkeypatch.setattr(command, "_WINDOW", window)
        count = tmp_path / "served.txt"
        order = [("1", "2"), ("3", "4"), ("1", "2"), ("5", "6"), ("3", "4"), ("7",), ("8", "9")]
        with CommandProgram(mod_worker(1000, 10, count), arity=2) as program:
            got, error = _pull(outputs(program, order))
        assert got == ["o12", "o34", "o12", "o56", "o34"]
        assert isinstance(error, ValueError) and "arity 2" in str(error)
        assert count.read_text() == "3"

    def test_request_longer_than_the_byte_cap_goes_out_alone(self, tmp_path):
        argv = _write_script(tmp_path, "chatty.py", CHATTY_ECHO)
        long = "z" * (command._WINDOW_BYTES + 10)
        with CommandProgram(argv, arity=1) as program:
            assert list(outputs(program, [("a",), (long,), ("c",)])) == ["ra", "r" + long, "rc"]

    def test_replies_left_unread_are_discarded(self, tmp_path):
        """A consumer that stops early leaves replies in flight; the next
        request and close() read past them without error."""
        count = tmp_path / "served.txt"
        with CommandProgram(mod_worker(1000, 10, count), arity=1) as program:
            stream = outputs(program, [(str(n),) for n in range(10)])
            assert next(stream) == "o0"
            assert program.evaluate(("42",)) == "o42"
            with pytest.raises(RuntimeError, match="discarded"):
                next(stream)
            assert next(outputs(program, [("43",)])) == "o43"
        assert count.read_text() == "12"

    def test_a_memo_hit_leaves_an_open_stream_alone(self, tmp_path):
        """evaluate() on an input already answered sends no request, so a
        stream with requests in flight reads on without error."""
        count = tmp_path / "served.txt"
        with CommandProgram(mod_worker(1000, 10, count), arity=1) as program:
            assert program.evaluate(("42",)) == "o42"
            stream = outputs(program, [(str(n),) for n in range(10)])
            assert next(stream) == "o0"
            assert program.evaluate(("42",)) == "o42"
            assert next(stream) == "o1"
            assert list(stream) == [f"o{n}" for n in range(2, 10)]
        assert count.read_text() == "11"

    def test_composed_stream_matches_observe(self, tmp_path):
        """pairs() of a composition sees the pre-processed inputs and asks
        the inner worker once per representative."""
        domain = InputDomain([[str(n) for n in range(12)]])
        table, _ = synthesize(make_builtin("loyalty"), domain)
        count = tmp_path / "served.txt"
        order = list(domain.enumerate())
        with compose(CommandProgram(mod_worker(1000, 10, count), arity=1), table) as composed:
            streamed = [Event(*pair) for pair in composed.pairs(order)]
        with compose(CommandProgram(mod_worker(1000, 10), arity=1), table) as composed:
            single = [composed.observe(i) for i in order]
        assert streamed == single
        assert count.read_text() == str(len(set(table.mapping.values())))

    def test_builtin_stream_is_the_per_input_loop(self):
        program = make_builtin("xor")
        order = [("0", "1"), ("1", "1"), ("1", "2")]
        got, error = _pull(program.pairs(order))
        assert got == [(("0", "1"), "1"), (("1", "1"), "0")]
        assert isinstance(error, ProgramFailure)


# Inputs that no program accepts, with the ValueError they raise.
_BAD_INPUTS = [
    (["1", "2"], "input event must be a non-empty tuple, got ['1', '2']"),
    (("1", ["2"]), "not a valid value token: ['2']"),
    (("1",), "program {name!r} has arity 2, got 1 coordinates"),
]


# The memo is always on. Tests that once also ran with it off keep the IDs of
# their memo-on cases: the "True" in "True-builtin" or "64-True" and the
# "cache1" in "_o1-int-cache1" name the memo.
_MEMO_KINDS = pytest.mark.parametrize("kind", ["builtin", "exec"], ids=lambda kind: f"True-{kind}")


def _o2(kind: str):
    """A program of arity 2 that maps ("1", "2") to "o12"."""
    if kind == "builtin":
        return BuiltinProgram("o2", 2, lambda i: "o" + "".join(i))
    return CommandProgram(mod_worker(1000, 10), arity=2)


@pytest.mark.parametrize("bad, message", _BAD_INPUTS)
@_MEMO_KINDS
def test_bad_input_fails_as_ever_after_a_memo_hit(kind, bad, message):
    """The memo is looked up before the input check; an input it cannot
    serve is still checked, with the same error."""
    with _o2(kind) as program:
        expected = message.format(name=program.name)
        assert program.evaluate(("1", "2")) == program.evaluate(("1", "2")) == "o12"
        with pytest.raises(ValueError) as exc:
            program.evaluate(bad)
        assert (type(exc.value), str(exc.value)) == (ValueError, expected)
        got, error = _pull(outputs(program, [("1", "2"), bad, ("1", "2")]))
        assert got == ["o12"]
        assert (type(error), str(error)) == (ValueError, expected)
        got, error = _pull(program.pairs([("1", "2"), bad, ("1", "2")]))
        assert got == [(("1", "2"), "o12")]
        assert (type(error), str(error)) == (ValueError, expected)


class _Counted(tuple):
    """A tuple that counts the calls of its __iter__ and __len__, which a
    check of it and a program's call on it make, and a memo lookup does
    not. Being no exact tuple, it is checked by Program._check_inputs()."""

    calls = 0

    def __iter__(self):
        self.calls += 1
        return super().__iter__()

    def __len__(self):
        self.calls += 1
        return super().__len__()


@_MEMO_KINDS
def test_each_distinct_input_is_checked_once(kind):
    """A memo hit (also on an input still in flight) is not checked again,
    and a new input is checked once: it is handled as often as in a
    one-input stream, and a repeat is never handled."""
    order = [_Counted(i) for i in [("1", "2"), ("3", "4"), ("1", "2"), ("1", "2"), ("3", "4")]]
    with _o2(kind) as program:
        assert list(outputs(program, order)) == ["o12", "o34", "o12", "o12", "o34"]
    alone = _Counted(("1", "2"))
    with _o2(kind) as program:
        assert program.evaluate(alone) == "o12"
    assert alone.calls > 0
    assert [i.calls for i in order] == [alone.calls] * 2 + [0] * 3


class _Str(str):
    pass


# A worker that replies "o1" to the request "1" and the bytes of argv[1],
# given in hex, to every other request.
_REPLY_WORKER = """\
import sys
reply = bytes.fromhex(sys.argv[1])
for line in sys.stdin.buffer:
    sys.stdout.buffer.write((b"o1" if line == b"1\\n" else reply) + b"\\n")
    sys.stdout.buffer.flush()
"""

# Values that the one-expression checks in pairs() must judge as is_token
# does: tokens, str subclasses, the empty string, whitespace ("\x1c" is
# whitespace to str.split), and values that are no str.
_VALUES = ["2", _Str("2"), "", " ", "\x1c", "a b", "\x85", 2, None, ["2"]]
# Inputs of a program of arity 1: good ones, then one of each way to be bad.
_INPUTS = [
    ("2",), (_Str("2"),), _Counted(("2",)),
    ("",), (" ",), ("\x1c",), ("\x85",), ("a b",), (2,), (None,), (["2"],),
    _Counted(("\x1c",)), ["2"], ("2", "2"), (),
]
_REPLIES = ["o2", "", " ", "\x1c", "a b", "\x85", "o\u00e9"]


def _reply_program(kind: str, out):
    """A program of arity 1 that maps ("1",) to "o1" and every other input to `out`."""
    if kind == "builtin":
        return BuiltinProgram("b", 1, lambda i: "o1" if i == ("1",) else out)
    if kind == "table":
        return programs.TableProgram({("1",): "o1", ("2",): out})
    argv = [sys.executable, "-S", "-c", _REPLY_WORKER, out.encode("utf-8").hex()]
    return CommandProgram(argv, arity=1)


@pytest.mark.parametrize("kind", ["builtin", "table", "exec"])
@settings(max_examples=100, deadline=None)
@given(
    x=st.sampled_from(_INPUTS) | st.builds(
        lambda container, values: container(values),
        st.sampled_from([tuple, _Counted, list]),
        st.lists(st.sampled_from(_VALUES), max_size=2),
    ),
    out=st.sampled_from(_VALUES + _REPLIES),
)
def test_stream_fails_at_a_bad_input_or_output_as_evaluate_does(kind, x, out):
    """pairs([good, x, good]) yields what evaluate(x) returns between the two
    good pairs, or yields the first and raises what evaluate(x) raises; and
    that is what the reference token test says: the one-expression checks
    of inputs and outputs judge as the full checks do."""
    if kind == "exec" and out.__class__ is not str:
        out = "o2"  # a reply is always text
    if not (isinstance(x, tuple) and len(x) == 1 and all(map(ref_is_token, x))):
        fails = ValueError
    elif kind == "table" and x != ("2",):
        fails = InputOutsideDomain
    else:
        fails = None if ref_is_token(out) else ProgramFailure
    with _reply_program(kind, out) as program:
        try:
            expected = [(("1",), "o1"), (x, program.evaluate(x)), (("1",), "o1")], None
        except Exception as exc:
            expected = [(("1",), "o1")], (type(exc), str(exc))
    with _reply_program(kind, out) as program:
        got, error = _pull(program.pairs([("1",), x, ("1",)]))
    assert (got, error and (type(error), str(error))) == expected
    assert type(error) is (fails or type(None))


def _o1():
    return BuiltinProgram("o", 1, lambda i: "o" + i[0])


def _o1_table():
    return programs.TableProgram({(str(n),): f"o{n}" for n in range(3)})


def _o1_exec():
    return CommandProgram(mod_worker(1000, 10), arity=1)


def _returning(out):
    """A builtin that maps ("1",) to "o1" and every other input to `out`."""
    return lambda: BuiltinProgram("out", 1, lambda i: "o1" if i == ("1",) else out)


# Inputs that no program of arity 1 accepts.
_BAD_FOR_ARITY_1 = {"list": ["1"], "empty": (), "arity": ("1", "2"), "int": (1,), "space": ("1 2",)}


@pytest.mark.parametrize(
    "make, bad",
    [
        pytest.param(make, bad, id=f"{make.__name__}-{label}-cache1")
        for make in (_o1, _o1_table)
        for label, bad in _BAD_FOR_ARITY_1.items()
    ]
    + [
        pytest.param(_returning(out), ("2",), id=f"returns-{out!r}-cache1")
        for out in ("a b", "", 7)
    ]
    # A lone surrogate is a token, but no exec: request can encode it.
    + [pytest.param(_o1_exec, ("\ud800",), id="_o1_exec-surrogate-cache1")],
)
def test_stream_fails_at_its_input_as_evaluate_does(make, bad):
    """pairs() over [good, bad, good] yields the good output, then raises
    the exception that evaluate(bad) raises, with the same message."""
    with make() as program, pytest.raises(Exception) as exc:
        program.evaluate(bad)
    with make() as program:
        got, error = _pull(program.pairs([("1",), bad, ("1",)]))
    assert got == [(("1",), "o1")]
    assert (type(error), str(error)) == (type(exc.value), str(exc.value))


class _OrderBroke(Exception):
    pass


def _breaking_order(k: int):
    """("0",), ("1",), ... that raises _OrderBroke when asked for input k."""
    yield from ((str(n),) for n in range(k))
    raise _OrderBroke(f"order broke at input {k}")


# Every program maps ("n",) to "o<n>"; the composition first sends n to the
# even number at or below it.
_EVEN = MinimiserTable({(str(n),): (str(n - n % 2),) for n in range(200)}, 1)


@pytest.mark.parametrize("k", [0, 3, 70])
@pytest.mark.parametrize(
    "kind", ["builtin", "table", "exec-1", "exec-64", "composed-builtin", "composed-exec"]
)
def test_observe_all_yields_the_events_before_an_order_error(monkeypatch, kind, k):
    """pairs() takes inputs from the order as it goes: an order that raises
    at input k yields k observations, then that error."""
    monkeypatch.setattr(command, "_WINDOW", 1 if kind == "exec-1" else 64)
    observed = [(str(n),) for n in range(k)]
    if kind.startswith("composed"):
        observed = list(map(_EVEN.apply, observed))
    if kind.endswith("builtin"):
        program = BuiltinProgram("o", 1, lambda i: "o" + i[0])
    elif kind == "table":
        program = programs.TableProgram({(str(n),): f"o{n}" for n in range(200)})
    else:
        program = CommandProgram(mod_worker(1000, 10), arity=1)
    if kind.startswith("composed"):
        program = compose(program, _EVEN)
    with program:
        got, error = _pull(program.pairs(_breaking_order(k)))
    assert got == [(i, "o" + i[0]) for i in observed]
    assert isinstance(error, _OrderBroke) and str(error) == f"order broke at input {k}"


# Sends n to n + 1 (mod 12): a composition's observed inputs are not its
# probes, also over the table's whole range.
_SHIFT = MinimiserTable({(str(n),): (str((n + 1) % 12),) for n in range(12)}, 1)


class _ObserveOnly:
    """A handle without pairs(), as a wrapper around a Program may be: only
    arity, name, evaluate, observe and close."""

    def __init__(self, program):
        self.program = program
        self.arity = program.arity
        self.name = program.name
        self.observed = 0

    def evaluate(self, inputs):
        return self.program.evaluate(inputs)

    def observe(self, inputs):
        self.observed += 1
        return self.program.observe(inputs)

    def close(self):
        self.program.close()


@pytest.mark.parametrize("kind", ["builtin", "composed-exec"])
def test_drivers_observe_a_handle_without_pairs_once_per_input(kind):
    """Every driver gives over such a handle what it gives over the program
    itself; a composition's observe() gives the pre-processed inputs."""
    domain = InputDomain([[str(n) for n in range(12)]])
    table, _ = synthesize(make_builtin("loyalty"), domain)
    results = []
    for wrap in (lambda p: p, _ObserveOnly):
        if kind == "builtin":
            handle = wrap(make_builtin("loyalty"))
        else:
            handle = wrap(compose(CommandProgram(mod_worker(5, 10), arity=1), _SHIFT))
        try:
            results.append((
                run_test(handle, domain, Mode.STRONG_DISTRIBUTED, strategy=LEXICOGRAPHIC),
                synthesize(handle, domain),
                validate_preprocessor(handle, domain, table),
            ))
        finally:
            handle.close()
    assert results[0] == results[1]
    report = results[1][0]
    assert handle.observed == report.steps + 2 * domain.size
    first = ("1",) if kind == "composed-exec" else ("0",)
    assert report.verdict is Verdict.FALSE and report.trace[0].inputs == first


# Echoes "r<input>", but answers "utf8" with a byte that is not UTF-8 and
# "two" with two tokens.
FAULTY_REPLIES = """\
    import sys
    for line in sys.stdin.buffer:
        v = line.rstrip(b"\\n")
        reply = {b"utf8": b"\\xff", b"two": b"a b"}.get(v, b"r" + v)
        sys.stdout.buffer.write(reply + b"\\n")
        sys.stdout.flush()
"""


@pytest.mark.parametrize("window", [1, 64])
@pytest.mark.parametrize(
    "fault, message",
    [
        ("utf8", "reply is not valid UTF-8: b'\\xff\\n'"),
        ("two", "malformed reply (expected one output token): 'a b'"),
    ],
)
def test_bad_reply_fails_at_its_input(tmp_path, monkeypatch, window, fault, message):
    """evaluate() and pairs() give the outputs before a bad reply, then the
    reply's ProgramFailure at its input."""
    monkeypatch.setattr(command, "_WINDOW", window)
    argv = _write_script(tmp_path, "faulty.py", FAULTY_REPLIES)
    with CommandProgram(argv, arity=1) as program:
        expected = f"{program.name!r}: {message}"
        assert program.evaluate(("a",)) == "ra"
        with pytest.raises(ProgramFailure) as exc:
            program.evaluate((fault,))
        assert str(exc.value) == expected
    with CommandProgram(argv, arity=1) as program:
        got, error = _pull(program.pairs([("a",), ("b",), (fault,), ("c",)]))
    assert got == [(("a",), "ra"), (("b",), "rb")]
    assert (type(error), str(error)) == (ProgramFailure, expected)


def test_non_utf8_reply_carries_the_stderr_excerpt(tmp_path):
    """A reply that is not UTF-8 fails with the child's stderr, as every
    other reply fault does."""
    argv = _write_script(tmp_path, "latin.py", """\
        import sys
        for line in sys.stdin.buffer:
            sys.stderr.write("about to send a latin-1 byte\\n")
            sys.stderr.flush()
            sys.stdout.buffer.write(b"\\xff\\n")
            sys.stdout.flush()
    """)
    with CommandProgram(argv, arity=1) as program:
        with pytest.raises(ProgramFailure) as exc:
            program.evaluate(("a",))
    assert str(exc.value) == (
        f"{program.name!r}: reply is not valid UTF-8: b'\\xff\\n' "
        "[stderr: about to send a latin-1 byte]"
    )


# Writes "note" to stderr, then answers each request line v with "r<v>", but
# exits at "exit", sleeps at "sleep", sends a second line at "extra", leaves
# out the LF at "partial", sends a byte that is not UTF-8 at "utf8" and two
# tokens at "two", and closes its stdin before answering "deaf".
FAULTS_AFTER_A_NOTE = """\
    import os, sys, time
    sys.stderr.write("note\\n")
    sys.stderr.flush()
    for line in sys.stdin.buffer:
        v = line.rstrip(b"\\n")
        if v == b"exit":
            os._exit(4)
        if v == b"sleep":
            time.sleep(30)
        if v == b"deaf":
            os.close(0)
        reply = {b"extra": b"rextra\\nextra\\n", b"partial": b"rpartial", b"utf8": b"\\xff\\n",
                 b"two": b"a b\\n"}.get(v, b"r" + line)
        sys.stdout.buffer.write(reply)
        sys.stdout.flush()
        if v == b"partial":
            break
        if v == b"deaf":
            time.sleep(30)
"""


@pytest.mark.parametrize("requests, timeout, problem", [
    (["exit", "a"], 10, "process exited with code 4"),
    (["exit"], 10, "process exited with code 4 before replying"),
    (["sleep"], 0.3, "timed out after 0.3s waiting for a reply"),
    (["extra", "a"], 10, "unsolicited output line b'extra\\n'"),
    (["extra", None], 10, "unsolicited output line b'extra\\n' left over at close"),
    (["partial"], 10, "reply is not LF-terminated: b'rpartial'"),
    (["utf8"], 10, "reply is not valid UTF-8: b'\\xff\\n'"),
    (["two"], 10, "malformed reply (expected one output token): 'a b'"),
    (["deaf", "a"], 0.3, "cannot write request: [Errno 32] Broken pipe"),
], ids=["exited-before-a-send", "exited-before-replying", "timed-out", "unsolicited-at-send",
        "left-over-at-close", "no-lf", "not-utf8", "malformed", "cannot-write"])
def test_every_exec_failure_names_the_program_and_ends_with_the_stderr_excerpt(
    tmp_path, requests, timeout, problem
):
    """Each ProgramFailure of the exec: handle but `cannot start` reads
    "'<name>': <problem> [stderr: <excerpt>]", and keeps the excerpt as
    `stderr`. The last request (None: close()) fails; those before it may.
    A child that sleeps is stopped after `timeout`."""
    argv = _write_script(tmp_path, "faults.py", FAULTS_AFTER_A_NOTE)
    program = CommandProgram(argv, arity=1, timeout=timeout)
    try:
        for request in requests[:-1]:
            with contextlib.suppress(ProgramFailure):
                program.evaluate((request,))
        with pytest.raises(ProgramFailure) as exc:
            program.evaluate((requests[-1],)) if requests[-1] else program.close()
    finally:
        program.close()
    assert str(exc.value) == f"{program.name!r}: {problem} [stderr: note]"
    assert exc.value.stderr == "note\n"
