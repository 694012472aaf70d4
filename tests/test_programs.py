"""Program handle tests: builtin semantics against reference tables, memo
cache behaviour, table files, and the external line protocol."""

from __future__ import annotations

import sys
import textwrap
import threading

import pytest

from minimon import (
    DeterminismViolation,
    Event,
    InputDomain,
    InputOutsideDomain,
    ParseError,
    ProgramFailure,
    TableProgram,
    UnknownBuiltin,
    make_builtin,
)
from minimon.programs import BuiltinProgram, CommandProgram, save_table

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


def test_observe_returns_event():
    assert make_builtin("benefits").observe(("5000",)) == Event(("5000",), "true")


class TestCache:
    def _counting(self, cache: bool):
        calls = []

        def fn(inputs):
            calls.append(inputs)
            return "x"

        return BuiltinProgram("counted", 1, fn, cache=cache), calls

    def test_cache_avoids_reinvocation(self):
        program, calls = self._counting(cache=True)
        assert program.evaluate(("1",)) == program.evaluate(("1",)) == "x"
        assert len(calls) == 1

    def test_disabled_cache_reinvokes_with_same_results(self):
        program, calls = self._counting(cache=False)
        assert program.evaluate(("1",)) == program.evaluate(("1",)) == "x"
        assert len(calls) == 2

    def test_flaky_program_detected_when_cache_disabled(self):
        outputs = iter(["a", "b"])
        program = BuiltinProgram("flaky", 1, lambda i: next(outputs), cache=False)
        assert program.evaluate(("1",)) == "a"
        with pytest.raises(DeterminismViolation):
            program.evaluate(("1",))


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

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ParseError):
            TableProgram.load(str(path))

    def test_infer_domain_requires_full_product(self):
        assert TableProgram(XOR_REFERENCE).infer_domain().size == 4
        partial = dict(XOR_REFERENCE)
        del partial[("1", "1")]
        with pytest.raises(ParseError):
            TableProgram(partial).infer_domain()


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


class TestCommandProgram:
    def test_session_mode_uses_one_process(self, tmp_path):
        marker = tmp_path / "starts.txt"
        argv = _write_script(tmp_path, "benefits.py", BENEFITS_SERVER) + [str(marker)]
        with CommandProgram(argv, arity=1) as program:
            assert program.evaluate(("5000",)) == "true"
            assert program.evaluate(("11000",)) == "false"
            assert program.evaluate(("9999",)) == "true"
        assert marker.read_text().count("started") == 1

    def test_per_call_mode_respawns(self, tmp_path):
        marker = tmp_path / "starts.txt"
        argv = _write_script(tmp_path, "benefits.py", BENEFITS_SERVER) + [str(marker)]
        with CommandProgram(argv, arity=1, session=False, cache=False) as program:
            assert program.evaluate(("5000",)) == "true"
            assert program.evaluate(("11000",)) == "false"
        assert marker.read_text().count("started") == 2

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
        from its own queue, so the next call neither hangs nor misreads."""
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
