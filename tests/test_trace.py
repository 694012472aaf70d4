"""Data model tests: tokens, events, determinism enforcement, domain
enumeration, and trace file round-trips."""

from __future__ import annotations

import io
import json
import os
import random
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from minimon import (
    DeterminismViolation,
    Event,
    InputDomain,
    MinimiserTable,
    Mode,
    MonitorConfig,
    ParseError,
    TableProgram,
    Trace,
    Witness,
    find_witness,
    load_minimiser,
    load_trace,
    monitor_eval,
    parse_trace,
    prefix_verdicts,
    run_test,
    save_minimiser,
    serialize_trace,
)
from minimon import minimiser as minimiser_module, programs, tester, trace as trace_module
from minimon.programs import BuiltinProgram, save_table
from minimon.trace import is_token, iter_io_lines, parse_input_lines, record_line

from helpers import (
    mono,
    naive_mono_witness,
    naive_sdm_witness,
    ref_input_lines,
    ref_io_records,
    ref_minimiser,
    ref_parse_trace,
    ref_trace_events,
    table1_events,
)


class TestTokens:
    def test_output_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Event(("5000",), "")

    @pytest.mark.parametrize("bad", ["a b", "a\tb", "a\n", " x", "x "])
    def test_whitespace_rejected(self, bad):
        with pytest.raises(ValueError):
            Event((bad,), "true")

    def test_is_token_agrees_with_isspace_on_every_code_point(self):
        mismatches = [
            cp for cp in range(0x110000)
            if is_token(chr(cp)) is chr(cp).isspace()
            or is_token(f"a{chr(cp)}b") is chr(cp).isspace()
        ]
        assert mismatches == []

    def test_inputs_must_be_nonempty_tuple(self):
        with pytest.raises(ValueError):
            Event((), "true")

    def test_tokens_compare_as_text(self):
        assert mono("5000", "x") != mono("05000", "x")


class TestTrace:
    """A trace is extended by building a new one: Trace((*t.events, e))."""

    def test_append_to_empty(self):
        t = Trace((*Trace().events, mono("5000", "true")))
        assert len(t) == 1 and t.arity == 1

    def test_append_conflicting_output_names_prior_position(self):
        t = Trace([mono("5000", "true")])
        with pytest.raises(DeterminismViolation) as exc:
            Trace((*t.events, mono("5000", "false")))
        assert exc.value.index == 0

    def test_append_repeat_event_ok(self):
        t = Trace([mono("5000", "true")])
        assert len(Trace((*t.events, mono("5000", "true")))) == 2

    def test_append_second_event(self):
        t = Trace([mono("5000", "true")])
        t = Trace((*t.events, mono("11000", "false")))
        assert [e.inputs for e in t] == [("5000",), ("11000",)]

    def test_append_arity_mismatch(self):
        t = Trace([mono("1", "x")])
        with pytest.raises(ValueError, match="^event 1 has arity 2, trace has arity 1$"):
            Trace((*t.events, Event(("1", "2"), "x")))

    @pytest.mark.parametrize("events", [[], [mono("1", "x")]])
    def test_append_rejects_a_non_event(self, events):
        """The type is checked before any attribute of the event is read."""
        with pytest.raises(TypeError, match="^expected Event, got str$"):
            Trace((*Trace(events).events, "x"))

    def test_constructor_rejects_conflicts(self):
        with pytest.raises(DeterminismViolation):
            Trace([mono("1", "a"), mono("2", "b"), mono("1", "b")])

    def test_is_prefix(self):
        empty = Trace()
        one = Trace([mono("5000", "true")])
        two = Trace((*one.events, mono("11000", "false")))
        other = Trace([mono("11000", "false")])
        # extending keeps what was there as a prefix of the result
        assert two[: len(empty)] == empty.events
        assert two[: len(one)] == one.events
        assert two[: len(two)] == two.events
        assert two[: len(other)] != other.events
        assert one[: len(two)] != two.events


events_strategy = st.lists(
    st.tuples(st.sampled_from(["0", "1", "2"]), st.sampled_from(["a", "b"])),
    max_size=12,
).map(lambda pairs: [Event((i,), o) for i, o in pairs])


@given(events_strategy)
def test_trace_construction_enforces_determinism(events):
    """Building a trace either yields a deterministic word or raises."""
    try:
        trace = Trace(events)
    except DeterminismViolation:
        seen = {}
        assert any(
            seen.setdefault(e.inputs, e.output) != e.output for e in events
        )
        return
    seen = {}
    for e in trace:
        assert seen.setdefault(e.inputs, e.output) == e.output


@given(
    st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from([("0",), ("1",), ("2",), ("0", "1")]),
                st.sampled_from(["a", "b"]),
            ).map(lambda pair: Event(*pair)),
            st.just("x"),
        ),
        max_size=12,
    )
)
def test_constructor_matches_reference(events):
    """Trace(events) keeps the events the naive reference keeps, or fails
    at the first faulty event as the reference does: a non-Event, an arity
    that differs from the first event's, or a conflict with the input's
    earlier output, with the same class, message and prior position."""
    def outcome(build):
        try:
            return build(events)
        except (TypeError, ValueError, DeterminismViolation) as exc:
            return type(exc), str(exc), getattr(exc, "index", None)

    got = outcome(lambda e: list(Trace(e)))
    assert got == outcome(ref_trace_events)
    if isinstance(got, list):
        _assert_reads_as_reference(Trace(events), events)


def _assert_reads_as_reference(trace, events):
    """What a trace works out from its pairs when read, its arity, distinct
    inputs and least witness in both modes, is what the naive helpers give
    on `events`."""
    assert trace.arity == (events[0].arity if events else None)
    assert trace.distinct_inputs() == len({e.inputs for e in events})
    mono_pair, sdist_pair = naive_mono_witness(events), naive_sdm_witness(events)
    assert find_witness(Mode.MONOLITHIC, trace) == (
        mono_pair and Witness(Mode.MONOLITHIC, *mono_pair)
    )
    assert find_witness(Mode.STRONG_DISTRIBUTED, trace) == (
        sdist_pair and Witness(Mode.STRONG_DISTRIBUTED, *sdist_pair)
    )


@given(events_strategy)
def test_parsed_trace_equals_constructed_trace(events):
    """parse_trace builds its Trace without Trace()'s scan; the result must
    be the trace Trace() builds, and read as the naive helpers read it."""
    try:
        built = Trace(events)
    except DeterminismViolation as exc:
        text = "".join(f'{{"in":["{e.inputs[0]}"],"out":"{e.output}"}}\n' for e in events)
        with pytest.raises(DeterminismViolation) as parsed_exc:
            parse_trace(text)
        assert parsed_exc.value.index == exc.index
        return
    parsed = parse_trace(serialize_trace(built))
    assert parsed == built
    _assert_reads_as_reference(parsed, events)


@st.composite
def _deterministic_events(draw) -> list[Event]:
    """Events of one arity (1 to 3) drawn from a few inputs, each input
    always with the same output, so inputs repeat."""
    arity = draw(st.integers(1, 3))
    coords = st.tuples(*[st.sampled_from(["0", "1", "x"])] * arity)
    inputs = draw(st.lists(coords, min_size=1, max_size=6, unique=True))
    outputs = draw(st.lists(st.sampled_from("abc"), min_size=len(inputs), max_size=len(inputs)))
    picks = draw(st.lists(st.integers(0, len(inputs) - 1), max_size=12))
    return [Event(inputs[k], outputs[k]) for k in picks]


def _read(sequence, index):
    """sequence[index], or the class and message of what it raises."""
    try:
        return sequence[index]
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(_deterministic_events())
def test_trace_reads_the_same_however_it_was_built(events):
    """Trace(events), a parse of the serialised trace, a load of the saved
    trace and a trace built from the stepped pairs, as run_test builds its
    report's, are one trace: equal, with the hash of the event tuple, read
    back as the same Events, and read as the naive helpers read them."""
    pairs = [(e.inputs, e.output) for e in events]
    built = Trace(events)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "trace.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_trace(built))
        loaded = load_trace(path)
    traces = [built, parse_trace(serialize_trace(built)), loaded, Trace._from_checked(tuple(pairs))]
    n = len(events)
    indices = [*range(-n - 2, n + 2), "0"]
    bounds = [None, -n - 1, -1, 0, 1, n, n + 1]
    slices = [slice(a, b, c) for a in bounds for b in bounds for c in (None, 2, -1)]
    for trace in traces:
        assert trace == built and hash(trace) == hash(built) == hash(tuple(events))
        assert len(trace) == n
        assert trace.events == tuple(events) and list(trace) == events
        _assert_reads_as_reference(trace, events)
        for index in [*indices, *slices]:
            assert _read(trace, index) == _read(tuple(events), index), index
        assert all(type(trace[i]) is Event for i in range(-n, n))
        assert all(type(e) is Event for e in trace[::-1])


def test_no_event_is_built_below_the_api_edge(monkeypatch, tmp_path):
    """Loading, monitoring, testing and serialising a trace pass
    (inputs, output) pairs: no Event is built until a caller reads one."""
    built = []
    make = trace_module._checked_event

    def counting(inputs, output):
        built.append((inputs, output))
        return make(inputs, output)

    for module in (trace_module, programs, tester):
        if hasattr(module, "_checked_event"):
            monkeypatch.setattr(module, "_checked_event", counting)
    domain = InputDomain([["0", "1"], ["0", "1", "2"]])
    text = "".join(
        f'{{"in":["{a}","{b}"],"out":"{a}{b}"}}\n' for a, b in [*domain.enumerate(), ("1", "2")]
    )
    path = tmp_path / "trace.jsonl"
    path.write_text(text)
    traces = [load_trace(str(path)), parse_trace(text)]
    program = BuiltinProgram("join", 2, "".join)
    reports = [run_test(program, domain, mode) for mode in Mode]
    for trace in traces:
        for mode in Mode:
            config = MonitorConfig(mode, domain)
            assert monitor_eval(config, trace)[0].value == "TRUE"
            assert len(prefix_verdicts(config, trace)) == len(trace) == 7
        assert serialize_trace(trace) == text
    assert built == []
    event = reports[0].trace[2]
    assert built == [(event.inputs, event.output)]


class TestDomain:
    def test_enumerate_product_order(self):
        d = InputDomain([("0", "1"), ("0", "1")])
        assert list(d.enumerate()) == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]

    def test_range_source(self):
        d = InputDomain.from_dict({"sources": [{"range": [1, 3]}]})
        assert list(d.enumerate()) == [("1",), ("2",), ("3",)]

    def test_text_ordering(self):
        d = InputDomain([("b", "a")])
        assert [i[0] for i in d.enumerate()] == ["a", "b"]

    def test_numeric_ordering_when_all_integers(self):
        d = InputDomain([("10", "9", "-3")])
        assert [i[0] for i in d.enumerate()] == ["-3", "9", "10"]

    def test_mixed_tokens_sort_as_text(self):
        d = InputDomain([("10", "9", "x")])
        assert [i[0] for i in d.enumerate()] == ["10", "9", "x"]

    @pytest.mark.parametrize("tokens, order", [
        (["5", "05", "0", "-0", "10", "-3", "005"], ("-3", "-0", "0", "005", "05", "5", "10")),
        (["5", "05", "x", "-0", "0"], ("-0", "0", "05", "5", "x")),
    ])
    def test_equal_integers_tie_break_on_the_text(self, tokens, order):
        """Canonical order, given by the constructor and by a domain file's
        "set" source alike: "05" before "5" and "-0" before "0"."""
        assert InputDomain([tokens]).sources == (order,)
        assert InputDomain.from_dict({"sources": [{"set": tokens}]}).sources == (order,)

    def test_size_and_contains(self):
        d = InputDomain([("0", "1"), ("a", "b", "c")])
        assert d.size == 6 and d.arity == 2
        assert d.contains(("1", "c"))
        assert not d.contains(("1", "d"))
        assert not d.contains(("1",))

    def test_enumerate_is_duplicate_free_with_full_size(self):
        rnd = random.Random(7)
        for _ in range(25):
            sources = [
                [str(rnd.randrange(10)) for _ in range(rnd.randint(1, 5))]
                for _ in range(rnd.randint(1, 3))
            ]
            d = InputDomain(sources)
            elements = list(d.enumerate())
            assert len(elements) == len(set(elements)) == d.size

    @pytest.mark.parametrize("lo, hi", [(-7, -3), (-4, 5), (0, 0), (-12, -12), (95, 105)])
    def test_range_equals_set_of_same_values(self, lo, hi):
        values = [str(i) for i in range(lo, hi + 1)]
        ranged = InputDomain.from_dict({"sources": [{"range": [lo, hi]}, {"set": ["b", "a"]}]})
        listed = InputDomain.from_dict({"sources": [{"set": values[::-1]}, {"set": ["a", "b"]}]})
        built = InputDomain([values, ["a", "b", "a"]])
        for other in (listed, built):
            assert ranged.sources == other.sources
            assert list(ranged.enumerate()) == list(other.enumerate())
            assert ranged == other and hash(ranged) == hash(other)
            assert ranged.size == other.size == 2 * len(values)
        assert repr(ranged) == f"InputDomain(arity=2, size={2 * len(values)})"

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError, match="^source 0 is empty$"):
            InputDomain([[]])
        with pytest.raises(ValueError, match="^domain needs at least one source$"):
            InputDomain([])

    @pytest.mark.parametrize(
        "bad",
        [
            {},
            {"sources": []},
            {"sources": [{"set": []}]},
            {"sources": [{"range": [3, 1]}]},
            {"sources": [{"range": [1]}]},
            {"sources": [{"range": ["1", "2"]}]},
            {"sources": [{"set": ["a"], "range": [1, 2]}]},
            {"sources": [{"values": ["a"]}]},
            {"sources": ["a"]},
            {"sources": [{"set": ["a b"]}]},
        ],
    )
    def test_from_dict_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            InputDomain.from_dict(bad)


class TestTraceFiles:
    def test_parse_single_line(self):
        t = parse_trace('{"in":["5000"],"out":"true"}\n')
        assert t.events == (mono("5000", "true"),)

    def test_round_trip_identity(self):
        t = Trace(table1_events())
        parsed = parse_trace(serialize_trace(t))
        assert parsed == t and hash(parsed) == hash(t)
        assert repr(parsed) == repr(t) == "Trace(5 events, arity=1)"

    def test_conflicting_lines_report_line_number(self):
        text = '{"in":["1"],"out":"a"}\n{"in":["1"],"out":"b"}\n'
        with pytest.raises(DeterminismViolation) as exc:
            parse_trace(text)
        assert exc.value.line == 2
        assert exc.value.index == 0

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '["in","out"]',
            '{"in":["1"]}',
            '{"in":["1"],"out":"a","extra":1}',
            '{"in":[],"out":"a"}',
            '{"in":["a b"],"out":"a"}',
            '{"in":["1"],"out":""}',
            '{"in":"1","out":"a"}',
        ],
    )
    def test_malformed_line_reports_position(self, line):
        with pytest.raises(ParseError) as exc:
            parse_trace('{"in":["9"],"out":"a"}\n' + line + "\n")
        assert exc.value.line == 2

    def test_arity_change_rejected(self):
        text = '{"in":["1"],"out":"a"}\n{"in":["1","2"],"out":"a"}\n'
        with pytest.raises(ParseError) as exc:
            parse_trace(text)
        assert exc.value.line == 2

    def test_invalid_utf8_position_counts_from_file_start(self, tmp_path):
        """The file is decoded in chunks as it streams; the error still
        gives the bad byte's offset in the whole file."""
        good = "".join(f'{{"in":["{i}"],"out":"{i}"}}\n' for i in range(1000)).encode()
        path = tmp_path / "t.jsonl"
        path.write_bytes(good + b'{"in":["\xff"],"out":"a"}\n')
        with pytest.raises(UnicodeDecodeError) as exc:
            load_trace(str(path))
        assert exc.value.start == len(good) + len(b'{"in":["')

    def test_blank_lines_skipped(self):
        t = parse_trace('\n{"in":["1"],"out":"a"}\n\n')
        assert len(t) == 1

    def test_parse_input_lines_tolerates_out_field(self):
        text = '{"in":["1","2"]}\n{"in":["3","4"],"out":"x"}\n'
        assert parse_input_lines(text) == [("1", "2"), ("3", "4")]

    def test_parse_input_lines_rejects_other_shapes(self):
        with pytest.raises(ParseError):
            parse_input_lines('{"out":"x"}\n')


class _Raw(str):
    """JSON text written into a line as it is."""


_TOKENS = ["1", "2", "a", "x_y", "é", "😀"]
# Values that are no token, and tokens that JSON must escape ('a"b', "a\\b",
# 'x","y', "\x7f" when ASCII only), so that no compact-line pattern takes them.
_ODD_VALUES = [
    "", "a b", "a\u00a0b", "\u0085", "x\u2028", "\x0b", 5, None, True, 1.5, ["1"], {},
    'a"b', "a\\b", 'x","y', "\x1f", "\x7f", "\u3000", "a\u2029",
    _Raw('"a\\u0020b"'), _Raw('"\\u00a0"'), _Raw('"b\\u0085"'), _Raw('"\\u2028x"'),
    _Raw('"\\u0031"'),
]
_BLANK_LINES = ["", "  ", "\t"]  # drawn between records, apart from the faults
_WHOLE_LINES = ["", "  ", "\x0b", "\t", "not json", "null", "[1]", '"s"', "{", "{}", "1 2"]
_PREFIXES = ["\ufeff", " ", "\t", "\x0b"]
_SUFFIXES = [" ", "\r", "\t", " x", "\x0b", ",", "}"]
_FAULTS = [None] * 8 + [
    "value", "arity", "arities", "scalar", "extra", "missing", "duplicate", "order", "line",
    "prefix", "suffix",
]


def _dump(value, ensure_ascii: bool) -> str:
    if isinstance(value, _Raw):
        return value
    if isinstance(value, list):
        return "[" + ",".join(_dump(v, ensure_ascii) for v in value) + "]"
    return json.dumps(value, ensure_ascii=ensure_ascii)


@st.composite
def _jsonl(draw, fields: dict[str, bool]) -> str:
    """A JSONL text of records with `fields` (name -> holds an array, else
    one token): mostly valid, some lines with one fault or an unusual but
    valid spelling, and blank lines between them."""
    arity = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        lines += draw(st.lists(st.sampled_from(_BLANK_LINES), max_size=2))
        pairs = [
            (key, [draw(st.sampled_from(_TOKENS)) for _ in range(arity)] if is_array
             else draw(st.sampled_from(_TOKENS)))
            for key, is_array in fields.items()
        ]
        fault = draw(st.sampled_from(_FAULTS))
        at = draw(st.integers(0, len(pairs) - 1))
        key, value = pairs[at]
        if fault == "value":
            odd = draw(st.sampled_from(_ODD_VALUES))
            if isinstance(value, list):
                value = value[:]
                value[draw(st.integers(0, len(value) - 1))] = odd
            pairs[at] = (key, value if isinstance(value, list) else odd)
        elif fault == "arity" and isinstance(value, list):
            pairs[at] = (key, [draw(st.sampled_from(_TOKENS)) for _ in range(draw(st.integers(0, 4)))])
        elif fault == "arities":  # a record of tokens only, at another arity than the first
            other = draw(st.integers(1, 4))
            pairs = [
                (k, [draw(st.sampled_from(_TOKENS)) for _ in range(other)] if isinstance(v, list) else v)
                for k, v in pairs
            ]
        elif fault == "scalar":
            pairs[at] = (key, draw(st.sampled_from(["1", []])))
        elif fault == "extra":
            pairs.append((draw(st.sampled_from(["x", "out"])), draw(st.sampled_from(["1", 5]))))
        elif fault == "missing":
            del pairs[at]
        elif fault == "duplicate":
            pairs.append((key, draw(st.sampled_from([value, value[:1] if isinstance(value, list) else "2"]))))
        elif fault == "order":  # "out" before "in", "to" before "from"
            if len(pairs) == 1:
                pairs.append(("out", "1"))
            pairs.reverse()
        comma, colon = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
        ensure_ascii = draw(st.booleans())
        line = "{" + comma.join(f"{json.dumps(k)}{colon}{_dump(v, ensure_ascii)}" for k, v in pairs) + "}"
        if fault == "line":
            line = draw(st.sampled_from(_WHOLE_LINES))
        elif fault == "prefix":
            line = draw(st.sampled_from(_PREFIXES)) + line
        elif fault == "suffix":
            line += draw(st.sampled_from(_SUFFIXES))
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _io_lines(lines):
    """iter_io_lines' records as ref_io_records gives them: (line, inputs,
    output), each line from the blank lines that the reader skipped."""
    blanks = []
    records = list(iter_io_lines(lines, blanks))
    return [(record_line(blanks, pos), *record) for pos, record in enumerate(records)]


def _outcome(read):
    """What `read()` returns, or its error's class, message, line and index."""
    try:
        return read()
    except (ParseError, DeterminismViolation) as exc:
        return type(exc), str(exc), exc.line, getattr(exc, "index", None)


@settings(max_examples=400, deadline=None)
@given(
    io_text=_jsonl({"in": True, "out": False}),
    inputs_text=_jsonl({"in": True}),
    table_text=_jsonl({"from": True, "to": True}),
)
def test_readers_match_reference_readers(io_text, inputs_text, table_text):
    """Every reader accepts what the per-line reference readers accept and
    raises their errors, at the first faulty line."""
    lines = list(io.StringIO(io_text, newline="\n"))
    assert _outcome(lambda: _io_lines(lines)) == _outcome(lambda: list(ref_io_records(lines)))
    assert _outcome(lambda: parse_trace(io_text)) == _outcome(lambda: ref_parse_trace(io_text.split("\n")))
    assert _outcome(lambda: parse_input_lines(inputs_text)) == _outcome(
        lambda: ref_input_lines(inputs_text.split("\n"))
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pre.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(table_text)
        with open(path, encoding="utf-8") as fh:
            expected = _outcome(lambda: ref_minimiser(list(fh)))

        def read_table():
            table = load_minimiser(path)
            return table.mapping, table.arity

        assert _outcome(read_table) == expected


# Characters on both sides of the compact-line patterns' token class:
# JSON's quote, backslash and controls, ASCII and other whitespace, DEL,
# non-ASCII in and beyond the BMP, the array separator, and plain ones.
_EDGE_ALPHABET = ['"', "\\", "\x00", "\x1f", " ", "\x7f", "\x85", "\xa0", "\u2028", "\u3000",
                  "é", "😀", ",", "a", "1"]


@settings(max_examples=300, deadline=None)
@given(arity=st.integers(1, 3), data=st.data())
def test_compact_lines_read_as_the_reference_reads_them(arity, data):
    """Lines as json.dumps writes them with compact separators and raw
    non-ASCII, after a first record of tokens, read as the reference
    readers read them: the lines the patterns take and the ones they leave,
    at the first record's arity or another."""
    value = st.sampled_from(["a", "é", "1"]) | st.text(_EDGE_ALPHABET, max_size=3)
    array = st.sampled_from([arity] * 3 + [1, 2, 3]).flatmap(
        lambda n: st.lists(value, min_size=n, max_size=n)
    )
    rows = [(["a"] * arity, ["a"] * arity, "a")] + data.draw(
        st.lists(st.tuples(array, array, value), max_size=6)
    )

    def text(record) -> str:
        return "".join(
            json.dumps(record(*row), separators=(",", ":"), ensure_ascii=False) + "\n"
            for row in rows
        )

    io_text = text(lambda i, _, o: {"in": i, "out": o})
    lines = list(io.StringIO(io_text, newline="\n"))
    assert _outcome(lambda: _io_lines(lines)) == _outcome(lambda: list(ref_io_records(lines)))
    assert _outcome(lambda: parse_input_lines(io_text)) == _outcome(
        lambda: ref_input_lines(io_text.split("\n"))
    )
    pre_text = text(lambda i, t, _: {"from": i, "to": t})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pre.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(pre_text)
        with open(path, encoding="utf-8") as fh:
            expected = _outcome(lambda: ref_minimiser(list(fh)))

        def read_table():
            table = load_minimiser(path)
            return table.mapping, table.arity

        assert _outcome(read_table) == expected


@settings(max_examples=300, deadline=None)
@given(text=_jsonl({"in": True}), data=st.data())
def test_repeated_input_lines_match_the_reference_reader(text, data):
    """An inputs file whose lines repeat, bad and blank ones among them,
    reads as the reference reads it, at the first faulty line; equal
    accepted lines give one tuple object."""
    lines = data.draw(st.lists(st.sampled_from(text.split("\n") + [""]), max_size=24))
    repeated = "\n".join(lines)
    outcome = _outcome(lambda: parse_input_lines(repeated))
    assert outcome == _outcome(lambda: ref_input_lines(lines))
    if isinstance(outcome, list):
        by_line = {}
        for line, inputs in zip([line for line in lines if line.strip()], outcome):
            assert by_line.setdefault(line, inputs) is inputs


def test_repeated_bad_input_line_is_reported_at_its_first_line():
    text = '{"in":["1"]}\n\n{"in":["1"]}\n{"in":[1]}\n{"in":["2"]}\n{"in":[1]}\n'
    with pytest.raises(ParseError) as exc:
        parse_input_lines(text)
    assert (str(exc.value), exc.value.line) == ('line 4: invalid token in "in": 1', 4)
    assert parse_input_lines(text.replace("[1]", '["1"]')) == [("1",)] * 3 + [("2",), ("1",)]


def test_token_class_is_what_the_scanner_reads_as_a_token():
    """For every code point, the compact-line patterns' token character is
    one that the JSON scanner reads unescaped as itself and that is a value
    token. This also checks that re's \\s on str is str.isspace."""
    accepts = re.compile(trace_module._TOKEN_CHAR).fullmatch
    scan = json.JSONDecoder().scan_once
    wrong = []
    for cp in range(0x110000):
        c = chr(cp)
        try:
            read_as_itself = scan('"' + c + '"', 0) == (c, 3)
        except ValueError:
            read_as_itself = False
        if (accepts(c) is not None) != (read_as_itself and is_token(c)):
            wrong.append(hex(cp))
    assert wrong == []


def test_compact_lines_after_the_first_are_not_decoded(monkeypatch, tmp_path):
    """The readers split a compact record line of the first record's arity
    without the JSON decoder; the inputs reader, which has no arity rule,
    splits every compact line, with or without its "out"."""
    decoded = []
    decode = trace_module._json_line

    def counting(line, line_no):
        decoded.append(line_no)
        return decode(line, line_no)

    monkeypatch.setattr(trace_module, "_json_line", counting)
    monkeypatch.setattr(minimiser_module, "_json_line", counting)
    rows = [(("1", "é"), "😀"), (("2", "a\x7fb"), "x"), (("3", "c"), "y")]
    text = "".join(
        json.dumps({"in": list(i), "out": o}, separators=(",", ":"), ensure_ascii=False) + "\n\n"
        for i, o in rows
    )
    assert _io_lines(text.splitlines(keepends=True)) == [
        (1, ("1", "é"), "😀"), (3, ("2", "a\x7fb"), "x"), (5, ("3", "c"), "y"),
    ]
    assert decoded == [1, 2, 4, 6]  # the first record and the blank lines
    decoded.clear()
    assert parse_input_lines(text + '{"in":["4"]}') == [i for i, _ in rows] + [("4",)]
    assert decoded == [2, 4, 6]
    decoded.clear()
    path = tmp_path / "pre.jsonl"
    path.write_text(
        '{"from":["1","é"],"to":["1","é"]}\n{"from":["2","😀"],"to":["1","é"]}\n', encoding="utf-8"
    )
    assert load_minimiser(str(path)).mapping == {("1", "é"): ("1", "é"), ("2", "😀"): ("1", "é")}
    assert decoded == [1]


@pytest.mark.parametrize("spelling", ["\ud800", "\\ud800", "a\udfffb"])
def test_lone_surrogate_is_accepted_as_a_token(spelling):
    """A lone surrogate, raw in a str or as a JSON escape, reads as a value
    token, as the reference readers read it (stdout cannot print it, which
    is a known fault of is_token)."""
    value = json.loads(f'"{spelling}"')
    text = f'{{"in":["{spelling}"],"out":"a"}}\n{{"in":["x"],"out":"{spelling}"}}\n'
    assert parse_trace(text) == ref_parse_trace(text.split("\n"))
    assert [e.inputs for e in parse_trace(text)] == [(value,), ("x",)]
    assert parse_trace(text)[1].output == value
    assert parse_input_lines(text) == ref_input_lines(text.split("\n")) == [(value,), ("x",)]


# Characters that JSON escapes (quote, backslash, controls), that it may
# escape (slash, DEL), non-ASCII in and beyond the BMP, and whitespace.
_WRITER_ALPHABET = ['"', "\\", "/", "\x01", "\x7f", "é", " ", "😀", "a", "B", "z", "%"]


def _dumps_lines(rows) -> str:
    return "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)


@settings(max_examples=200, deadline=None)
@given(
    arity=st.integers(1, 3),
    data=st.data(),
    tokens_only=st.booleans(),
)
def test_writers_write_what_json_dumps_writes(arity, data, tokens_only):
    """save_minimiser, save_table and serialize_trace write, byte for byte,
    one json.dumps line with compact separators per row; what they write of
    value tokens reads back as it was."""
    text = st.text(_WRITER_ALPHABET, min_size=1, max_size=4)
    if tokens_only:
        text = text.filter(is_token)
    key = st.tuples(*[text] * arity)
    pre = data.draw(st.dictionaries(key, key, min_size=1, max_size=8))
    fn = data.draw(st.dictionaries(key, text, min_size=1, max_size=8))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.jsonl")
        save_minimiser(MinimiserTable(pre, arity), path)
        with open(path, "rb") as fh:
            written = fh.read()
        assert written == _dumps_lines(
            {"from": list(src), "to": list(dst)} for src, dst in pre.items()
        ).encode("utf-8")
        if tokens_only:
            assert load_minimiser(path) == MinimiserTable(pre, arity)
        save_table(fn, path)
        with open(path, "rb") as fh:
            written = fh.read()
        rows = _dumps_lines({"in": list(inputs), "out": out} for inputs, out in fn.items())
        assert written == rows.encode("utf-8")
        if tokens_only:
            assert TableProgram.load(path).mapping == fn
            trace = Trace(Event(inputs, out) for inputs, out in fn.items())
            assert serialize_trace(trace) == rows
            assert parse_trace(rows) == trace


_PASS = trace_module._PASS_ROWS  # rows the writers escape in one pass


def _escaped(n: int) -> str:
    """A value token with every kind of character the writers escape, and "%"."""
    return f'{n}"\\/\x01\x7fé😀%s'


def _raw_rows(odd: dict[int, tuple]) -> list[tuple]:
    """2.5 passes of (key, value) rows of escape-heavy tokens, arity 2 to 2,
    with the rows of `odd` (position -> row) in place of those there."""
    rows = [
        ((_escaped(k), _escaped(-k)), (_escaped(k - k % 3), _escaped(1)))
        for k in range(2 * _PASS + _PASS // 2)
    ]
    for at, row in odd.items():
        rows[at] = row
    return rows


def test_writers_write_what_json_dumps_writes_across_passes(tmp_path):
    """Over more rows than one escaping pass takes, where the later passes
    also hold rows only a raw table holds (a token with a space, rows of
    another arity), each writer writes what json.dumps writes."""
    path = str(tmp_path / "rows.jsonl")
    pre = dict(_raw_rows({
        _PASS + 3: (("a b", "1"), ("1", "2")),
        _PASS + 9: (("1", "2", "3"), ("1",)),
        2 * _PASS + 9: (("4", "5", "6"), ("1",)),  # as many tokens as a row of arity 2
    }))
    save_minimiser(MinimiserTable(pre, 2), path)
    with open(path, "rb") as fh:
        assert fh.read() == _dumps_lines(
            {"from": list(src), "to": list(dst)} for src, dst in pre.items()
        ).encode("utf-8")
    fn = {key: out[0] for key, out in _raw_rows({
        _PASS + 3: (("1", "2"), ("o p",)),
        _PASS + 5: (("a b", "2"), ("o",)),
        _PASS + 9: (("1",), ("o",)),
        2 * _PASS + 3: (("4",), ("o",)),  # with the next, as many tokens as two rows of arity 2
        2 * _PASS + 9: (("4", "5", "6"), ("o",)),
    })}
    save_table(fn, path)
    with open(path, "rb") as fh:
        assert fh.read() == _dumps_lines(
            {"in": list(inputs), "out": out} for inputs, out in fn.items()
        ).encode("utf-8")
    fn = {key: out[0] for key, out in _raw_rows({})}
    trace = Trace(Event(inputs, out) for inputs, out in fn.items())
    assert serialize_trace(trace) == _dumps_lines(
        {"in": list(inputs), "out": out} for inputs, out in fn.items()
    )


@pytest.mark.parametrize(
    "writer, row, message",
    [
        ("minimiser", (("1", 5), ("1", "2")), "first argument must be a string, not int"),
        ("minimiser", (5, ("1", "2")), "'int' object is not iterable"),
        ("table", (("1", "2"), (None,)), "first argument must be a string, not NoneType"),
        ("table", ((b"1", "2"), ("o",)), "first argument must be a string, not bytes"),
    ],
)
def test_writers_raise_at_a_value_that_is_no_str_after_the_rows_before_it(
    tmp_path, writer, row, message
):
    """A raw table's value that is no str raises the escaper's TypeError at
    its row, in the middle of a pass, after every row before it is written."""
    path = str(tmp_path / "rows.jsonl")
    at = _PASS + 5
    rows = _raw_rows({at: row})
    if writer == "minimiser":
        save, table = save_minimiser, MinimiserTable(dict(rows), 2)
        lines = ({"from": list(src), "to": list(dst)} for src, dst in rows[:at])
    else:
        save, table = save_table, {key: out[0] for key, out in rows}
        lines = ({"in": list(inputs), "out": out[0]} for inputs, out in rows[:at])
    with pytest.raises(TypeError) as exc:
        save(table, path)
    assert str(exc.value) == message
    with open(path, "rb") as fh:
        assert fh.read() == _dumps_lines(lines).encode("utf-8")
