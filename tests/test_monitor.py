"""Monitor tests: verdict columns, latching, TRUE gating by domain coverage,
and agreement between incremental stepping and whole-trace evaluation."""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from minimon import (
    DeterminismViolation,
    Event,
    InputDomain,
    InputOutsideDomain,
    MinimonError,
    Mode,
    Monitor,
    MonitorConfig,
    Trace,
    Verdict,
    find_witness,
    monitor_eval,
    prefix_verdicts,
)
from minimon import cli

from helpers import (
    covers,
    mono,
    naive_mono_witness,
    naive_sdm_witness,
    random_full_table,
    random_function_trace,
    table1_events,
    table2_events,
)

MONO = MonitorConfig(Mode.MONOLITHIC)
SDM = MonitorConfig(Mode.STRONG_DISTRIBUTED)


def test_table1_verdict_column():
    """Five salary observations: the third repeats an output and concludes."""
    verdicts = prefix_verdicts(MONO, Trace(table1_events()))
    assert [v.value for v in verdicts] == [
        "UNKNOWN", "UNKNOWN", "FALSE", "FALSE", "FALSE",
    ]


def test_table1_witness():
    verdict, witness = monitor_eval(MONO, Trace(table1_events()))
    assert verdict is Verdict.FALSE and verdict.conclusive and str(verdict) == "FALSE"
    assert (witness.index_a, witness.index_b) == (0, 2)


def test_table2_verdict_column_and_witness():
    verdicts = prefix_verdicts(SDM, Trace(table2_events()))
    assert [v.value for v in verdicts] == ["UNKNOWN", "UNKNOWN", "UNKNOWN", "FALSE"]
    _, witness = monitor_eval(SDM, Trace(table2_events()))
    assert (witness.index_a, witness.index_b) == (1, 3)
    assert witness.differing_source == 1


def _xor_events():
    return [
        Event(("0", "0"), "0"),
        Event(("0", "1"), "1"),
        Event(("1", "0"), "1"),
        Event(("1", "1"), "0"),
    ]


def test_xor_full_coverage_concludes_true():
    domain = InputDomain([("0", "1"), ("0", "1")])
    config = MonitorConfig(Mode.STRONG_DISTRIBUTED, domain)
    verdicts = prefix_verdicts(config, Trace(_xor_events()))
    assert [v.value for v in verdicts] == ["UNKNOWN", "UNKNOWN", "UNKNOWN", "TRUE"]
    assert [(str(v), v.conclusive) for v in verdicts[2:]] == [("UNKNOWN", False), ("TRUE", True)]


def test_no_domain_means_no_true():
    verdicts = prefix_verdicts(SDM, Trace(_xor_events()))
    assert all(v is Verdict.UNKNOWN for v in verdicts)


def test_violation_beats_coverage():
    """An event that completes coverage and violates concludes FALSE."""
    domain = InputDomain([("1", "2")])
    config = MonitorConfig(Mode.MONOLITHIC, domain)
    mon = Monitor(config)
    mon.step(mono("1", "a"))
    assert mon.step(mono("2", "a")) is Verdict.FALSE


def test_singleton_domain_true_at_second_observation():
    domain = InputDomain([("1",)])
    mon = Monitor(MonitorConfig(Mode.MONOLITHIC, domain))
    assert mon.step(mono("1", "a")) is Verdict.UNKNOWN
    assert mon.step(mono("1", "a")) is Verdict.TRUE


def test_false_latches_across_further_events():
    mon = Monitor(MONO)
    for e in table1_events():
        mon.step(e)
    w = mon.witness
    assert mon.step(mono("400", "true")) is Verdict.FALSE
    assert mon.witness == w


def test_true_latches_across_further_events():
    domain = InputDomain([("0", "1"), ("0", "1")])
    mon = Monitor(MonitorConfig(Mode.STRONG_DISTRIBUTED, domain))
    events = _xor_events()
    for e in events:
        mon.step(e)
    assert mon.step(events[0]) is Verdict.TRUE


def test_determinism_violation_raised_even_after_latch():
    mon = Monitor(MONO)
    for e in table1_events():
        mon.step(e)
    assert mon.verdict is Verdict.FALSE
    with pytest.raises(DeterminismViolation) as exc:
        mon.step(mono("5000", "false"))
    assert exc.value.index == 0


def test_out_of_domain_input_raises_with_position():
    domain = InputDomain([("1", "2")])
    mon = Monitor(MonitorConfig(Mode.MONOLITHIC, domain))
    mon.step(mono("1", "a"))
    with pytest.raises(InputOutsideDomain) as exc:
        mon.step(mono("7", "b"))
    assert exc.value.position == 1


def test_arity_mismatch_rejected():
    mon = Monitor(MONO)
    mon.step(mono("1", "a"))
    with pytest.raises(ValueError):
        mon.step(Event(("1", "2"), "a"))


def test_empty_trace_is_unknown():
    assert monitor_eval(MONO, Trace()) == (Verdict.UNKNOWN, None)


@pytest.mark.parametrize(
    "domain, bad, error, message",
    [
        (InputDomain([("1", "2")]), ("7",), InputOutsideDomain, "input ('7',) at position 1 is outside"),
        (InputDomain([("1", "2")]), ("1", "2"), ValueError, "event has arity 2, monitor expects 1"),
        (None, ("1", "2"), ValueError, "event has arity 2, monitor expects 1"),
    ],
)
def test_refused_input_is_recorded_nowhere(domain, bad, error, message):
    """An input is checked at its first occurrence; a refused one leaves no
    record, so it is refused again, and a valid input after it still steps."""
    mon = Monitor(MonitorConfig(Mode.MONOLITHIC, domain))
    mon.step(mono("1", "a"))
    for _ in range(2):
        with pytest.raises(error, match=re.escape(message)):
            mon.step(Event(bad, "b"))
        assert mon.first_seen == {("1",): ("a", 0)}
        assert mon.events_seen == 1
    assert mon.step(mono("2", "a")) is Verdict.FALSE
    assert (mon.witness.index_a, mon.witness.index_b) == (0, 1)


def _counted(name: str):
    def operation(self, *args):
        self.operations += 1
        return getattr(dict, name)(self, *args)
    return operation


class _CountingDict(dict):
    """A dict that counts the operations on its keys."""

    operations = 0
    get = _counted("get")
    setdefault = _counted("setdefault")
    __contains__ = _counted("__contains__")
    __getitem__ = _counted("__getitem__")
    __setitem__ = _counted("__setitem__")
    __delitem__ = _counted("__delitem__")


@pytest.mark.parametrize("mode", list(Mode))
def test_one_record_operation_per_event(mode):
    """step() makes one dictionary operation per event: on a new input
    and on a repeat."""
    mon = Monitor(MonitorConfig(mode, InputDomain([("0", "1", "2"), ("0", "1")])))
    mon.first_seen = record = _CountingDict()
    events = [(("0", "0"), "a"), (("1", "0"), "b"), (("0", "0"), "a"), (("2", "1"), "c"), (("1", "0"), "b")]
    for inputs, output in events:
        mon.step(Event(inputs, output))
    assert record.operations == len(events)
    assert mon.first_occurrences([0, 1, 3]) == [events[0], events[1], events[3]]


@pytest.mark.parametrize("mode", ["mono", "sdist"])
def test_check_trace_makes_one_record_operation_per_event(mode, tmp_path, monkeypatch):
    """Along check-trace's path, the reader and the monitor's loop together
    make one operation on the determinism record per event."""
    records = []

    class CountingMonitor(Monitor):
        def __init__(self, config):
            super().__init__(config)
            self.first_seen = _CountingDict()
            records.append(self.first_seen)

    monkeypatch.setattr("minimon.monitor.Monitor", CountingMonitor)
    events = [(["0", "0"], "a"), (["1", "0"], "b"), (["0", "0"], "a"), (["2", "1"], "c"), (["1", "0"], "b")]
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps({"in": i, "out": o}) + "\n\n" for i, o in events))
    domain = tmp_path / "domain.json"
    domain.write_text('{"sources": [{"set": ["0", "1", "2"]}, {"set": ["0", "1"]}]}')
    args = argparse.Namespace(trace=str(trace), mode=mode, domain=str(domain), json=True)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.cmd_check_trace(args) == cli.EXIT_UNKNOWN
    assert json.loads(out.getvalue())["events"] == len(events)
    assert [r.operations for r in records] == [len(events)]


_STREAM_FAULTS = (None, "arity", "outside", "conflict")


def _faulty_stream(rnd: random.Random, fault, with_domain: bool):
    """A deterministic stream of (inputs, output) pairs with repeats, its
    domain (or None), and at most one faulty pair with the position it goes
    in at; bad is None when the fault does not apply."""
    arity = rnd.randint(1, 3)
    values = [str(v) for v in range(rnd.randint(1, 3))]
    pool = list(itertools.product(values, repeat=arity))
    fn = {i: rnd.choice("xyz") for i in pool}
    clean = [(i, fn[i]) for i in (rnd.choice(pool) for _ in range(rnd.randint(0, 12)))]
    domain = InputDomain([values] * arity) if with_domain else None
    at = rnd.randint(0, len(clean))
    bad = None
    if fault == "arity" and (at > 0 or with_domain):
        bad = (pool[0] + ("0",), "x")
    elif fault == "outside" and with_domain:
        bad = (("w",) * arity, "x")
    elif fault == "conflict" and at > 0:
        inputs, output = rnd.choice(clean[:at])
        bad = (inputs, output + "2")
    return clean, domain, at, bad


def _expected_error(clean, domain, at, bad):
    inputs, output = bad
    arity = domain.arity if domain else len(clean[0][0])
    if len(inputs) != arity:
        return ValueError(f"event has arity {len(inputs)}, monitor expects {arity}")
    for pos, (earlier, out) in enumerate(clean[:at]):
        if earlier == inputs:
            return DeterminismViolation(
                f"input {inputs} produced {output!r} at position {at} but {out!r} at position {pos}",
                index=pos,
            )
    return InputOutsideDomain(
        f"input {inputs} at position {at} is outside the declared domain", position=at
    )


def _drive(monitor: Monitor, pairs, how: str):
    """The verdicts `monitor` gives for `pairs` up to the first error, and
    that error (None if there is none)."""
    verdicts = []
    try:
        if how == "steps":
            for verdict in monitor.steps(iter(pairs)):
                verdicts.append(verdict)
        else:
            for k, (inputs, output) in enumerate(pairs):
                if how == "step" or k % 2:
                    verdicts.append(monitor.step(Event(inputs, output)))
                else:  # "mixed": every other pair through a one-pair stream
                    verdicts.extend(monitor.steps([(inputs, output)]))
    except (MinimonError, ValueError) as exc:
        return verdicts, exc
    return verdicts, None


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(list(Mode)),
    with_domain=st.booleans(),
    fault=st.sampled_from(_STREAM_FAULTS),
)
def test_one_loop_one_semantics(seed, mode, with_domain, fault):
    """steps() over a stream, one step() per pair, and the two mixed all
    give the naive verdict on every prefix and the naive witness. A stream
    with one faulty pair (wrong arity, an input outside the domain, or a
    determinism conflict, before or after a latch) stops there with the same
    error, class, message and position; the refused pair leaves no trace, so
    the monitor steps on through the rest as if it never came."""
    clean, domain, at, bad = _faulty_stream(random.Random(seed), fault, with_domain)
    naive = naive_mono_witness if mode is Mode.MONOLITHIC else naive_sdm_witness
    expected, first_false = [], None
    for k in range(1, len(clean) + 1):
        prefix = Trace(Event(i, o) for i, o in clean[:k])
        if naive(prefix) is not None:
            expected.append(Verdict.FALSE)
            first_false = first_false or naive(prefix)
        elif domain is not None and k >= 2 and {i for i, _ in clean[:k]} == set(domain.enumerate()):
            expected.append(Verdict.TRUE)
        else:
            expected.append(Verdict.UNKNOWN)
    record = {}
    for pos, (inputs, output) in enumerate(clean):
        record.setdefault(inputs, (output, pos))
    for how in ("steps", "step", "mixed"):
        mon = Monitor(MonitorConfig(mode, domain))
        if bad is None:
            assert _drive(mon, clean, how) == (expected, None)
        else:
            got, error = _drive(mon, clean[:at] + [bad] + clean[at:], how)
            want = _expected_error(clean, domain, at, bad)
            assert got == expected[:at]
            assert (type(error), str(error)) == (type(want), str(want))
            for attr in ("index", "line", "position"):
                assert getattr(error, attr, None) == getattr(want, attr, None)
            assert mon.events_seen == at
            assert _drive(mon, clean[at:], how) == (expected[at:], None)
        assert mon.events_seen == len(clean)
        assert mon.first_seen == record
        w = mon.witness
        if first_false is None:
            assert w is None
        else:
            got_w = (w.index_a, w.index_b)
            if mode is Mode.STRONG_DISTRIBUTED:
                got_w += (w.differing_source,)
            assert got_w == first_false


class TestAgainstWholeTraceSemantics:
    """Stepping must agree with fresh whole-prefix evaluation everywhere."""

    @pytest.mark.parametrize("mode", [Mode.MONOLITHIC, Mode.STRONG_DISTRIBUTED])
    def test_step_equals_eval_on_every_prefix(self, mode):
        rnd = random.Random(53)
        for _ in range(40):
            trace = random_function_trace(rnd, length=rnd.randint(0, 20))
            config = MonitorConfig(mode)
            stepped = prefix_verdicts(config, trace)
            for k, verdict in enumerate(stepped, start=1):
                batch, _ = monitor_eval(config, Trace(trace.events[:k]))
                assert verdict is batch

    @pytest.mark.parametrize("mode", [Mode.MONOLITHIC, Mode.STRONG_DISTRIBUTED])
    def test_false_at_earliest_violating_prefix(self, mode):
        rnd = random.Random(59)
        for _ in range(40):
            trace = random_function_trace(rnd, length=rnd.randint(0, 20))
            verdicts = prefix_verdicts(MonitorConfig(mode), trace)
            for k, verdict in enumerate(verdicts, start=1):
                prefix = Trace(trace.events[:k])
                assert (verdict is Verdict.FALSE) == (k > 1 and find_witness(mode, prefix) is not None)

    @pytest.mark.parametrize("mode", [Mode.MONOLITHIC, Mode.STRONG_DISTRIBUTED])
    def test_latched_witness_is_least_pair_of_latching_prefix(self, mode):
        rnd = random.Random(61)
        for _ in range(40):
            trace = random_function_trace(rnd, length=rnd.randint(0, 20))
            mon = Monitor(MonitorConfig(mode))
            for k, event in enumerate(trace, start=1):
                if mon.step(event) is Verdict.FALSE:
                    expected = find_witness(mode, Trace(trace.events[:k]))
                    assert mon.witness == expected
                    break


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(list(Mode)),
    with_domain=st.booleans(),
)
def test_stepwise_verdict_matches_declarative_oracle(seed, mode, with_domain):
    """Every prefix's stepwise verdict equals the declarative one, and the
    latched witness is the naive least pair of the first violating prefix.
    Domains may have a single element, where TRUE comes on a repeat."""
    rnd = random.Random(seed)
    domain = None
    if with_domain:
        domain, fn = random_full_table(rnd, max_arity=3, max_source=3, min_size=1)
        pool = list(domain.enumerate())
        inputs = [rnd.choice(pool) for _ in range(rnd.randint(0, 2 * len(pool) + 2))]
        trace = Trace(Event(i, fn[i]) for i in inputs)
    else:
        trace = random_function_trace(rnd, length=rnd.randint(0, 20))
    naive = naive_mono_witness if mode is Mode.MONOLITHIC else naive_sdm_witness
    mon = Monitor(MonitorConfig(mode, domain))
    first_false = None
    for k, event in enumerate(trace, start=1):
        prefix = Trace(trace.events[:k])
        if find_witness(mode, prefix) is not None:
            expected = Verdict.FALSE
        elif domain is not None and covers(domain, prefix) and k >= 2:
            expected = Verdict.TRUE
        else:
            expected = Verdict.UNKNOWN
        assert mon.step(event) is expected
        if expected is Verdict.FALSE and first_false is None:
            first_false = prefix
    if first_false is None:
        assert mon.witness is None
    else:
        w = mon.witness
        got = (w.index_a, w.index_b)
        if mode is Mode.STRONG_DISTRIBUTED:
            got += (w.differing_source,)
        assert got == naive(first_false)


def test_true_is_stable_under_forced_extensions():
    """Once every domain input is seen without violation, determinism forces
    every extension to keep the verdict TRUE."""
    domain = InputDomain([("0", "1"), ("0", "1")])
    config = MonitorConfig(Mode.STRONG_DISTRIBUTED, domain)
    base = _xor_events()
    outputs = {e.inputs: e.output for e in base}
    mon = Monitor(config)
    for e in base:
        mon.step(e)
    assert mon.verdict is Verdict.TRUE
    for extension in domain.enumerate():
        assert mon.step(Event(extension, outputs[extension])) is Verdict.TRUE
