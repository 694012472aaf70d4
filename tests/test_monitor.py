"""Monitor tests: verdict columns, latching, TRUE gating by domain coverage,
and agreement between incremental stepping and whole-trace evaluation."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from minimon import (
    DeterminismViolation,
    Event,
    InputDomain,
    InputOutsideDomain,
    Mode,
    Monitor,
    MonitorConfig,
    Trace,
    Verdict,
    covers_domain,
    find_witness,
    is_mono_minimal,
    is_strong_dist_minimal,
    monitor_eval,
    prefix_verdicts,
)

from helpers import (
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
    assert verdict is Verdict.FALSE
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
    record, also where a reader made one, so it is refused again, and a
    valid input after it still steps."""
    mon = Monitor(MonitorConfig(Mode.MONOLITHIC, domain))
    mon.step_io(("1",), "a")
    for reader in (False, False, True):  # a reader records at the position first
        if reader:
            mon.first_seen[bad] = ("b", 1)
        with pytest.raises(error, match=re.escape(message)):
            mon.step_io(bad, "b")
        assert mon.first_seen == {("1",): ("a", 0)}
        assert mon.events_seen == 1
    assert mon.step_io(("2",), "a") is Verdict.FALSE
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
    """step_io() makes one dictionary operation per event: on a new input,
    on a repeat, and on an input a reader recorded at its position first."""
    mon = Monitor(MonitorConfig(mode, InputDomain([("0", "1", "2"), ("0", "1")])))
    mon.first_seen = record = _CountingDict()
    events = [(("0", "0"), "a"), (("1", "0"), "b"), (("0", "0"), "a"), (("2", "1"), "c"), (("1", "0"), "b")]
    for inputs, output in events:
        mon.step_io(inputs, output)
    assert record.operations == len(events)
    dict.setdefault(record, ("2", "0"), ("d", len(events)))  # as trace.io_records does
    assert mon.step_io(("2", "0"), "d") is Verdict.UNKNOWN
    assert record.operations == len(events) + 1
    assert mon.first_occurrences([0, 1, 3, 5]) == [events[0], events[1], events[3], (("2", "0"), "d")]


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
        sat = is_mono_minimal if mode is Mode.MONOLITHIC else is_strong_dist_minimal
        rnd = random.Random(59)
        for _ in range(40):
            trace = random_function_trace(rnd, length=rnd.randint(0, 20))
            verdicts = prefix_verdicts(MonitorConfig(mode), trace)
            for k, verdict in enumerate(verdicts, start=1):
                prefix = Trace(trace.events[:k])
                assert (verdict is Verdict.FALSE) == (k > 1 and not sat(prefix))

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
        elif domain is not None and covers_domain(domain, prefix) and k >= 2:
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
