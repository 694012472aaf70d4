"""Acceptance suite: ten end-to-end checks with pinned values and time
bounds, one printed PASS/FAIL line each."""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from minimon import (
    Event,
    InputDomain,
    MinimiserTable,
    Mode,
    Monitor,
    MonitorConfig,
    TableProgram,
    Trace,
    Verdict,
    build_table,
    compose,
    find_witness,
    make_builtin,
    monitor_eval,
    prefix_verdicts,
    run_test,
    synthesize,
    table_dist_minimal,
    table_mono_minimal,
    table_strong_dist_minimal,
    validate_preprocessor,
)
from minimon.tester import FunctionTable

from helpers import (
    naive_sdm_witness,
    random_full_table,
    random_function_trace,
    table1_events,
    table2_events,
)


@pytest.fixture
def criterion(capfd):
    """Context manager printing one PASS/FAIL line per criterion on the real
    terminal, past pytest's capture."""

    @contextmanager
    def _criterion(number: int, label: str):
        status = "FAIL"
        try:
            yield
            status = "PASS"
        finally:
            with capfd.disabled():
                print(f"ACCEPTANCE {number}: {status} - {label}", flush=True)

    return _criterion


def best_of_three(fn) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_criterion_01_threshold_trace_column(criterion):
    with criterion(1, "single-source trace verdict column and witness"):
        events = table1_events()
        outcome = {}

        def run():
            monitor = Monitor(MonitorConfig(Mode.MONOLITHIC))
            outcome["verdicts"] = [monitor.step(e) for e in events]
            outcome["witness"] = monitor.witness

        elapsed = best_of_three(run)
        assert outcome["verdicts"] == [
            Verdict.UNKNOWN,
            Verdict.UNKNOWN,
            Verdict.FALSE,
            Verdict.FALSE,
            Verdict.FALSE,
        ]
        witness = outcome["witness"]
        assert (witness.index_a, witness.index_b) == (0, 2)
        assert elapsed < 0.001


def test_criterion_02_two_source_trace_column(criterion):
    with criterion(2, "two-source trace verdict column and witness"):
        events = table2_events()
        outcome = {}

        def run():
            monitor = Monitor(MonitorConfig(Mode.STRONG_DISTRIBUTED))
            outcome["verdicts"] = [monitor.step(e) for e in events]
            outcome["witness"] = monitor.witness

        elapsed = best_of_three(run)
        assert outcome["verdicts"] == [
            Verdict.UNKNOWN,
            Verdict.UNKNOWN,
            Verdict.UNKNOWN,
            Verdict.FALSE,
        ]
        witness = outcome["witness"]
        assert (witness.index_a, witness.index_b) == (1, 3)
        # events 1 and 3 are (11000,51)->false and (11000,55)->false: they
        # agree on source 0 and differ on source 1, so source 1 is the only
        # coordinate a Hamming-1 witness can name
        assert witness.differing_source == 1
        assert elapsed < 0.001


def test_criterion_03_gate_classification(criterion):
    with criterion(3, "xor/or minimality classification"):
        bits = InputDomain([["0", "1"], ["0", "1"]])
        xor = build_table(make_builtin("xor"), bits)
        or_ = build_table(make_builtin("or"), bits)
        checks = [
            (table_mono_minimal, xor),
            (table_strong_dist_minimal, xor),
            (table_dist_minimal, xor),
            (table_mono_minimal, or_),
            (table_strong_dist_minimal, or_),
            (table_dist_minimal, or_),
        ]
        for oracle, table in checks:
            elapsed = best_of_three(lambda: oracle(table))
            assert elapsed < 0.001

        ok, witness = table_mono_minimal(xor)
        assert not ok and (witness.input_a, witness.input_b) == (("0", "0"), ("1", "1"))
        assert table_strong_dist_minimal(xor) == (True, None)
        assert table_dist_minimal(xor) == (True, None)

        ok, _ = table_mono_minimal(or_)
        assert not ok
        ok, witness = table_strong_dist_minimal(or_)
        assert not ok and (witness.input_a, witness.input_b) == (("0", "1"), ("1", "1"))
        assert table_dist_minimal(or_) == (True, None)


def test_criterion_04_threshold_synthesis(criterion):
    with criterion(4, "threshold program synthesis and validation"):
        domain = InputDomain([[str(n) for n in range(1, 30001)]])
        program = make_builtin("benefits")
        start = time.perf_counter()
        table, partition = synthesize(program, domain)
        report = validate_preprocessor(program, domain, table)
        elapsed = time.perf_counter() - start
        assert partition.count == 2
        assert set(partition.classes["true"]) == {(str(n),) for n in range(1, 10000)}
        assert set(partition.classes["false"]) == {
            (str(n),) for n in range(10000, 30001)
        }
        assert report.is_minimiser
        assert elapsed < 2.0


def test_criterion_05_segmented_synthesis(criterion):
    with criterion(5, "segmented program partition shapes"):
        domain = InputDomain([[str(n) for n in range(0, 101)]])
        start = time.perf_counter()
        _, partition = synthesize(make_builtin("loyalty"), domain)
        elapsed = time.perf_counter() - start
        assert partition.count == 17
        members = {
            out: {int(i[0]) for i in inputs}
            for out, inputs in partition.classes.items()
        }
        shapes = sorted(
            (min(vals), max(vals), len(vals)) for vals in members.values()
        )
        assert shapes[0] == (0, 10, 11)
        singletons = [s for s in shapes if s[2] == 1]
        assert len(singletons) == 14
        assert {s[0] for s in singletons} == set(range(11, 25))
        assert (25, 29, 5) in shapes
        assert (30, 100, 71) in shapes
        assert elapsed <= 1.0


def test_criterion_06_composed_system(criterion):
    with criterion(6, "composed system: conclusive test, inconclusive monitor"):
        program = make_builtin("benefits")
        two_case = MinimiserTable(
            {
                (str(s),): ("5000",) if s < 10000 else ("15000",)
                for s in range(1, 30001)
            },
            1,
        )
        composed = compose(program, two_case)
        reps = InputDomain([["5000", "15000"]])
        report = run_test(composed, reps, Mode.MONOLITHIC)
        assert report.verdict is Verdict.TRUE
        assert report.steps == 2

        raw = InputDomain([[str(n) for n in range(1, 30001)]])
        monitor = Monitor(MonitorConfig(Mode.MONOLITHIC, raw))
        rnd = random.Random(0)
        verdict = None
        for _ in range(200):
            inputs = (rnd.choice(raw.sources[0]),)
            verdict = monitor.step(composed.observe(inputs))
        assert verdict is Verdict.UNKNOWN


def test_criterion_07_conclusive_within_domain_size(criterion):
    with criterion(7, "full-domain testing concludes within |domain| probes"):
        rnd = random.Random(77)
        start = time.perf_counter()
        for k in range(200):
            domain, mapping = random_full_table(rnd)
            table = FunctionTable(domain, mapping)
            program = TableProgram(mapping)
            for mode, oracle in [
                (Mode.MONOLITHIC, table_mono_minimal),
                (Mode.STRONG_DISTRIBUTED, table_strong_dist_minimal),
            ]:
                report = run_test(program, domain, mode, seed=k)
                minimal = oracle(table)[0]
                assert report.steps <= domain.size
                assert (report.verdict is Verdict.TRUE) == minimal
                if report.verdict is Verdict.TRUE:
                    assert report.steps == domain.size
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0


def test_criterion_08_incremental_equals_batch(criterion):
    with criterion(8, "stepwise verdicts equal batch evaluation on every prefix"):
        rnd = random.Random(88)
        modes = [Mode.MONOLITHIC, Mode.STRONG_DISTRIBUTED]
        start = time.perf_counter()
        for k in range(1000):
            trace = random_function_trace(rnd)
            mode = modes[k % 2]
            config = MonitorConfig(mode)
            stepwise = prefix_verdicts(config, trace)
            events = list(trace)
            for i in range(1, len(trace) + 1):
                batch, _ = monitor_eval(config, Trace(events[:i]))
                assert stepwise[i - 1] is batch
            if mode is Mode.STRONG_DISTRIBUTED:
                witness = find_witness(mode, trace)
                flat = (
                    None
                    if witness is None
                    else (witness.index_a, witness.index_b, witness.differing_source)
                )
                assert flat == naive_sdm_witness(trace)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def test_criterion_09_closure_properties(criterion):
    with criterion(9, "prefix closure of satisfaction, extension closure of violation"):
        rnd = random.Random(99)
        violating_seen = 0
        satisfied_seen = 0
        for _ in range(300):
            trace = random_function_trace(rnd, pool=2, out_pool=2)
            for mode in (Mode.MONOLITHIC, Mode.STRONG_DISTRIBUTED):
                events = list(trace)
                if find_witness(mode, trace) is None:
                    satisfied_seen += 1
                    for i in range(len(events) + 1):
                        assert find_witness(mode, Trace(events[:i])) is None
                else:
                    violating_seen += 1
                    outputs = {e.inputs: e.output for e in events}
                    pool = list(itertools.product(["0", "1"], repeat=trace.arity))
                    for inputs in pool:
                        forced = outputs.get(inputs)
                        outs = [forced] if forced else ["0", "1"]
                        for out in outs:
                            extended = Trace((*events, Event(inputs, out)))
                            assert find_witness(mode, extended) is not None
        assert violating_seen > 20 and satisfied_seen > 20


def test_criterion_10_implication_chain(criterion):
    with criterion(10, "minimality notions form a strict implication chain"):
        rnd = random.Random(1010)
        bits = InputDomain([["0", "1"], ["0", "1"]])
        tables = [
            build_table(make_builtin("xor"), bits),
            build_table(make_builtin("or"), bits),
        ]
        for _ in range(500):
            domain, mapping = random_full_table(rnd, max_arity=3, max_source=4)
            tables.append(FunctionTable(domain, mapping))
        separators = {"mono-sdm": 0, "sdm-dist": 0}
        for table in tables:
            mono = table_mono_minimal(table)[0]
            sdm = table_strong_dist_minimal(table)[0]
            dist = table_dist_minimal(table)[0]
            if mono:
                assert sdm
            if sdm:
                assert dist
            if sdm and not mono:
                separators["mono-sdm"] += 1
            if dist and not sdm:
                separators["sdm-dist"] += 1
        assert separators["mono-sdm"] >= 1
        assert separators["sdm-dist"] >= 1
