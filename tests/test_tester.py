"""Tests for the full-domain test loop and the exhaustive table oracles."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from minimon import (
    BudgetExceeded,
    DomainMismatch,
    InputDomain,
    MinimiserTable,
    Mode,
    TableProgram,
    Trace,
    Verdict,
    make_builtin,
    run_test,
    synthesize,
    table_dist_minimal,
    table_mono_minimal,
    table_strong_dist_minimal,
    validate_preprocessor,
)
from minimon import command, minimiser, programs
from minimon.minimiser import compose
from minimon.command import CommandProgram
from minimon.tester import (
    LEXICOGRAPHIC,
    RANDOM_PERMUTATION,
    CollisionWitness,
    FunctionTable,
    IndistinguishablePair,
)

from helpers import build_table, mod_worker, naive_dist_pair, random_full_table

BITS = InputDomain([["0", "1"], ["0", "1"]])


def bit_table(name: str) -> FunctionTable:
    return build_table(make_builtin(name), BITS)


def test_build_table_covers_domain_in_order():
    table = bit_table("xor")
    assert list(table.outputs) == list(BITS.enumerate())
    assert table.outputs[("1", "0")] == "1"


def test_build_table_arity_mismatch():
    with pytest.raises(ValueError):
        build_table(make_builtin("xor"), InputDomain([["0", "1"]]))


@pytest.mark.parametrize("driver", [
    lambda program, domain: run_test(program, domain, Mode.MONOLITHIC),
    lambda program, domain: synthesize(program, domain),
    lambda program, domain: validate_preprocessor(
        program, domain, MinimiserTable({("0",): ("0",), ("1",): ("1",)}, 1)
    ),
])
def test_arity_is_checked_before_the_budget(monkeypatch, driver):
    monkeypatch.setenv("MINIMON_BUDGET", "0")
    monkeypatch.setattr(minimiser, "DEFAULT_SYNTH_CAP", 0)
    with pytest.raises(ValueError, match="^program arity 2 does not match domain arity 1$"):
        driver(make_builtin("xor"), InputDomain([["0", "1"]]))


class TestMonoOracle:
    def test_injective_table(self):
        domain = InputDomain([[str(n) for n in range(1, 6)]])
        minimal, witness = table_mono_minimal(build_table(make_builtin("identity"), domain))
        assert minimal and witness is None

    def test_xor_collides(self):
        minimal, witness = table_mono_minimal(bit_table("xor"))
        assert not minimal
        assert witness == CollisionWitness(("0", "0"), ("1", "1"))

    def test_benefits_least_pair(self):
        domain = InputDomain([[str(n) for n in range(0, 30001)]])
        minimal, witness = table_mono_minimal(build_table(make_builtin("benefits"), domain))
        assert not minimal
        assert witness == CollisionWitness(("0",), ("1",))


class TestStrongDistOracle:
    def test_xor_minimal(self):
        assert table_strong_dist_minimal(bit_table("xor")) == (True, None)

    def test_or_witness(self):
        minimal, witness = table_strong_dist_minimal(bit_table("or"))
        assert not minimal
        assert witness == CollisionWitness(("0", "1"), ("1", "1"), differing_source=0)

    def test_constant_witness(self):
        domain = InputDomain([["1", "2", "3"]])
        table = build_table(make_builtin("const:k"), domain)
        minimal, witness = table_strong_dist_minimal(table)
        assert not minimal
        assert witness == CollisionWitness(("1",), ("2",), differing_source=0)

    def test_arity_one_matches_mono(self):
        rnd = random.Random(7)
        for _ in range(100):
            domain = InputDomain([[str(n) for n in range(rnd.randint(2, 6))]])
            mapping = {i: str(rnd.randint(0, 3)) for i in domain.enumerate()}
            table = FunctionTable(domain, mapping)
            assert table_mono_minimal(table)[0] == table_strong_dist_minimal(table)[0]


class TestDistOracle:
    def test_xor_and_or_minimal(self):
        assert table_dist_minimal(bit_table("xor")) == (True, None)
        assert table_dist_minimal(bit_table("or")) == (True, None)

    def test_projection_leaves_source_indistinguishable(self):
        table = FunctionTable(BITS, {i: i[0] for i in BITS.enumerate()})
        minimal, pair = table_dist_minimal(table)
        assert not minimal
        assert pair == IndistinguishablePair(1, "0", "1")

    def test_budget_is_checked_upfront(self, monkeypatch):
        calls = []
        mapping = {i: i[0] for i in BITS.enumerate()}

        class Spy(dict):
            def __getitem__(self, key):
                calls.append(key)
                return mapping[key]

        table = FunctionTable(BITS, Spy())
        monkeypatch.setenv("MINIMON_BUDGET", "7")
        with pytest.raises(BudgetExceeded):
            table_dist_minimal(table)
        assert calls == []

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("MINIMON_BUDGET", "7")
        with pytest.raises(BudgetExceeded):
            table_dist_minimal(bit_table("xor"))
        monkeypatch.setenv("MINIMON_BUDGET", "not-a-number")
        with pytest.raises(ValueError):
            table_dist_minimal(bit_table("xor"))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_scan_equals_direct_comparison(self, data):
        """On random full tables (arity 1-3, at most 4 values per source, a
        1-3 letter output alphabet, so both verdicts occur) the oracle gives
        the first source with an indistinguishable pair, and its least pair
        of value ranks."""
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        domain = InputDomain([[str(v) for v in range(n)] for n in sizes])
        letters = "abc"[: data.draw(st.integers(1, 3))]
        outs = data.draw(st.lists(st.sampled_from(letters), min_size=domain.size, max_size=domain.size))
        table = FunctionTable(domain, dict(zip(domain.enumerate(), outs)))
        pair = naive_dist_pair(table)
        expected = (True, None) if pair is None else (False, IndistinguishablePair(*pair))
        assert table_dist_minimal(table) == expected

    def test_implication_chain_on_random_tables(self):
        rnd = random.Random(21)
        seen_gaps = {"mono-sdm": 0, "sdm-dist": 0}
        for _ in range(200):
            domain, mapping = random_full_table(rnd)
            table = FunctionTable(domain, mapping)
            mono = table_mono_minimal(table)[0]
            sdm = table_strong_dist_minimal(table)[0]
            dist = table_dist_minimal(table)[0]
            if mono:
                assert sdm
            if sdm:
                assert dist
            if sdm and not mono:
                seen_gaps["mono-sdm"] += 1
            if dist and not sdm:
                seen_gaps["sdm-dist"] += 1
        assert min(seen_gaps.values()) > 0


class TestRunTest:
    def test_benefits_monolithic_false(self):
        domain = InputDomain([[str(n) for n in range(0, 30001)]])
        report = run_test(make_builtin("benefits"), domain, Mode.MONOLITHIC)
        assert report.verdict is Verdict.FALSE
        assert report.steps <= domain.size
        a = report.trace[report.witness.index_a]
        b = report.trace[report.witness.index_b]
        assert a.output == b.output and a.inputs != b.inputs

    def test_xor_strong_dist_true_in_four_steps(self):
        report = run_test(make_builtin("xor"), BITS, Mode.STRONG_DISTRIBUTED)
        assert report.verdict is Verdict.TRUE
        assert report.steps == 4
        assert report.witness is None

    def test_verdict_invariant_under_strategy_and_seed(self):
        domain = InputDomain([[str(n) for n in range(0, 40)]])
        verdicts = {
            run_test(make_builtin("benefits"), domain, Mode.MONOLITHIC,
                     strategy=RANDOM_PERMUTATION, seed=seed).verdict
            for seed in range(5)
        }
        verdicts.add(
            run_test(make_builtin("benefits"), domain, Mode.MONOLITHIC,
                     strategy=LEXICOGRAPHIC).verdict
        )
        assert verdicts == {Verdict.FALSE}

    def test_lexicographic_probes_in_enumeration_order(self):
        domain = InputDomain([[str(n) for n in range(1, 6)]])
        report = run_test(make_builtin("identity"), domain, Mode.MONOLITHIC,
                          strategy=LEXICOGRAPHIC)
        assert [e.inputs for e in report.trace] == list(domain.enumerate())
        assert report.seed is None

    def test_agrees_with_oracle_on_random_tables(self):
        rnd = random.Random(5)
        for _ in range(60):
            domain, mapping = random_full_table(rnd)
            table = FunctionTable(domain, mapping)
            program = TableProgram(mapping)
            for mode, oracle in [
                (Mode.MONOLITHIC, table_mono_minimal),
                (Mode.STRONG_DISTRIBUTED, table_strong_dist_minimal),
            ]:
                report = run_test(program, table.domain, mode, seed=rnd.randint(0, 99))
                minimal = oracle(table)[0]
                assert (report.verdict is Verdict.TRUE) == minimal
                if report.verdict is Verdict.TRUE:
                    assert report.steps == table.domain.size
                else:
                    assert report.witness is not None

    def test_report_trace_invariants(self):
        report = run_test(make_builtin("xor"), BITS, Mode.STRONG_DISTRIBUTED, seed=3)
        assert len(report.trace) == report.steps
        assert report.trace.distinct_inputs() == report.steps
        assert report.trace == Trace(report.trace.events)
        payload = report.to_dict()
        assert payload["verdict"] == "TRUE"
        assert payload["steps"] == 4
        assert payload["seed"] == 3

    def test_budget_is_checked_before_any_probe(self, monkeypatch):
        calls = []

        def spy(inputs):
            calls.append(inputs)
            return "".join(inputs)

        program = programs.BuiltinProgram("spy", 2, spy)
        monkeypatch.setenv("MINIMON_BUDGET", "3")
        with pytest.raises(BudgetExceeded, match="budget is 3"):
            run_test(program, BITS, Mode.MONOLITHIC)
        assert calls == []
        monkeypatch.setenv("MINIMON_BUDGET", "4")
        assert run_test(program, BITS, Mode.MONOLITHIC).verdict is Verdict.TRUE

    @pytest.mark.parametrize("mode", [Mode.MONOLITHIC, Mode.STRONG_DISTRIBUTED])
    def test_early_false_over_exec_matches_one_request_at_a_time(self, tmp_path, mode):
        """The monitor concludes with most of a window still in flight: the
        report is the one-at-a-time report, and close() raises nothing."""
        domain = InputDomain([[str(n) for n in range(10)], [str(n) for n in range(10)]])
        reports = []
        for window in (1, 64):
            with mock.patch.object(command, "_WINDOW", window):
                with CommandProgram(mod_worker(7, 10), arity=2) as program:
                    reports.append(run_test(program, domain, mode, seed=11))
        one, piped = reports
        assert piped.verdict is Verdict.FALSE and piped.steps < 20
        assert (piped.steps, piped.witness, piped.trace) == (one.steps, one.witness, one.trace)

    @pytest.mark.parametrize("over_exec, window", [(False, 64), (True, 1), (True, 64)])
    def test_early_false_before_a_missing_pre_entry(self, monkeypatch, over_exec, window):
        """The monitor concludes before the composition reaches an input its
        pre table lacks, inside the first window or after it: the FALSE
        stands, and the missing entry is never raised."""
        monkeypatch.setattr(command, "_WINDOW", window)
        domain = InputDomain([[str(n) for n in range(100)]])
        for missing in ("10", "99"):
            entries = {(str(n),): (str(n),) for n in range(100)}
            del entries[(missing,)]
            table = MinimiserTable(entries, 1)
            inner = (
                CommandProgram(mod_worker(2, 10), arity=1) if over_exec else make_builtin("const:z")
            )
            with compose(inner, table) as program:
                report = run_test(program, domain, Mode.MONOLITHIC, strategy=LEXICOGRAPHIC)
            assert (report.verdict, report.steps) == (Verdict.FALSE, 3 if over_exec else 2)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            run_test(make_builtin("xor"), BITS, Mode.MONOLITHIC, strategy="sorted")

    def test_singleton_domain_is_a_mismatch(self):
        domain = InputDomain([["7"]])
        with pytest.raises(DomainMismatch):
            run_test(make_builtin("identity"), domain, Mode.MONOLITHIC)

    def test_composition_over_raw_domain_is_a_mismatch(self):
        domain = InputDomain([[str(n) for n in range(1, 5)]])
        program = TableProgram({("1",): "a", ("2",): "a", ("3",): "b", ("4",): "b"})
        table, _ = synthesize(program, domain)
        composed = compose(program, table)
        with pytest.raises(DomainMismatch):
            run_test(composed, domain, Mode.MONOLITHIC)


def _outcome(run):
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    modulus=st.integers(1, 40),
    mode=st.sampled_from([Mode.MONOLITHIC, Mode.STRONG_DISTRIBUTED]),
    strategy=st.sampled_from([RANDOM_PERMUTATION, LEXICOGRAPHIC]),
    seed=st.integers(0, 99),
    rep=st.sampled_from(["least", "first", "rand:3"]),
)
def test_pipelined_exec_matches_one_request_at_a_time(sizes, modulus, mode, strategy, seed, rep):
    """run_test and synthesize over an exec: worker give the same verdict,
    witness, steps, trace and partition with 64 requests in flight as with
    one. Small moduli collide early, so many runs end in FALSE."""
    domain = InputDomain([[str(v) for v in range(n)] for n in sizes])

    def runs():
        with CommandProgram(mod_worker(modulus, 5), arity=domain.arity) as program:
            report = _outcome(lambda: run_test(program, domain, mode, strategy, seed))
        with CommandProgram(mod_worker(modulus, 5), arity=domain.arity) as program:
            synthesis = synthesize(program, domain, rep_strategy=rep)
        if not isinstance(report, tuple):
            report = (report.verdict, report.witness, report.steps, report.trace)
        return report, synthesis

    outcomes = []
    for window in (1, 64):
        with mock.patch.object(command, "_WINDOW", window):
            outcomes.append(runs())
    (report_one, (table_one, parts_one)), (report_piped, (table_piped, parts_piped)) = outcomes
    assert report_piped == report_one
    assert parts_piped == parts_one
    assert table_piped.mapping == table_one.mapping
