"""Predicate and witness tests, checked against naive quadratic oracles."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from minimon import (
    Event,
    Mode,
    Trace,
    Witness,
    find_witness,
)

from minimon.properties import CollisionIndex

from helpers import (
    EagerSdistIndex,
    mono,
    naive_mono_witness,
    naive_sdm_witness,
    random_function_trace,
    single_diff_source,
    table1_events,
    table2_events,
)


class TestMonolithic:
    def test_two_distinct_outputs_satisfy(self):
        assert find_witness(Mode.MONOLITHIC, Trace(table1_events()[:2])) is None

    def test_repeated_output_violates(self):
        assert find_witness(Mode.MONOLITHIC, Trace(table1_events()[:3])) is not None

    def test_empty_and_singleton_are_vacuous(self):
        assert find_witness(Mode.MONOLITHIC, Trace()) is None
        assert find_witness(Mode.MONOLITHIC, Trace([mono("1", "a")])) is None

    def test_witness_is_least_pair(self):
        w = find_witness(Mode.MONOLITHIC, Trace(table1_events()[:3]))
        assert (w.index_a, w.index_b) == (0, 2)
        assert w.kind is Mode.MONOLITHIC and w.differing_source is None

    def test_witness_rejects_bad_indices_and_a_misplaced_source(self):
        for a, b in [(2, 2), (3, 1), (-1, 1)]:
            with pytest.raises(ValueError, match=rf"^bad witness indices \({a}, {b}\)$"):
                Witness(Mode.MONOLITHIC, a, b)
        for kind, source in [(Mode.MONOLITHIC, 0), (Mode.STRONG_DISTRIBUTED, None)]:
            with pytest.raises(ValueError, match="^differing_source is for strong-distributed"):
                Witness(kind, 0, 1, source)

    def test_all_equal_inputs_have_no_witness(self):
        t = Trace([mono("1", "a"), mono("1", "a"), mono("1", "a")])
        assert find_witness(Mode.MONOLITHIC, t) is None

    def test_least_pair_prefers_smaller_first_index(self):
        # violating pairs are (0,3) and (1,2); (0,3) is lexicographically least
        t = Trace([mono("1", "A"), mono("2", "B"), mono("3", "B"), mono("4", "A")])
        w = find_witness(Mode.MONOLITHIC, t)
        assert (w.index_a, w.index_b) == (0, 3)


class TestStrongDistributed:
    def test_table2_prefix_satisfies(self):
        assert find_witness(Mode.STRONG_DISTRIBUTED, Trace(table2_events()[:3])) is None

    def test_table2_full_violates_at_age_coordinate(self):
        w = find_witness(Mode.STRONG_DISTRIBUTED, Trace(table2_events()))
        assert (w.index_a, w.index_b) == (1, 3)
        assert w.differing_source == 1
        assert w.kind is Mode.STRONG_DISTRIBUTED

    def test_xor_table_trace_satisfies(self):
        t = Trace([
            Event(("0", "0"), "0"),
            Event(("0", "1"), "1"),
            Event(("1", "0"), "1"),
            Event(("1", "1"), "0"),
        ])
        assert find_witness(Mode.STRONG_DISTRIBUTED, t) is None
        # (0,1) and (1,0) share an output but differ at both coordinates
        assert find_witness(Mode.MONOLITHIC, t) is not None

    def test_or_table_trace_witness(self):
        t = Trace([
            Event(("0", "0"), "0"),
            Event(("0", "1"), "1"),
            Event(("1", "0"), "1"),
            Event(("1", "1"), "1"),
        ])
        w = find_witness(Mode.STRONG_DISTRIBUTED, t)
        assert t[w.index_a].inputs == ("0", "1")
        assert t[w.index_b].inputs == ("1", "1")
        assert w.differing_source == 0

    def test_arity_one_reduces_to_monolithic(self):
        rnd = random.Random(11)
        for _ in range(100):
            t = random_function_trace(rnd, arity=1, length=rnd.randint(0, 12))
            wm, ws = find_witness(Mode.MONOLITHIC, t), find_witness(Mode.STRONG_DISTRIBUTED, t)
            assert (ws is None) == (wm is None)
            if wm is not None:
                assert (ws.index_a, ws.index_b) == (wm.index_a, wm.index_b)
                assert ws.differing_source == 0


class TestSingleDiffSource:
    """The coordinate helper of the naive strong-distributed oracle."""

    def test_one_coordinate(self):
        assert single_diff_source(("0", "1"), ("1", "1")) == 0

    def test_two_coordinates(self):
        assert single_diff_source(("0", "0"), ("1", "1")) is None

    def test_equal_inputs(self):
        assert single_diff_source(("a", "b"), ("a", "b")) is None

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match=r"^arity mismatch: 1 vs 2$"):
            single_diff_source(("a",), ("a", "b"))


class TestWitnessesAgainstNaiveScan:
    def test_mono_witness_matches_brute_force(self):
        rnd = random.Random(23)
        for _ in range(200):
            t = random_function_trace(rnd, length=rnd.randint(0, 14))
            w = find_witness(Mode.MONOLITHIC, t)
            expected = naive_mono_witness(t)
            assert (None if w is None else (w.index_a, w.index_b)) == expected

    def test_sdm_witness_matches_brute_force(self):
        rnd = random.Random(29)
        for _ in range(200):
            t = random_function_trace(rnd, length=rnd.randint(0, 14))
            w = find_witness(Mode.STRONG_DISTRIBUTED, t)
            expected = naive_sdm_witness(t)
            got = None if w is None else (w.index_a, w.index_b, w.differing_source)
            assert got == expected


def _prefixes(trace: Trace):
    return (Trace(trace.events[:k]) for k in range(len(trace) + 1))


class TestClosure:
    def test_prefix_closure(self):
        rnd = random.Random(37)
        for _ in range(60):
            t = random_function_trace(rnd, length=rnd.randint(0, 12))
            for mode in Mode:
                if find_witness(mode, t) is None:
                    assert all(find_witness(mode, p) is None for p in _prefixes(t))

    def test_violation_survives_extensions(self):
        rnd = random.Random(41)
        found = 0
        for _ in range(60):
            t = random_function_trace(rnd, arity=2, length=10, pool=2, out_pool=2)
            for mode in Mode:
                if find_witness(mode, t) is None:
                    continue
                found += 1
                for e in t.events[:4]:
                    assert find_witness(mode, Trace((*t.events, e))) is not None
        assert found > 20


@st.composite
def distinct_observations(draw):
    """Distinct inputs of one arity over a small per-source alphabet, so that
    inputs one source apart are common, with outputs from an alphabet of 1, 2
    or 5 values, or all fresh."""
    arity = draw(st.integers(1, 4))
    inputs = draw(st.lists(
        st.tuples(*[st.sampled_from("abc")] * arity), unique=True, max_size=30,
    ))
    alphabet = draw(st.sampled_from([1, 2, 5, None]))
    if alphabet is None:
        outputs = [f"o{k}" for k in range(len(inputs))]
    else:
        outputs = draw(st.lists(
            st.sampled_from([f"o{k}" for k in range(alphabet)]),
            min_size=len(inputs), max_size=len(inputs),
        ))
    return list(zip(inputs, outputs))


@settings(max_examples=300, deadline=None)
@given(distinct_observations())
def test_sdist_index_matches_eager_index(observations):
    """The lazy index returns what the eager one does on every add, and keeps
    masked keys only for outputs that repeat."""
    index = CollisionIndex(Mode.STRONG_DISTRIBUTED)
    eager = EagerSdistIndex()
    for pos, (inputs, output) in enumerate(observations):
        assert index.add(inputs, output, pos) == eager.add(inputs, output, pos)
    counts = Counter(output for _, output in observations)
    shared = {output for output, n in counts.items() if n > 1}
    masked = {k: v for k, v in index._first.items() if type(k) is tuple}
    assert masked == {k: v for k, v in eager.first.items() if k[2] in shared}
    # one entry per output besides the masked keys; an input is kept only
    # while its output is unshared
    assert len(index._first) == len(masked) + len(counts)
    assert sum(type(v) is tuple for v in index._first.values()) == len(counts) - len(shared)
    if not shared:
        assert len(index._first) == len(observations)
