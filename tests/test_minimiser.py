"""Tests for minimiser synthesis, pre-processor validation, composition, and
the table file format."""

from __future__ import annotations

import random

import pytest

from minimon import (
    BudgetExceeded,
    BuiltinProgram,
    InputDomain,
    InputOutsideDomain,
    MinimiserTable,
    ParseError,
    TableProgram,
    compose,
    load_minimiser,
    make_builtin,
    save_minimiser,
    synthesize,
    validate_preprocessor,
)

from helpers import random_full_table

SALARIES = InputDomain([[str(n) for n in range(1, 30001)]])


def two_case_program() -> TableProgram:
    domain = InputDomain([[str(n) for n in range(1, 5)]])
    return TableProgram({("1",): "a", ("2",): "a", ("3",): "b", ("4",): "b"})


class TestSynthesize:
    def test_threshold_split_classes(self):
        table, partition = synthesize(make_builtin("benefits"), SALARIES)
        assert partition.count == 2
        assert set(partition.classes["true"]) == {(str(n),) for n in range(1, 10000)}
        assert set(partition.classes["false"]) == {(str(n),) for n in range(10000, 30001)}
        assert table.representatives == {("1",), ("10000",)}
        assert table.apply(("7200",)) == ("1",)
        assert table.apply(("29999",)) == ("10000",)

    def test_segmented_program_partitions(self):
        domain = InputDomain([[str(n) for n in range(0, 101)]])
        table, partition = synthesize(make_builtin("loyalty"), domain)
        assert partition.count == 17
        sizes = sorted(len(c) for c in partition.classes.values())
        assert sizes == [1] * 14 + [5, 11, 71]
        assert len(table.representatives) == 17

    def test_injective_program_maps_identically(self):
        domain = InputDomain([[str(n) for n in range(1, 6)]])
        table, partition = synthesize(make_builtin("identity"), domain)
        assert partition.count == 5
        assert all(table.apply(i) == i for i in domain.enumerate())

    def test_apply_is_idempotent_and_fixes_representatives(self):
        table, _ = synthesize(
            two_case_program(), InputDomain([[str(n) for n in range(1, 5)]])
        )
        for src in table.mapping:
            assert table.apply(table.apply(src)) == table.apply(src)
        for rep in table.representatives:
            assert table.apply(rep) == rep

    def test_apply_outside_domain(self):
        table, _ = synthesize(
            two_case_program(), InputDomain([[str(n) for n in range(1, 5)]])
        )
        with pytest.raises(InputOutsideDomain):
            table.apply(("99",))

    def test_rand_strategy_is_seeded_and_stays_in_class(self):
        domain = InputDomain([[str(n) for n in range(1, 101)]])
        program = make_builtin("benefits")
        table_a, partition = synthesize(program, domain, rep_strategy="rand:9")
        table_b, _ = synthesize(program, domain, rep_strategy="rand:9")
        assert table_a.mapping == table_b.mapping
        for out, members in partition.classes.items():
            rep = table_a.apply(members[0])
            assert rep in members

    def test_least_equals_first_under_default_visitation(self):
        domain = InputDomain([[str(n) for n in range(0, 101)]])
        least, _ = synthesize(make_builtin("loyalty"), domain, rep_strategy="least")
        first, _ = synthesize(make_builtin("loyalty"), domain, rep_strategy="first")
        assert least.mapping == first.mapping

    def test_custom_order_changes_first_but_not_least(self):
        domain = InputDomain([[str(n) for n in range(1, 5)]])
        program = two_case_program()
        reversed_order = list(domain.enumerate())[::-1]
        first, _ = synthesize(program, domain, rep_strategy="first", order=reversed_order)
        assert first.representatives == {("4",), ("2",)}
        least, _ = synthesize(program, domain, rep_strategy="least", order=reversed_order)
        assert least.representatives == {("1",), ("3",)}

    def test_incomplete_order_rejected(self):
        domain = InputDomain([[str(n) for n in range(1, 5)]])
        with pytest.raises(ValueError):
            synthesize(two_case_program(), domain, order=[("1",), ("2",)])

    @pytest.mark.parametrize("rep", ["least", "first"])
    @pytest.mark.parametrize("order", [[("1",), ("1",)], [("1",), ("7",)], [("1",), ("2",), ("2",)]])
    def test_order_that_is_not_a_permutation_rejected(self, order, rep):
        with pytest.raises(ValueError, match="exactly once"):
            synthesize(make_builtin("identity"), InputDomain([["1", "2"]]), rep_strategy=rep, order=order)

    def test_bad_rep_strategy(self):
        domain = InputDomain([["1", "2"]])
        for bad in ["rand:", "rand:x", "smallest"]:
            with pytest.raises(ValueError):
                synthesize(make_builtin("identity"), domain, rep_strategy=bad)

    def test_cap(self):
        with pytest.raises(BudgetExceeded):
            synthesize(make_builtin("benefits"), SALARIES, cap=100)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            synthesize(make_builtin("xor"), SALARIES)

    def test_representative_count_equals_distinct_outputs(self):
        rnd = random.Random(11)
        for _ in range(50):
            domain, mapping = random_full_table(rnd)
            program = TableProgram(mapping)
            table, partition = synthesize(program, domain)
            assert len(table.representatives) == len(set(mapping.values()))
            assert partition.count == len(set(mapping.values()))


class TestValidate:
    def test_synthesized_tables_always_validate(self):
        rnd = random.Random(3)
        for _ in range(50):
            domain, mapping = random_full_table(rnd)
            program = TableProgram(mapping)
            table, _ = synthesize(program, domain)
            report = validate_preprocessor(program, domain, table)
            assert report.is_preprocessor and report.is_minimiser
            assert report.failures == []

    def test_two_case_table_is_minimiser(self):
        domain = InputDomain([[str(n) for n in range(1, 5)]])
        program = two_case_program()
        table = MinimiserTable(
            {("1",): ("1",), ("2",): ("1",), ("3",): ("3",), ("4",): ("3",)}, 1
        )
        report = validate_preprocessor(program, domain, table)
        assert report.is_preprocessor and report.is_minimiser

    def test_preprocessor_with_colliding_representatives(self):
        # collapses within classes but keeps two representatives per output
        domain = InputDomain([[str(n) for n in range(1, 7)]])
        program = TableProgram({(str(n),): "lo" if n <= 3 else "hi" for n in range(1, 7)})
        table = MinimiserTable(
            {
                ("1",): ("1",), ("2",): ("1",), ("3",): ("3",),
                ("4",): ("4",), ("5",): ("4",), ("6",): ("6",),
            },
            1,
        )
        report = validate_preprocessor(program, domain, table)
        assert report.is_preprocessor and not report.is_minimiser
        kinds = [f.kind for f in report.failures]
        assert kinds == ["representatives-collide"] * 2
        assert report.failures[0].inputs == (("1",), ("3",))

    def test_identity_table_minimiser_iff_injective(self):
        domain = InputDomain([["1", "2", "3"]])
        identity = MinimiserTable({(v,): (v,) for v in ["1", "2", "3"]}, 1)
        hit = validate_preprocessor(make_builtin("identity"), domain, identity)
        assert hit.is_preprocessor and hit.is_minimiser
        miss = validate_preprocessor(make_builtin("const:z"), domain, identity)
        assert miss.is_preprocessor and not miss.is_minimiser

    def test_changes_output_failure(self):
        domain = InputDomain([[str(n) for n in range(1, 5)]])
        table = MinimiserTable(
            {("1",): ("1",), ("2",): ("1",), ("3",): ("1",), ("4",): ("4",)}, 1
        )
        report = validate_preprocessor(two_case_program(), domain, table)
        assert not report.is_preprocessor and not report.is_minimiser
        assert {f.kind for f in report.failures} == {"changes-output"}
        failed_inputs = {f.inputs[0] for f in report.failures}
        assert failed_inputs == {("3",)}

    def test_not_idempotent_failure(self):
        domain = InputDomain([["1", "2"]])
        program = make_builtin("const:k")
        table = MinimiserTable({("1",): ("2",), ("2",): ("1",)}, 1)
        report = validate_preprocessor(program, domain, table)
        assert not report.is_preprocessor
        assert "not-idempotent" in {f.kind for f in report.failures}

    def test_target_outside_domain_failure(self):
        domain = InputDomain([["1", "2"]])
        program = make_builtin("identity")
        table = MinimiserTable({("1",): ("9",), ("2",): ("9",)}, 1)
        report = validate_preprocessor(program, domain, table)
        assert not report.is_preprocessor
        outside = [f for f in report.failures if f.kind == "target-outside-domain"]
        assert len(outside) == 1  # deduped per target
        assert outside[0].inputs == (("1",), ("9",))

    def test_partial_table_raises(self):
        domain = InputDomain([["1", "2", "3"]])
        table = MinimiserTable({("1",): ("1",), ("2",): ("1",)}, 1)
        with pytest.raises(InputOutsideDomain):
            validate_preprocessor(make_builtin("identity"), domain, table)

    def test_budget_is_checked_before_any_probe(self, monkeypatch):
        calls = []

        def spy(inputs):
            calls.append(inputs)
            return inputs[0]

        program = BuiltinProgram("spy", 1, spy)
        domain = InputDomain([["1", "2", "3"]])
        identity = MinimiserTable({(v,): (v,) for v in ["1", "2", "3"]}, 1)
        monkeypatch.setenv("MINIMON_BUDGET", "2")
        with pytest.raises(BudgetExceeded, match="budget is 2"):
            validate_preprocessor(program, domain, identity)
        assert calls == []
        monkeypatch.setenv("MINIMON_BUDGET", "3")
        assert validate_preprocessor(program, domain, identity).is_minimiser
        assert sorted(calls) == [("1",), ("2",), ("3",)]


class TestCompose:
    def test_composed_output_and_observation(self):
        table, _ = synthesize(make_builtin("benefits"), SALARIES)
        composed = compose(make_builtin("benefits"), table)
        assert composed.evaluate(("7200",)) == "true"
        event = composed.observe(("7200",))
        assert event.inputs == ("1",)
        assert event.output == "true"

    def test_identity_preprocessor_is_transparent(self):
        domain = InputDomain([["1", "2", "3"]])
        table = MinimiserTable({(v,): (v,) for v in ["1", "2", "3"]}, 1)
        program = make_builtin("loyalty")
        composed = compose(program, table)
        for i in domain.enumerate():
            assert composed.evaluate(i) == program.evaluate(i)
            assert composed.observe(i) == program.observe(i)

    def test_arity_mismatch(self):
        table = MinimiserTable({("1",): ("1",)}, 1)
        with pytest.raises(ValueError):
            compose(make_builtin("xor"), table)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        table, _ = synthesize(make_builtin("loyalty"),
                              InputDomain([[str(n) for n in range(0, 101)]]))
        path = tmp_path / "min.jsonl"
        save_minimiser(table, str(path))
        reloaded = load_minimiser(str(path))
        assert reloaded.mapping == table.mapping
        assert reloaded.arity == table.arity

    def test_duplicate_conflicting_entry(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"from":["1"],"to":["1"]}\n{"from":["1"],"to":["2"]}\n')
        with pytest.raises(ParseError) as exc:
            load_minimiser(str(path))
        assert exc.value.line == 2

    def test_duplicate_identical_entry_allowed(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"from":["1"],"to":["1"]}\n{"from":["1"],"to":["1"]}\n')
        assert load_minimiser(str(path)).mapping == {("1",): ("1",)}

    @pytest.mark.parametrize(
        "line",
        [
            '{"from":["1"]}',
            '{"from":["1"],"to":["1"],"x":1}',
            '{"from":[],"to":["1"]}',
            '{"from":["1"],"to":["has space"]}',
            '{"from":["1","2"],"to":["1"]}',
            "not json",
        ],
    )
    def test_malformed_lines(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"from":["9"],"to":["9"]}\n' + line + "\n")
        with pytest.raises(ParseError) as exc:
            load_minimiser(str(path))
        assert exc.value.line == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        with pytest.raises(ParseError):
            load_minimiser(str(path))
