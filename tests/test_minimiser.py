"""Tests for minimiser synthesis, pre-processor validation, composition, and
the table file format."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from minimon import (
    BudgetExceeded,
    BuiltinProgram,
    CommandProgram,
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
from minimon import command, minimiser

from helpers import mod_worker, random_full_table, ref_validate_preprocessor

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
        assert set(table.mapping.values()) == {("1",), ("10000",)}
        assert table.apply(("7200",)) == ("1",)
        assert table.apply(("29999",)) == ("10000",)

    def test_segmented_program_partitions(self):
        domain = InputDomain([[str(n) for n in range(0, 101)]])
        table, partition = synthesize(make_builtin("loyalty"), domain)
        assert partition.count == 17
        sizes = sorted(len(c) for c in partition.classes.values())
        assert sizes == [1] * 14 + [5, 11, 71]
        assert len(set(table.mapping.values())) == 17

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
        for rep in set(table.mapping.values()):
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

    def test_bad_rep_strategy(self):
        domain = InputDomain([["1", "2"]])
        for bad in ["rand:", "rand:x", "smallest"]:
            with pytest.raises(ValueError):
                synthesize(make_builtin("identity"), domain, rep_strategy=bad)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(minimiser, "DEFAULT_SYNTH_CAP", 100)
        with pytest.raises(BudgetExceeded, match="^domain has 30000 elements, synthesis cap is 100$"):
            synthesize(make_builtin("benefits"), SALARIES)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            synthesize(make_builtin("xor"), SALARIES)

    def test_representative_count_equals_distinct_outputs(self):
        rnd = random.Random(11)
        for _ in range(50):
            domain, mapping = random_full_table(rnd)
            program = TableProgram(mapping)
            table, partition = synthesize(program, domain)
            assert len(set(table.mapping.values())) == len(set(mapping.values()))
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


def random_candidate(rnd: random.Random, missing: float = 0.04):
    """(domain, outputs, table): an arity 1-2 domain of at most 4 values per
    source, a program's outputs from an alphabet of 1-3 letters, and a
    candidate table whose entries go to the input's class representative, to
    itself, to a random domain element or outside the domain, or are
    missing. The table may also have entries for inputs outside the domain."""
    arity = rnd.randint(1, 2)
    domain = InputDomain([[str(v) for v in range(rnd.randint(1, 4))] for _ in range(arity)])
    inputs = list(domain.enumerate())
    alphabet = "abc"[: rnd.randint(1, 3)]
    outputs = {i: rnd.choice(alphabet) for i in inputs}
    reps: dict = {}
    for i in inputs:
        reps.setdefault(outputs[i], rnd.choice([j for j in inputs if outputs[j] == outputs[i]]))
    outside = [("7",) * arity, ("8",) * arity]
    mapping = {}
    for i in inputs:
        roll = rnd.random()
        if roll < missing:
            continue
        if roll < 0.15:
            mapping[i] = rnd.choice(outside)
        elif roll < 0.35:
            mapping[i] = rnd.choice(inputs)
        elif roll < 0.55:
            mapping[i] = i
        else:
            mapping[i] = reps[outputs[i]]
    for extra in outside[: rnd.randint(0, 2)]:
        mapping[extra] = rnd.choice(outside)
    return domain, outputs, MinimiserTable(mapping, arity)


def validation_outcome(validate, program, domain, table):
    """The report as a dict, or the error's class and message."""
    try:
        return validate(program, domain, table).to_dict()
    except Exception as exc:
        return type(exc), str(exc)


class TestSinglePassValidation:
    """validate_preprocessor's one evaluation pass against the two-evaluate
    walk in helpers."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, seed):
        domain, outputs, table = random_candidate(random.Random(seed))
        got = validation_outcome(validate_preprocessor, TableProgram(outputs), domain, table)
        want = validation_outcome(ref_validate_preprocessor, TableProgram(outputs), domain, table)
        assert got == want

    def test_candidates_cover_every_failure_kind(self):
        rnd = random.Random(11)
        seen = set()
        for _ in range(300):
            domain, outputs, table = random_candidate(rnd)
            outcome = validation_outcome(
                ref_validate_preprocessor, TableProgram(outputs), domain, table
            )
            if isinstance(outcome, tuple):
                seen.add(outcome[0].__name__)
            else:
                seen.update(f["kind"] for f in outcome["failures"])
                seen.add(("preprocessor", outcome["is_preprocessor"], outcome["is_minimiser"]))
        assert seen >= {
            "InputOutsideDomain", "target-outside-domain", "not-idempotent",
            "changes-output", "representatives-collide",
            ("preprocessor", True, True), ("preprocessor", True, False),
        }

    @pytest.mark.parametrize("window", [1, 64])
    def test_exec_worker_gets_one_request_per_domain_element(self, tmp_path, monkeypatch, window):
        monkeypatch.setattr(command, "_WINDOW", window)
        rnd = random.Random(window)
        for n in range(6):
            domain, _, table = random_candidate(rnd, missing=0)
            modulus = rnd.randint(1, 5)
            reference = BuiltinProgram(
                "mod", domain.arity, lambda i: "o%d" % (int("".join(i), 4) % modulus)
            )
            count = tmp_path / f"served{n}.txt"
            argv = mod_worker(modulus, 4, count)
            with CommandProgram(argv, arity=domain.arity) as program:
                got = validate_preprocessor(program, domain, table).to_dict()
            assert got == ref_validate_preprocessor(reference, domain, table).to_dict()
            assert count.read_text() == str(domain.size)


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

    @pytest.mark.parametrize("inputs", [("0",), ("0", "x y"), ("1", "1")])
    def test_every_method_fails_as_evaluate_does(self, inputs):
        """A wrong arity, a non-token and an input the table lacks raise the
        same error from evaluate, observe and the stream."""
        table = MinimiserTable({("0", "0"): ("0", "0"), ("0", "1"): ("1", "0")}, 2)
        composed = compose(make_builtin("xor"), table)
        for call in (
            composed.evaluate,
            composed.observe,
            lambda i: next(composed.pairs([i])),
        ):
            with pytest.raises(InputOutsideDomain) as exc:
                call(inputs)
            assert type(exc.value) is InputOutsideDomain
            assert str(exc.value) == f"input {inputs} has no entry in the minimiser table"


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
