"""The package's import surface: public names resolve lazily, and each
command loads only the modules it runs."""

from __future__ import annotations

import ast
import copy
import inspect
import json
import os
import pathlib
import pickle
import re
import shlex
import subprocess
import sys
from dataclasses import dataclass

import pytest

import minimon
from minimon import (
    CollisionWitness, Event, FunctionTable, IndistinguishablePair, InputDomain, MinimiserTable,
    Mode, MonitorConfig, PartitionMap, Trace, ValidationReport, Verdict, Witness,
)
from minimon.minimiser import ValidationFailure
from minimon.trace import InputTuple, check_input_tuple, check_token

from helpers import mod_worker

PUBLIC_NAMES = [
    "BudgetExceeded", "BuiltinProgram", "CollisionWitness", "CommandProgram",
    "ComposedProgram", "DeterminismViolation", "DomainMismatch", "Event",
    "FunctionTable", "IndistinguishablePair", "InputDomain",
    "InputOutsideDomain", "MinimiserTable", "MinimonError", "Mode", "Monitor",
    "MonitorConfig", "ParseError", "PartitionMap", "Program", "ProgramFailure",
    "TableProgram", "TestReport", "Trace", "UnknownBuiltin", "ValidationReport",
    "Verdict", "Witness", "compose",
    "find_witness", "load_domain", "load_minimiser", "load_trace",
    "make_builtin", "monitor_eval", "parse_trace", "prefix_verdicts",
    "run_test", "save_minimiser", "serialize_trace", "synthesize",
    "table_dist_minimal", "table_mono_minimal", "table_strong_dist_minimal",
    "validate_preprocessor",
]

SRC = os.path.dirname(os.path.dirname(os.path.abspath(minimon.__file__)))

CHILD_MODULES = {"subprocess", "threading", "queue"}


def loaded_after(code: str, *argv: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run `code` in a fresh interpreter without `site`, so nothing is
    preloaded; return the run, its stdout without the last line, and the
    modules loaded at exit, which that last line lists."""
    report = "atexit.register(lambda: print(json.dumps(sorted(sys.modules))))"
    probe = f"import atexit, json, sys\n{report}\n{code}"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    *output, modules = result.stdout.splitlines()
    result.stdout = "".join(line + "\n" for line in output)
    return result, set(json.loads(modules))


def run_cli_bare(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    return loaded_after("from minimon.cli import main\nsys.exit(main(sys.argv[1:]))", *args)


def test_all_is_pinned():
    assert minimon.__all__ == PUBLIC_NAMES


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from minimon import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_the_object_of_its_defining_module(name):
    value = getattr(minimon, name)
    assert value.__module__.startswith("minimon.")
    assert getattr(sys.modules[value.__module__], name) is value
    assert vars(minimon)[name] is value  # kept, so later lookups skip __getattr__


def test_dir_lists_public_names_and_all_before_loading_them():
    result, modules = loaded_after("import minimon\nprint(json.dumps(dir(minimon)))")
    listed = json.loads(result.stdout)
    assert "__all__" in listed
    assert set(PUBLIC_NAMES) <= set(listed)
    assert {m for m in modules if m.startswith("minimon.")} == set()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'minimon' has no attribute 'nope'"):
        minimon.nope
    assert not hasattr(minimon, "nope")


def test_bare_import_loads_no_submodule():
    result, modules = loaded_after("import minimon")
    assert result.returncode == 0, result.stderr
    assert {m for m in modules if m.startswith("minimon.")} == set()
    result, modules = loaded_after("import minimon\nminimon.Trace")
    assert {m for m in modules if m.startswith("minimon.")} == {"minimon.errors", "minimon.trace"}


@pytest.fixture
def inputs(tmp_path):
    files = {
        "trace": '{"in":["0","0"],"out":"0"}\n{"in":["0","1"],"out":"1"}\n',
        "domain": '{"sources":[{"set":["0","1"]},{"set":["0","1"]}]}',
        "table": "".join(
            f'{{"in":["{a}","{b}"],"out":"{a}{b}"}}\n' for a in "01" for b in "01"
        ),
    }
    for name, content in files.items():
        (tmp_path / name).write_text(content)
        files[name] = str(tmp_path / name)
    return files


@pytest.mark.parametrize("mode", ["mono", "sdist"])
def test_check_trace_loads_no_program_tester_or_minimiser(inputs, mode):
    result, modules = run_cli_bare(
        "check-trace", "--trace", inputs["trace"], "--domain", inputs["domain"], "--mode", mode
    )
    assert (result.returncode, result.stdout) == (2, "UNKNOWN\n"), result.stderr
    unwanted = {"minimon.programs", "minimon.minimiser", "minimon.tester", *CHILD_MODULES}
    assert modules & unwanted == set()


@pytest.mark.parametrize(
    "args, stdout",
    [
        (["test", "--program", "builtin:xor", "--mode", "sdist", "--strategy", "lex"],
         "TRUE\nsteps: 4 of 4\n"),
        (["oracle", "--notion", "dist"], "minimal\n"),
    ],
)
def test_builtin_and_table_commands_start_no_child_machinery(inputs, args, stdout):
    source = ["--domain", inputs["domain"]] if args[0] == "test" else ["--table", inputs["table"]]
    result, modules = run_cli_bare(*args, *source)
    assert (result.returncode, result.stdout) == (0, stdout), result.stderr
    assert "minimon.tester" in modules
    assert modules & {"minimon.minimiser", *CHILD_MODULES} == set()


@pytest.mark.parametrize(
    "args, stdout",
    [
        (["test", "--strategy", "lex"], "TRUE\nsteps: 4 of 4\n"),
        (["monitor", "--random", "--max-steps", "2"], "1\t1,1\to11\tUNKNOWN\n2\t0,1\to1\tUNKNOWN\n"),
    ],
    ids=["test", "monitor"],
)
def test_exec_commands_read_replies_without_a_queue(inputs, args, stdout):
    """An exec: session polls its child's pipes itself: no reader thread
    hands it lines through a queue."""
    program = "exec:" + shlex.join(mod_worker(1000, 10))
    result, modules = run_cli_bare(
        *args, "--program", program, "--domain", inputs["domain"], "--mode", "mono"
    )
    assert result.stdout == stdout, result.stderr
    assert "subprocess" in modules
    assert "queue" not in modules


def _module_level_imports(tree: ast.Module):
    """(bound name, line) for each name a module-level import binds, except
    `from __future__` ones."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_no_unused_module_imports():
    """Every name a module of the package imports at module level is read
    somewhere in that module, so a fold leaves no stale import behind."""
    package = os.path.join(SRC, "minimon")
    unused = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{filename}:{line} {name}"
            for name, line in _module_level_imports(tree)
            if name not in used
        ]
    assert unused == []


# The record types as they were declared with @dataclass. Each twin has the
# same fields, defaults, checks and to_dict; its string annotations resolve
# in this module, which imports every name they use.


@dataclass(frozen=True)
class EventTwin:
    inputs: InputTuple
    output: str

    def __post_init__(self):
        check_input_tuple(self.inputs)
        check_token(self.output)


@dataclass(frozen=True)
class WitnessTwin:
    kind: Mode
    index_a: int
    index_b: int
    differing_source: int | None = None

    def __post_init__(self):
        if not 0 <= self.index_a < self.index_b:
            raise ValueError(f"bad witness indices ({self.index_a}, {self.index_b})")
        if (self.differing_source is not None) != (self.kind is Mode.STRONG_DISTRIBUTED):
            raise ValueError("differing_source is for strong-distributed witnesses only")

    to_dict = Witness.to_dict


@dataclass(frozen=True)
class MonitorConfigTwin:
    mode: Mode
    domain: InputDomain | None = None


@dataclass
class FunctionTableTwin:
    domain: InputDomain
    outputs: dict[InputTuple, str]


@dataclass(frozen=True)
class CollisionWitnessTwin:
    input_a: InputTuple
    input_b: InputTuple
    differing_source: int | None = None


@dataclass(frozen=True)
class IndistinguishablePairTwin:
    source: int
    value_a: str
    value_b: str


@dataclass
class TestReportTwin:
    __test__ = False  # not a test class, despite its name

    verdict: Verdict
    witness: Witness | None
    steps: int
    trace: Trace
    strategy: str
    seed: int | None

    to_dict = minimon.TestReport.to_dict


@dataclass
class PartitionMapTwin:
    classes: dict[str, tuple[InputTuple, ...]]


@dataclass
class MinimiserTableTwin:
    mapping: dict[InputTuple, InputTuple]
    arity: int


@dataclass(frozen=True)
class ValidationFailureTwin:
    kind: str
    inputs: tuple[InputTuple, ...]
    note: str

    to_dict = ValidationFailure.to_dict


@dataclass
class ValidationReportTwin:
    is_preprocessor: bool
    is_minimiser: bool
    failures: list[ValidationFailure]

    to_dict = ValidationReport.to_dict


_DOMAIN = InputDomain([["0", "1"]])
_TRACE = Trace([Event(("0",), "a"), Event(("1",), "a")])
_FAILURE_ARGS = ("not-idempotent", (("0",), ("1",)), "note")

# record type -> (its twin, arguments, arguments of an unequal record)
RECORDS = {
    Event: (EventTwin, (("0", "1"), "1"), (("0", "1"), "2")),
    Witness: (WitnessTwin, (Mode.MONOLITHIC, 0, 1), (Mode.STRONG_DISTRIBUTED, 0, 1, 0)),
    MonitorConfig: (MonitorConfigTwin, (Mode.MONOLITHIC,), (Mode.MONOLITHIC, _DOMAIN)),
    FunctionTable: (FunctionTableTwin, (_DOMAIN, {("0",): "a"}), (_DOMAIN, {("0",): "b"})),
    CollisionWitness: (CollisionWitnessTwin, (("0",), ("1",)), (("0",), ("1",), 0)),
    IndistinguishablePair: (IndistinguishablePairTwin, (0, "a", "b"), (1, "a", "b")),
    minimon.TestReport: (
        TestReportTwin,
        (Verdict.TRUE, None, 2, _TRACE, "lexicographic", None),
        (Verdict.FALSE, Witness(Mode.MONOLITHIC, 0, 1), 2, _TRACE, "random-permutation", 0),
    ),
    PartitionMap: (PartitionMapTwin, ({"a": (("0",), ("1",))},), ({"a": (("0",),)},)),
    MinimiserTable: (MinimiserTableTwin, ({("1",): ("0",)}, 1), ({("1",): ("1",)}, 1)),
    ValidationFailure: (ValidationFailureTwin, _FAILURE_ARGS, ("x", (), "note")),
    ValidationReport: (
        ValidationReportTwin, (True, True, []), (True, False, [ValidationFailure(*_FAILURE_ARGS)])
    ),
}
FROZEN = {Event, Witness, MonitorConfig, CollisionWitness, IndistinguishablePair, ValidationFailure}


def _outcome(action):
    """What `action()` returns, or the type and text of what it raises; a
    dataclass's FrozenInstanceError counts as the AttributeError it
    subclasses."""
    try:
        return "returned", action()
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return type(exc).__name__.replace("FrozenInstanceError", "AttributeError"), str(exc)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_dataclass_twin(cls):
    """Each record type takes the arguments its twin takes, and compares,
    hashes, prints, copies and takes or refuses assignments as it does."""
    twin, args, other_args = RECORDS[cls]
    # Reprs and error messages name the class.
    twin.__name__, twin.__qualname__ = cls.__name__, cls.__qualname__
    assert inspect.signature(cls, eval_str=True) == inspect.signature(twin, eval_str=True)
    assert cls.__match_args__ == twin.__match_args__

    def compared(kind):
        sub = type("Sub", (kind,), {})
        a, b, c = kind(*args), kind(*args), kind(*other_args)
        keywords = kind(**inspect.signature(kind).bind(*args).arguments)
        checks = [a == b, a != b, a == c, a != c, a == keywords, a == sub(*args), sub(*args) == a,
                  a != sub(*args), a == args, a.__eq__(object()), repr(a), repr(c),
                  copy.copy(a) == a, copy.deepcopy(c) == c]
        if hasattr(kind, "to_dict"):
            checks += [a.to_dict(), c.to_dict()]
        checks += [_outcome(lambda: hash(a)), _outcome(lambda: {a, b, c} == {a, c})]
        for name in (*cls.__match_args__, "extra"):
            checks += [_outcome(lambda: setattr(c, name, getattr(a, name, None)))]
            checks += [_outcome(lambda: delattr(a, name)), _outcome(lambda: a == c)]
        return checks

    assert compared(cls) == compared(twin)
    record = cls(*other_args)
    assert pickle.loads(pickle.dumps(record)) == record


def test_record_hashing_matches_the_dataclass_rule():
    """A frozen record hashes as the tuple of its fields; a mutable one is
    unhashable."""
    for cls, (twin, args, _) in RECORDS.items():
        record = cls(*args)
        if cls in FROZEN:
            assert hash(record) == hash(tuple(getattr(record, f) for f in cls.__match_args__))
        else:
            assert cls.__hash__ is twin.__hash__ is None
            with pytest.raises(TypeError, match="^unhashable type: "):
                hash(record)
    inputs, output = ("0", "1"), "1"
    assert hash(Event(inputs, output)) == hash((inputs, output))


@pytest.mark.parametrize(
    "cls, args",
    [
        (Event, (("0",), "a b")),
        (Event, ((), "1")),
        (Event, (["0"], "1")),
        (Event, (("0", ""), "1")),
        (Event, (("0", "x y"), 5)),
        (Event, (("0",), 5)),
        (Witness, (Mode.MONOLITHIC, 1, 1)),
        (Witness, (Mode.MONOLITHIC, -1, 0)),
        (Witness, (Mode.MONOLITHIC, 0, 1, 0)),
        (Witness, (Mode.STRONG_DISTRIBUTED, 0, 1)),
        (Witness, (Mode.STRONG_DISTRIBUTED, 2, 1)),
    ],
)
def test_record_checks_raise_as_the_dataclass_checks(cls, args):
    twin = RECORDS[cls][0]
    with pytest.raises(ValueError) as ours:
        cls(*args)
    with pytest.raises(ValueError) as theirs:
        twin(*args)
    assert str(ours.value) == str(theirs.value)


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    result, modules = loaded_after("import minimon.cli")
    assert result.returncode == 0, result.stderr
    assert modules & {"dataclasses", "inspect"} == set()


@pytest.fixture
def pre(tmp_path):
    path = tmp_path / "pre.jsonl"
    path.write_text("".join(
        f'{{"from":["{a}","{b}"],"to":["{a}","{b}"]}}\n' for a in "01" for b in "01"
    ))
    return str(path)


_EXEC = "exec:" + shlex.join(mod_worker(1000, 10))


# The modules of the `exec:` handle, of the bundled `builtin:` programs, and
# of stepping a monitor.
_EXEC_MODULES = {"minimon.command", "subprocess", "select"}
_EXAMPLES = {"minimon.examples"}
_STEPPING = {"minimon.tester", "minimon.monitor", "random"}
_NOT_PROGRAMS = _EXEC_MODULES | _EXAMPLES

# Each command, the modules it must load, and those it must not: a command
# loads the modules whose code it runs.
_COMMANDS = {
    "check-trace": (
        ["check-trace", "--trace", "{trace}", "--domain", "{domain}", "--mode", "sdist"],
        set(), _NOT_PROGRAMS,
    ),
    "monitor": (
        ["monitor", "--program", "builtin:xor", "--domain", "{domain}", "--mode", "mono",
         "--random", "--max-steps", "2"],
        _EXAMPLES, _EXEC_MODULES,
    ),
    "monitor-table-pre": (
        ["monitor", "--program", "table:{table}", "--domain", "{domain}", "--mode", "sdist",
         "--random", "--max-steps", "2", "--pre", "{pre}"],
        set(), _NOT_PROGRAMS,
    ),
    "monitor-exec-pre": (
        ["monitor", "--program", _EXEC, "--domain", "{domain}", "--mode", "mono",
         "--random", "--max-steps", "2", "--pre", "{pre}"],
        _EXEC_MODULES, _EXAMPLES,
    ),
    "test": (
        ["test", "--program", "builtin:xor", "--domain", "{domain}", "--mode", "mono"],
        _EXAMPLES, _EXEC_MODULES,
    ),
    "test-table": (
        ["test", "--program", "table:{table}", "--domain", "{domain}", "--mode", "sdist"],
        set(), _NOT_PROGRAMS,
    ),
    "test-exec-pre": (
        ["test", "--program", _EXEC, "--domain", "{domain}", "--mode", "sdist", "--pre", "{pre}"],
        _EXEC_MODULES, _EXAMPLES,
    ),
    "synth-min": (
        ["synth-min", "--program", _EXEC, "--domain", "{domain}", "--out", "{out}"],
        _EXEC_MODULES, _EXAMPLES | _STEPPING | {"minimon.properties"},
    ),
    "synth-min-builtin": (
        ["synth-min", "--program", "builtin:xor", "--domain", "{domain}", "--out", "{out}"],
        _EXAMPLES, _EXEC_MODULES | _STEPPING | {"minimon.properties"},
    ),
    # Only a random choice of representatives loads `random`.
    "synth-min-rand": (
        ["synth-min", "--program", "builtin:xor", "--domain", "{domain}", "--out", "{out}",
         "--rep", "rand:5"],
        _EXAMPLES | {"random"}, _EXEC_MODULES | _STEPPING - {"random"} | {"minimon.properties"},
    ),
    "check-pre": (
        ["check-pre", "--program", _EXEC, "--domain", "{domain}", "--pre", "{pre}", "--json"],
        _EXEC_MODULES, _EXAMPLES | _STEPPING | {"minimon.properties"},
    ),
    "check-pre-builtin": (
        ["check-pre", "--program", "builtin:xor", "--domain", "{domain}", "--pre", "{pre}"],
        _EXAMPLES, _EXEC_MODULES | _STEPPING | {"minimon.properties"},
    ),
    "check-pre-table": (
        ["check-pre", "--program", "table:{table}", "--domain", "{domain}", "--pre", "{pre}"],
        set(), _NOT_PROGRAMS | _STEPPING | {"minimon.properties"},
    ),
    "oracle": (
        ["oracle", "--table", "{table}", "--notion", "dist"],
        {"minimon.tester"}, _NOT_PROGRAMS | {"random", "minimon.monitor"},
    ),
    "oracle-mono": (
        ["oracle", "--table", "{table}", "--notion", "mono"],
        {"minimon.tester"}, _NOT_PROGRAMS | {"random", "minimon.monitor"},
    ),
    "oracle-sdist": (
        ["oracle", "--table", "{table}", "--notion", "sdist"],
        {"minimon.tester"}, _NOT_PROGRAMS | {"random", "minimon.monitor"},
    ),
}


@pytest.mark.parametrize("args, loads, skips", _COMMANDS.values(), ids=_COMMANDS)
def test_no_command_loads_dataclasses_or_inspect(inputs, pre, tmp_path, args, loads, skips):
    """Each command loads the modules it runs and none that it was pinned
    not to. None loads the stdlib modules that generating dataclass methods
    needs, nor argparse, which reads only the command lines that `cli._read`
    leaves to it."""
    paths = {**inputs, "pre": pre, "out": str(tmp_path / "out.jsonl")}
    result, modules = run_cli_bare(*(arg.format(**paths) for arg in args))
    assert result.returncode in (0, 1, 2), result.stderr
    assert result.stdout
    assert loads <= modules
    assert modules & (skips | {"dataclasses", "inspect", "argparse"}) == set()


def _readme_module_table() -> dict[str, set[str]]:
    """README's "Library" table: each subcommand, and the minimon modules
    that its "Also loads" cell names in backticks (options and standard
    library modules left out)."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text("utf-8")
    rows = text[text.index("| Subcommand | Also loads |"):].split("\n\n")[0].splitlines()[2:]
    table = {}
    for row in rows:
        _, subcommand, loads, _ = row.split("|")
        table[subcommand.strip(" `")] = {
            name for name in re.findall(r"`([^`]+)`", loads)
            if name.isidentifier() and name not in sys.stdlib_module_names
        }
    return table


_README_TABLE = _readme_module_table()
# The _COMMANDS entry that runs each subcommand of README's table with a
# builtin: program, or with none.
_README_RUNS = {
    "check-trace": "check-trace", "monitor": "monitor", "test": "test",
    "synth-min": "synth-min-builtin", "check-pre": "check-pre-builtin", "oracle": "oracle-mono",
}


@pytest.mark.parametrize("subcommand, named", _README_TABLE.items(), ids=_README_TABLE)
def test_readme_names_the_modules_each_subcommand_loads(inputs, pre, tmp_path, subcommand, named):
    """Beyond cli, errors and trace, which every subcommand loads, and
    examples, which builtin: adds, a subcommand loads exactly the minimon
    modules that README's table names for it."""
    paths = {**inputs, "pre": pre, "out": str(tmp_path / "out.jsonl")}
    args = _COMMANDS[_README_RUNS[subcommand]][0]
    result, modules = run_cli_bare(*(arg.format(**paths) for arg in args))
    assert result.returncode in (0, 1, 2), result.stderr
    loaded = {name[len("minimon."):] for name in modules if name.startswith("minimon.")}
    assert loaded - {"cli", "errors", "trace", "examples"} == named


@pytest.mark.parametrize(
    "tail", [["--mode", "sdist", "--seed", "-1"], ["--mode=sdist", "--seed", "1"]],
    ids=["negative", "equals"],
)
def test_a_command_line_left_to_argparse_loads_it_and_runs_the_same(inputs, tail):
    """argparse reads a `--seed -1` or an `--opt=value` command line: that
    command loads argparse, and prints what the form read without it
    prints."""
    argv = ["test", "--program", "builtin:xor", "--domain", inputs["domain"], "--strategy", "lex"]
    read, read_modules = run_cli_bare(*argv, "--mode", "sdist", "--seed", "1")
    parsed, parsed_modules = run_cli_bare(*argv, *tail)
    assert (parsed.returncode, parsed.stdout) == (read.returncode, read.stdout) == (0, "TRUE\nsteps: 4 of 4\n")
    assert "argparse" in parsed_modules - read_modules


def test_command_program_is_defined_in_the_exec_module():
    import minimon.command

    assert minimon.CommandProgram is minimon.command.CommandProgram
