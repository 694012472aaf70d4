"""The package's import surface: public names resolve lazily, and each
command loads only the modules it runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import minimon

PUBLIC_NAMES = [
    "BudgetExceeded", "BuiltinProgram", "CollisionWitness", "CommandProgram",
    "ComposedProgram", "DeterminismViolation", "DomainMismatch", "Event",
    "FunctionTable", "IndistinguishablePair", "InputDomain",
    "InputOutsideDomain", "MinimiserTable", "MinimonError", "Mode", "Monitor",
    "MonitorConfig", "ParseError", "PartitionMap", "Program", "ProgramFailure",
    "TableProgram", "TestReport", "Trace", "UnknownBuiltin", "ValidationReport",
    "Verdict", "Witness", "build_table", "compose", "covers_domain",
    "find_witness", "is_mono_minimal", "is_strong_dist_minimal", "load_domain",
    "load_minimiser", "load_trace", "make_builtin", "mono_witness",
    "monitor_eval", "parse_trace", "prefix_verdicts", "run_test",
    "save_minimiser", "serialize_trace", "single_diff_source",
    "strong_dist_witness", "synthesize", "table_dist_minimal",
    "table_mono_minimal", "table_strong_dist_minimal", "validate_preprocessor",
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
