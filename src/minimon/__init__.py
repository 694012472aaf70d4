"""Runtime verification of data minimisation for deterministic black-box
programs: trace-level property checks, incremental three-valued monitors,
whole-domain pre-deployment testing, and input-minimiser synthesis.

`import minimon` imports no submodule: each public name loads its module on
first use, so a command pays start-up only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it, in __all__'s order.
_ORIGIN = {
    "BudgetExceeded": "errors",
    "BuiltinProgram": "programs",
    "CollisionWitness": "tester",
    "CommandProgram": "command",
    "ComposedProgram": "minimiser",
    "DeterminismViolation": "errors",
    "DomainMismatch": "errors",
    "Event": "trace",
    "FunctionTable": "tester",
    "IndistinguishablePair": "tester",
    "InputDomain": "trace",
    "InputOutsideDomain": "errors",
    "MinimiserTable": "minimiser",
    "MinimonError": "errors",
    "Mode": "properties",
    "Monitor": "monitor",
    "MonitorConfig": "monitor",
    "ParseError": "errors",
    "PartitionMap": "minimiser",
    "Program": "programs",
    "ProgramFailure": "errors",
    "TableProgram": "programs",
    "TestReport": "tester",
    "Trace": "trace",
    "UnknownBuiltin": "errors",
    "ValidationReport": "minimiser",
    "Verdict": "properties",
    "Witness": "properties",
    "compose": "minimiser",
    "find_witness": "properties",
    "load_domain": "trace",
    "load_minimiser": "minimiser",
    "load_trace": "trace",
    "make_builtin": "programs",
    "monitor_eval": "monitor",
    "parse_trace": "trace",
    "prefix_verdicts": "monitor",
    "run_test": "tester",
    "save_minimiser": "minimiser",
    "serialize_trace": "trace",
    "synthesize": "minimiser",
    "table_dist_minimal": "tester",
    "table_mono_minimal": "tester",
    "table_strong_dist_minimal": "tester",
    "validate_preprocessor": "minimiser",
}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    """Import the submodule that defines public `name` and keep the name
    here, so later lookups find it without this call."""
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
