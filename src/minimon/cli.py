"""Command-line surface for traces, monitors, testing, oracles, and synthesis.

Exit codes mirror verdicts so CI scripts can branch: 0 = TRUE, 1 = FALSE,
2 = UNKNOWN, 3 = usage or runtime error.

Only what every command runs (the errors and the trace readers) is imported
at module level. Each command imports the rest of what it runs itself, so
each pays start-up only for the modules whose code it runs: only `exec:`
program specs load `command`, `synth-min` and `check-pre` load no `monitor`,
and only a command line that `_read` leaves to argparse loads `argparse`.
"""

from __future__ import annotations

import itertools
import json
import sys
from functools import partial
from types import SimpleNamespace

from .errors import MinimonError
from .trace import (
    InputDomain,
    file_lines,
    iter_io_lines,
    load_domain,
    parse_input_lines,
    record_line,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3

# The exit code of each verdict, by its text.
_EXIT_BY_VERDICT = {"TRUE": EXIT_TRUE, "FALSE": EXIT_FALSE, "UNKNOWN": EXIT_UNKNOWN}
# monitor: step lines per write off a terminal.
_LINES_PER_WRITE = 64
# --mode: the name of the `properties.Mode` member for each.
_MODES = {"mono": "MONOLITHIC", "sdist": "STRONG_DISTRIBUTED"}
# test --strategy: the name of the `tester` constant for each.
_STRATEGIES = {"rand": "RANDOM_PERMUTATION", "lex": "LEXICOGRAPHIC"}


def _pair_text(witness) -> str:
    """A table oracle's collision witness line; sdist's names the source."""
    text = (
        f"witness: inputs {'/'.join(witness.input_a)} and "
        f"{'/'.join(witness.input_b)} share an output"
    )
    if witness.differing_source is None:
        return text
    return f"{text}, differing source {witness.differing_source}"


def _indistinguishable_text(pair) -> str:
    return (
        f"witness: source {pair.source} values {pair.value_a} and "
        f"{pair.value_b} are indistinguishable in every context"
    )


# oracle --notion: (name of the `tester` checker, witness line), in the
# usage's order.
_ORACLES = {
    "mono": ("table_mono_minimal", _pair_text),
    "sdist": ("table_strong_dist_minimal", _pair_text),
    "dist": ("table_dist_minimal", _indistinguishable_text),
}


def _mode(args):
    """The `properties.Mode` that `--mode` names."""
    from .properties import Mode

    return Mode[_MODES[args.mode]]


def _build_program(spec: str, arity: int):
    from .programs import TableProgram, make_builtin

    if spec.startswith("builtin:"):
        return make_builtin(spec[len("builtin:"):])
    if spec.startswith("table:"):
        return TableProgram.load(spec[len("table:"):])
    if spec.startswith("exec:"):
        import shlex

        from .command import CommandProgram

        argv = shlex.split(spec[len("exec:"):])
        if not argv:
            raise MinimonError("exec: program spec has an empty command line")
        return CommandProgram(argv, arity=arity)
    raise MinimonError(
        f"unknown program spec {spec!r}; expected builtin:<name>, table:<file>, "
        "or exec:<argv>"
    )


def _load_composed(args, arity: int):
    program = _build_program(args.program, arity)
    pre = getattr(args, "pre", None)
    if pre:
        from .minimiser import compose, load_minimiser

        program = compose(program, load_minimiser(pre))
    return program


def _witness_text(witness, records=None) -> str:
    """One witness line; `records` gives the (inputs, output) pairs at the
    two witness positions, when the caller has them."""
    parts = [f"witness: events {witness.index_a} and {witness.index_b}"]
    if records is not None:
        (inputs_a, _), (inputs_b, output) = records
        parts.append(f"inputs {'/'.join(inputs_a)} and {'/'.join(inputs_b)}")
        parts.append(f"shared output {output}")
    if witness.differing_source is not None:
        parts.append(f"differing source {witness.differing_source}")
    return ", ".join(parts)


def cmd_check_trace(args) -> int:
    # The trace is streamed: the reader checks each record once and notes
    # only the blank lines it skips, and the monitor's record is the
    # determinism record, so a conflict names both file lines.
    from operator import countOf

    from .monitor import Monitor, MonitorConfig
    from .properties import Verdict

    mode = _mode(args)
    with open(args.trace, "r", encoding="utf-8") as fh:
        domain = load_domain(args.domain) if args.domain else None
        monitor = Monitor(MonitorConfig(mode, domain))
        blanks: list[int] = []
        records = iter_io_lines(file_lines(fh), blanks)
        unknown = countOf(monitor.steps(records, partial(record_line, blanks)), Verdict.UNKNOWN)
    final = monitor.verdict
    witness = monitor.witness
    if args.json:
        events = monitor.events_seen
        out = sys.stdout
        out.write(json.dumps({
            "command": "check-trace",
            "mode": mode.value,
            "events": events,
            "verdict": final.value,
            "witness": witness.to_dict() if witness else None,
        })[:-1] + ', "prefix_verdicts": [')
        # Verdicts latch: UNKNOWN until the step where the verdict concluded.
        # The array is written as json.dumps would, 4,096 items at a time.
        sep = ""
        for value, count in (("UNKNOWN", unknown), (final.value, events - unknown)):
            for left in range(count, 0, -4096):
                out.write(sep + ", ".join([f'"{value}"'] * min(left, 4096)))
                sep = ", "
        out.write("]}\n")
    else:
        print(final.value)
        if witness is not None:
            records = monitor.first_occurrences([witness.index_a, witness.index_b])
            print(_witness_text(witness, records))
    return _EXIT_BY_VERDICT[final.value]


def _random_inputs(domain: InputDomain, seed: int):
    import random

    rnd = random.Random(seed)
    while True:
        yield tuple(rnd.choice(src) for src in domain.sources)


def _write_lines(out, lines: list[str]) -> None:
    """Write `lines`, each ending in a newline, with one write, and clear
    the list first, so that no line is handed to `out` twice."""
    batch = lines[:]
    lines.clear()
    try:
        out.write("".join(batch))
    except UnicodeEncodeError:
        # The encoder failed before anything was written. Line by line, the
        # lines before the one that cannot be encoded are written and the
        # error gives the position in that line, as one print per line did.
        for line in batch:
            out.write(line)


def cmd_monitor(args) -> int:
    from .monitor import Monitor, MonitorConfig
    from .properties import Verdict

    domain = load_domain(args.domain) if args.domain else None
    if args.inputs is not None:
        with open(args.inputs, "r", encoding="utf-8") as fh:
            inputs = parse_input_lines(fh.read())
        if not inputs:
            raise MinimonError(f"inputs file {args.inputs!r} has no input lines")
        stream = iter(inputs)
        arity = domain.arity if domain else len(inputs[0])
    else:
        if domain is None:
            raise MinimonError("--random requires --domain")
        stream = _random_inputs(domain, args.seed)
        arity = domain.arity
    program = _load_composed(args, arity)
    monitor = Monitor(MonitorConfig(_mode(args), domain))
    # One step line per input, nearly all UNKNOWN: off a terminal they are
    # written _LINES_PER_WRITE at a time, as one print each would cost two
    # write(2) calls when stdout is unbuffered. On a terminal each line is
    # written as its step completes. The finally writes the completed steps'
    # lines before an error reaches main, and before the witness line.
    out = sys.stdout
    per_write = 1 if out.isatty() else _LINES_PER_WRITE
    pending: list[str] = []
    with program:
        pairs = program.pairs(itertools.islice(stream, max(args.max_steps, 0)))
        printed, stepped = itertools.tee(pairs)  # each pair's line, and its step
        steps = zip(printed, monitor.steps(stepped))
        try:
            for step_no, ((observed, output), verdict) in enumerate(steps, start=1):
                if verdict is not Verdict.UNKNOWN:
                    pending.append(f"{step_no}\t{','.join(observed)}\t{output}\t{verdict.value}\n")
                    break
                pending.append(f"{step_no}\t{','.join(observed)}\t{output}\tUNKNOWN\n")
                if len(pending) == per_write:
                    _write_lines(out, pending)
        finally:
            if pending:
                _write_lines(out, pending)
    if monitor.witness is not None:
        print(_witness_text(monitor.witness))
    return _EXIT_BY_VERDICT[monitor.verdict.value]


def cmd_test(args) -> int:
    from . import tester

    domain = load_domain(args.domain)
    program = _load_composed(args, domain.arity)
    mode = _mode(args)
    strategy = getattr(tester, _STRATEGIES[args.strategy])
    with program:
        report = tester.run_test(program, domain, mode, strategy=strategy, seed=args.seed)
    if args.json:
        out = report.to_dict()
        out["command"] = "test"
        out["mode"] = mode.value
        out["domain_size"] = domain.size
        print(json.dumps(out))
    else:
        print(report.verdict.value)
        print(f"steps: {report.steps} of {domain.size}")
        if report.witness is not None:
            w = report.witness
            events = (report.trace[w.index_a], report.trace[w.index_b])
            print(_witness_text(w, [(e.inputs, e.output) for e in events]))
    return _EXIT_BY_VERDICT[report.verdict.value]


def cmd_synth_min(args) -> int:
    import time

    from .minimiser import save_minimiser, synthesize

    domain = load_domain(args.domain)
    program = _load_composed(args, domain.arity)
    with program:
        start = time.perf_counter()
        table, partition = synthesize(program, domain, rep_strategy=args.rep)
        elapsed = time.perf_counter() - start
    save_minimiser(table, args.out)
    print(f"{partition.count} partitions ({elapsed:.3f} s)")
    print(f"wrote {args.out}")
    return EXIT_TRUE


def cmd_check_pre(args) -> int:
    from .minimiser import load_minimiser, validate_preprocessor

    domain = load_domain(args.domain)
    program = _build_program(args.program, domain.arity)
    table = load_minimiser(args.pre)
    with program:
        report = validate_preprocessor(program, domain, table)
    if args.json:
        out = report.to_dict()
        out["command"] = "check-pre"
        print(json.dumps(out))
    else:
        print(f"preprocessor: {'yes' if report.is_preprocessor else 'no'}")
        print(f"minimiser: {'yes' if report.is_minimiser else 'no'}")
        for failure in report.failures[:10]:
            print(f"  {failure.kind}: {failure.note}")
        if len(report.failures) > 10:
            print(f"  ... and {len(report.failures) - 10} more")
    return EXIT_TRUE if report.is_minimiser else EXIT_FALSE


def cmd_oracle(args) -> int:
    from . import tester
    from .programs import TableProgram

    table_program = TableProgram.load(args.table)
    domain = table_program.infer_domain()
    check, describe = _ORACLES[args.notion]
    ok, witness = getattr(tester, check)(tester.FunctionTable(domain, table_program.mapping))
    print("minimal" if ok else "non-minimal")
    if witness is not None:
        print(describe(witness))
    return EXIT_TRUE if ok else EXIT_FALSE


_MODE = dict(choices=sorted(_MODES), required=True)
_REQUIRED = dict(required=True)
_SEED = dict(type=int, default=0)
_PRE = dict(help="minimiser table file to compose in front of the program")
_FLAG = dict(action="store_true")
# Each subcommand's handler, help, and options in usage order, with their
# add_argument keywords: what `_make_parser` and `_read` read.
_SUBCOMMANDS = {
    "check-trace": (cmd_check_trace, "verdict for a recorded trace file", {
        "--trace": dict(required=True, help="JSONL trace file"),
        "--mode": _MODE,
        "--domain": dict(help="JSON domain file (enables TRUE verdicts)"),
        "--json": dict(action="store_true", help="machine-readable report"),
    }),
    "monitor": (cmd_monitor, "monitor a program online, streaming verdicts", {
        "--program": dict(required=True, help="builtin:<name>, table:<file>, or exec:<argv>"),
        "--mode": _MODE,
        "--domain": dict(help="JSON domain file"),
        "--inputs": dict(help="JSONL input file to replay"),
        "--random": dict(action="store_true", help="sample inputs uniformly from the domain"),
        "--seed": _SEED,
        "--max-steps": dict(type=int, default=10**5),
        "--pre": _PRE,
    }),
    "test": (cmd_test, "probe the whole domain until a conclusive verdict", {
        "--program": _REQUIRED,
        "--domain": _REQUIRED,
        "--mode": _MODE,
        "--strategy": dict(choices=sorted(_STRATEGIES), default="rand"),
        "--seed": _SEED,
        "--pre": _PRE,
        "--json": _FLAG,
    }),
    "synth-min": (cmd_synth_min, "synthesise a minimiser table by output partitioning", {
        "--program": _REQUIRED,
        "--domain": _REQUIRED,
        "--out": dict(required=True, help="output minimiser table file (JSONL)"),
        "--rep": dict(default="least", help="representative choice: least, first, or rand:SEED"),
    }),
    "check-pre": (cmd_check_pre, "validate a pre-processor table against a program", {
        "--program": _REQUIRED,
        "--domain": _REQUIRED,
        "--pre": dict(required=True, help="candidate table file (JSONL from/to lines)"),
        "--json": _FLAG,
    }),
    "oracle": (cmd_oracle, "exhaustive minimality check of a full function table", {
        "--table": dict(required=True, help="JSONL function table file"),
        "--notion": dict(choices=_ORACLES, required=True),
    }),
}
# The required one-of group, of `monitor`.
_ONE_OF = {"--inputs", "--random"}


def _make_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with status 2 on usage errors, which would collide
        # with the UNKNOWN exit code; remap to 3
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_ERROR)

    parser = _Parser(
        prog="minimon",
        description="Verify data minimisation of black-box programs from "
        "input-output traces: offline checks, online monitoring, "
        "pre-deployment testing, and input-minimiser synthesis.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, text, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        group = p.add_mutually_exclusive_group(required=True) if _ONE_OF <= options.keys() else p
        for option, keywords in options.items():
            (group if option in _ONE_OF else p).add_argument(option, **keywords)
        p.set_defaults(func=func)
    return parser


def _read(argv: list[str]):
    """`_make_parser().parse_args(argv)`, if `argv` is a subcommand and then
    each of its options once by full name, each but a flag followed by a
    value that does not start with `-`; otherwise None, for argparse."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    func, _, options = _SUBCOMMANDS[argv[0]]
    given = {}
    words = iter(argv[1:])
    for word in words:
        keywords = options.get(word)
        if keywords is None or word in given:
            return None
        value = True
        if "action" not in keywords:  # not a flag
            value = next(words, "-")  # a missing value reads as an option
            if value[:1] == "-":
                return None
            try:
                value = keywords.get("type", str)(value)
            except ValueError:
                return None
            if value not in keywords.get("choices", [value]):
                return None
        given[word] = value
    if any(keywords.get("required") and option not in given for option, keywords in options.items()):
        return None
    if _ONE_OF <= options.keys() and len(_ONE_OF & given.keys()) != 1:
        return None
    args = SimpleNamespace(subcommand=argv[0], func=func)
    for option, keywords in options.items():
        default = keywords.get("default", False if "action" in keywords else None)
        setattr(args, option[2:].replace("-", "_"), given.get(option, default))
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or _make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MinimonError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:  # exit 1 would read as FALSE
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    import gc

    from .__main__ import hard_exit

    gc.disable()  # as `minimon.__main__.run` does, for the same reason
    hard_exit(main())
