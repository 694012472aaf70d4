"""Command-line surface for traces, monitors, testing, oracles, and synthesis.

Exit codes mirror verdicts so CI scripts can branch: 0 = TRUE, 1 = FALSE,
2 = UNKNOWN, 3 = usage or runtime error.

Only what check-trace runs is imported at module level. Every other command
imports the rest of what it runs itself, so each pays start-up only for that.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .errors import MinimonError
from .monitor import Monitor, MonitorConfig, Verdict
from .properties import Mode, Witness
from .trace import (
    InputDomain,
    file_lines,
    io_records,
    load_domain,
    parse_input_lines,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3

_EXIT_BY_VERDICT = {Verdict.TRUE: EXIT_TRUE, Verdict.FALSE: EXIT_FALSE, Verdict.UNKNOWN: EXIT_UNKNOWN}
# Verdict.value is a descriptor lookup; monitor prints the text on every step.
_TEXT_BY_VERDICT = {verdict: verdict.value for verdict in Verdict}
_MODES = {"mono": Mode.MONOLITHIC, "sdist": Mode.STRONG_DISTRIBUTED}
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


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which would collide with
    # the UNKNOWN exit code; remap to 3
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _build_program(spec: str, arity: int):
    from .programs import CommandProgram, TableProgram, make_builtin

    if spec.startswith("builtin:"):
        return make_builtin(spec[len("builtin:"):])
    if spec.startswith("table:"):
        return TableProgram.load(spec[len("table:"):])
    if spec.startswith("exec:"):
        import shlex

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


def _witness_text(witness: Witness, records=None) -> str:
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
    # The trace is streamed: the reader checks each record once and records
    # it in the monitor's own record, so a conflict names both file lines.
    mode = _MODES[args.mode]
    with open(args.trace, "r", encoding="utf-8") as fh:
        domain = load_domain(args.domain) if args.domain else None
        monitor = Monitor(MonitorConfig(mode, domain))
        records = io_records(file_lines(fh), monitor.first_seen)
        verdicts = list(itertools.starmap(monitor.step_io, records))
    final = monitor.verdict
    witness = monitor.witness
    if args.json:
        print(json.dumps({
            "command": "check-trace",
            "mode": mode.value,
            "events": len(verdicts),
            "verdict": final.value,
            "witness": witness.to_dict() if witness else None,
            "prefix_verdicts": [v.value for v in verdicts],
        }))
    else:
        print(final.value)
        if witness is not None:
            records = monitor.first_occurrences([witness.index_a, witness.index_b])
            print(_witness_text(witness, records))
    return _EXIT_BY_VERDICT[final]


def _random_inputs(domain: InputDomain, seed: int):
    import random

    rnd = random.Random(seed)
    while True:
        yield tuple(rnd.choice(src) for src in domain.sources)


def cmd_monitor(args) -> int:
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
    monitor = Monitor(MonitorConfig(_MODES[args.mode], domain))
    with program:
        pairs = program.pairs(itertools.islice(stream, max(args.max_steps, 0)))
        for step_no, (observed, output) in enumerate(pairs, start=1):
            verdict = monitor.step_io(observed, output)
            print(f"{step_no}\t{','.join(observed)}\t{output}\t{_TEXT_BY_VERDICT[verdict]}")
            if verdict is not Verdict.UNKNOWN:
                break
    if monitor.witness is not None:
        print(_witness_text(monitor.witness))
    return _EXIT_BY_VERDICT[monitor.verdict]


def cmd_test(args) -> int:
    from . import tester

    domain = load_domain(args.domain)
    program = _load_composed(args, domain.arity)
    mode = _MODES[args.mode]
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
    return _EXIT_BY_VERDICT[report.verdict]


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


def _make_parser() -> _Parser:
    parser = _Parser(
        prog="minimon",
        description="Verify data minimisation of black-box programs from "
        "input-output traces: offline checks, online monitoring, "
        "pre-deployment testing, and input-minimiser synthesis.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check-trace", help="verdict for a recorded trace file")
    p.add_argument("--trace", required=True, help="JSONL trace file")
    p.add_argument("--mode", choices=sorted(_MODES), required=True)
    p.add_argument("--domain", help="JSON domain file (enables TRUE verdicts)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_check_trace)

    p = sub.add_parser("monitor", help="monitor a program online, streaming verdicts")
    p.add_argument("--program", required=True, help="builtin:<name>, table:<file>, or exec:<argv>")
    p.add_argument("--mode", choices=sorted(_MODES), required=True)
    p.add_argument("--domain", help="JSON domain file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--inputs", help="JSONL input file to replay")
    src.add_argument("--random", action="store_true", help="sample inputs uniformly from the domain")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=10**5)
    p.add_argument("--pre", help="minimiser table file to compose in front of the program")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("test", help="probe the whole domain until a conclusive verdict")
    p.add_argument("--program", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--mode", choices=sorted(_MODES), required=True)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="rand")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pre", help="minimiser table file to compose in front of the program")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("synth-min", help="synthesise a minimiser table by output partitioning")
    p.add_argument("--program", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--out", required=True, help="output minimiser table file (JSONL)")
    p.add_argument("--rep", default="least", help="representative choice: least, first, or rand:SEED")
    p.set_defaults(func=cmd_synth_min)

    p = sub.add_parser("check-pre", help="validate a pre-processor table against a program")
    p.add_argument("--program", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--pre", required=True, help="candidate table file (JSONL from/to lines)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_pre)

    p = sub.add_parser("oracle", help="exhaustive minimality check of a full function table")
    p.add_argument("--table", required=True, help="JSONL function table file")
    p.add_argument("--notion", choices=_ORACLES, required=True)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MinimonError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
