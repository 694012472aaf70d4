"""Command-line surface for traces, monitors, testing, oracles, and synthesis.

Exit codes mirror verdicts so CI scripts can branch: 0 = TRUE, 1 = FALSE,
2 = UNKNOWN, 3 = usage or runtime error.
"""

from __future__ import annotations

import argparse
import json
import random
import shlex
import sys
import time

from .errors import MinimonError
from .minimiser import (
    compose,
    load_minimiser,
    save_minimiser,
    synthesize,
    validate_preprocessor,
)
from .monitor import Monitor, MonitorConfig, Verdict
from .programs import CommandProgram, Program, TableProgram, make_builtin
from .properties import Mode, Witness
from .tester import (
    LEXICOGRAPHIC,
    RANDOM_PERMUTATION,
    FunctionTable,
    table_dist_minimal,
    table_mono_minimal,
    table_strong_dist_minimal,
    run_test,
)
from .trace import (
    InputDomain,
    Trace,
    load_domain,
    load_trace,
    parse_input_lines,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3

_EXIT_BY_VERDICT = {Verdict.TRUE: EXIT_TRUE, Verdict.FALSE: EXIT_FALSE, Verdict.UNKNOWN: EXIT_UNKNOWN}
_MODES = {"mono": Mode.MONOLITHIC, "sdist": Mode.STRONG_DISTRIBUTED}
_STRATEGIES = {"rand": RANDOM_PERMUTATION, "lex": LEXICOGRAPHIC}
_NOTIONS = ("mono", "sdist", "dist")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which would collide with
    # the UNKNOWN exit code; remap to 3
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _build_program(spec: str, arity: int) -> Program:
    if spec.startswith("builtin:"):
        return make_builtin(spec[len("builtin:"):])
    if spec.startswith("table:"):
        return TableProgram.load(spec[len("table:"):])
    if spec.startswith("exec:"):
        argv = shlex.split(spec[len("exec:"):])
        if not argv:
            raise MinimonError("exec: program spec has an empty command line")
        return CommandProgram(argv, arity=arity)
    raise MinimonError(
        f"unknown program spec {spec!r}; expected builtin:<name>, table:<file>, "
        "or exec:<argv>"
    )


def _load_composed(args, arity: int) -> Program:
    program = _build_program(args.program, arity)
    pre = getattr(args, "pre", None)
    if pre:
        program = compose(program, load_minimiser(pre))
    return program


def _witness_text(witness: Witness, trace: Trace | None = None) -> str:
    a, b = witness.index_a, witness.index_b
    parts = [f"witness: events {a} and {b}"]
    if trace is not None and b < len(trace):
        ea, eb = trace[a], trace[b]
        parts.append(f"inputs {'/'.join(ea.inputs)} and {'/'.join(eb.inputs)}")
        parts.append(f"shared output {eb.output}")
    if witness.differing_source is not None:
        parts.append(f"differing source {witness.differing_source}")
    return ", ".join(parts)


def cmd_check_trace(args) -> int:
    trace = load_trace(args.trace)
    domain = load_domain(args.domain) if args.domain else None
    mode = _MODES[args.mode]
    monitor = Monitor(MonitorConfig(mode, domain))
    verdicts = [monitor.step(event) for event in trace]
    final = verdicts[-1] if verdicts else Verdict.UNKNOWN
    if args.json:
        print(json.dumps({
            "command": "check-trace",
            "mode": mode.value,
            "events": len(trace),
            "verdict": final.value,
            "witness": monitor.witness.to_dict() if monitor.witness else None,
            "prefix_verdicts": [v.value for v in verdicts],
        }))
    else:
        print(final.value)
        if monitor.witness is not None:
            print(_witness_text(monitor.witness, trace))
    return _EXIT_BY_VERDICT[final]


def _random_inputs(domain: InputDomain, seed: int):
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
    try:
        for step_no, raw in enumerate(stream, start=1):
            if step_no > args.max_steps:
                break
            event = program.observe(raw)
            verdict = monitor.step(event)
            print(f"{step_no}\t{','.join(event.inputs)}\t{event.output}\t{verdict.value}")
            if verdict.conclusive:
                break
    finally:
        program.close()
    if monitor.witness is not None:
        print(_witness_text(monitor.witness))
    return _EXIT_BY_VERDICT[monitor.verdict]


def cmd_test(args) -> int:
    domain = load_domain(args.domain)
    program = _load_composed(args, domain.arity)
    mode = _MODES[args.mode]
    try:
        report = run_test(
            program, domain, mode, strategy=_STRATEGIES[args.strategy], seed=args.seed
        )
    finally:
        program.close()
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
            print(_witness_text(report.witness, report.trace))
    return _EXIT_BY_VERDICT[report.verdict]


def cmd_synth_min(args) -> int:
    domain = load_domain(args.domain)
    program = _load_composed(args, domain.arity)
    try:
        start = time.perf_counter()
        table, partition = synthesize(program, domain, rep_strategy=args.rep)
        elapsed = time.perf_counter() - start
    finally:
        program.close()
    save_minimiser(table, args.out)
    print(f"{partition.count} partitions ({elapsed:.3f} s)")
    print(f"wrote {args.out}")
    return EXIT_TRUE


def cmd_check_pre(args) -> int:
    domain = load_domain(args.domain)
    program = _build_program(args.program, domain.arity)
    table = load_minimiser(args.pre)
    try:
        report = validate_preprocessor(program, domain, table)
    finally:
        program.close()
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
    table_program = TableProgram.load(args.table)
    domain = table_program.infer_domain()
    table = FunctionTable(domain, table_program.mapping)
    if args.notion == "mono":
        ok, witness = table_mono_minimal(table)
        detail = (
            f"witness: inputs {'/'.join(witness.input_a)} and "
            f"{'/'.join(witness.input_b)} share an output"
            if witness else None
        )
    elif args.notion == "sdist":
        ok, witness = table_strong_dist_minimal(table)
        detail = (
            f"witness: inputs {'/'.join(witness.input_a)} and "
            f"{'/'.join(witness.input_b)} share an output, "
            f"differing source {witness.differing_source}"
            if witness else None
        )
    else:
        ok, pair = table_dist_minimal(table)
        detail = (
            f"witness: source {pair.source} values {pair.value_a} and "
            f"{pair.value_b} are indistinguishable in every context"
            if pair else None
        )
    print("minimal" if ok else "non-minimal")
    if detail:
        print(detail)
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
    p.add_argument("--notion", choices=_NOTIONS, required=True)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MinimonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
