"""In-process replay of a workload's commands through minimon's public
functions, with a span around every layer call.

    python3 bench/replay.py PLAN SECONDS SPANS_OUT RESULT_OUT

Replays each command of PLAN (written by gen.py) the way `minimon.cli` runs
it, once with spans on and once with spans off, alternating which goes
first, until SECONDS have passed. A span has a name, start, end and parent;
spans live in memory and the last traced replay's are written to SPANS_OUT
as TSV. Program handles passed into `run_test`, `synthesize` and
`validate_preprocessor`, and the monitor loop's, are wrapped in
`TimedProgram`, so program time is a child span and the caller's self time
is its span minus its children. RESULT_OUT gets the per-layer metrics
(medians over the traced replays), the counts, which must repeat exactly on
every replay, the tracing overhead, and any answer that differs from the
plan's.

All spans are recorded here; minimon itself is not instrumented.
"""

from __future__ import annotations

import json
import os
import shlex
import statistics
import sys
import time
from array import array

from minimon import (
    CommandProgram,
    Event,
    FunctionTable,
    Monitor,
    MonitorConfig,
    Mode,
    TableProgram,
    Trace,
    load_domain,
    load_minimiser,
    load_trace,
    make_builtin,
    run_test,
    save_minimiser,
    synthesize,
    table_dist_minimal,
    validate_preprocessor,
)
from minimon.tester import RANDOM_PERMUTATION
from minimon.trace import parse_input_lines
from run import stolen_s

MODES = {"mono": Mode.MONOLITHIC, "sdist": Mode.STRONG_DISTRIBUTED}
UNITS = {
    "trace.parse_us_per_event": "us/event",
    "trace.trace_build_us_per_event": "us/event",
    "trace.parse_inputs_us_per_line": "us/line",
    "trace.load_domain_ms": "ms",
    "monitor.step_mono_us": "us",
    "monitor.step_sdist_us": "us",
    "monitor.step_sdist_repeat_us": "us",
    "programs.exec_call_p50_us": "us",
    "programs.exec_call_p99_us": "us",
    "programs.exec_spawn_ms": "ms",
    "programs.builtin_eval_us": "us",
    "programs.table_load_us_per_row": "us/row",
    "tester.run_test_self_us_per_probe": "us/probe",
    "tester.dist_scan_us_per_lookup": "us/lookup",
    "minimiser.synthesize_self_us_per_elem": "us/elem",
    "minimiser.save_us_per_row": "us/row",
    "minimiser.load_us_per_row": "us/row",
    "minimiser.validate_self_us_per_elem": "us/elem",
}


class Tracer:
    """Spans in parallel arrays; `begin` returns an id for `end`."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._open = [-1]

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self._open.append(i)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._open.pop()

    def totals(self) -> dict[str, list]:
        """name -> [count, total seconds, self seconds, durations]."""
        child = array("d", bytes(8 * len(self.names)))
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, list] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(name, [0, 0.0, 0.0, []])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child[i]
            agg[3].append(dur)
        return out

    def write(self, path: str) -> None:
        t0 = self.starts[0] if self.names else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tstart_us\tend_us\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.parents[i]}\t{(self.starts[i] - t0) * 1e6:.1f}\t"
                         f"{(self.ends[i] - t0) * 1e6:.1f}\n")


class NoTracer:
    """Spans off: the same calls, nothing recorded."""

    def begin(self, name: str) -> int:
        return 0

    def end(self, i: int) -> None:
        pass


class TimedProgram:
    """Stands in for a program handle: each evaluate or observe is a child
    span. For `exec:` programs the first call of an input is the one that
    reaches the worker (minimon memoises per input); it is an
    `programs.exec_call` span, the worker's first one `programs.exec_spawn`,
    and a repeat `programs.memo_hit`."""

    def __init__(self, program, tracer: Tracer, kind: str):
        self.program = program
        self.arity = program.arity
        self.name = program.name
        self.calls = 0
        self._tracer = tracer
        self._kind = kind
        self._reached: set | None = set() if kind == "exec" else None

    def _span_name(self, inputs) -> str:
        self.calls += 1
        reached = self._reached
        if reached is None:
            return "programs.builtin_eval"
        if inputs in reached:
            return "programs.memo_hit"
        reached.add(inputs)
        return "programs.exec_spawn" if len(reached) == 1 else "programs.exec_call"

    def evaluate(self, inputs):
        s = self._tracer.begin(self._span_name(inputs))
        out = self.program.evaluate(inputs)
        self._tracer.end(s)
        return out

    def observe(self, inputs) -> Event:
        s = self._tracer.begin(self._span_name(inputs))
        event = self.program.observe(inputs)
        self._tracer.end(s)
        return event

    def close(self) -> None:
        self.program.close()


class Replay:
    """One pass over every command of a plan."""

    def __init__(self, plan: dict, tracer):
        self.plan = plan
        self.t = tracer
        self.traced = isinstance(tracer, Tracer)
        self.counts = dict.fromkeys((
            "trace.events", "trace.distinct_inputs", "monitor.steps", "tester.probes",
            "programs.exec_requests", "programs.exec_evaluates", "minimiser.partitions",
        ), 0)
        self.sizes = dict.fromkeys(("built_events", "loaded_events", "input_lines", "table_rows",
                                    "dist_lookups", "synth_elems", "saved_rows",
                                    "loaded_rows", "validated_elems"), 0)
        self.command_s: dict[str, float] = {}
        self.problems: list[str] = []
        self.exec_programs: list[TimedProgram] = []
        self._loaded: Trace | None = None

    def span(self, name: str, fn, *args, **kwargs):
        s = self.t.begin(name)
        out = fn(*args, **kwargs)
        self.t.end(s)
        return out

    def program(self, spec: str, arity: int):
        """minimon.cli's program spec, built from the public API."""
        if spec.startswith("builtin:"):
            program, kind = make_builtin(spec[len("builtin:"):]), "builtin"
        else:
            program, kind = CommandProgram(shlex.split(spec[len("exec:"):]), arity=arity), "exec"
        if not self.traced:
            return program
        timed = TimedProgram(program, self.t, kind)
        if kind == "exec":
            self.exec_programs.append(timed)
        return timed

    def expect(self, label: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{label}: got {got!r}, want {want!r}")

    def run(self) -> None:
        for command in self.plan["commands"]:
            spec = command["full"] if command["own"] else command["tiny"]
            args = spec["args"]
            opts = dict(zip(args[1::2], args[2::2]))
            if "count_file" in spec and os.path.exists(spec["count_file"]):
                os.remove(spec["count_file"])
            steal, start = stolen_s(), time.perf_counter()
            top = self.t.begin("command." + command["metric"])
            getattr(self, args[0].replace("-", "_"))(opts, spec, command["metric"])
            self.t.end(top)
            # Timed like the CLI commands in run.py, so the two compare.
            self.command_s[command["metric"]] = time.perf_counter() - start - (stolen_s() - steal)
            if self._loaded is not None and self.traced:
                # check-trace builds its Trace inside load_trace; rebuilding
                # it, outside the command's time, measures Trace(events).
                self.span("trace.Trace", Trace, self._loaded.events)
                self.sizes["built_events"] += len(self._loaded)
            self._loaded = None
            if "count_file" in spec:
                with open(spec["count_file"], encoding="utf-8") as fh:
                    self.counts["programs.exec_requests"] += int(fh.read())
        for timed in self.exec_programs:
            self.counts["programs.exec_evaluates"] += timed.calls
        self.exec_programs.clear()

    def check_trace(self, opts: dict, spec: dict, label: str) -> None:
        trace = self.span("trace.load_trace", load_trace, opts["--trace"])
        domain = self.span("trace.load_domain", load_domain, opts["--domain"])
        monitor = Monitor(MonitorConfig(MODES[opts["--mode"]], domain))
        name = "monitor.step_" + opts["--mode"]
        t = self.t
        for event in trace:
            s = t.begin(name)
            verdict = monitor.step(event)
            t.end(s)
        lines = spec["expect"]["stdout"].splitlines()
        self.expect(label, verdict.value, lines[0])
        if monitor.witness is not None:
            w = monitor.witness
            self.expect(label, lines[1].startswith(f"witness: events {w.index_a} and {w.index_b},"), True)
        self.counts["trace.events"] += len(trace)
        self.counts["trace.distinct_inputs"] += trace.distinct_inputs()
        self.counts["monitor.steps"] += len(trace)
        self.sizes["loaded_events"] += len(trace)
        self._loaded = trace

    def monitor(self, opts: dict, spec: dict, label: str) -> None:
        domain = self.span("trace.load_domain", load_domain, opts["--domain"])
        with open(opts["--inputs"], encoding="utf-8") as fh:
            text = fh.read()
        inputs = self.span("trace.parse_input_lines", parse_input_lines, text)
        program = self.program(opts["--program"], domain.arity)
        monitor = Monitor(MonitorConfig(MODES[opts["--mode"]], domain))
        t = self.t
        try:
            for step_no, raw in enumerate(inputs, start=1):
                event = program.observe(raw)
                s = t.begin("monitor.step_stream")
                verdict = monitor.step(event)
                t.end(s)
                if verdict.conclusive:
                    break
        finally:
            self.span("programs.close", program.close)
        self.expect(label, (step_no, verdict.value), (spec["expect"]["monitor"]["steps"], "TRUE"))
        self.counts["trace.events"] += len(inputs)
        self.counts["trace.distinct_inputs"] += len(set(inputs))
        self.counts["monitor.steps"] += step_no
        self.sizes["input_lines"] += len(inputs)

    def test(self, opts: dict, spec: dict, label: str) -> None:
        domain = self.span("trace.load_domain", load_domain, opts["--domain"])
        program = self.program(opts["--program"], domain.arity)
        try:
            report = self.span("tester.run_test", run_test, program, domain, MODES[opts["--mode"]],
                               strategy=RANDOM_PERMUTATION, seed=int(opts["--seed"]))
        finally:
            self.span("programs.close", program.close)
        self.expect(label, f"{report.verdict.value}\nsteps: {report.steps} of {domain.size}\n",
                    spec["expect"]["stdout"])
        self.counts["tester.probes"] += report.steps

    def synth_min(self, opts: dict, spec: dict, label: str) -> None:
        domain = self.span("trace.load_domain", load_domain, opts["--domain"])
        program = self.program(opts["--program"], domain.arity)
        try:
            table, partition = self.span("minimiser.synthesize", synthesize, program, domain,
                                         rep_strategy="least")
        finally:
            program.close()
        self.span("minimiser.save_minimiser", save_minimiser, table, opts["--out"])
        self.expect(label, partition.count, spec["expect"]["synth"]["partitions"])
        self.counts["minimiser.partitions"] += partition.count
        self.sizes["synth_elems"] += domain.size
        self.sizes["saved_rows"] += len(table.mapping)

    def check_pre(self, opts: dict, spec: dict, label: str) -> None:
        domain = self.span("trace.load_domain", load_domain, opts["--domain"])
        program = self.program(opts["--program"], domain.arity)
        table = self.span("minimiser.load_minimiser", load_minimiser, opts["--pre"])
        try:
            report = self.span("minimiser.validate_preprocessor", validate_preprocessor,
                               program, domain, table)
        finally:
            program.close()
        self.expect(label, (report.is_preprocessor, report.is_minimiser), (True, True))
        self.sizes["loaded_rows"] += len(table.mapping)
        self.sizes["validated_elems"] += domain.size

    def oracle(self, opts: dict, spec: dict, label: str) -> None:
        program = self.span("programs.table_load", TableProgram.load, opts["--table"])
        domain = self.span("programs.infer_domain", program.infer_domain)
        ok, _ = self.span("tester.table_dist_minimal", table_dist_minimal,
                          FunctionTable(domain, program.mapping))
        self.expect(label, ok, spec["expect"]["stdout"] == "minimal\n")
        self.sizes["table_rows"] += len(program.mapping)
        self.sizes["dist_lookups"] += domain.arity * domain.size


def layer_metrics(replay: Replay, tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced replay, keyed by metric name."""
    agg = tracer.totals()
    sizes = replay.sizes

    def total(name):
        return agg[name][1] if name in agg else 0.0

    def self_time(name):
        return agg[name][2] if name in agg else 0.0

    def mean_us(name):
        return total(name) / agg[name][0] * 1e6 if name in agg else float("nan")

    def per(seconds, n):
        return seconds * 1e6 / n if n else float("nan")

    calls = sorted(agg.get("programs.exec_call", [0, 0, 0, []])[3])

    def pct(q):
        return calls[min(len(calls) - 1, int(q * len(calls)))] * 1e6 if calls else float("nan")

    return {
        "trace.parse_us_per_event": per(total("trace.load_trace"), sizes["loaded_events"]),
        "trace.trace_build_us_per_event": per(total("trace.Trace"), sizes["built_events"]),
        "trace.parse_inputs_us_per_line": per(total("trace.parse_input_lines"), sizes["input_lines"]),
        "trace.load_domain_ms": total("trace.load_domain") * 1e3,
        "monitor.step_mono_us": mean_us("monitor.step_mono"),
        "monitor.step_sdist_us": mean_us("monitor.step_sdist"),
        "monitor.step_sdist_repeat_us": mean_us("monitor.step_stream"),
        "programs.exec_call_p50_us": pct(0.50),
        "programs.exec_call_p99_us": pct(0.99),
        "programs.exec_spawn_ms": mean_us("programs.exec_spawn") / 1e3,
        "programs.builtin_eval_us": mean_us("programs.builtin_eval"),
        "programs.table_load_us_per_row": per(total("programs.table_load"), sizes["table_rows"]),
        "tester.run_test_self_us_per_probe": per(self_time("tester.run_test"), replay.counts["tester.probes"]),
        "tester.dist_scan_us_per_lookup": per(total("tester.table_dist_minimal"), sizes["dist_lookups"]),
        "minimiser.synthesize_self_us_per_elem": per(self_time("minimiser.synthesize"), sizes["synth_elems"]),
        "minimiser.save_us_per_row": per(total("minimiser.save_minimiser"), sizes["saved_rows"]),
        "minimiser.load_us_per_row": per(total("minimiser.load_minimiser"), sizes["loaded_rows"]),
        "minimiser.validate_self_us_per_elem": per(self_time("minimiser.validate_preprocessor"),
                                                   sizes["validated_elems"]),
    }


def main(argv: list[str]) -> int:
    plan_path, seconds, spans_out, result_out = argv[0], float(argv[1]), argv[2], argv[3]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    traced: list[tuple[Replay, Tracer]] = []
    untraced: list[Replay] = []
    deadline = time.perf_counter() + seconds
    while True:  # another pair only if one more should end in time
        began = time.perf_counter()
        for on in ((True, False) if len(traced) % 2 == 0 else (False, True)):
            tracer = Tracer() if on else NoTracer()
            replay = Replay(plan, tracer)
            replay.run()
            if on:
                traced.append((replay, tracer))
            else:
                untraced.append(replay)
        now = time.perf_counter()
        if 2 * now - began > deadline:
            break

    problems = [p for r in untraced + [r for r, _ in traced] for p in r.problems]
    counts = traced[0][0].counts
    for replay, _ in traced[1:]:
        if replay.counts != counts:
            problems.append(f"counts differ between replays: {replay.counts} vs {counts}")
    per_replay = [layer_metrics(r, t) for r, t in traced]
    metrics = {name: {"value": statistics.median(m[name] for m in per_replay), "unit": UNITS[name]}
               for name in per_replay[0]}
    evaluates = counts["programs.exec_evaluates"]
    for name, n in counts.items():
        if name != "programs.exec_evaluates":
            metrics[name] = {"value": n, "unit": "count"}
    metrics["trace.repeat_share"] = {
        "value": 1 - counts["trace.distinct_inputs"] / counts["trace.events"], "unit": "ratio"}
    metrics["programs.memo_hit_share"] = {
        "value": 1 - counts["programs.exec_requests"] / evaluates, "unit": "ratio"}

    def command_s(replays, metric):
        return statistics.median(r.command_s[metric] for r in replays)

    on_s = sum(command_s([r for r, _ in traced], m) for m in traced[0][0].command_s)
    off_s = {m: command_s(untraced, m) for m in untraced[0].command_s}
    metrics["bench.trace_overhead_share"] = {"value": on_s / sum(off_s.values()) - 1, "unit": "ratio"}
    traced[-1][1].write(spans_out)
    with open(result_out, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "counts": counts, "command_s": off_s,
                   "pairs": len(traced), "problems": problems}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
