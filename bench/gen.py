"""Seeded inputs and known answers for the benchmark workloads.

    python3 bench/gen.py WORKLOAD SEED OUTDIR [--smoke]

Writes every input file of WORKLOAD into OUTDIR, plus `plan.json`: the seven
minimon commands the workload runs, each with the exact answer it must give.
The answers are built into the inputs here and never taken from minimon.
Commands the workload is about run at full size; every other command runs
on 2-element inputs, so each workload reports every metric and a command
that is not its subject shows only its fixed cost. The same seed gives the
same files byte for byte; every size and count is independent of the seed.
"""

from __future__ import annotations

import json
import os
import random
import shlex
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH, "worker.py")

# The commands, in the order their metrics are reported.
METRICS = (
    "check_trace_mono_s",
    "check_trace_sdist_s",
    "test_s",
    "monitor_s",
    "synth_min_s",
    "check_pre_s",
    "oracle_s",
)
WORKLOADS = ("trace-audit", "online-exec", "pre-deploy")

BENEFITS_THRESHOLD = 10_000  # builtin:benefits is "true" iff salary < 10000


class Writer:
    """Writes input files into one directory and names them."""

    def __init__(self, outdir: str):
        self.outdir = outdir

    def path(self, name: str) -> str:
        return os.path.join(self.outdir, name)

    def jsonl(self, name: str, rows) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
        return path

    def domain(self, name: str, sources) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"sources": sources}, fh)
        return path


def _distinct_ints(rnd: random.Random, k: int) -> list[str]:
    return [str(v) for v in rnd.sample(range(1_000_000), k)]


def _exec_spec(count_file: str) -> str:
    return "exec:" + shlex.join([sys.executable, WORKER, count_file])


def _witness_text(mid: int, last: int, x, y, out: str, source: int | None) -> str:
    text = (
        f"witness: events {mid} and {last}, inputs {'/'.join(x)} and "
        f"{'/'.join(y)}, shared output {out}"
    )
    return text + (f", differing source {source}" if source is not None else "")


def audit_trace(rnd: random.Random, n: int, values: int, repeats: int):
    """Events of an arity-4 trace with injective outputs except one planted
    collision: the last event is a fresh input that differs from event n/2 in
    source 1 and shares its output. Exactly `repeats` events repeat an
    earlier input; event n/2 is a first occurrence."""
    mid, last = n // 2, n - 1
    repeat_at = set(rnd.sample([p for p in range(1, last) if p != mid], repeats))
    seen: set[tuple[str, ...]] = set()
    order: list[tuple[str, ...]] = []
    events = []
    for pos in range(last):
        if pos in repeat_at:
            x = rnd.choice(order)
        else:
            x = tuple(str(rnd.randrange(values)) for _ in range(4))
            while x in seen:
                x = tuple(str(rnd.randrange(values)) for _ in range(4))
            seen.add(x)
            order.append(x)
        events.append((x, "o" + "_".join(x)))
    x, out = events[mid]
    y = x
    while y in seen:  # re-draw until the planted input is fresh
        y = (x[0], str(rnd.randrange(values)), x[2], x[3])
    events.append((y, out))
    return events, (mid, last, x, y, out)


def replay_stream(rnd: random.Random, elements: list, lines: int) -> list:
    """`lines` inputs covering every element; the first occurrences keep the
    order of `elements`, the last one falls on the last line, and every
    other line repeats an input seen before it."""
    fresh_at = set(rnd.sample(range(1, lines - 1), len(elements) - 2))
    fresh_at.update((0, lines - 1))
    stream, k = [], 0
    for pos in range(lines):
        if pos in fresh_at:
            stream.append(elements[k])
            k += 1
        else:
            stream.append(stream[rnd.randrange(len(stream))])
    return stream


def check_trace_cmds(w: Writer, rnd: random.Random, sizes: dict, full: bool) -> dict:
    """Both check-trace commands share one trace and domain."""
    if full:
        n, values = sizes["trace_events"], sizes["trace_values"]
        events, (mid, last, x, y, out) = audit_trace(rnd, n, values, sizes["trace_repeats"])
        domain = w.domain("audit-domain.json", [{"range": [0, values - 1]}] * 4)
        distinct = n - sizes["trace_repeats"]
        tag, exit_code = "audit", 1
    else:
        events = [(("0", "0", "0", "0"), "o0_0_0_0"), (("0", "0", "0", "1"), "o0_0_0_1")]
        domain = w.domain("tiny-audit-domain.json", [{"set": ["0"]}] * 3 + [{"set": ["0", "1"]}])
        n = distinct = 2
        tag, exit_code = "tiny-audit", 0
    trace = w.jsonl(f"{tag}-trace.jsonl", ({"in": list(i), "out": o} for i, o in events))
    cmds = {}
    for mode, metric, source in (("mono", "check_trace_mono_s", None), ("sdist", "check_trace_sdist_s", 1)):
        stdout = "TRUE\n" if not full else (
            "FALSE\n" + _witness_text(mid, last, x, y, out, source) + "\n"
        )
        cmds[metric] = {
            "args": ["check-trace", "--trace", trace, "--mode", mode, "--domain", domain],
            "expect": {"exit": exit_code, "stdout": stdout},
            "counts": {"trace.events": n, "trace.distinct_inputs": distinct, "monitor.steps": n},
        }
    return cmds


def test_exec_cmd(w: Writer, rnd: random.Random, sizes: dict, full: bool) -> dict:
    side_a, side_b = (sizes["test_side"],) * 2 if full else (1, 2)
    tag = "test-exec" if full else "tiny-test-exec"
    domain = w.domain(f"{tag}-domain.json", [
        {"set": _distinct_ints(rnd, side_a)}, {"set": _distinct_ints(rnd, side_b)},
    ])
    size = side_a * side_b
    count_file = w.path(f"{tag}-requests.txt")
    return {
        "args": ["test", "--program", _exec_spec(count_file), "--domain", domain,
                 "--mode", "sdist", "--seed", str(rnd.randrange(2**31))],
        "expect": {"exit": 0, "stdout": f"TRUE\nsteps: {size} of {size}\n"},
        "count_file": count_file,
        "counts": {"tester.probes": size, "programs.exec_requests": size,
                   "programs.exec_evaluates": size},
    }


def monitor_cmd(w: Writer, rnd: random.Random, sizes: dict, full: bool) -> dict:
    side, lines = (sizes["replay_side"], sizes["replay_lines"]) if full else (1, 2)
    tag = "replay" if full else "tiny-replay"
    a_vals = _distinct_ints(rnd, side)
    b_vals = _distinct_ints(rnd, side if full else 2)
    domain = w.domain(f"{tag}-domain.json", [{"set": a_vals}, {"set": b_vals}])
    elements = [(a, b) for a in a_vals for b in b_vals]
    rnd.shuffle(elements)
    stream = replay_stream(rnd, elements, lines)
    inputs = w.jsonl(f"{tag}-inputs.jsonl", ({"in": list(i)} for i in stream))
    count_file = w.path(f"{tag}-requests.txt")
    distinct = len(elements)
    return {
        "args": ["monitor", "--program", _exec_spec(count_file), "--mode", "sdist",
                 "--inputs", inputs, "--domain", domain],
        "expect": {"exit": 0, "monitor": {"inputs": inputs, "steps": lines}},
        "count_file": count_file,
        "counts": {"trace.events": lines, "trace.distinct_inputs": distinct,
                   "monitor.steps": lines, "programs.exec_requests": distinct,
                   "programs.exec_evaluates": lines},
    }


def _benefits_rep(lo: int, x: int) -> str:
    return str(lo) if x < BENEFITS_THRESHOLD else str(max(lo, BENEFITS_THRESHOLD))


def range_cmds(w: Writer, rnd: random.Random, lo: int, size: int, tag: str) -> dict:
    """test (identity), synth-min and check-pre over one integer range that
    straddles the benefits threshold, so the least-representative map has
    exactly 2 classes."""
    hi = lo + size - 1
    domain = w.domain(f"{tag}-domain.json", [{"range": [lo, hi]}])
    out = w.path(f"{tag}-synth.jsonl")
    rows = list(range(lo, hi + 1))
    rnd.shuffle(rows)
    pre = w.jsonl(f"{tag}-pre.jsonl", (
        {"from": [str(x)], "to": [_benefits_rep(lo, x)]} for x in rows
    ))
    return {
        "test_s": {
            "args": ["test", "--program", "builtin:identity", "--domain", domain,
                     "--mode", "mono", "--seed", str(rnd.randrange(2**31))],
            "expect": {"exit": 0, "stdout": f"TRUE\nsteps: {size} of {size}\n"},
            "counts": {"tester.probes": size},
        },
        "synth_min_s": {
            "args": ["synth-min", "--program", "builtin:benefits", "--domain", domain, "--out", out],
            "expect": {"exit": 0, "synth": {"out": out, "lo": lo, "hi": hi, "partitions": 2,
                                             "threshold": BENEFITS_THRESHOLD}},
            "counts": {"minimiser.partitions": 2},
        },
        "check_pre_s": {
            "args": ["check-pre", "--program", "builtin:benefits", "--domain", domain, "--pre", pre],
            "expect": {"exit": 0, "stdout": "preprocessor: yes\nminimiser: yes\n"},
            "counts": {},
        },
    }


def oracle_cmd(w: Writer, rnd: random.Random, sizes: dict, full: bool) -> dict:
    sides = (sizes["oracle_side"],) * 3 if full else (1, 1, 2)
    tag = "oracle" if full else "tiny-oracle"
    sources = [_distinct_ints(rnd, k) for k in sides]
    rows = [(a, b, c) for a in sources[0] for b in sources[1] for c in sources[2]]
    rnd.shuffle(rows)
    table = w.jsonl(f"{tag}-table.jsonl", (
        {"in": list(r), "out": "t" + "_".join(r)} for r in rows
    ))
    return {
        "args": ["oracle", "--table", table, "--notion", "dist"],
        "expect": {"exit": 0, "stdout": "minimal\n"},
        "counts": {},
    }


def build(workload: str, seed: int, outdir: str, sizes: dict) -> dict:
    w = Writer(outdir)
    rnd = random.Random(f"{workload}/{seed}")
    tiny = check_trace_cmds(w, rnd, sizes, False)
    tiny.update(range_cmds(w, rnd, BENEFITS_THRESHOLD - 1, 2, "tiny-range"))
    if workload == "online-exec":  # the 2-element test keeps the exec: spec
        tiny["test_s"] = test_exec_cmd(w, rnd, sizes, False)
    tiny["monitor_s"] = monitor_cmd(w, rnd, sizes, False)
    tiny["oracle_s"] = oracle_cmd(w, rnd, sizes, False)

    if workload == "trace-audit":
        full = check_trace_cmds(w, rnd, sizes, True)
    elif workload == "online-exec":
        full = {"test_s": test_exec_cmd(w, rnd, sizes, True),
                "monitor_s": monitor_cmd(w, rnd, sizes, True)}
    else:
        size = sizes["range_size"]
        lo = rnd.randrange(max(0, BENEFITS_THRESHOLD - size + 1), BENEFITS_THRESHOLD)
        full = range_cmds(w, rnd, lo, size, "range")
        full["oracle_s"] = oracle_cmd(w, rnd, sizes, True)

    commands = [
        {"metric": metric, "own": metric in full, "full": full.get(metric), "tiny": tiny[metric]}
        for metric in METRICS
    ]
    return {"workload": workload, "seed": seed, "sizes": sizes, "commands": commands,
            "reference": reference_args(w, workload, sizes)}


def reference_args(w: Writer, workload: str, sizes: dict) -> list[str]:
    """Arguments of `reference.py` for this workload: it indexes the
    workload's largest input, and on online-exec also makes exec-style round
    trips."""
    if workload == "trace-audit":
        return [w.path("audit-trace.jsonl"), str(sizes["trace_events"]), "0"]
    if workload == "online-exec":
        return [w.path("replay-inputs.jsonl"), str(sizes["reference_lines"]),
                str(sizes["reference_round_trips"])]
    return [w.path("range-pre.jsonl"), str(sizes["range_size"]), "0"]


def main(argv: list[str]) -> int:
    args = [a for a in argv if a != "--smoke"]
    if len(args) != 3 or args[0] not in WORKLOADS:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    workload, seed, outdir = args[0], int(args[1]), args[2]
    with open(os.path.join(BENCH, "context.json"), encoding="utf-8") as fh:
        sizes = json.load(fh)["sizes"]["smoke" if "--smoke" in argv else "full"]
    plan = build(workload, seed, outdir, sizes)
    with open(os.path.join(outdir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
