"""End-to-end and per-layer benchmark for the minimon CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a minimon checkout; the package is imported from
`src/`, nothing is installed. Linux only: children are reaped with
`pidfd_open` and `wait4`, and `ru_maxrss` is read in KiB.

Each run writes its seeded inputs with `gen.py` (in a separate process) into
`.bench_work/`, then:

- `--trace 0` times the workload's commands as subprocesses for S seconds
  and reports the end-to-end metrics: per-command time to verdict (median
  over the iterations), their sum `wall_s`, the largest per-command peak RSS,
  and `setup_s`, the same commands on 2-element inputs (median over
  several rounds). Each workload runs all seven commands; the ones it is
  not about run on 2-element inputs only, and their time is that fixed cost;
- `--trace 1` runs every command once through the CLI, then replays the same
  inputs in-process with `replay.py` and reports the per-layer metrics, the
  counts, and the tracing overhead. Spans go to `.bench_out/`.

Every command's exit code and output are checked against the answer
`gen.py` built into its inputs. The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. `--smoke` runs every
workload at tiny sizes in both modes, checks the answers and that every
metric named in BENCHMARK.json is present, never gates on timings, and
confirms that a wrong expected answer is counted as a failure.

Every measured command is started by this process, whose own RSS stays
small: a child's `ru_maxrss` starts at its parent's peak. This process
pins itself, and so every command, to one CPU (`pin_to_one_cpu`). A
command's time is its wall time minus the CPU time the hypervisor stole
from that CPU while it ran (the `steal` column of /proc/stat). On a shared
host, steal bursts inflated the same `exec:` test from 2.7 s to 7.5 s; wall
time minus steal stayed within 2.3-3.3 s.

The host's speed also drifts, by 20-50% over tens of seconds, which no
amount of averaging inside one run removes. So in `--trace 0` every command
runs right after a reference task, `reference.py`: a fixed stdlib-only task
that does not touch minimon. A full-size command follows the workload's
reference, which indexes the workload's own largest input and, on
online-exec, also makes `exec:`-style round trips. A 2-element command
follows the start-up reference, which imports what minimon imports. Each
time is scaled by the reference's median on the host the bounds were set on
(`reference_s` in bench/context.json) over its time just before, so times
are seconds at that host's speed, and a drift that spans both cancels. In
ten runs per workload while the reference's own run medians spread 13-51%
(IQR / median), the scaled metrics spread at most 8%.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import select
import shutil
import signal
import statistics
import sys
import time

from gen import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
IMPORT_ROUNDS = 5
COMMAND_TIMEOUT_S = 60
SYNTH_LINE = re.compile(r"(\d+) partitions \(\d+\.\d+ s\)")


class Failures:
    """Commands attempted and the problems found, one entry per command."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: {'; '.join(problems)}")


def pin_to_one_cpu() -> str:
    """Run this process, and so every command it starts, on one CPU.

    An `exec:` program's round trip then wakes a process on the same CPU
    instead of an idle second vCPU, whose wake-up the hypervisor delays by
    a varying amount: unpinned, one `exec:` test took 1.2-3.8 s within six
    minutes; pinned, 0.55-0.9 s. The commands are single-threaded, except
    for minimon's reader threads, so nothing else waits for the CPU."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return f"not pinned to one CPU ({exc})"
    return f"pinned to CPU {cpu}"


def stolen_s() -> float:
    """CPU time the hypervisor has stolen since boot from the one CPU this
    process is pinned to, or from the whole machine."""
    cpus = os.sched_getaffinity(0)
    row = f"cpu{min(cpus)}" if len(cpus) == 1 else "cpu"
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = next((line.split() for line in fh if line.split()[0] == row), [])
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def run_child(argv: list[str], out_path: str, err_path: str, env: dict, timeout: float):
    """Spawn argv with stdout and stderr sent to files; return (exit code or
    None on timeout, seconds of wall time minus steal, peak RSS in MiB of
    that child alone)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    steal = stolen_s()
    start = time.perf_counter()
    # Own process group, so a timeout also stops an exec: worker.
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions, setpgroup=0)
    pidfd = os.pidfd_open(pid)
    finished = False
    try:
        finished = bool(select.select([pidfd], [], [], timeout)[0])
    finally:
        if not finished:
            os.killpg(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        os.close(pidfd)
    elapsed = time.perf_counter() - start - (stolen_s() - steal)
    code = os.waitstatus_to_exitcode(status) if finished else None
    return code, elapsed, usage.ru_maxrss / 1024


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def check_monitor(out_path: str, expect: dict) -> list[str]:
    """Every step line names the replayed input, the worker's output for it
    and UNKNOWN, except the last, which is TRUE."""
    steps, step = expect["steps"], 0
    with open(out_path, encoding="utf-8") as out, open(expect["inputs"], encoding="utf-8") as inp:
        for step, (line, raw) in enumerate(zip(out, inp), start=1):
            coords = json.loads(raw)["in"]
            verdict = "TRUE" if step == steps else "UNKNOWN"
            want = f"{step}\t{','.join(coords)}\tv{'_'.join(coords)}\t{verdict}\n"
            if line != want:
                return [f"step {step}: got {line!r}, want {want!r}"]
        if step != steps or out.read():
            return [f"expected exactly {steps} step lines"]
    return []


def check_synth(stdout: str, expect: dict) -> list[str]:
    """synth-min's summary, and its table compared as a mapping: each input
    maps to the least input of its output class."""
    lines = stdout.splitlines()
    match = SYNTH_LINE.fullmatch(lines[0]) if lines else None
    if not match or int(match.group(1)) != expect["partitions"]:
        return [f"summary {lines[:1]!r}, want {expect['partitions']} partitions"]
    if lines[1:] != [f"wrote {expect['out']}"]:
        return [f"unexpected output {lines[1:]!r}"]
    lo, hi, threshold = expect["lo"], expect["hi"], expect["threshold"]
    seen = bytearray(hi - lo + 1)
    with open(expect["out"], encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            (src,), (dst,) = row["from"], row["to"]
            x = int(src)
            want = str(lo) if x < threshold else str(max(lo, threshold))
            if set(row) != {"from", "to"} or not lo <= x <= hi or seen[x - lo] or dst != want:
                return [f"bad row {line.strip()!r}"]
            seen[x - lo] = 1
    if not all(seen):
        return ["table does not cover the domain"]
    return []


def check_command(spec: dict, code, out_path: str) -> list[str]:
    expect = spec["expect"]
    if code is None:
        return [f"timed out after {COMMAND_TIMEOUT_S} s"]
    problems = []
    if code != expect["exit"]:
        problems.append(f"exit code {code}, want {expect['exit']}")
    try:
        if "stdout" in expect:
            got = _read(out_path)
            if got != expect["stdout"]:
                problems.append(f"stdout {got[:300]!r}, want {expect['stdout'][:300]!r}")
        elif "monitor" in expect:
            problems += check_monitor(out_path, expect["monitor"])
        elif "synth" in expect:
            problems += check_synth(_read(out_path), expect["synth"])
    except (OSError, UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    if "count_file" in spec:
        want = spec["counts"]["programs.exec_requests"]
        got = _read(spec["count_file"]).strip() if os.path.exists(spec["count_file"]) else None
        if got != str(want):
            problems.append(f"worker served {got} requests, want {want}")
    return problems


class Runner:
    """Runs plan commands as `python -m minimon` subprocesses and checks them."""

    def __init__(self, root: str, workdir: str, failures: Failures):
        self.workdir = workdir
        self.failures = failures
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")

    def python(self, args: list[str], label: str):
        out = os.path.join(self.workdir, f"{label}.out")
        err = os.path.join(self.workdir, f"{label}.err")
        code, wall, rss = run_child([sys.executable, *args], out, err, self.env, COMMAND_TIMEOUT_S)
        return code, wall, rss, out, err

    def command(self, spec: dict, label: str):
        """(seconds, peak RSS MiB) of one checked CLI command."""
        if "count_file" in spec and os.path.exists(spec["count_file"]):
            os.remove(spec["count_file"])
        code, wall, rss, out, err = self.python(["-m", "minimon", *spec["args"]], label)
        problems = check_command(spec, code, out)
        if problems and os.path.getsize(err):
            problems.append(f"stderr: {_read(err)[-300:]!r}")
        self.failures.add(label, problems)
        return wall, rss


def generate(runner: Runner, workload: str, seed: int, smoke: bool) -> dict:
    args = [os.path.join(BENCH, "gen.py"), workload, str(seed), runner.workdir]
    code, _, _, _, err = runner.python(args + (["--smoke"] if smoke else []), "gen")
    if code != 0:
        raise RuntimeError(f"input generation failed: {_read(err)[-500:]}")
    with open(os.path.join(runner.workdir, "plan.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tiny_round(runner: Runner, plan: dict) -> dict:
    return {c["metric"]: runner.command(c["tiny"], c["metric"] + ".tiny")[0] for c in plan["commands"]}


def reference_s(runner: Runner, args: list[str]) -> float:
    """Seconds of one run of `reference.py` with these arguments."""
    code, elapsed, _, _, err = runner.python([os.path.join(BENCH, "reference.py"), *args], "reference")
    if code != 0:
        raise RuntimeError(f"reference task failed: {_read(err)[-500:]}")
    return elapsed


def measure_end_to_end(runner: Runner, plan: dict, seconds: float):
    """End-to-end metrics and a human-readable summary."""
    commands = plan["commands"]
    own = [c for c in commands if c["own"]]
    with open(os.path.join(BENCH, "context.json"), encoding="utf-8") as fh:
        expected = json.load(fh)["reference_s"]

    def timed(spec: dict, label: str, reference: list[str], reference_expected: float):
        """(scaled seconds, seconds, reference seconds, peak RSS MiB) of one
        command run right after its reference task."""
        ref = reference_s(runner, reference)
        elapsed, rss = runner.command(spec, label)
        return elapsed * reference_expected / ref, elapsed, ref, rss

    tiny_round(runner, plan)  # warm-up: bytecode caches, page cache
    reference_s(runner, plan["reference"])
    # Each cycle runs one full-size iteration of the workload's own commands
    # and one round of all seven on 2-element inputs. Every command runs
    # right after a reference task, the workload's before a full-size
    # command and the start-up one before a 2-element command, and its time
    # is scaled by the reference's expected / measured time: a drift of the
    # host's speed that spans both cancels. `seconds` bounds the time spent
    # in cycles.
    names = [c["metric"] for c in commands] + ["wall_s", "setup_s"]
    scaled = {name: [] for name in names}
    raw = {name: [] for name in names}
    refs = {"workload": [], "start-up": []}
    rss = []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        full = {c["metric"]: timed(c["full"], c["metric"], plan["reference"], expected[plan["workload"]])
                for c in own}
        tiny = {c["metric"]: timed(c["tiny"], c["metric"] + ".tiny", ["startup"], expected["startup"])
                for c in commands}
        samples = {c["metric"]: (full if c["own"] else tiny)[c["metric"]] for c in commands}
        for i, series in ((0, scaled), (1, raw)):
            for name, sample in samples.items():
                series[name].append(sample[i])
            series["wall_s"].append(sum(v[i] for v in full.values()))
            series["setup_s"].append(sum(tiny[c["metric"]][i] for c in own))
        refs["workload"] += [v[2] for v in full.values()]
        refs["start-up"] += [v[2] for v in tiny.values()]
        rss.append(max(v[3] for v in full.values()))
        now = time.perf_counter()
        if 2 * now - start - began > seconds:  # another cycle would not end in time
            break

    metrics = {name: {"value": statistics.median(v), "unit": "s"} for name, v in scaled.items()}
    metrics["peak_rss_mib"] = {"value": statistics.median(rss), "unit": "MiB"}
    lines = [f"{len(rss)} cycles of {', '.join(c['metric'] for c in own)} at full size and all "
             f"7 commands on 2-element inputs, each right after a reference task"]
    for label, ref in refs.items():
        lines.append(f"  {label} reference median {statistics.median(ref):.4f} s "
                     f"(min {min(ref):.4f} max {max(ref):.4f} n={len(ref)})")
    for name, v in raw.items():
        lines.append(f"  {name:<22} {metrics[name]['value']:10.4f} s    unscaled median "
                     f"{statistics.median(v):.4f} min {min(v):.4f} max {max(v):.4f} n={len(v)}")
    lines.append(f"  {'peak_rss_mib':<22} {statistics.median(rss):10.1f} MiB  "
                 f"min {min(rss):.1f} max {max(rss):.1f} n={len(rss)}")
    return metrics, lines


def measure_layers(runner: Runner, plan: dict, seconds: float, workload: str, root: str):
    """Per-layer metrics from one CLI pass and the in-process replay."""
    commands = plan["commands"]
    tiny_round(runner, plan)  # warm-up
    cli_wall = {}
    for c in commands:
        spec = c["full"] if c["own"] else c["tiny"]
        cli_wall[c["metric"]] = runner.command(spec, c["metric"] + ".cli")[0]

    probe = "import time; t = time.perf_counter(); import minimon.cli; print((time.perf_counter() - t) * 1e3)"
    imports = []
    for _ in range(IMPORT_ROUNDS):
        code, _, _, out, _ = runner.python(["-c", probe], "import")
        runner.failures.add("import minimon.cli", [] if code == 0 else [f"exit code {code}"])
        if code == 0:
            imports.append(float(_read(out)))

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(runner.workdir, "replay.json")
    spans_path = os.path.join(out_dir, f"spans-{workload}.tsv")
    args = [os.path.join(BENCH, "replay.py"), os.path.join(runner.workdir, "plan.json"),
            str(seconds), spans_path, result_path]
    code, _, _, _, err = runner.python(args, "replay")
    if code != 0:
        runner.failures.add("replay", [f"exit code {code}: {_read(err)[-500:]!r}"])
        return None, []
    with open(result_path, encoding="utf-8") as fh:
        replay = json.load(fh)
    problems = replay["problems"]

    expected: dict[str, int] = {}
    for c in commands:
        for name, n in (c["full"] if c["own"] else c["tiny"])["counts"].items():
            expected[name] = expected.get(name, 0) + n
    counts = replay["counts"]
    problems += [f"count {name}: replay saw {counts.get(name)}, want {n}"
                 for name, n in expected.items() if counts.get(name) != n]
    metrics = dict(replay["metrics"])
    metrics["cli.import_ms"] = {"value": statistics.median(imports) if imports else math.nan, "unit": "ms"}
    unattributed = sum(cli_wall[m] - replay["command_s"][m] for m in cli_wall)
    metrics["cli.unattributed_s"] = {"value": unattributed, "unit": "s"}
    problems += [f"{name} was not measured" for name, m in metrics.items() if not math.isfinite(m["value"])]
    runner.failures.add("replay", problems)
    lines = [f"{replay['pairs']} replay pairs (spans on / off); spans in {spans_path}"]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:14.4f} {m['unit']}")
    return metrics, lines


def bench(root: str, workload: str, seed: int, seconds: float, trace: bool,
          smoke: bool = False, corrupt: bool = False):
    """One run; returns (result dict, summary lines)."""
    workdir = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    failures = Failures()
    pinned = pin_to_one_cpu()
    steal = stolen_s()
    try:
        runner = Runner(root, workdir, failures)
        plan = generate(runner, workload, seed, smoke)
        if corrupt:  # self-test: one wrong expected answer must be counted
            plan["commands"][0]["full"]["expect"]["stdout"] = "TRUE\n"
        if trace:
            metrics, lines = measure_layers(runner, plan, seconds, workload, root)
        else:
            metrics, lines = measure_end_to_end(runner, plan, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(failures.problems)
    lines.insert(0, f"workload {workload}, seed {seed}, {'smoke' if smoke else 'full'} sizes, "
                    f"{os.cpu_count()} CPUs, {pinned}, Python {sys.version.split()[0]}, {platform.platform()}; "
                    f"times are wall minus host steal ({stolen_s() - steal:.2f} s stolen in this run)")
    lines.append(f"  error_rate {failed / max(failures.attempted, 1):.4f} "
                 f"({failed} of {failures.attempted} commands)")
    lines += [f"  FAILED {p}" for p in failures.problems]
    launcher = json.dumps({"launcher_peak_rss_mib": _self_rss_mib()})
    lines.append(f"  {launcher}")
    result = {"correct": failed == 0 and metrics is not None, "attempted": failures.attempted,
              "failed": failed, "metrics": metrics or {}}
    return result, lines


def _self_rss_mib() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def smoke(root: str) -> int:
    """Tiny sizes, every workload, both modes; never gates on timings."""
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = bench(root, workload, 1, 0, trace, smoke=True)
            print("\n".join(lines))
            want = {(m["name"], m["unit"]) for m in spec[key]}
            got = {(name, m["unit"]) for name, m in result["metrics"].items()}
            if not result["correct"] or got != want:
                problems.append(f"{workload} trace={int(trace)}: correct={result['correct']}, "
                                f"metrics differ by {sorted(want ^ got)}")
    result, _ = bench(root, WORKLOADS[0], 1, 0, False, smoke=True, corrupt=True)
    if result["failed"] != 1:
        problems.append(f"a wrong expected answer gave failed={result['failed']}, want 1")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: ok" if not problems else "smoke: failed")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, answers and metric names only")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "minimon", "cli.py")):
        print("error: run from the root of a minimon checkout (no src/minimon/cli.py here)", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
