"""Fixed stdlib-only tasks that track the host's speed.

    python3 bench/reference.py JSONL_FILE MAX_LINES ROUND_TRIPS
    python3 bench/reference.py startup

The first form parses up to MAX_LINES records of JSONL_FILE and indexes
them by input and by output, as a trace check does, then makes ROUND_TRIPS
request/reply exchanges with `worker.py` over pipes, with a reader thread
and a queue, as minimon's `exec:` programs do. The second form only starts
up: it imports the standard modules minimon imports, which is most of what
a command on 2-element inputs does. Neither imports anything from minimon,
so a change to minimon never changes their time. `run.py` times one just
before each command it measures and scales the command's time by it, which
cancels most of the drift in the speed of a shared host: the first form
reads the workload's own input file, so its memory footprint follows the
commands', and its round trips follow the host's wake-up latency.
"""

import json
import os
import queue
import subprocess
import sys
import threading

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def index(path: str, max_lines: int) -> int:
    by_input: dict[tuple, str] = {}
    by_output: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for _, line in zip(range(max_lines), fh):
            record = json.loads(line)
            key = tuple(str(v) for v in record.get("in", record.get("from", ())))
            out = str(record.get("out", record.get("to")))
            by_input.setdefault(key, out)
            by_output.setdefault(out, []).append(key)
    return len(sorted(by_input)) + len(by_output)


def round_trips(n: int) -> None:
    if n <= 0:
        return
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    replies: queue.Queue[bytes] = queue.Queue()

    def read() -> None:
        for line in proc.stdout:
            replies.put(line)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        for i in range(n):
            proc.stdin.write(b"%d\t%d\n" % (i, n - i))
            proc.stdin.flush()
            if replies.get(timeout=60) != b"v%d_%d\n" % (i, n - i):
                raise SystemExit("reference: wrong reply from worker.py")
    finally:
        proc.stdin.close()
        proc.wait()
        reader.join()


def start_up() -> None:
    """Import what minimon imports and define a few dataclasses, as a
    minimon command does before its first step."""
    import argparse, collections, dataclasses, enum, itertools, random, re, shlex, typing  # noqa: E401,F401

    for i in range(12):
        cls = dataclasses.dataclass(frozen=True)(
            type(f"Row{i}", (), {"__annotations__": {"a": int, "b": str, "c": tuple}}))
        json.dumps(dataclasses.asdict(cls(i, "x", ())))
    argparse.ArgumentParser().parse_args([])


def main(argv: list[str]) -> int:
    if argv[1:] == ["startup"]:
        start_up()
        return 0
    if len(argv) != 4:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    index(argv[1], int(argv[2]))
    round_trips(int(argv[3]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
