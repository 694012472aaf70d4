"""Line-protocol program for the benchmark's `exec:` commands.

    python3 bench/worker.py [COUNT_FILE]

Reads one request per line (input tokens joined by tabs) and replies
`v<a>_<b>`: the tokens joined by `_` behind a `v`. The function is injective,
so it is minimal in every notion and every exhaustive run ends in TRUE. Each
reply is flushed at once. At EOF it reports on stderr how many requests it
read, and writes the same number to COUNT_FILE when one is given: minimon
keeps the worker's stderr to itself, so the file is how the harness reads the
count. SIGTERM is ignored: minimon closes the worker's stdin before it sends
SIGTERM, and a handler racing that EOF could exit before the report.
"""

import signal
import sys


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    served = 0
    stdout = sys.stdout.buffer
    for line in sys.stdin.buffer:
        served += 1
        stdout.write(b"v" + b"_".join(line.rstrip(b"\n").split(b"\t")) + b"\n")
        stdout.flush()
    print(f"served {served} requests", file=sys.stderr, flush=True)
    if len(argv) > 1:
        with open(argv[1], "w", encoding="utf-8") as fh:
            fh.write(f"{served}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
