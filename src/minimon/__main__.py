"""`python -m minimon`, and the `minimon` script: run the CLI without the
cyclic garbage collector, then end the process without interpreter
teardown."""

import atexit
import gc
import os
import sys


def hard_exit(code: int):
    """End the process with exit status `code`, skipping interpreter
    teardown: clearing modules and freeing every object the command built
    took about a tenth of a typical command's wall time.

    This does what an ordinary exit does before teardown, in its order: the
    `atexit` handlers run, then stdout and stderr are flushed. It is safe
    because every file is closed by a `with`, every `exec:` child is reaped
    before its command returns, and no thread is started. If a flush fails
    (a closed pipe, a closed or missing stream), the process exits the
    ordinary way instead, which flushes again and reports the failure."""
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


def run():
    """The `minimon` command: run `cli.main()` on `sys.argv`, then exit.

    The cyclic garbage collector is off from before `minimon.cli` is
    imported. A run keeps one record per distinct input until it ends (the
    monitor's first occurrences, its collision index, a program's memo), and
    the collector's passes over them freed nothing on any command of the
    benchmark. No command builds cyclic garbage that grows with its input,
    so reference counting frees what the collector would;
    `tests/test_cli.py::TestNoCyclicGarbage` pins that for every command.
    `cli.main(argv)` itself leaves the caller's `gc` setting as it is."""
    gc.disable()
    from .cli import main

    hard_exit(main())


if __name__ == "__main__":
    run()
