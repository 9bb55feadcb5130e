"""Store the stdout of every unseeded benchmark command under ``expected/``.

Usage (from the repository root)::

    python3 cmdbench/record_expected.py

Run it only when a change to ``repro`` alters a report on purpose, and
review the diff of ``expected/`` like any other output change.  Each
command runs with an empty cache and must still pass its known-answer
checks (``corpus.check`` without the stored output), so a wrong verdict
is never recorded.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import time

import corpus
from run import WORK, Bench


def main() -> int:
    run_dir = os.path.join(WORK, f"record-{os.getpid()}")
    os.makedirs(run_dir)
    os.makedirs(corpus.EXPECTED_DIR, exist_ok=True)
    failures = 0
    try:
        workload = corpus.Workload("record", [], cold=True)
        bench = Bench(workload, random.Random(0), run_dir, time.monotonic() + 3600)
        for command in corpus.all_unseeded():
            code, _, _, stdout, stderr = bench.spawn(
                [sys.executable, "-m", "repro", *command.argv],
                dict(bench.fresh_env().variables, REPRO_CACHE_DIR=os.path.join(run_dir, "cache")),
                "record",
            )
            shutil.rmtree(os.path.join(run_dir, "cache"), ignore_errors=True)
            expected = {command.expected_name: stdout}
            problems = corpus.check(command, code, stdout, stderr, expected)
            if problems:
                failures += 1
                print(f"not recorded: repro {command.label}: {'; '.join(problems)}", file=sys.stderr)
                continue
            with open(os.path.join(corpus.EXPECTED_DIR, command.expected_name), "w") as handle:
                handle.write(stdout)
            print(f"recorded {command.expected_name}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
