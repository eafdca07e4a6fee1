"""Start-up cost of fresh ``shiftagg`` processes: wall time and peak memory.

Each point spawns ``REPEATS`` fresh interpreters, after one untimed
warm-up spawn, and records for each its wall time from spawn to exit and
its peak resident memory, the ``ru_maxrss`` that ``os.wait4`` reports for
that child alone (the spawns come from a bare helper interpreter, see
``_SPAWNER``):

* ``import_cli``: ``python -c "import shiftagg.cli"``;
* ``aggregate_ratio``: ``python -m shiftagg.cli aggregate --ratio`` on the
  first task of ``bench --trials 1 --seed 42 --dump-tasks 1`` (the default
  suite task: n_s = n_t = 500, 10 models), with the uLSIF model that
  ``estimate-ratio --seed 7`` fits to it. Both are made, untimed, before the
  point's spawns.

Every child runs the ``shiftagg`` tree this process imported, alone on its
``PYTHONPATH``, with BLAS pinned to one thread by ``_harness``; its stdout
goes to ``/dev/null``. A row holds every wall time and peak (MB, that is
MiB) with their medians, ``median_s`` and ``maxrss_median_mb``. The JSON
output adds the CPU count and the numpy/BLAS build; with ``--against`` (see
``_harness``) both trees are measured in alternating rounds. Uses the
standard library besides numpy and shiftagg itself.

    PYTHONPATH=src python3 benchmarks/startup_scaling.py \\
        --output BENCH_26.json --against ../parent/src
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

import _harness  # first: pins BLAS to one thread before numpy loads

import shiftagg

REPEATS = 10
SRC = str(pathlib.Path(shiftagg.__file__).resolve().parents[1])
# The children are spawned by this small interpreter, not by the point's own
# process: Linux carries the spawner's peak RSS across fork (or vfork) and
# exec into the child's ru_maxrss, so a child of a large process would
# report that process's peak. Its floor is a bare interpreter's, about 13 MB.
# It prints [wall s, peak MiB, wait status] per spawn after an untimed
# warm-up spawn (page cache, bytecode caches), with each child's stdout on
# /dev/null.
_SPAWNER = """
import json, os, sys, time
argv, repeats = json.loads(sys.stdin.read())
quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
rows = []
for _ in range(repeats + 1):
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    rows.append([time.perf_counter() - t0, usage.ru_maxrss / 1024, status])
print(json.dumps(rows[1:]))
"""


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": SRC}


def _run(args: list[str], stdin: str = "") -> str:
    """The stdout of ``python *args``; its stderr too if it fails."""
    done = subprocess.run(
        [sys.executable, *args], input=stdin, env=_env(), capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"{args} failed:\n{done.stderr}")
    return done.stdout


def _point(key: str, args: list[str]) -> dict:
    argv = [sys.executable, *args]
    rows = json.loads(_run(["-c", _SPAWNER], json.dumps([argv, REPEATS])))
    if any(os.waitstatus_to_exitcode(status) != 0 for *_, status in rows):
        raise SystemExit(f"{argv} failed: wait statuses {[r[2] for r in rows]}")
    walls, peaks = [r[0] for r in rows], [r[1] for r in rows]
    median, peak = statistics.median(walls), statistics.median(peaks)
    print(f"{key}: median {median:.3f} s, {peak:.1f} MB", file=sys.stderr)
    return {
        "times_s": walls,
        "median_s": median,
        "maxrss_mb": peaks,
        "maxrss_median_mb": peak,
    }


def import_point() -> dict:
    return _point("import_cli", ["-c", "import shiftagg.cli"])


def aggregate_point() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        task = os.path.join(tmp, "task_000")
        ratio_dir = os.path.join(tmp, "ratio")
        _run(["-m", "shiftagg.cli", "bench", "--trials", "1", "--seed", "42",
              "--dump-tasks", "1", "--output", tmp])
        _run(["-m", "shiftagg.cli", "estimate-ratio", "--input", task,
              "--output", ratio_dir, "--seed", "7"])
        return _point(
            "aggregate_ratio",
            ["-m", "shiftagg.cli", "aggregate", "--input", task,
             "--ratio", os.path.join(ratio_dir, "ratio.json"),
             "--output", os.path.join(tmp, "aggregate")],
        )


def curves() -> dict:
    return {"import_cli": [import_point], "aggregate_ratio": [aggregate_point]}


if __name__ == "__main__":
    raise SystemExit(
        _harness.main(
            __doc__.splitlines()[0],
            "fresh-process start-up: import shiftagg.cli; aggregate --ratio",
            {"bench": {"trials": 1, "seed": 42}, "estimate_ratio_seed": 7},
            REPEATS,
            curves,
        )
    )
