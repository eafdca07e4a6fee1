"""Run one benchmark workload against the ``shiftagg`` sources beside it.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics (ops per second,
set-up time, peak memory) with no instrumentation, then runs one op on the
fixed reference inputs for the accuracy metric ``agg_risk_vs_oracle``. With
``--trace 1`` it times the same ops untraced for half the window and traced
for the other half, and reports the per-layer metrics from the spans. Either way every
op's outputs are checked, a human-readable report goes to stdout, and the
last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are taken at reference host speed: each step's time is divided by
the time of a fixed calibration run around it (``perfbench/calibrate.py``).
The full result (environment, per-op times, calibration times, and in a
traced run every span) is written to ``.perfbench_results/`` at the
repository root.
Inputs come only from ``--seed``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "agg_risk_vs_oracle": "1",
}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up samples per untraced run, each in a fresh child process, because an
# import can only be timed once per process.
SETUP_REPEATS = {"full": 5, "tiny": 2}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", required=True, choices=("suite", "cli_pipeline", "wide_family")
    )
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument(
        "--size",
        default="full",
        choices=("full", "tiny"),
        help="input sizes; 'tiny' is for the benchmark's own smoke tests",
    )
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up, print it in seconds and exit",
    )
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _setup(args, workdir):
    """Import ``shiftagg`` and generate the workload's inputs, timed."""
    t0 = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
    return wl, time.perf_counter() - t0


def _child_setup_s(args) -> float:
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0", "--size", args.size, "--setup-only",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _blas_threads():
    """OpenBLAS's runtime thread count, if numpy bundles OpenBLAS."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ.get(k)
            for k in BLAS_THREAD_VARS
        },
        "machine": platform.machine(),
    }


class _Tally:
    def __init__(self, wl, cal):
        self.wl = wl
        self.cal = cal
        self.attempted = 0
        self.failed = 0
        self.ratios: list[float] = []

    def run_op(self, tracer=None) -> list[tuple[float, float]]:
        """One op, timed, then its outputs checked. Returns each step's wall
        time and its time at reference host speed (one pair for the whole op
        when traced); a failed op's are infinite.

        Untraced, a calibration runs before the first step and after each
        step, and each step is normalised by the two around it. Traced, the
        calibrations bracket the whole op, outside its ``op`` span. The
        wrappers are installed only around a traced op, so the checks never
        add spans.
        """
        from perfbench.spans import uninstall

        steps = self.wl.steps
        self.wl.reset()
        undo = tracer.install() if tracer is not None else []
        try:
            try:
                if tracer is None:
                    outs, times = _timed(steps, self.cal)
                else:
                    before = self.cal()
                    outs, raw = tracer.run_op(lambda: _timed(steps))
                    wall = sum(t for t, _ in raw)
                    times = [(wall, self.cal.normalised(wall, before, self.cal()))]
            except Exception:
                traceback.print_exc()
                outs, times = None, [(math.inf, math.inf)]
        finally:
            uninstall(undo)
        n = self.wl.ops_per_call
        try:
            outcome = self.wl.check(outs) if outs is not None else None
        except Exception:
            traceback.print_exc()
            outcome = None
        self.attempted += n
        if outcome is None:
            self.failed += n
        else:
            self.failed += outcome.failed
            if outcome.agg_risk_vs_oracle is not None:
                self.ratios.append(outcome.agg_risk_vs_oracle)
        return times

    def run_window(self, seconds: float, tracer=None) -> list:
        """Ops until the next one would end more than half an op late.
        Returns each op's step times."""
        ops: list = []
        t0 = time.perf_counter()
        while True:
            ops.append(self.run_op(tracer))
            typical = _median_op_s(ops, wall=True)
            if time.perf_counter() - t0 + 0.5 * typical > seconds:
                return ops


def _timed(steps, cal=None) -> tuple[list, list[tuple[float, float]]]:
    """Each step's output, and its (wall, reference-speed) time; with no
    ``cal`` the second is the wall time too."""
    outs, times = [], []
    before = cal() if cal is not None else None
    for step in steps:
        t0 = time.perf_counter()
        outs.append(step())
        wall = time.perf_counter() - t0
        if cal is None:
            times.append((wall, wall))
        else:
            after = cal()
            times.append((wall, cal.normalised(wall, before, after)))
            before = after
    return outs, times


def _median_op_s(ops: list, wall: bool = False) -> float:
    """Median op time, at reference host speed or on the wall clock."""
    return statistics.median(sum(step[0 if wall else 1] for step in op) for op in ops)


def _reference_risk_ratio(args, workdir, tally: _Tally) -> float:
    """``agg_risk_vs_oracle`` from one checked op on the reference inputs.

    The inputs come from the fixed ``REFERENCE_SEED``, not ``--seed``: the
    ratio is deterministic, but it differs from seed to seed by more than any
    bound could allow, so only fixed inputs make it comparable across runs.
    The op is added to ``tally``; 0 means its check failed.
    """
    from perfbench.workloads import REFERENCE_SEED, WORKLOADS

    ref = _Tally(WORKLOADS[args.workload](REFERENCE_SEED, args.size, workdir), tally.cal)
    ref.run_op()
    tally.attempted += ref.attempted
    tally.failed += ref.failed
    return statistics.median(ref.ratios) if ref.ratios else 0.0


def _setup_samples(args, cal) -> list:
    """Set-ups in fresh processes, each between two calibrations in this
    one, shaped like ops of one step."""
    out = []
    for _ in range(SETUP_REPEATS[args.size]):
        before = cal()
        wall = _child_setup_s(args)
        out.append([(wall, cal.normalised(wall, before, cal()))])
    return out


def _measure(args, workdir) -> tuple[dict, dict, _Tally]:
    """Returns (contract metrics, extra report, tally)."""
    from perfbench import spans
    from perfbench.calibrate import Calibrator

    wl, _ = _setup(args, workdir)
    tally = _Tally(wl, Calibrator())
    tally.run_op()  # warm-up: checked and counted, not timed
    extra: dict = {}
    if not args.trace:
        setups = _setup_samples(args, tally.cal)
        ops = tally.run_window(args.seconds)
        metrics = {
            "ops_per_s": wl.ops_per_call / _median_op_s(ops),
            "setup_s": _median_op_s(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "agg_risk_vs_oracle": _reference_risk_ratio(args, workdir, tally),
        }
        extra.update(
            setup_times_s=setups, op_times_s=ops, calibration_s=tally.cal.samples
        )
        return metrics, extra, tally
    untraced = tally.run_window(args.seconds / 2)
    tracer = spans.Tracer()
    traced = tally.run_window(args.seconds / 2, tracer)
    metrics = spans.per_layer_metrics(tracer, len(traced) * wl.ops_per_call)
    metrics["trace.overhead_pct"] = 100.0 * (
        _median_op_s(traced) / _median_op_s(untraced) - 1.0
    )
    extra.update(
        untraced_op_times_s=untraced,
        traced_op_times_s=traced,
        calibration_s=tally.cal.samples,
        spans=[asdict(s) for s in tracer.spans],
    )
    return metrics, extra, tally


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shiftagg", "__init__.py")):
        print(f"perfbench: no shiftagg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    # One BLAS thread, set before numpy loads (set-up children inherit it):
    # on a few shared cores, more threads measure the scheduler.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    if args.setup_only:
        print(_setup(args, workdir)[1])
        return 0
    from perfbench.calibrate import REFERENCE_S
    from perfbench.spans import PER_LAYER_UNITS

    try:
        metrics, extra, tally = _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    # Reported but not bounded: error_rate is 0 at a correct commit, and the
    # risk ratio on --seed's own inputs varies too much from seed to seed.
    report = {
        "error_rate": tally.failed / tally.attempted,
        "seed_agg_risk_vs_oracle": (
            statistics.median(tally.ratios) if tally.ratios else None
        ),
    }
    env = _environment()
    outdir = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(
        outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"args": vars(args), "env": env, "result": result, "report": report,
             **extra},
            fh,
            indent=1,
        )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    ratio = report["seed_agg_risk_vs_oracle"]
    print(f"  {'error_rate':<44} {report['error_rate']:.6g} 1"
          f"  ({tally.failed} failed of {tally.attempted} ops)")
    print(f"  {'seed_agg_risk_vs_oracle':<44} "
          f"{'n/a' if ratio is None else format(ratio, '.6g')} 1")
    for key, times in extra.items():
        if key.endswith("times_s"):
            wall = [sum(step[0] for step in op) for op in times]
            print(f"  {key:<44} n={len(times)} "
                  f"median at reference speed={_median_op_s(times):.4g} "
                  f"wall min={min(wall):.4g} median={statistics.median(wall):.4g} "
                  f"max={max(wall):.4g}")
    cal = extra["calibration_s"]
    print(f"  {'calibration_s':<44} n={len(cal)} median={statistics.median(cal):.4g} "
          f"(reference {REFERENCE_S})")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    print(f"  full result: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
