"""Byte identity of the CLI's output files on this tree and on another.

Runs one fixed set of ``shiftagg`` commands (:func:`commands`) once with
this repository's ``src`` first on ``PYTHONPATH`` and once with the given
tree's (``_harness.tree_env``), each side in a fresh temporary directory,
with BLAS pinned to one thread (importing ``_harness`` pins it). Each
command runs in its own process from its side's directory, with the same
relative paths on both sides, and its stdout is kept as ``<name>.stdout``.
The set: ``bench --trials 100 --seed 42 --dump-tasks 2`` with ``--threads
1`` and ``2``; on the first dumped task, ``estimate-ratio --seed 7`` (uLSIF
and logistic), ``aggregate`` with ``--ratio``, ``--beta``, ``--analytic``
and ``--oracle``, and ``select`` with ``--beta``, ``--ratio``,
``--analytic`` and no ratio; and ``probe`` on a fixed embedding dump.

Each file of either side is reported as one of:

* ``identical``;
* ``keys``: JSON that differs only by added (``+``) or removed (``-``)
  keys, each named by its path;
* ``values``: JSON whose values changed, with their paths and the largest
  relative change of a number;
* ``bytes``: any other difference, also a file on one side only.

"Added" means present on this tree and not on the other. The exit code is
0 when every file is identical and 1 otherwise:

    PYTHONPATH=src python3 benchmarks/bytes_against.py --against ../parent/src
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

import _harness  # before numpy: it pins BLAS to one thread
import numpy as np

# Trials of each ``bench`` run.
TRIALS = 100
# Changed JSON values listed per file; the count covers the rest.
LISTED = 5


def commands(inputs: pathlib.Path) -> list[tuple[str, list[str]]]:
    """``(name, argv)`` per command, in run order. ``inputs`` holds the
    files that both sides read (:func:`write_inputs`)."""
    task = ["--input", "bench_1/task_000"]
    ratio = ["--ratio", "ratio_ulsif/ratio.json"]
    beta = ["--beta", "ratio_ulsif/beta.csv"]
    logistic = ["--config", str(inputs / "logistic.json")]
    bench = ["bench", "--trials", str(TRIALS), "--seed", "42", "--dump-tasks", "2"]
    runs = [
        ("bench_1", [*bench, "--threads", "1"]),
        ("bench_2", [*bench, "--threads", "2"]),
        ("ratio_ulsif", ["estimate-ratio", *task, "--seed", "7"]),
        ("ratio_logistic", ["estimate-ratio", *task, "--seed", "7", *logistic]),
        ("aggregate_ratio", ["aggregate", *task, *ratio]),
        ("aggregate_beta", ["aggregate", *task, *beta]),
        ("aggregate_analytic", ["aggregate", *task, "--analytic"]),
        ("aggregate_oracle", ["aggregate", *task, "--oracle"]),
        ("select_beta", ["select", *task, *beta]),
        ("select_ratio", ["select", *task, *ratio]),
        ("select_analytic", ["select", *task, "--analytic"]),
        ("select_none", ["select", *task]),
    ]
    probe = ["probe", "--input", str(inputs / "embeddings.json"), "--epsilon", "0.5"]
    return [(name, [*argv, "--output", name]) for name, argv in runs] + [
        ("probe", [*probe, "--output", "probe.json"])
    ]


def write_inputs(inputs: pathlib.Path) -> None:
    """The logistic ratio config and a seeded three-layer embedding dump."""
    (inputs / "logistic.json").write_text(json.dumps({"estimator": "logistic"}))
    rng = np.random.Generator(np.random.Philox(21))
    layers = [
        {"l": layer, "p": rng.standard_normal((12, 4)).tolist(),
         "q": (rng.standard_normal((10, 4)) + 0.2 * layer).tolist()}
        for layer in range(3)
    ]
    (inputs / "embeddings.json").write_text(json.dumps({"layers": layers}))


def run_side(src: pathlib.Path, inputs: pathlib.Path, workdir: pathlib.Path) -> None:
    """Run every command with ``shiftagg`` imported from ``src``, from
    ``workdir``; stop at the first that fails."""
    env = _harness.tree_env(src)
    where = subprocess.run(
        [sys.executable, "-c", "import shiftagg; print(shiftagg.__file__)"],
        env=env, cwd=workdir, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if pathlib.Path(where).resolve().parent != src / "shiftagg":
        raise SystemExit(f"imported {where}, not the tree {src}")
    for name, argv in commands(inputs):
        done = subprocess.run(
            [sys.executable, "-m", "shiftagg.cli", *argv],
            env=env, cwd=workdir, capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise SystemExit(
                f"{name} on {src} exited {done.returncode}:\n{done.stderr}"
            )
        (workdir / f"{name}.stdout").write_text(done.stdout)


def _relative_change(a, b) -> float | None:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    return abs(a - b) / max(abs(a), abs(b)) if numbers else None


def _diff(src, against, path: str, keys: list, values: list) -> None:
    """Append each key only one side has (``+path`` or ``-path``) to
    ``keys``, and each other difference as ``(path, relative change)`` to
    ``values``."""
    if isinstance(src, dict) and isinstance(against, dict):
        def join(k):
            return f"{path}.{k}" if path else k

        keys += [f"+{join(k)}" for k in src if k not in against]
        keys += [f"-{join(k)}" for k in against if k not in src]
        for k in (k for k in src if k in against):
            _diff(src[k], against[k], join(k), keys, values)
    elif (
        isinstance(src, list) and isinstance(against, list)
        and len(src) == len(against)
    ):
        for i, (a, b) in enumerate(zip(src, against)):
            _diff(a, b, f"{path}[{i}]", keys, values)
    elif type(src) is not type(against) or src != against:
        values.append((path or "$", _relative_change(src, against)))


def _classify(name: str, src: bytes, against: bytes) -> tuple[str, str]:
    """The status and detail of a file whose bytes differ."""
    keys, values = [], []
    if name.endswith(".json"):
        try:
            _diff(json.loads(src), json.loads(against), "", keys, values)
        except ValueError:  # not JSON: compared as bytes
            pass
    if values:
        detail = ", ".join(path for path, _ in values[:LISTED])
        if len(values) > LISTED:
            detail += f" and {len(values) - LISTED} more"
        changes = [r for _, r in values if r is not None]
        if changes:
            detail += f"; largest relative change {max(changes):.3g}"
        if keys:
            detail += f"; keys {', '.join(keys)}"
        return "values", detail
    if keys:
        return "keys", ", ".join(keys)
    lines = zip(src.splitlines(), against.splitlines())
    line = next((i for i, (a, b) in enumerate(lines, 1) if a != b), None)
    if line is None:
        line = min(src.count(b"\n"), against.count(b"\n")) + 1
    return "bytes", f"first difference on line {line}"


def compare(src: pathlib.Path, against: pathlib.Path) -> list[tuple[str, str, str]]:
    """``(file, status, detail)`` for each file under either directory, by
    file name."""
    names = sorted(
        {p.relative_to(d).as_posix() for d in (src, against) for p in d.rglob("*")
         if p.is_file()}
    )
    report = []
    for name in names:
        a, b = src / name, against / name
        if not (a.is_file() and b.is_file()):
            side = "this tree" if a.is_file() else "the other tree"
            report.append((name, "bytes", f"only on {side}"))
        elif a.read_bytes() == b.read_bytes():
            report.append((name, "identical", ""))
        else:
            report.append((name, *_classify(name, a.read_bytes(), b.read_bytes())))
    return report


def run(src: pathlib.Path, against: pathlib.Path, workdir: pathlib.Path) -> list:
    """Run both sides under ``workdir`` (in ``inputs``, ``src`` and
    ``against``) and :func:`compare` them."""
    sides = {"src": src, "against": against}
    for name in ("inputs", *sides):
        (workdir / name).mkdir()
    write_inputs(workdir / "inputs")
    for name, tree in sides.items():
        run_side(tree.resolve(), workdir / "inputs", workdir / name)
    return compare(workdir / "src", workdir / "against")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", required=True, metavar="SRC",
                   help="the other tree's src directory")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        report = run(_harness.ROOT / "src", pathlib.Path(args.against), pathlib.Path(tmp))
    for name, status, detail in report:
        print(f"{status:<9} {name}" + (f"  {detail}" if detail else ""))
    counts = {s: sum(r[1] == s for r in report) for s in ("identical", "keys", "values", "bytes")}
    print(f"{len(report)} files: " + ", ".join(f"{n} {s}" for s, n in counts.items()))
    return 0 if counts["identical"] == len(report) else 1


if __name__ == "__main__":
    raise SystemExit(main())
