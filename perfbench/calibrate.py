"""A fixed piece of work that tells how fast the host runs right now.

The benchmark runs on a shared host whose speed drifts by 20-40% over
seconds to minutes, with no steal time to show for it: the program's own
instructions just run slower. The drift is slow next to an op's steps, so a
fixed calibration run right before and right after a step sees the same
host speed as the step. Dividing the step's time by theirs removes the
drift; multiplying by :data:`REFERENCE_S` turns the result back into
seconds on a host where the calibration takes exactly that long.

The work mixes the three kinds of work the workloads do: interpreted
Python (floats to text and back, as in the bundle's CSV files), Gaussian
kernel fits (as in uLSIF cross-validation) and matrix products (as in the
kernel matrices of uLSIF at large n). It uses numpy only, never ``shiftagg``,
so no change to the program changes it.
"""

from __future__ import annotations

import time

import numpy as np

# A fixed scale, of the order of the calibration's time on the 2-vCPU
# x86_64 VM of perfbench/README.md (0.05-0.08 s there, with the host's load).
REFERENCE_S = 0.045


class Calibrator:
    """Call it to run the calibration once; it returns the seconds taken,
    and keeps them in ``samples``."""

    def __init__(self):
        self.samples: list[float] = []
        rng = np.random.default_rng(0)
        self.floats = rng.standard_normal(20_000).tolist()
        self.wide = rng.standard_normal((300, 3000))
        self.points = rng.standard_normal((500, 5))

    def _python(self) -> float:
        # Text round trip of floats, as in the bundle's CSV files.
        text = ",".join(format(v, ".17g") for v in self.floats)
        return sum(float(cell) for cell in text.split(","))

    def _kernel_fits(self) -> None:
        # Gaussian kernel least squares at the suite's size: 500 points,
        # 100 centres, as in one uLSIF fit.
        x, c = self.points, self.points[:100]
        sq = (x * x).sum(axis=1)[:, None] - 2.0 * x @ c.T + (c * c).sum(axis=1)
        for width in np.linspace(0.5, 2.0, 40):
            k = np.exp(-sq / (2.0 * width * width))
            np.linalg.solve(k.T @ k / len(x) + 0.1 * np.eye(len(c)), k.mean(axis=0))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._python()
        self._kernel_fits()
        for _ in range(2):
            self.wide @ self.wide.T
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    @staticmethod
    def normalised(seconds: float, cal_before: float, cal_after: float) -> float:
        """``seconds`` measured between two calibrations, at reference speed."""
        return seconds * REFERENCE_S / ((cal_before + cal_after) / 2.0)
