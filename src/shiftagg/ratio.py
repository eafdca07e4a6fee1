"""Density-ratio estimation for covariate-shift reweighting.

Estimates ``beta(x) = dq_X/dp_X(x)``, the ratio of target to source input
densities, truncated to ``[0, B]``. Two estimators are provided:

* ``ulsif`` -- least-squares importance fitting with a Gaussian kernel
  basis centered on target samples. The coefficients have the closed form
  ``alpha = (H + lam*I)^-1 h`` with
  ``H[l,l'] = mean_i K(xs_i, c_l) K(xs_i, c_l')`` over source samples and
  ``h[l] = mean_j K(xt_j, c_l)`` over target samples. Kernel width and
  ridge strength are chosen on a grid by k-fold cross-validation of the
  squared-loss objective ``J = 0.5*mean_src(beta^2) - mean_tgt(beta)``
  (lower is better).

* ``logistic`` -- a regularized logistic classifier separating source from
  target samples, fit by damped Newton (IRLS); the ratio follows from the
  class odds,
  ``beta(x) = (n_s/n_t) * p(target|x) / (1 - p(target|x))``.

Both return a :class:`RatioModel` that evaluates deterministically; raw
scores are clamped into ``[0, B]`` at evaluation time only, so the fitted
coefficients stay exactly what the closed form / optimizer produced.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import (
    AllZeroWeights,
    ConfigInvalid,
    DimensionMismatch,
    EmptyInput,
    MalformedFile,
    NegativeWeight,
    NonConvergence,
    NonFiniteValue,
    NumericalError,
    SingularSystem,
    ValidationError,
)
from .serialize import decode_object, decode_value, read_json, write_json

__all__ = [
    "RatioModel",
    "RatioFitConfig",
    "fit_ulsif",
    "fit_logistic_ratio",
    "fit_ratio",
    "evaluate_ratio",
    "self_normalize",
    "analytic_gaussian_ratio",
    "save_ratio_model",
    "load_ratio_model",
]

DEFAULT_BOUND = 20.0
DEFAULT_RIDGE_GRID = (1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_WIDTH_SCALES = (0.1, 0.3, 1.0, 3.0, 10.0)
# Points the width heuristic draws from a larger pooled sample. The median of
# their 44 850 pairwise distances moves by about 1.5% from draw to draw, far
# inside the width grid's 3x steps, at an eighth of the cost of 1000 points.
_WIDTH_SAMPLE = 300
# Rows per block of the width heuristic's walk over the upper triangle: at
# _WIDTH_SAMPLE points its float64 block buffer takes 77 KB.
_WIDTH_BLOCK = 32
# Rows per block of _sq_dists: at 100 centers its float64 buffer takes 100 KB,
# below glibc's default 128 KiB mmap threshold.
_SQ_BLOCK = 128


def _lapack_cholesky(linalg_dir: str | None):
    """LAPACK ``dpotrf`` and ``dpotrs``: the very objects
    ``scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)``
    returns, taken from scipy's compiled ``_flapack`` module in
    ``linalg_dir`` without importing the ``scipy.linalg`` package, whose
    ``__init__`` loads ``scipy._lib``, ``numpy.f2py`` and ``numpy.testing``
    besides, at a cost to every process's start-up and memory. Loading the
    extension registers it in ``sys.modules``; that entry is dropped again
    (one that was there before is left), since a submodule found there when
    its package is imported later is never bound as the package's
    attribute. A later ``import scipy.linalg`` then loads ``_flapack`` as
    usual and binds it, with these same routines. Where the file is missing
    or does not load on its own (a frozen app, another wheel layout), the
    package gives the pair as before.
    """
    if linalg_dir is not None:
        finder = FileFinder(linalg_dir, (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec("scipy.linalg._flapack")
        if spec is not None:
            registered = spec.name in sys.modules
            try:
                module = importlib.util.module_from_spec(spec)
            except ImportError:  # its libraries need the package's own set-up
                pass
            else:
                spec.loader.exec_module(module)
                if not registered:
                    sys.modules.pop(spec.name, None)
                return module.dpotrf, module.dpotrs
    import scipy.linalg

    return tuple(scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64))


# find_spec of a top-level name locates scipy without importing it.
_SCIPY = importlib.util.find_spec("scipy")
_POTRF, _POTRS = _lapack_cholesky(
    None
    if _SCIPY is None or not _SCIPY.submodule_search_locations
    else os.path.join(_SCIPY.submodule_search_locations[0], "linalg")
)

# The parameters of an analytic model, and the keys of each kind of
# ratio.json besides "kind" and "bound", in the order they are written, with
# the types they decode to.
_ANALYTIC_PARAMS = {
    "source_mean": tuple[float, ...],
    "target_mean": tuple[float, ...],
    "cov_scale": float,
}
_DOC_KEYS = {
    "ulsif": {
        "kernel_width": float,
        "centers": np.ndarray,
        "alpha": np.ndarray,
        "cv": dict | None,
    },
    "logistic": {
        "classifier_weights": np.ndarray,
        "ns_over_nt": float,
        "cv": dict | None,
    },
    "analytic": {"params": dict},
}


@dataclass(frozen=True)
class RatioModel:
    """A fitted (or analytic) density-ratio model.

    Only the fields of the matching ``kind`` are populated:
    ``ulsif`` uses ``centers``/``alpha``/``kernel_width``; ``logistic``
    uses ``classifier_weights`` (length ``d1 + 1``, bias last) and
    ``ns_over_nt``; ``analytic`` uses ``params`` (isotropic-Gaussian pair:
    ``source_mean`` and ``target_mean``, tuples of floats, and the float
    ``cov_scale``; only :func:`ratio_model_from_dict` decodes them from
    JSON, construction checks their lengths and sign). A fitted ``ulsif``
    model also carries ``cv``, its cross-validation record: the ``widths``
    and ``ridges`` grids, the ``scores`` grid (``None`` where a cell was
    refused), the chosen ``width_index`` and ``ridge_index``,
    ``width_on_edge`` and ``ridge_on_edge``, true when that index is first
    or last in its grid, and ``on_grid_edge``, their OR. A fitted
    ``logistic`` model's ``cv`` holds the ``ridges`` grid, the mean held-out
    log-loss of each (``scores``), the
    chosen ``ridge_index`` and ``ridge_on_edge``, and the refit's Newton
    step count (``newton_steps``) and final gradient norm
    (``gradient_norm``). A model read from a file written without ``cv``
    has ``None``.
    """

    kind: str
    bound: float
    centers: np.ndarray | None = None
    alpha: np.ndarray | None = None
    kernel_width: float | None = None
    classifier_weights: np.ndarray | None = None
    ns_over_nt: float | None = None
    params: dict | None = None
    cv: dict | None = None

    def __post_init__(self):
        if self.kind not in ("ulsif", "logistic", "analytic"):
            raise ConfigInvalid(f"unknown ratio model kind {self.kind!r}")
        if not self.bound > 0:
            raise ConfigInvalid(f"bound must be positive, got {self.bound}")
        if self.kind == "ulsif":
            if self.centers is None or self.alpha is None or self.kernel_width is None:
                raise ConfigInvalid("ulsif model needs centers, alpha, kernel_width")
            if not self.kernel_width > 0:
                raise ConfigInvalid("kernel width must be positive")
            c = np.ascontiguousarray(self.centers, dtype=np.float64)
            a = np.ascontiguousarray(self.alpha, dtype=np.float64)
            if c.ndim != 2 or a.shape != (c.shape[0],):
                raise DimensionMismatch(
                    f"centers {c.shape} and alpha {a.shape} are inconsistent"
                )
            c.setflags(write=False)
            a.setflags(write=False)
            object.__setattr__(self, "centers", c)
            object.__setattr__(self, "alpha", a)
        elif self.kind == "logistic":
            if self.classifier_weights is None or self.ns_over_nt is None:
                raise ConfigInvalid("logistic model needs weights and ns_over_nt")
            w = np.ascontiguousarray(self.classifier_weights, dtype=np.float64)
            if w.ndim != 1 or w.shape[0] < 2:
                raise DimensionMismatch("classifier weights must be a vector [d1+1]")
            w.setflags(write=False)
            object.__setattr__(self, "classifier_weights", w)
        else:
            p = self.params
            mu_p, mu_q = p["source_mean"], p["target_mean"]
            if not (mu_p and len(mu_p) == len(mu_q) and p["cov_scale"] > 0):
                raise ConfigInvalid(
                    "analytic params need equal, non-zero mean lengths and "
                    f"cov_scale > 0; got {p}"
                )

    @property
    def feature_dim(self) -> int:
        if self.kind == "ulsif":
            return self.centers.shape[1]
        if self.kind == "logistic":
            return self.classifier_weights.shape[0] - 1
        return len(self.params["source_mean"])


@dataclass(frozen=True)
class RatioFitConfig:
    """Grid and bookkeeping for ratio fitting, shared by both estimators;
    which one runs is the caller's choice (see :func:`fit_ratio`).

    ``kernel_widths=None`` selects the standard data-driven grid
    ``{0.1, 0.3, 1, 3, 10} * median pairwise distance``. ``n_centers=None``
    becomes ``min(100, n_t)``.
    """

    kernel_widths: tuple[float, ...] | None = None
    ridge_strengths: tuple[float, ...] = DEFAULT_RIDGE_GRID
    n_centers: int | None = None
    cv_folds: int = 5
    bound: float = DEFAULT_BOUND
    seed: int = 0

    def __post_init__(self):
        if self.kernel_widths is not None:
            widths = tuple(float(w) for w in self.kernel_widths)
            if not widths or not all(0 < w < math.inf for w in widths):
                raise ConfigInvalid(
                    f"kernel_widths must be finite and positive, got {widths}"
                )
            object.__setattr__(self, "kernel_widths", widths)
        ridges = tuple(float(r) for r in self.ridge_strengths)
        if not ridges or not all(0 < r < math.inf for r in ridges):
            raise ConfigInvalid(
                f"ridge_strengths must be finite and positive, got {ridges}"
            )
        object.__setattr__(self, "ridge_strengths", ridges)
        if self.n_centers is not None and self.n_centers < 1:
            raise ConfigInvalid("n_centers must be >= 1")
        if self.cv_folds < 2:
            raise ConfigInvalid("cv_folds must be >= 2")
        if not 0 < self.bound < math.inf:
            raise ConfigInvalid(f"bound must be finite and positive, got {self.bound}")
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be >= 0, got {self.seed}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def _check_xy(source_x, target_x) -> tuple[np.ndarray, np.ndarray]:
    xs = np.atleast_2d(np.asarray(source_x, dtype=np.float64))
    xt = np.atleast_2d(np.asarray(target_x, dtype=np.float64))
    if xs.size == 0 or xt.size == 0:
        raise EmptyInput("need at least one sample and one feature column per domain")
    if xs.ndim != 2 or xt.ndim != 2:
        raise DimensionMismatch("feature arrays must be 2-D")
    if xs.shape[1] != xt.shape[1]:
        raise DimensionMismatch(
            f"source has {xs.shape[1]} feature columns, target has {xt.shape[1]}"
        )
    # A finite squared row norm bounds every squared distance the kernels
    # take, so this also refuses features whose squares overflow (1e200).
    with np.errstate(over="ignore"):
        finite = all(np.isfinite(np.sum(x * x, axis=1)).all() for x in (xs, xt))
    if not finite:
        raise NonFiniteValue(
            "feature arrays contain non-finite values, or a row whose squared "
            "norm overflows"
        )
    return xs, xt


def _sq_dists(x: np.ndarray, c: np.ndarray, out=None) -> np.ndarray:
    """Squared Euclidean distances, shape (len(x), len(c)), written into
    ``out`` when it is given.

    Each entry is ``(|x|^2 + |c|^2) - (2 x) . c``, clamped at 0. The product
    is one BLAS call straight into ``out`` (a sub-block product need not
    round each entry as the whole product does); the norm sums are then
    formed ``_SQ_BLOCK`` rows at a time in one block-sized buffer, so no
    temporary of the full size is made.
    """
    if out is None:
        out = np.empty((x.shape[0], c.shape[0]))
    x2 = np.sum(x * x, axis=1)[:, None]
    c2 = np.sum(c * c, axis=1)
    np.matmul(2.0 * x, c.T, out=out)
    buf = np.empty((min(_SQ_BLOCK, x.shape[0]), c.shape[0]))
    for s in range(0, x.shape[0], _SQ_BLOCK):
        d2 = out[s : s + _SQ_BLOCK]
        sums = np.add(x2[s : s + _SQ_BLOCK], c2, out=buf[: len(d2)])
        np.subtract(sums, d2, out=d2)
        np.maximum(d2, 0.0, out=d2)
    return out


def _gaussian_kernel(d2: np.ndarray, width: float, out=None) -> np.ndarray:
    """``exp(-d2 / (2 width^2))`` of squared distances, written into ``out``
    when it is given."""
    out = np.divide(d2, -2.0 * width * width, out=out)
    return np.exp(out, out=out)


def _median_pairwise_distance(x: np.ndarray, rng: np.random.Generator) -> float:
    """Median distance between distinct points (at most ``_WIDTH_SAMPLE``,
    drawn by ``rng``), or 1.0 when all coincide.

    The squared distances are ``_sq_dists``'s, bit for bit: its product
    term is one BLAS call, as there, since a sub-block product need not round
    each entry as the whole product does. The rest walks the strict upper
    triangle ``_WIDTH_BLOCK`` rows at a time through one reused buffer and
    copies every value, in row order, into the product's own spent rows.
    Coincident pairs are those whose value is not positive (``_sq_dists``
    clamps them to 0): they are counted once, at the end, and the median is
    the order statistic that many places above the positive values' middle,
    found by one in-place partition.
    """
    n = x.shape[0]
    if n > _WIDTH_SAMPLE:
        x = x[rng.choice(n, _WIDTH_SAMPLE, replace=False)]
        n = _WIDTH_SAMPLE
    x2 = np.sum(x * x, axis=1)
    prod = 2.0 * x @ x.T
    packed = prod.reshape(-1)
    b = min(_WIDTH_BLOCK, n)
    d2_buf = np.empty(b * n)
    upper = np.arange(b) > np.arange(b)[:, None]  # a diagonal block's strict upper part
    size = 0
    for s in range(0, n, b):
        rows, cols = min(b, n - s), n - s
        d2 = d2_buf[: rows * cols].reshape(rows, cols)
        np.add(x2[s : s + rows, None], x2[s:], out=d2)
        d2 -= prod[s : s + rows, s:]
        # Rows before s + rows are read, and the pairs so far fit in them:
        # first the diagonal block's part, then every column past the block.
        tri = d2[:, :rows][upper[:rows, :rows]]
        packed[size : size + tri.size] = tri
        size += tri.size
        rect = packed[size : size + rows * (cols - rows)]
        rect.reshape(rows, cols - rows)[...] = d2[:, rows:]
        size += rect.size
    vals = packed[:size]
    skip = np.count_nonzero(vals <= 0.0)
    if skip == size:
        return 1.0
    # np.median's value of the positive values from one partition: the k-th
    # order statistic is unique, and for an even count the lower middle value
    # is the largest below it.
    k = skip + (size - skip) // 2
    vals.partition(k)
    med = vals[k] if (size - skip) % 2 else (vals[:k].max() + vals[k]) / 2.0
    return float(np.sqrt(med))


def _fold_ids(n: int, folds: int, rng: np.random.Generator) -> np.ndarray:
    # With folds >= n every sample is its own fold, whatever the count.
    ids = np.arange(n) % min(folds, n)
    return ids[rng.permutation(n)]


def _fold_slices(ids: np.ndarray) -> list[slice]:
    """The rows of each fold id, in order, once the rows are stably sorted by
    ``ids`` (each of ``0 .. ids.max()`` present)."""
    ends = np.cumsum(np.bincount(ids)).tolist()
    return [slice(a, b) for a, b in zip([0, *ends], ends)]


def _resolve_grid(
    xs: np.ndarray, xt: np.ndarray, cfg: RatioFitConfig, rng: np.random.Generator
) -> tuple[tuple[float, ...], int]:
    n_t = xt.shape[0]
    n_c = cfg.n_centers if cfg.n_centers is not None else min(100, n_t)
    if n_c > n_t:
        raise ConfigInvalid(f"n_centers={n_c} exceeds target sample count {n_t}")
    widths = cfg.kernel_widths
    if widths is None:
        med = _median_pairwise_distance(np.vstack([xs, xt]), rng)
        med = max(med, np.finfo(float).tiny)
        widths = tuple(s * med for s in DEFAULT_WIDTH_SCALES)
    return widths, n_c


def fit_ulsif(source_x, target_x, cfg: RatioFitConfig) -> RatioModel:
    """Fit the kernel-basis least-squares ratio estimator.

    Centers are drawn without replacement from the target sample using the
    config seed. The (width, ridge) pair minimizing the cross-validated
    squared-loss objective is refit on all data; the returned ``alpha`` is
    the exact solution of ``(H + lam*I) alpha = h`` (possibly with negative
    entries, which only evaluation clamps away).

    The default width grid scales the median pairwise distance, found with
    one count and one partition of the upper triangle's values, copied a
    block of rows at a time into the n x n product term's own memory (no
    distance matrix of that size). After the draws, both samples' rows are
    stably sorted by fold id, so each fold is a slice (a view) of the
    kernels. The distances to the centers are computed once per fit, and
    each width refills the kernels from them in place; distances and kernels
    of both domains share one block. ``H`` and
    ``h`` are sums over samples: each width builds every fold's Gram
    ``K_s[f].T @ K_s[f]`` and column sum ``K_t[f].sum(0)`` once, and the
    whole sample's ``H_tot``/``h_tot`` are their sums over every fold
    present, scored or not. Then, fold by fold, the training system (the
    whole sum minus that fold's part) is built once and solved by LAPACK
    ``potrf``/``potrs`` for every ridge no earlier fold of this width has
    refused; a refusal drops the ridge for the rest of the width. Each
    ridge's held-out ratio values fill one row of a ridges x fold-rows
    buffer per domain, and each buffer is clipped, squared (source) and
    summed row by row once per fold. The refit solves the chosen width's
    whole sums. The returned model's ``cv`` block holds the score grid, the
    chosen cell and which of its grids' edges that cell lies on.
    """
    xs, xt = _check_xy(source_x, target_x)
    rng = _rng(cfg.seed)
    widths, n_c = _resolve_grid(xs, xt, cfg, rng)
    centers = xt[np.sort(rng.choice(xt.shape[0], n_c, replace=False))]

    fold_s = _fold_ids(xs.shape[0], cfg.cv_folds, rng)
    fold_t = _fold_ids(xt.shape[0], cfg.cv_folds, rng)
    # Sorted by fold id, every fold's rows are one slice (a view) of the kernels.
    xs = xs[np.argsort(fold_s, kind="stable")]
    xt = xt[np.argsort(fold_t, kind="stable")]
    slices_s, slices_t = _fold_slices(fold_s), _fold_slices(fold_t)
    # A fold past the smaller sample's size holds none of its samples. A fold
    # is scored only if it leaves samples of both domains on both sides; as
    # cv_folds >= 2, every fold below n_scored does once each domain has two
    # samples, and none does while one has a single sample.
    n_scored = min(cfg.cv_folds, xs.shape[0], xt.shape[0])
    if n_scored < 2:
        raise ConfigInvalid(
            f"no cross-validation fold can be scored with n_s={xs.shape[0]}, "
            f"n_t={xt.shape[0]} and cv_folds={cfg.cv_folds}; each domain needs "
            "at least two samples"
        )

    ridges = cfg.ridge_strengths
    scores = np.full((len(widths), len(ridges)), np.nan)
    sums = []  # per width: the whole sample's (H_tot, h_tot), kept for the refit
    # Per domain, room for a scored fold's held-out ratio values at every
    # ridge, one row each; and each ridge's held-out score on every fold.
    buf_s, buf_t = (
        np.empty(len(ridges) * max(r.stop - r.start for r in slices[:n_scored]))
        for slices in (slices_s, slices_t)
    )
    fold_scores = np.empty((len(ridges), n_scored))
    # Distances to the centers do not depend on the width: compute them once
    # and refill the kernels in place per width. Both domains' distances and
    # kernels are views of one block: once a freed block has raised glibc's
    # dynamic mmap threshold to its size (and its trim threshold to twice
    # that), every later fit's block and temporaries stay on the heap.
    n_s = xs.shape[0]
    D, K = np.empty((2, n_s + xt.shape[0], n_c))
    _sq_dists(xs, centers, out=D[:n_s])
    _sq_dists(xt, centers, out=D[n_s:])
    K_s, K_t = K[:n_s], K[n_s:]
    for i, width in enumerate(widths):
        _gaussian_kernel(D, width, out=K)
        # The whole sample's sums add up every fold present, scored or not;
        # only the scored folds' parts are kept.
        H_tot, h_tot = np.zeros((n_c, n_c)), np.zeros(n_c)
        # Reset first, so the last width's Grams are freed before these grow.
        grams, col_sums = [], []
        for f, rows in enumerate(slices_s):
            G = K_s[rows].T @ K_s[rows]
            H_tot += G
            if f < n_scored:
                grams.append(G)
        for f, rows in enumerate(slices_t):
            col_sum = K_t[rows].sum(axis=0)
            h_tot += col_sum
            if f < n_scored:
                col_sums.append(col_sum)
        sums.append((H_tot, h_tot))
        live = list(range(len(ridges)))  # the ridges no fold has refused
        for f in range(n_scored):
            V_s, V_t = K_s[slices_s[f]], K_t[slices_t[f]]
            # The training system, written over the held-out fold's Gram.
            H = np.subtract(H_tot, grams[f], out=grams[f])
            H /= len(K_s) - len(V_s)
            h = (h_tot - col_sums[f]) / (len(K_t) - len(V_t))
            # One check covers every ridge's system: H's entries are at most
            # 1 in size and the ridges are finite, so H + ridge*I is finite.
            if not (np.isfinite(H).all() and np.isfinite(h).all()):
                raise NonFiniteValue(f"kernel system of fold {f} is not finite")
            b_s = buf_s[: len(live) * len(V_s)].reshape(len(live), len(V_s))
            b_t = buf_t[: len(live) * len(V_t)].reshape(len(live), len(V_t))
            solved = []
            for j in live:
                try:
                    alpha = _cho_solve_ridge(H, h, ridges[j], check_finite=False)
                except SingularSystem:
                    continue  # a refusal on any fold drops this ridge for this width
                np.matmul(V_s, alpha, out=b_s[len(solved)])
                np.matmul(V_t, alpha, out=b_t[len(solved)])
                solved.append(j)
            live = solved
            b_s, b_t = b_s[: len(live)], b_t[: len(live)]
            np.square(_clip_in_place(b_s, cfg.bound), out=b_s)
            _clip_in_place(b_t, cfg.bound)
            # np.mean's sums and divisions, row by row, without its wrapper.
            fold_scores[live, f] = 0.5 * (np.add.reduce(b_s, axis=1) / len(V_s)) - (
                np.add.reduce(b_t, axis=1) / len(V_t)
            )
        scores[i, live] = np.mean(fold_scores[live], axis=1)
    if np.isnan(scores).all():
        raise SingularSystem(
            "every (width, ridge) grid cell failed to factorize; enlarge the "
            "ridge grid"
        )
    i, j = np.unravel_index(np.nanargmin(scores), scores.shape)
    H_tot, h_tot = sums[i]
    alpha = _cho_solve_ridge(H_tot / len(xs), h_tot / len(xt), ridges[j])
    cv = {
        "widths": [float(w) for w in widths],
        "ridges": list(ridges),
        "scores": [
            [None if np.isnan(s) else s for s in row] for row in scores.tolist()
        ],
        "width_index": int(i),
        "ridge_index": int(j),
        "width_on_edge": i in (0, len(widths) - 1),
        "ridge_on_edge": j in (0, len(ridges) - 1),
    }
    cv["on_grid_edge"] = cv["width_on_edge"] or cv["ridge_on_edge"]
    return RatioModel(
        kind="ulsif",
        bound=cfg.bound,
        centers=centers,
        alpha=alpha,
        kernel_width=float(widths[i]),
        cv=cv,
    )


def _clip_in_place(v: np.ndarray, bound: float) -> np.ndarray:
    """``np.clip(v, 0.0, bound)`` written into ``v``, but for the sign of a
    zero (``np.clip`` keeps -0.0), which squaring or summing the values for
    a held-out score cannot tell apart."""
    np.maximum(v, 0.0, out=v)
    return np.minimum(v, bound, out=v)


def _cho_factor(H: np.ndarray, ridge: float, check_finite: bool = True) -> np.ndarray:
    """The lower Cholesky factor of ``H + ridge*I``, by LAPACK ``potrf`` as
    ``scipy.linalg.cho_factor(lower=True)`` calls it, minus its wrapper cost.
    ``H`` is copied once, in Fortran order, and ``potrf`` factors that copy
    in place, so no second copy is made for LAPACK. The factor's diagonal,
    the pivots, is positive; every failure is a shiftagg error. As in scipy,
    ``check_finite=False`` skips the finiteness check of the system, for a
    caller that has made it already.
    """
    A = np.array(H, dtype=np.float64, order="F")
    A.reshape(-1, order="F")[:: A.shape[0] + 1] += ridge  # its diagonal, as a view
    if check_finite and not np.isfinite(A).all():
        raise NonFiniteValue(f"kernel system is not finite at ridge={ridge!r}")
    c, info = _POTRF(A, lower=1, overwrite_a=1, clean=0)
    if info > 0:
        raise SingularSystem(
            f"kernel Gram matrix not factorizable at ridge={ridge!r}: its "
            f"{info}-th leading minor is not positive definite"
        )
    if info < 0:
        raise NumericalError(
            f"LAPACK Cholesky rejected argument {-info} at ridge={ridge!r}"
        )
    return c


def _cho_solve(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Solve by LAPACK ``potrs`` with the lower factor ``c`` of
    :func:`_cho_factor`, as ``scipy.linalg.cho_solve`` does."""
    x, info = _POTRS(c, h, lower=1, overwrite_b=0)
    if info != 0:
        raise NumericalError(f"LAPACK Cholesky solve rejected argument {-info}")
    return x


def _cho_solve_ridge(
    H: np.ndarray, h: np.ndarray, ridge: float, check_finite: bool = True
) -> np.ndarray:
    """Solve ``(H + ridge*I) x = h`` by Cholesky; ``check_finite`` as in
    :func:`_cho_factor`."""
    if check_finite and not np.isfinite(h).all():
        raise NonFiniteValue(f"kernel system is not finite at ridge={ridge!r}")
    return _cho_solve(_cho_factor(H, ridge, check_finite), h)


def fit_logistic_ratio(source_x, target_x, cfg: RatioFitConfig) -> RatioModel:
    """Fit the discriminative (source-vs-target classifier) ratio estimator.

    Features are standardized internally and stacked with a column of ones
    once. Each fold's split takes its rows once, and the ridge strength is
    chosen from the config candidates by k-fold held-out log-loss, each fold
    fit by damped Newton to a gradient norm below 1e-5; with no fold to
    score (one sample per domain) the fit is refused with
    :class:`ConfigInvalid`, as :func:`fit_ulsif` refuses it. The refit runs
    until the gradient norm drops below 1e-6 (at most 100 Newton steps, else
    :class:`NonConvergence`). The returned weights are mapped back to the
    raw feature scale, bias last; the model's ``cv`` block records the
    ridge grid, each ridge's mean held-out log-loss, the chosen ridge and
    the refit's step count and final gradient norm.
    """
    xs, xt = _check_xy(source_x, target_x)
    rng = _rng(cfg.seed)
    n_s, n_t = xs.shape[0], xt.shape[0]

    pooled = np.vstack([xs, xt])
    mu = pooled.mean(axis=0)
    sd = pooled.std(axis=0)
    sd[sd == 0] = 1.0
    z = (pooled - mu) / sd
    X = np.hstack([z, np.ones((len(z), 1))])
    y = np.concatenate([np.zeros(n_s), np.ones(n_t)])

    fold = np.concatenate(
        [_fold_ids(n_s, cfg.cv_folds, rng), _fold_ids(n_t, cfg.cv_folds, rng)]
    )
    ridges = cfg.ridge_strengths
    nlls = []  # per scored fold, the held-out log-loss at each ridge
    # A fold past the larger sample's size holds no sample at all.
    for f in range(min(cfg.cv_folds, max(n_s, n_t))):
        tr, va = fold != f, fold == f
        if not va.any() or len(np.unique(y[tr])) < 2:
            continue
        X_tr, y_tr, z_va, y_va = X[tr], y[tr], z[va], y[va]
        row = []
        for ridge in ridges:
            w = _logistic_newton(X_tr, y_tr, ridge, tol=1e-5, max_iter=100, strict=False)[0]
            s = z_va @ w[:-1] + w[-1]
            row.append(float(np.mean(np.logaddexp(0.0, s) - y_va * s)))
        nlls.append(row)
    if not nlls:
        raise ConfigInvalid(
            f"no cross-validation fold can be scored with n_s={n_s}, n_t={n_t} "
            f"and cv_folds={cfg.cv_folds}; a fold is scored only when the "
            "samples outside it hold both domains"
        )
    # The first ridge with the lowest mean held-out log-loss.
    scores = np.mean(nlls, axis=0).tolist()
    j = int(np.argmin(scores))

    w, steps, gnorm = _logistic_newton(X, y, ridges[j], tol=1e-6, max_iter=100, strict=True)
    raw = np.empty(xs.shape[1] + 1)
    raw[:-1] = w[:-1] / sd
    raw[-1] = w[-1] - float(np.sum(w[:-1] * mu / sd))
    cv = {
        "ridges": list(ridges),
        "scores": scores,
        "ridge_index": j,
        "ridge_on_edge": j in (0, len(ridges) - 1),
        "newton_steps": steps,
        "gradient_norm": gnorm,
    }
    return RatioModel(
        kind="logistic",
        bound=cfg.bound,
        classifier_weights=raw,
        ns_over_nt=n_s / n_t,
        cv=cv,
    )


def _logistic_newton(
    X: np.ndarray,
    y: np.ndarray,
    ridge: float,
    tol: float,
    max_iter: int,
    strict: bool,
) -> tuple[np.ndarray, int, float]:
    """Damped Newton (IRLS) on the mean negative log-likelihood of the
    design matrix ``X`` (features, then a column of ones) plus
    ``0.5 * ridge * ||w||^2``, the bias (last coefficient) unpenalized. Each
    step solves the Hessian ``X^T diag(p(1-p)) X / n + ridge*reg`` (or is the
    gradient, if Cholesky refuses it) and is halved until Armijo's test holds.
    Returns ``(w, steps, gradient_norm)``: the coefficients, the number of
    Newton steps taken and the gradient norm at ``w``.
    """
    n, d = X.shape[0], X.shape[1] - 1
    w = np.zeros(d + 1)
    reg = np.append(np.full(d, ridge), 0.0)

    def loss_grad(w):
        s = X @ w
        loss = float(np.mean(np.logaddexp(0.0, s) - y * s))
        loss += 0.5 * float(reg @ (w * w))
        p = np.exp(-np.logaddexp(0.0, -s))  # the sigmoid, without overflow
        return loss, p, X.T @ (p - y) / n + reg * w

    loss, p, g = loss_grad(w)
    for steps in range(max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm < tol or steps == max_iter:
            break
        H = (X.T * (p * (1.0 - p))) @ X / n
        H.reshape(-1)[:: d + 2] += reg  # its diagonal, as a view
        try:
            step = _cho_solve_ridge(H, g, 0.0)
        except SingularSystem:
            step = g
        slope = 1e-4 * float(g @ step)
        for t in 0.5 ** np.arange(55):  # the last, 2^-54, is taken regardless
            loss_new, p_new, g_new = loss_grad(w - t * step)
            if loss_new <= loss - t * slope:
                break
        w, loss, p, g = w - t * step, loss_new, p_new, g_new
    if gnorm < tol or not strict:
        return w, steps, gnorm
    raise NonConvergence(
        f"logistic fit: gradient norm {gnorm:.3e} after {max_iter} iterations "
        f"(tolerance {tol:g})"
    )


def fit_ratio(
    source_x, target_x, cfg: RatioFitConfig, estimator: str = "ulsif"
) -> RatioModel:
    """Fit the ratio with ``estimator``, ``"ulsif"`` or ``"logistic"``."""
    if estimator == "ulsif":
        return fit_ulsif(source_x, target_x, cfg)
    if estimator == "logistic":
        return fit_logistic_ratio(source_x, target_x, cfg)
    raise ConfigInvalid(f"unknown estimator {estimator!r}")


def evaluate_ratio(model: RatioModel, x) -> np.ndarray:
    """Evaluate the fitted ratio at ``x``; output is clamped to [0, B]."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2 or x.shape[1] != model.feature_dim:
        raise DimensionMismatch(
            f"input has {x.shape[1] if x.ndim == 2 else '?'} columns, model expects "
            f"{model.feature_dim}"
        )
    if model.kind == "ulsif":
        d2 = _sq_dists(x, model.centers)
        raw = _gaussian_kernel(d2, model.kernel_width, out=d2) @ model.alpha
    elif model.kind == "logistic":
        s = x @ model.classifier_weights[:-1] + model.classifier_weights[-1]
        with np.errstate(over="ignore"):
            raw = model.ns_over_nt * np.exp(s)
    else:
        p = model.params
        mu_p = np.asarray(p["source_mean"], dtype=np.float64)
        mu_q = np.asarray(p["target_mean"], dtype=np.float64)
        s = float(p["cov_scale"])
        expo = (
            np.sum((x - mu_p) ** 2, axis=1) - np.sum((x - mu_q) ** 2, axis=1)
        ) / (2.0 * s)
        with np.errstate(over="ignore"):
            raw = np.exp(expo)
    return np.clip(raw, 0.0, model.bound)


def self_normalize(weights) -> np.ndarray:
    """Rescale weights so their mean is exactly 1 (proportionality kept)."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise DimensionMismatch("weights must be a non-empty vector")
    if not np.any(w != 0):
        raise AllZeroWeights("cannot normalize an all-zero weight vector")
    mean = float(np.mean(w))
    if mean <= 0:
        raise NegativeWeight(f"weight mean must be positive, got {mean!r}")
    return w / mean


def analytic_gaussian_ratio(
    source_mean, target_mean, cov_scale: float, bound: float = DEFAULT_BOUND
) -> RatioModel:
    """Exact ratio of two isotropic Gaussians N(mu_q, s*I) / N(mu_p, s*I).

    Equal isotropic covariances make the ratio a single exponential:
    ``beta(x) = exp((||x - mu_p||^2 - ||x - mu_q||^2) / (2 s))``.
    """
    params = {
        "source_mean": tuple(map(float, source_mean)),
        "target_mean": tuple(map(float, target_mean)),
        "cov_scale": float(cov_scale),
    }
    return RatioModel(kind="analytic", bound=bound, params=params)


# --- model (de)serialization -------------------------------------------------


def ratio_model_to_dict(model: RatioModel) -> dict:
    doc: dict = {"kind": model.kind, "bound": model.bound}
    for key in _DOC_KEYS[model.kind]:
        if getattr(model, key) is not None:
            doc[key] = getattr(model, key)
    return doc


def ratio_model_from_dict(doc: dict) -> RatioModel:
    kind = decode_object({"kind": str}, doc, "ratio model")["kind"]
    if kind not in _DOC_KEYS:
        raise MalformedFile(f"bad ratio model kind {kind!r}")
    types = {"bound": float, **_DOC_KEYS[kind]}
    fields = decode_object(types, doc, "ratio model", {"cv": None})
    if kind == "analytic":
        p = fields["params"]
        fields["params"] = {
            k: decode_value(tp, p.get(k), f"params.{k}")
            for k, tp in _ANALYTIC_PARAMS.items()
        }
    return RatioModel(kind=kind, **fields)


def save_ratio_model(model: RatioModel, path) -> None:
    write_json(path, ratio_model_to_dict(model))


def load_ratio_model(path) -> RatioModel:
    doc = read_json(path)
    try:
        return ratio_model_from_dict(doc)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
