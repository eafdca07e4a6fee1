"""Domain-invariance diagnostics over per-layer embedding dumps.

The headline quantity is the semantic distance between two domains: the
minimum over layers of the largest pairwise L2 distance between their
representation vectors at that layer,

    d_sem = min_l  max_{(z_p, z_q)} || z_p^l - z_q^l ||_2 .

When the dump declares which samples are semantically equivalent, the max
runs over those pairs only; otherwise it runs over the full cross product.
Two domains are epsilon-close when ``d_sem <= eps`` (boundary inclusive),
and if the layers above the minimizing one are Lipschitz with constants
``K_l+1 .. K_L``, the last-layer representation gap is bounded by
``eps * prod K``. Exact invariance at the output is the stricter predicate
that paired final-layer vectors share their argmax index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import LayerEmbeddingSet
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyLayer,
    MissingPairing,
    NonPositiveConstant,
)
from .serialize import config_to_dict

__all__ = [
    "ProbeReport",
    "semantic_distance",
    "epsilon_close",
    "lipschitz_propagated_bound",
    "argmax_agreement",
    "with_epsilon",
    "with_lipschitz",
]


class _LayerDistance(NamedTuple):
    l: int
    max_dist: float
    in_definition_range: bool


class _CrossDistance(NamedTuple):
    l: int
    max_dist: float


@dataclass(frozen=True)
class ProbeReport:
    """Semantic-distance summary plus optional closeness diagnostics.

    ``per_layer_max_dist`` holds ``(l, max_dist, in_definition_range)``
    named triples; the range flag marks layers above the encoder output
    (index > 1), which the distance definition ranges over. Encoder-level
    entries still participate in the minimum but are flagged so they cannot
    be misread.
    """

    d_sem: float
    argmin_layer: int
    mode: str  # "paired" | "cross_product"
    per_layer_max_dist: tuple[_LayerDistance, ...]
    per_layer_max_dist_cross: tuple[_CrossDistance, ...] | None = None
    epsilon: float | None = None
    is_epsilon_close: bool | None = None
    lipschitz_constants: tuple[float, ...] | None = None
    propagated_bound: float | None = None
    provenance: str = ""

    def __post_init__(self):
        if self.mode not in ("paired", "cross_product"):
            raise ConfigInvalid(f"unknown probe mode {self.mode!r}")
        vals = [v for (_, v, _) in self.per_layer_max_dist]
        if not vals or abs(self.d_sem - min(vals)) > 0:
            raise ConfigInvalid("d_sem must equal the minimum per-layer distance")

    to_json_dict = config_to_dict


def _max_pair_distance(p: np.ndarray, q: np.ndarray, pairing) -> float:
    if pairing is not None:
        i = np.fromiter((a for a, _ in pairing), dtype=np.intp)
        j = np.fromiter((b for _, b in pairing), dtype=np.intp)
        diff = p[i] - q[j]
        return float(np.sqrt(np.max(np.einsum("nd,nd->n", diff, diff))))
    # Full cross product, evaluated without materializing all pairs at once.
    p2 = np.sum(p * p, axis=1)[:, None]
    q2 = np.sum(q * q, axis=1)[None, :]
    d2 = p2 + q2 - 2.0 * (p @ q.T)
    return float(np.sqrt(max(float(np.max(d2)), 0.0)))


def semantic_distance(emb: LayerEmbeddingSet) -> ProbeReport:
    """Min-over-layers of the max pair distance between the two domains.

    With an explicit pairing the headline distance uses it and the
    cross-product distances are reported alongside; otherwise the cross
    product is the headline mode.
    """
    if not emb.layers:
        raise EmptyLayer("embedding set holds no layers")
    paired = emb.pairing is not None and len(emb.pairing) > 0
    per_layer = []
    per_layer_cross = []
    for L in emb.layers:
        cross = _max_pair_distance(L.source_vecs, L.target_vecs, None)
        per_layer_cross.append(_CrossDistance(L.layer_index, cross))
        if paired:
            dist = _max_pair_distance(L.source_vecs, L.target_vecs, emb.pairing)
        else:
            dist = cross
        per_layer.append(_LayerDistance(L.layer_index, dist, L.layer_index > 1))

    d_sem = min(v for (_, v, _) in per_layer)
    argmin_layer = next(l for (l, v, _) in per_layer if v == d_sem)
    return ProbeReport(
        d_sem=d_sem,
        argmin_layer=argmin_layer,
        per_layer_max_dist=tuple(per_layer),
        mode="paired" if paired else "cross_product",
        per_layer_max_dist_cross=tuple(per_layer_cross) if paired else None,
        provenance=emb.provenance,
    )


def epsilon_close(report: ProbeReport, epsilon: float) -> bool:
    """True iff the domains are epsilon-close: ``d_sem <= epsilon``."""
    if epsilon < 0:
        raise ConfigInvalid("epsilon must be nonnegative")
    return report.d_sem <= epsilon


def lipschitz_propagated_bound(epsilon: float, constants) -> float:
    """Worst-case last-layer gap ``epsilon * prod(K)`` (empty product = 1)."""
    if epsilon < 0:
        raise ConfigInvalid("epsilon must be nonnegative")
    ks = [float(k) for k in constants]
    for k in ks:
        if not k > 0:
            raise NonPositiveConstant(f"Lipschitz constant {k!r} must be positive")
    bound = float(epsilon)
    for k in ks:
        bound *= k
    return bound


def argmax_agreement(p_vecs, q_vecs, pairing) -> float:
    """Fraction of declared-equivalent pairs whose argmax index coincides.

    A fraction of exactly 1.0 is the strict output-level invariance
    predicate (greedy decoding maps every declared pair to the same entry).
    Ties resolve to the lowest index on both sides.
    """
    if pairing is None:
        raise MissingPairing("argmax agreement needs an explicit pairing")
    pairs = [(int(i), int(j)) for i, j in pairing]
    if not pairs:
        raise MissingPairing("pairing is empty")
    p = np.atleast_2d(np.asarray(p_vecs, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q_vecs, dtype=np.float64))
    if p.shape[1] != q.shape[1]:
        raise DimensionMismatch(
            f"vector widths differ: {p.shape[1]} vs {q.shape[1]}"
        )
    for i, j in pairs:
        if not (0 <= i < p.shape[0]) or not (0 <= j < q.shape[0]):
            raise DimensionMismatch(f"pairing ({i}, {j}) out of range")
    hits = sum(
        1 for i, j in pairs if int(np.argmax(p[i])) == int(np.argmax(q[j]))
    )
    return hits / len(pairs)


def with_epsilon(report: ProbeReport, epsilon: float) -> ProbeReport:
    """Copy of the report with the epsilon-closeness fields populated."""
    return replace(
        report, epsilon=float(epsilon), is_epsilon_close=epsilon_close(report, epsilon)
    )


def with_lipschitz(report: ProbeReport, constants) -> ProbeReport:
    """Copy with the Lipschitz product bound populated (needs epsilon set)."""
    if report.epsilon is None:
        raise ConfigInvalid("set epsilon before propagating Lipschitz constants")
    ks = tuple(float(k) for k in constants)
    return replace(
        report,
        lipschitz_constants=ks,
        propagated_bound=lipschitz_propagated_bound(report.epsilon, ks),
    )
