import numpy as np
import pytest

from shiftagg import aggregation
from shiftagg.data import PredictionBundle, SourceDataset, TargetDataset


def build_bundle(
    m=2,
    n_s=3,
    n_t=4,
    d2=1,
    d1=2,
    seed=0,
    with_features=True,
    with_oracle=False,
):
    """Small random bundle for plumbing tests."""
    rng = np.random.Generator(np.random.Philox(seed))
    source = SourceDataset(
        labels=rng.standard_normal((n_s, d2)),
        features=rng.standard_normal((n_s, d1)) if with_features else None,
    )
    target = TargetDataset(
        features=rng.standard_normal((n_t, d1)) if with_features else None,
        oracle_labels=rng.standard_normal((n_t, d2)) if with_oracle else None,
        n_samples_hint=n_t,
    )
    return PredictionBundle(
        model_names=tuple(f"m{k}" for k in range(m)),
        source_preds=rng.standard_normal((m, n_s, d2)),
        target_preds=rng.standard_normal((m, n_t, d2)),
        source=source,
        target=target,
    )


@pytest.fixture
def bundle_factory():
    return build_bundle


def count_solves(monkeypatch) -> list:
    """The ``lam`` of every aggregation solve (``_solve_spd``) from here on,
    in order."""
    lams = []
    real = aggregation._solve_spd

    def counting(G, g, lam, factor):
        lams.append(lam)
        return real(G, g, lam, factor)

    monkeypatch.setattr(aggregation, "_solve_spd", counting)
    return lams


def count_factorizations(monkeypatch) -> list:
    """The ``lam`` of every Cholesky factorization of an aggregation system
    from here on, in order."""
    lams = []
    real = aggregation._cho_factor

    def counting(G, lam, check_finite=True):
        lams.append(lam)
        return real(G, lam, check_finite)

    monkeypatch.setattr(aggregation, "_cho_factor", counting)
    return lams


def count_weight_scans(monkeypatch) -> list:
    """The length of every weight vector scanned in full for finiteness and
    sign (``_checked_weights`` given a vector, not a ``Weights`` record,
    whose length alone it checks) from here on, in order."""
    lengths = []
    real = aggregation._checked_weights

    def counting(weights, n):
        if not isinstance(weights, aggregation.Weights):
            lengths.append(n)
        return real(weights, n)

    monkeypatch.setattr(aggregation, "_checked_weights", counting)
    return lengths
