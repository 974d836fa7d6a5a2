"""Correctness checks; any violation fails the run.

The read references are computed here with numpy/scipy directly rather
than through :class:`~repro.ranking.base.RankingResult`, so a bug in the
program's own rank-order helpers cannot hide behind itself.
"""

from __future__ import annotations

import numpy as np

#: Largest max-abs difference allowed between a solve and the reference.
SIGMA_ATOL = 1e-9
#: Percentiles are recomputed by a different formula; allow rounding only.
PERCENTILE_ATOL = 1e-9


class CheckFailed(Exception):
    """A correctness check failed: the run reports ``correct: false``."""


def check_sigma(sigma: np.ndarray, reference: np.ndarray) -> None:
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != reference.shape:
        raise CheckFailed(f"σ has shape {sigma.shape}, reference {reference.shape}")
    diff = float(np.max(np.abs(sigma - reference)))
    if not diff <= SIGMA_ATOL:
        raise CheckFailed(f"σ differs from the in-memory reference by {diff:.3e}")


def reference_percentiles(sigma: np.ndarray) -> np.ndarray:
    """100 · (average rank − 1) / (n − 1): strictly-worse count plus half the ties."""
    from scipy.stats import rankdata

    return 100.0 * (rankdata(sigma, method="average") - 1.0) / max(sigma.size - 1, 1)


def reference_top(sigma: np.ndarray, k: int) -> list[int]:
    """Ids of the k largest scores, ties broken by the smaller id."""
    return np.lexsort((np.arange(sigma.size), -sigma))[:k].tolist()


class ReadReference:
    """Expected answers for every σ version the fleet may serve."""

    def __init__(self) -> None:
        self._by_version: dict[int, tuple[np.ndarray, np.ndarray, list[int]]] = {}

    def add(self, version: int, sigma: np.ndarray, top_k: int) -> None:
        """Register the σ published as ``version``.

        Replicas serve a snapshot's σ L1-normalized, as every ranking
        result is, so the expected values are ``σ / σ.sum()``.
        """
        sigma = np.asarray(sigma, dtype=np.float64)
        sigma = sigma / sigma.sum()
        self._by_version[int(version)] = (
            sigma,
            reference_percentiles(sigma),
            reference_top(sigma, top_k),
        )

    def check(self, op: str, version: int | None, sample) -> None:
        """Compare one sampled reply with the σ of the version it names."""
        if version not in self._by_version:
            raise CheckFailed(f"{op} reply names unknown version {version!r}")
        sigma, percentiles, top = self._by_version[version]
        if op == "top_k":
            if list(sample) != top[: len(sample)] or len(sample) != len(top):
                raise CheckFailed(f"top_k ids of version {version} differ from the reference")
            return
        ids, values = sample
        values = np.asarray(values, dtype=np.float64)
        if op == "percentile":
            if not np.allclose(values, percentiles[ids], rtol=0.0, atol=PERCENTILE_ATOL):
                raise CheckFailed(f"percentile values of version {version} differ")
        elif not np.array_equal(values, sigma[ids]):
            raise CheckFailed(f"{op} values of version {version} differ from σ[ids]")


def check_failures_counted(client_bad_reads: int, door_bad_reads: int) -> None:
    """Every read the door failed, shed, rejected or let miss its deadline
    must have reached a client as a failure."""
    if door_bad_reads > client_bad_reads:
        raise CheckFailed(
            f"front door reports {door_bad_reads} failed/shed/rejected/late reads "
            f"but clients saw only {client_bad_reads}"
        )
