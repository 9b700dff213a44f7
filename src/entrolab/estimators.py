"""Sample-based entropy estimation (nearest-neighbor, one-dimensional).

Serves as an independent oracle for the grid pipeline.  The estimator is
the classic digamma-based k-th nearest neighbor construction; in one
dimension the neighbor search reduces to a sort plus a windowed scan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import DensityModel

__all__ = ["EstimateResult", "knn_entropy", "estimate_functional"]

DEFAULT_K = 5
BOOTSTRAP_FOLDS = 20

# fixed internal streams: jitter for tie-breaking and bootstrap resampling;
# constants so that identical inputs give bit-identical estimates
_JITTER_SEED = 0x7A57E11
_BOOT_SEED = 0xB0075EED

# relative scale of the tie-breaking jitter; far below reporting precision
_JITTER_SCALE = 1e-12


@dataclass(frozen=True)
class EstimateResult:
    value: float  # nats
    stderr: float  # nats, bootstrap
    n: int
    k: int


@functools.cache
def _psi_gap(n: int, k: int) -> float:
    """digamma(n) - digamma(k) for integers n >= k >= 1: sum_{j=k}^{n-1} 1/j."""
    return float(np.sum(1.0 / np.arange(k, n)))


def _knn_point_estimate(ext: np.ndarray, n: int, k: int, scratch: np.ndarray) -> float:
    """Digamma k-NN estimate on the n jittered 1D samples held in ext[k:k + n].

    After a sort, the k nearest neighbors of a point lie among its k left
    gaps L_1 <= ... <= L_k and its k right gaps R_1 <= ... <= R_k, and the
    k-th smallest of those 2k gaps is min over a = 0..k of
    max(L_a, R_{k-a}), with L_0 = R_0 = 0.  Padding the sorted samples with
    k copies of -inf and +inf makes a missing neighbor an infinite gap, so
    the scan is k + 1 vectorised passes over the samples, sorted in place.
    ``scratch`` (3 rows of >= n) holds the eps, left and right gaps.
    """
    xs = ext[k:k + n]
    xs.sort()
    ext[:k] = -np.inf
    ext[k + n:2 * k + n] = np.inf  # xs[i] sits at ext[i + k]
    eps, left, right = scratch[:, :n]
    # a = 0 is R_k alone and a = k is L_k alone, as L_0 = R_0 = 0 and no gap is negative
    np.subtract(ext[2 * k:2 * k + n], xs, out=eps)
    for a in range(1, k + 1):
        np.subtract(xs, ext[k - a:k - a + n], out=left)  # L_a
        if a < k:
            np.subtract(ext[2 * k - a:2 * k - a + n], xs, out=right)  # R_{k-a}
            np.maximum(left, right, out=left)
        np.minimum(eps, left, out=eps)
    np.maximum(eps, 1e-300, out=eps)
    eps *= 2.0
    return float(_psi_gap(n, k) + np.mean(np.log(eps, out=eps)))


def knn_entropy(samples: Sequence[float], k: int = DEFAULT_K) -> EstimateResult:
    """k-th nearest-neighbor differential-entropy estimate with bootstrap stderr.

    Exact ties are broken by additive jitter at 1e-12 of the sample scale
    before the neighbor search; this perturbs the estimate far below the
    reported precision but keeps log-distances finite.

    The stderr comes from a 20-fold half-sample bootstrap drawn without
    replacement and rescaled by sqrt(m/n); with-replacement resampling
    would duplicate points and collapse their neighbor distances onto the
    jitter scale.
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = len(x)
    bad = n - np.count_nonzero(np.isfinite(x))
    if bad:
        raise ValueError(f"{bad} of {n} samples are not finite")
    if n < 50:
        raise ValueError(f"need at least 50 samples, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"neighbor order k={k} outside [1, {n - 1}]")
    scale = float(np.std(x))
    if scale == 0.0:
        raise ValueError("degenerate sample: all values equal")

    jitter_rng = np.random.default_rng(_JITTER_SEED)
    x = x + jitter_rng.uniform(-1.0, 1.0, n) * (_JITTER_SCALE * max(scale, 1.0))
    ext, scratch = np.empty(n + 2 * k), np.empty((3, n))
    ext[k:k + n] = x
    value = _knn_point_estimate(ext, n, k, scratch)

    m = max(n // 2, k + 1)
    boot_rng = np.random.default_rng(_BOOT_SEED)
    folds = np.empty(BOOTSTRAP_FOLDS)
    for i in range(BOOTSTRAP_FOLDS):
        np.take(x, boot_rng.choice(n, m, replace=False), out=ext[k:k + m])
        folds[i] = _knn_point_estimate(ext, m, k, scratch)
    stderr = float(np.std(folds, ddof=1)) * math.sqrt(m / n)
    stderr = max(stderr, 1e-12)
    return EstimateResult(value=value, stderr=stderr, n=n, k=k)


def estimate_functional(
    terms: Sequence[tuple[int, DensityModel]],
    n: int,
    k: int = DEFAULT_K,
    seed: int = 0,
) -> EstimateResult:
    """Entropy of a signed sum of independent catalog models, from samples.

    Each term is (sign, model); every term is sampled independently from a
    child stream of the seed, combined arithmetically, and fed to
    :func:`knn_entropy`.
    """
    if not terms:
        raise ValueError("need at least one term")
    children = np.random.SeedSequence(seed).spawn(len(terms))
    total = np.zeros(n)
    for (sign, model), child in zip(terms, children):
        if sign not in (1, -1):
            raise ValueError(f"term sign must be +1 or -1, got {sign}")
        rng = np.random.default_rng(child)
        total += sign * model.sample_rng(rng, n)
    return knn_entropy(total, k)
