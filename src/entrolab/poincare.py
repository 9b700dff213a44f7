"""Poincare constants: closed-form table plus a spectral oracle.

The oracle discretizes the Rayleigh quotient E[g^2]/E[g'^2] over zero-mean
grid functions and reads off its largest value, which is the reciprocal of
the spectral gap of the weighted Neumann problem ``-(f g')' = lam f g``, as
the top eigenvalue of the inverted stiffness matrix (Lanczos, J. Res. Nat.
Bur. Standards 1950).  Refinement doubles both the grid resolution and,
for unbounded supports, the window, until successive estimates agree.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import (DensityModel, Exponential, Gaussian, Laplace, ModelError,
                            Uniform)

__all__ = ["poincare_constant", "spectral_poincare"]

# density below max(f) * _TRIM is trimmed off the window ends before the
# eigensolve; the standard-form matrix entries are ratios of neighboring
# densities, so the guard only needs to keep square roots of cell masses
# representable
_TRIM = 1e-140
# Lanczos steps on one grid before the oracle gives up and returns None
_LANCZOS_STEPS = 200
# successive top Ritz values closer than this (relative) end the iteration
_RITZ_TOL = 1e-10
# the oracle accepts successive estimates within _REL_TOL (relative); grids
# refine from _START_COUNT to _MAX_COUNT cells, and an unbounded window side
# doubles at most _MAX_WIDENINGS times
_REL_TOL = 0.005
_START_COUNT = 1024
_MAX_COUNT = 1 << 15
_MAX_WIDENINGS = 7


def poincare_constant(m: DensityModel) -> float | None:
    """Poincare constant R(X), from the closed-form table when available.

    Gaussian, uniform, exponential and Laplace laws use exact values (the
    Laplace constant 4 b^2 is Bobkov-Ledoux, PTRF 1997); every other kind
    goes through the spectral oracle.  Returns None when the oracle fails
    to converge.
    """
    var = m.moments().variance
    if not math.isfinite(var):
        raise ModelError("Poincare constant requires finite variance")
    if isinstance(m, Gaussian):
        return m.variance
    if isinstance(m, Uniform):
        return m.width ** 2 / math.pi ** 2
    if isinstance(m, Exponential):
        return 4.0 / m.rate ** 2
    if isinstance(m, Laplace):
        return 4.0 * m.scale ** 2
    return spectral_poincare(m)


def spectral_poincare(m: DensityModel) -> float | None:
    """Rayleigh-quotient estimate of R(X) on a refined, widened grid."""
    sup_lo, sup_hi = m.support()
    lo, hi = m.window(1e-13)
    previous = None
    for _ in range(_MAX_WIDENINGS + 1):
        est = _converged_gap_estimate(m, lo, hi)
        if est is None:
            return None
        if previous is not None and abs(est - previous) <= _REL_TOL * abs(previous):
            return est
        previous = est
        # widen only the unbounded sides; bounded supports are exact already
        width = hi - lo
        new_lo = lo - width if sup_lo == -math.inf else max(lo, sup_lo)
        new_hi = hi + width if sup_hi == math.inf else min(hi, sup_hi)
        if new_lo == lo and new_hi == hi:
            return est
        lo, hi = new_lo, new_hi
    return None


def _converged_gap_estimate(m, lo, hi):
    previous = None
    count = _START_COUNT
    while count <= _MAX_COUNT:
        est = _rayleigh_max(m, lo, hi, count)
        if est is not None and previous is not None:
            # refinement converges to half the tolerance that widening accepts
            if abs(est - previous) <= _REL_TOL / 2.0 * abs(previous):
                return est
        previous = est
        count *= 2
    return previous


def _rayleigh_max(m, lo, hi, count):
    problem = _weighted_laplacian(m, lo, hi, count)
    if problem is None:
        return None
    return _lanczos_top(*problem)


def _weighted_laplacian(m, lo, hi, count):
    """Lumped mass and edge weights of the Neumann problem K g = lam M g.

    K is tridiagonal with off-diagonal -k_off and rows summing to zero; M is
    diag(mass).  Returns None when the window holds too little density.
    """
    step = (hi - lo) / count
    x = lo + (np.arange(count) + 0.5) * step
    w = m.pdf(x)
    wmax = float(w.max(initial=0.0))
    if wmax <= 0.0:
        return None
    keep = np.nonzero(w > wmax * _TRIM)[0]
    if len(keep) < 8:
        return None
    i0, i1 = int(keep[0]), int(keep[-1]) + 1
    x, w = x[i0:i1], np.clip(w[i0:i1], wmax * _TRIM, None)
    fmid = m.pdf(0.5 * (x[:-1] + x[1:]))
    fmid = np.clip(fmid, wmax * _TRIM, None)
    return w * step, fmid / step


def _lanczos_top(mass, k_off):
    """Largest eigenvalue of B = S K+ S, S = diag(sqrt(mass)), which is R = 1/gap.

    B is the pseudo-inverse of the standard form S^-1 K S^-1, whose null
    vector z = sqrt(mass)/|sqrt(mass)| is projected out of every vector.
    K g = r with sum(r) = 0 is solved exactly by two cumulative sums: the
    flux through each edge is a partial sum of r, and g accumulates
    flux/k_off.  Both run outward from the heaviest cell p, so each flux is
    the sum over the tail it bounds (small where k_off is small) and g
    stays moderate where the mass is.  A small gap puts R far above the
    rest of B's spectrum, where Lanczos finds it in a few steps.
    """
    n = len(mass)
    s = np.sqrt(mass)
    z = s / np.linalg.norm(s)
    p = int(np.argmax(mass))

    def apply(y):
        r = s * (y - z * (z @ y))
        flux = np.empty(n - 1)
        flux[:p] = -np.cumsum(r[:p])
        flux[p:] = np.cumsum(r[:p:-1])[::-1]
        inc = flux / k_off
        g = np.zeros(n)
        g[:p] = -np.cumsum(inc[:p][::-1])[::-1]
        g[p + 1:] = np.cumsum(inc[p:])
        u = s * g
        return u - z * (z @ u)

    # fixed start S (i - mean): the top eigenfunction is monotone, so this
    # overlaps it for every law, and reports need no random draw
    v = s * np.arange(n, dtype=float)
    v -= z * (z @ v)
    v /= np.linalg.norm(v)
    steps = min(_LANCZOS_STEPS, n - 1)
    # rows are written one per step; untouched rows cost no resident memory
    basis = np.empty((steps, n))
    alpha, beta = np.zeros(steps), np.zeros(steps)
    previous = None
    for k in range(steps):
        basis[k] = v
        w = apply(v)
        q = basis[:k + 1]
        for _ in range(2):
            h = q @ w
            w -= h @ q
            alpha[k] += h[k]
        beta[k] = float(np.linalg.norm(w))
        t = np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
        theta = float(np.linalg.eigvalsh(t)[-1])
        if not math.isfinite(theta) or theta <= 0.0:
            return None
        done = previous is not None and abs(theta - previous) <= _RITZ_TOL * theta
        # an invariant subspace (or the whole space) makes theta exact
        if done or beta[k] <= np.finfo(float).eps * theta or k == n - 2:
            return theta
        previous = theta
        v = w / beta[k]
    return None
