"""Poincare constants: closed-form table plus a spectral oracle.

The oracle discretizes the Rayleigh quotient E[g^2]/E[g'^2] over zero-mean
grid functions and reads off the largest generalized eigenvalue, which is
the reciprocal of the spectral gap of the weighted Neumann problem
``-(f g')' = lam f g``.  Refinement doubles both the grid resolution and,
for unbounded supports, the window, until successive estimates agree.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import DensityModel, Exponential, Gaussian, ModelError, Uniform

__all__ = ["poincare_constant", "spectral_poincare"]

# density below max(f) * _TRIM is trimmed off the window ends before the
# eigensolve; the standard-form matrix entries are ratios of neighboring
# densities, so the guard only needs to keep square roots of cell masses
# representable
_TRIM = 1e-140


def poincare_constant(m: DensityModel, rel_tol: float = 0.005) -> float | None:
    """Poincare constant R(X), from the closed-form table when available.

    Gaussian, uniform and exponential laws use exact values; every other
    kind goes through the spectral oracle.  Returns None when the oracle
    fails to converge.
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
    return spectral_poincare(m, rel_tol=rel_tol)


def spectral_poincare(
    m: DensityModel,
    rel_tol: float = 0.005,
    start_count: int = 1024,
    max_count: int = 1 << 15,
    max_widenings: int = 7,
) -> float | None:
    """Rayleigh-quotient estimate of R(X) on a refined, widened grid."""
    sup_lo, sup_hi = m.support()
    lo, hi = m.window(1e-13)
    previous = None
    for _ in range(max_widenings + 1):
        est = _converged_gap_estimate(m, lo, hi, rel_tol / 2.0, start_count, max_count)
        if est is None:
            return None
        if previous is not None and abs(est - previous) <= rel_tol * abs(previous):
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


def _converged_gap_estimate(m, lo, hi, rel_tol, start_count, max_count):
    previous = None
    count = start_count
    while count <= max_count:
        est = _rayleigh_max(m, lo, hi, count)
        if est is not None and previous is not None:
            if abs(est - previous) <= rel_tol * abs(previous):
                return est
        previous = est
        count *= 2
    return previous


def _rayleigh_max(m, lo, hi, count):
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

    # generalized problem K g = lam M g with tridiagonal stiffness K and
    # lumped mass M; converted to standard symmetric tridiagonal form
    mass = w * step
    k_off = fmid / step
    k_diag = np.zeros(len(x))
    k_diag[:-1] += k_off
    k_diag[1:] += k_off
    d = k_diag / mass
    e = -k_off / (np.sqrt(mass[:-1]) * np.sqrt(mass[1:]))
    # numpy has no tridiagonal eigensolver; scipy loads on the first spectral
    # estimate, which only laws without a closed-form constant reach
    from scipy.linalg import eigh_tridiagonal

    try:
        vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 1),
                                eigvals_only=True)
    except np.linalg.LinAlgError:
        return None
    gap = float(vals[1])
    if not math.isfinite(gap) or gap <= 0.0:
        return None
    return 1.0 / gap
