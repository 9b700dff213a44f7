"""Gridded-density engine: discretization, convolution, entropy, divergence.

Densities live on uniform cell-centered grids; all quadrature is the
midpoint rule, so ``sum(values) * step`` is the represented mass.  Every
grid carries a conservative entropy-error estimate (truncation and trimmed
mass, plus a sampling term per convolution; ``entropy`` adds quadrature)
that downstream inequality verdicts consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .distributions import DensityModel, Gaussian, MomentSummary

__all__ = [
    "GridError",
    "GridSpec",
    "GridDensity",
    "discretize",
    "convolve",
    "convolve_power",
    "reflect",
    "entropy",
    "kl_divergence",
    "gaussian_fit",
    "l1_distance",
    "resample",
]

MIN_COUNT = 256
MAX_COUNT = 1 << 24
DENSITY_FLOOR = 1e-300
TRUNCATION_LIMIT = 1e-6
# cells below this fraction of the peak are dropped from every grid (for a sum
# they are FFT round-off); the mass they carry is charged to the error estimate
TRIM_FLOOR = 1e-15
# entropy error per convolution, in units of step^2 / variance of the sum
SAMPLING_COEF = 1.0 / 24.0


class GridError(RuntimeError):
    """Grid pipeline failure: truncation too heavy or incompatible grids."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid: cell i spans [origin + i*step, origin + (i+1)*step).

    The count is even, so the cells pair up for the half grid in ``entropy``.
    """

    origin: float
    step: float
    count: int

    def __post_init__(self):
        if self.step <= 0.0 or not math.isfinite(self.step):
            raise GridError(f"grid step must be positive, got {self.step}")
        if self.count < 2 or self.count % 2:
            raise GridError(f"grid count must be even and >= 2, got {self.count}")

    @property
    def width(self) -> float:
        return self.count * self.step

    def centers(self) -> np.ndarray:
        x = np.arange(self.count, dtype=float)
        x += 0.5
        x *= self.step
        x += self.origin
        return x


@dataclass(frozen=True)
class GridDensity:
    spec: GridSpec
    values: np.ndarray  # density per unit length at cell centers, normalized
    mass_defect: float  # |1 - sum(values)*step| recorded before renormalization
    error_estimate: float  # entropy truncation/propagation bound in nats

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.spec.count,):
            raise GridError("values length must match grid count")
        # a NaN fails the first test, an infinity the second
        if not (v.min() >= 0.0 and math.isfinite(v.sum())):
            raise GridError("grid values must be finite and nonnegative")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    # the values are read-only, so per-grid invariants are computed once

    @cached_property
    def moments(self) -> MomentSummary:
        x = self.spec.centers()
        step = self.spec.step
        mean = float(np.sum(x * self.values) * step)
        x -= mean
        x **= 2
        x *= self.values
        return MomentSummary(mean, float(np.sum(x) * step))


def _normalized(values: np.ndarray, step: float,
                out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    mass = float(values.sum() * step)
    if mass <= 0.0:
        raise GridError("grid carries no mass")
    return np.divide(values, mass, out=out), abs(1.0 - mass)


def _truncation_term(tail_mass: float) -> float:
    if tail_mass <= 0.0:
        return 0.0
    return tail_mass * (abs(math.log(max(tail_mass, DENSITY_FLOOR))) + 1.0)


def discretize(m: DensityModel, window_sigmas: float = 12.0, count: int = 1 << 14) -> GridDensity:
    """Sample a model onto a normalized grid covering its effective support.

    The window is the wider of mean +/- window_sigmas * stddev and the
    1e-13 two-sided quantile range, intersected with the support, so that
    exponential-type tails stay covered at any sigma setting.  The model is
    sampled at ``count`` cells (a power of two) and cut to its live cells
    by ``_live_grid``; the window's tail mass, the sampling mass defect and
    the dropped mass make up the error estimate.
    """
    if count < MIN_COUNT or count & (count - 1):
        raise GridError(f"grid count must be a power of two >= {MIN_COUNT}, got {count}")
    if not m.bounded_density():
        raise GridError("model density is unbounded on its support; grid pipeline rejected")
    mom = m.moments()
    sd = math.sqrt(mom.variance)
    sup_lo, sup_hi = m.support()
    q_lo, q_hi = m.window()
    lo = max(sup_lo, min(mom.mean - window_sigmas * sd, q_lo))
    hi = min(sup_hi, max(mom.mean + window_sigmas * sd, q_hi))
    if not (hi > lo):
        raise GridError("degenerate discretization window")

    tail = float(m.cdf(np.array([lo]))[0] + (1.0 - m.cdf(np.array([hi]))[0]))
    if tail > TRUNCATION_LIMIT:
        raise GridError(
            f"truncated mass {tail:.3g} exceeds {TRUNCATION_LIMIT}; tail too heavy for grid pipeline"
        )

    step = (hi - lo) / count
    raw = np.asarray(m.pdf(lo + (np.arange(count) + 0.5) * step), dtype=float)
    return _live_grid(raw, lo, step, _truncation_term(tail))


def reflect(f: GridDensity) -> GridDensity:
    """Density of -X; entropy and error bookkeeping unchanged."""
    spec = f.spec
    new_spec = GridSpec(origin=-(spec.origin + spec.width), step=spec.step, count=spec.count)
    return GridDensity(spec=new_spec, values=f.values[::-1],
                       mass_defect=f.mass_defect, error_estimate=f.error_estimate)


def resample(f: GridDensity, step: float) -> GridDensity:
    """Re-express f on a grid with the given step (monotone cubic interpolation).

    The grid starts at f's origin and spans f's width in ceil(width / step)
    cells, rounded up to even; cells whose centers lie past f's last center
    are zero.
    """
    spec = f.spec
    count = math.ceil(spec.width / step)
    count += count % 2
    if count > MAX_COUNT:
        raise GridError(
            f"resampling to step {step:.3g} needs {count} cells; step ratio not representable"
        )
    new_spec = GridSpec(origin=spec.origin, step=step, count=count)
    # new centers in units of the old step, counted from the first old center
    t = np.arange(count, dtype=float)
    t += 0.5
    t *= step / spec.step
    t -= 0.5
    raw = _pchip(f.values, t)
    values, defect = _normalized(np.clip(raw, 0.0, None, out=raw), step, out=raw)
    return GridDensity(spec=new_spec, values=values, mass_defect=defect,
                       error_estimate=f.error_estimate + _truncation_term(defect))


def _pchip(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Monotone cubic (PCHIP) through y at nodes 0, 1, ..., n-1, evaluated at t.

    ``t`` must ascend: the points inside [0, n-1] are read as one slice.
    Node slopes are the Fritsch-Butland harmonic mean of the adjacent
    secants, zero where they change sign or one is flat; each end takes the
    one-sided three-point rule with Fritsch-Carlson shape limits.  These
    are the slopes of scipy's PchipInterpolator on a uniform grid.  Each
    cell is a Hermite cubic; points outside [0, n-1] give 0.
    """
    m = np.diff(y)
    prod = m[:-1] * m[1:]
    same_sign = prod > 0.0
    prod *= 2.0
    d = np.zeros_like(y)
    # harmonic mean 2*m0*m1/(m0+m1) where both secants share a sign
    np.divide(prod, m[:-1] + m[1:], out=d[1:-1], where=same_sign)
    d[0], d[-1] = _end_slope(m[0], m[1]), _end_slope(m[-1], m[-2])

    n = y.size
    lo, hi = np.searchsorted(t, 0.0), np.searchsorted(t, n - 1, side="right")
    k = np.minimum(t[lo:hi].astype(np.intp), n - 2)
    s = t[lo:hi] - k
    y0, a, b = y[k], d[k], d[k + 1]
    rise = y[k + 1]
    rise -= y0
    # y0 + s*(a + s*(3*rise - 2*a - b + s*(a + b - 2*rise))), innermost first
    cubic = a + b
    cubic -= 2.0 * rise
    cubic *= s
    poly = 3.0 * rise
    poly -= 2.0 * a
    poly -= b
    poly += cubic
    poly *= s
    poly += a
    poly *= s
    out = np.zeros(t.size)
    np.add(y0, poly, out=out[lo:hi])
    return out


def _end_slope(m0: float, m1: float) -> float:
    """End-node slope from the end secant m0 and its neighbour m1."""
    d = (3.0 * m0 - m1) / 2.0
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@lru_cache(maxsize=None)
def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer 2^a * 3^b * 5^c that is >= n (n >= 1)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _live_grid(raw: np.ndarray, origin: float, step: float, inherited: float) -> GridDensity:
    """Grid of the live cells of a raw density: how discretize and both sums end.

    ``raw`` holds densities on cells of the given step whose first cell
    starts at ``origin``; it is overwritten, so that no second array of its
    size is held.  Negative round-off is clipped, the mass is normalized and
    only the cells above TRIM_FLOOR of the peak are kept.  The lower cut is
    on an even index and an odd run gets one zero cell appended, so the
    count is even and the half grid in ``entropy`` pairs the same cells as
    on the uncut grid.  The error estimate is ``inherited`` plus the mass
    defect and the dropped mass.
    """
    values, defect = _normalized(np.clip(raw, 0.0, None, out=raw), step, out=raw)
    live = values > TRIM_FLOOR * values.max()
    lo = int(np.argmax(live)) & ~1
    hi = live.size - int(np.argmax(live[::-1]))
    # summed from the dropped cells: 1 - (kept mass) would round it away
    dropped = float(values[:lo].sum() + values[hi:].sum()) * step
    kept = np.zeros((hi - lo + 1) & ~1)
    kept[: hi - lo] = values[lo:hi]
    kept, _ = _normalized(kept, step, out=kept)
    spec = GridSpec(origin=origin + lo * step, step=step, count=kept.size)
    return GridDensity(spec=spec, values=kept, mass_defect=defect,
                       error_estimate=inherited + _truncation_term(defect)
                       + _truncation_term(dropped))


def _sampling_term(variance: float, step: float) -> float:
    """SAMPLING_COEF * step^2 / variance; one-cell grids cap it at SAMPLING_COEF."""
    return SAMPLING_COEF * step * step / max(variance, step * step)


def convolve(f: GridDensity, g: GridDensity) -> GridDensity:
    """Density of X + Y for independent X ~ f, Y ~ g.

    Zero-padded FFT convolution of the operands' cells, at the smallest
    5-smooth transform length; grids with unequal steps are first brought
    to the coarser step.  The result is cut to its live cells by
    ``_live_grid``.  Error estimates add, plus three terms of
    this step: the FFT mass defect, the trimmed mass, and SAMPLING_COEF *
    step^2 / variance for the variance the midpoint grid loses to the
    discrete convolution (Sheppard's correction), which the Richardson
    estimate cannot see on densities with jumps.  Operands are ordered by content
    before the transform so the operation commutes exactly, not just
    within rounding.
    """
    # variances add under convolution; resampling keeps the law, so the
    # operands' own grids give it
    variance = f.moments.variance + g.moments.variance
    if not math.isclose(f.spec.step, g.spec.step, rel_tol=1e-9):
        target = max(f.spec.step, g.spec.step)
        if f.spec.step < target:
            f = resample(f, target)
        if g.spec.step < target:
            g = resample(g, target)
    kf, kg = (f.spec.count, f.spec.origin), (g.spec.count, g.spec.origin)
    if kg < kf or (kg == kf and g.values.tobytes() < f.values.tobytes()):
        f, g = g, f
    step = f.spec.step
    n = f.spec.count + g.spec.count - 1
    m = _fft_length(n)
    spec = np.fft.rfft(f.values, m)
    spec *= np.fft.rfft(g.values, m)
    dens = np.fft.irfft(spec, m)[:n]
    dens *= step
    return _live_grid(dens, f.spec.origin + g.spec.origin + step / 2.0, step,
                      f.error_estimate + g.error_estimate + _sampling_term(variance, step))


def convolve_power(g: GridDensity, k: int) -> GridDensity:
    """Density of the sum of k independent copies of X ~ g, as one spectrum power.

    The k-fold convolution is ``irfft(rfft(g * step) ** k) / step`` at the
    smallest 5-smooth length that holds its support, finished by
    ``_live_grid`` as in ``convolve``.  The error estimate is k
    times g's, plus one FFT mass defect and one trimmed mass, plus the
    sampling terms the k - 1 convolutions of a fold would charge:
    SAMPLING_COEF * step^2 / (j * variance) for j = 2..k.  k = 1 returns g
    itself.
    """
    if k < 1:
        raise GridError(f"convolution power needs k >= 1, got {k}")
    if k == 1:
        return g
    step = g.spec.step
    n = k * (g.spec.count - 1) + 1
    m = _fft_length(n)
    spec = np.fft.rfft(g.values * step, m)
    # not np.power(spec, k, out=spec): for k = 2 it differs from spec ** 2 in the last bit
    spec **= k
    dens = np.fft.irfft(spec, m)[:n]
    dens /= step
    variance = g.moments.variance
    sampling = sum(_sampling_term(j * variance, step) for j in range(2, k + 1))
    return _live_grid(dens, k * g.spec.origin + (k - 1) * step / 2.0, step,
                      k * g.error_estimate + sampling)


def _plain_entropy(values: np.ndarray, step: float) -> float:
    v = values
    mask = v > DENSITY_FLOOR
    vv = v[mask]
    return float(-np.sum(vv * np.log(vv)) * step)


def entropy(f: GridDensity) -> tuple[float, float]:
    """Midpoint-rule differential entropy with a conservative error bound.

    The quadrature term is a Richardson estimate from recomputing at half
    resolution; the stored truncation estimate is added on top.
    """
    h = _plain_entropy(f.values, f.spec.step)
    half = np.add(f.values[0::2], f.values[1::2])
    half *= 0.5
    h_half = _plain_entropy(half, 2.0 * f.spec.step)
    err = max(abs(h - h_half), 1e-12) + f.error_estimate
    return h, err


def gaussian_fit(f: GridDensity) -> Gaussian:
    """Gaussian with the grid's mean and variance."""
    m = f.moments
    return Gaussian(m.mean, m.variance)


def _plain_kl(values: np.ndarray, ref: np.ndarray, step: float) -> float:
    mask = values > DENSITY_FLOOR
    vv, rr = values[mask], ref[mask]
    return float(np.sum(vv * (np.log(vv) - np.log(rr))) * step)


def kl_divergence(f: GridDensity, g: DensityModel) -> tuple[float, float]:
    """Relative entropy of the grid f against a model with positive density.

    Returns (value, err), err being a Richardson estimate from recomputing
    at half resolution plus the grid's stored error estimate, as in
    ``entropy``.  Nonnegative up to numerical error; values within the error
    band are clamped to zero.
    """
    x = f.spec.centers()
    ref = np.asarray(g.pdf(x), dtype=float)
    mask = f.values > DENSITY_FLOOR
    if np.any(ref[mask] <= 0.0):
        raise GridError("reference density vanishes inside the grid support")
    val = _plain_kl(f.values, ref, f.spec.step)

    half_vals = 0.5 * (f.values[0::2] + f.values[1::2])
    half_x = 0.5 * (x[0::2] + x[1::2])
    half_ref = np.asarray(g.pdf(half_x), dtype=float)
    half_mask = half_vals > DENSITY_FLOOR
    if np.any(half_ref[half_mask] <= 0.0):
        raise GridError("reference density vanishes inside the grid support")
    val_half = _plain_kl(half_vals, half_ref, 2.0 * f.spec.step)
    err = max(abs(val - val_half), 1e-12) + f.error_estimate

    if val < 0.0:
        if val < -err:
            raise GridError(f"divergence {val:.3g} below -err={-err:.3g}; grid inconsistent")
        return 0.0, err
    return val, err


def l1_distance(f: GridDensity, g: DensityModel) -> float:
    """Grid estimate of the L1 distance between f and a model density."""
    x = f.spec.centers()
    ref = np.asarray(g.pdf(x), dtype=float)
    inside = float(np.sum(np.abs(f.values - ref)) * f.spec.step)
    # model mass outside the grid window counts fully toward the distance
    lo = f.spec.origin
    hi = f.spec.origin + f.spec.width
    outside = float(g.cdf(np.array([lo]))[0] + (1.0 - g.cdf(np.array([hi]))[0]))
    return inside + outside
