"""Gridded-density engine: discretization, convolution, entropy, divergence.

Densities live on uniform cell-centered grids; all quadrature is the
midpoint rule, so ``sum(values) * step`` is the represented mass.  Every
grid carries a conservative entropy-error estimate (truncation and trimmed
mass, plus a sampling term per summed copy; ``entropy`` adds quadrature)
that downstream inequality verdicts consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .distributions import DensityModel, Gaussian, MomentSummary

__all__ = [
    "GridError",
    "GridSpec",
    "GridDensity",
    "discretize",
    "convolve",
    "reflect",
    "entropy",
    "kl_divergence",
    "gaussian_fit",
    "l1_distance",
    "resample",
    "leaf_tail",
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

    @classmethod
    def _trusted(cls, spec, values, mass_defect, error_estimate) -> GridDensity:
        """A grid of read-only values this module has checked: no copy, no second check."""
        g = object.__new__(cls)
        g.__dict__.update(spec=spec, values=values, mass_defect=mass_defect,
                          error_estimate=error_estimate)
        return g

    # the values are read-only, so per-grid invariants are computed once

    @cached_property
    def moments(self) -> MomentSummary:
        x = self.spec.centers()
        step = self.spec.step
        mean = float((x * self.values).sum() * step)
        x -= mean
        x **= 2
        x *= self.values
        return MomentSummary(mean, float(x.sum() * step))


def _truncation_term(tail_mass: float) -> float:
    if tail_mass <= 0.0:
        return 0.0
    return tail_mass * (abs(math.log(max(tail_mass, DENSITY_FLOOR))) + 1.0)


def _window(m: DensityModel, window_sigmas: float) -> tuple[float, float, float]:
    """(lo, hi, tail mass) of a model's discretization window (see ``discretize``)."""
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
    tail = _tail_mass(m, lo, hi)
    if tail > TRUNCATION_LIMIT:
        raise GridError(
            f"truncated mass {tail:.3g} exceeds {TRUNCATION_LIMIT}; tail too heavy for grid pipeline"
        )
    return lo, hi, tail


def _tail_mass(m: DensityModel, lo: float, hi: float) -> float:
    return float(m.cdf(np.array([lo]))[0] + (1.0 - m.cdf(np.array([hi]))[0]))


def _sample(m: DensityModel, origin: float, step: float, count: int, tail: float) -> GridDensity:
    """Midpoint pdf samples on ``count`` cells from ``origin``, cut by ``_cut``."""
    raw = np.asarray(m.pdf(origin + (np.arange(count) + 0.5) * step), dtype=float)
    return _cut(raw, origin, step, _truncation_term(tail))


def discretize(m: DensityModel, window_sigmas: float = 12.0, count: int = 1 << 14,
               window: tuple[float, float, float] | None = None) -> GridDensity:
    """Sample a model onto a normalized grid covering its effective support.

    The window is the wider of mean +/- window_sigmas * stddev and the
    1e-13 two-sided quantile range, intersected with the support, so that
    exponential-type tails stay covered at any sigma setting.  The model is
    sampled at ``count`` cells (a power of two) and cut to its live cells
    by ``_cut``; the window's tail mass, the sampling mass defect and
    the dropped mass make up the error estimate.  ``window`` is ``_window``'s, if known.
    """
    if count < MIN_COUNT or count & (count - 1):
        raise GridError(f"grid count must be a power of two >= {MIN_COUNT}, got {count}")
    lo, hi, tail = window or _window(m, window_sigmas)
    return _sample(m, lo, (hi - lo) / count, count, tail)


def resample(m: DensityModel, step: float, window_sigmas: float = 12.0,
             window: tuple[float, float, float] | None = None) -> GridDensity:
    """Sample a law at a given step: ``discretize``, its window tiled by whole
    cells from its finite support end (else its lower end) so a jump is a cell edge.
    """
    lo, hi, tail = window or _window(m, window_sigmas)
    count = math.ceil((hi - lo) / step)
    if count > MAX_COUNT:
        raise GridError(f"sampling at step {step:.3g} needs {count} cells; step not representable")
    sup_lo, sup_hi = m.support()
    origin = hi - count * step if math.isfinite(sup_hi) and not math.isfinite(sup_lo) else lo
    return _sample(m, origin, step, count, tail)


def reflect(f: GridDensity) -> GridDensity:
    """Density of -X; entropy and error bookkeeping unchanged."""
    spec = f.spec
    new_spec = GridSpec(origin=-(spec.origin + spec.width), step=spec.step, count=spec.count)
    return GridDensity._trusted(new_spec, f.values[::-1], f.mass_defect, f.error_estimate)


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


def _cut(raw: np.ndarray, origin: float, step: float, inherited: float) -> GridDensity:
    """Grid of the live cells of a raw density: how every grid is made.

    ``raw`` holds densities on cells of the given step whose first cell
    starts at ``origin``; it is overwritten, so that no second array of its
    size is held.  Negative round-off is clipped, the mass is normalized and
    only the cells above TRIM_FLOOR of the peak are kept.  The lower cut is
    on an even index and an odd run gets one zero cell appended, so the
    count is even and the half grid in ``entropy`` pairs the same cells as
    on the uncut grid; the kept cells are normalized again.  The error
    estimate is ``inherited`` + the mass defect + the dropped mass, in order.
    """
    values = np.maximum(raw, 0.0, out=raw)
    mass = float(values.sum() * step)
    if mass <= 0.0:
        raise GridError("grid carries no mass")
    if not math.isfinite(mass):  # a NaN or an infinity among the values
        raise GridError("grid values must be finite and nonnegative")
    values /= mass
    live = values > TRIM_FLOOR * values.max()
    lo = int(live.argmax()) & ~1
    hi = live.size - int(live[::-1].argmax())
    # summed from the dropped cells: 1 - (kept mass) would round it away
    dropped = float(values[:lo].sum() + values[hi:].sum()) * step
    kept = values[lo:hi] if (hi - lo) % 2 == 0 else np.concatenate((values[lo:hi], (0.0,)))
    kept = kept / float(kept.sum() * step)
    kept.flags.writeable = False
    defect = abs(1.0 - mass)
    return GridDensity._trusted(GridSpec(origin + lo * step, step, kept.size), kept, defect,
                                inherited + _truncation_term(defect) + _truncation_term(dropped))


def leaf_tail(m: DensityModel) -> float:
    """Truncation term of a leaf's window: the mass that can wrap around a sum's period."""
    return _truncation_term(_tail_mass(m, *m.window()))


def convolve(parts: Sequence[tuple[GridDensity, int]],
             leaves: Sequence[tuple[DensityModel, int]] = (),
             tails: Sequence[float] | None = None) -> GridDensity:
    """Density of the sum of k copies of each (grid, k) part and (model, k) leaf.

    The spectrum is the product of ``rfft(grid * step) ** k`` over the parts
    (all on one step, transformed together as the rows of one zero-padded
    array) and ``phi(t) ** k`` over the leaves' characteristic functions, at
    t = -2 pi j / (M step), M the smallest 5-smooth length that holds the
    support; one irfft and ``_cut`` finish the sum on the parts' cell
    centers.  The whole cells of the leaves' summed centers rotate the
    output; only the rest is a phase factor.  err adds k times each part's,
    k times each leaf's tail term (``leaf_tail``, or ``tails`` in leaf
    order), and SAMPLING_COEF * step^2 / var per added copy, var the
    partial sum's variance: what a discrete convolution of midpoint grids
    loses (Sheppard's correction), unseen by the Richardson estimate on
    densities with jumps.  Parts are ordered by (count, origin, k), then
    values; one part of one copy and no leaves is returned as it is.
    """
    if any(k < 1 for _, k in (*parts, *leaves)):
        raise GridError("every part and leaf of a sum needs k >= 1 copies")
    keys = [(g.spec.count, g.spec.origin, k) for g, k in parts]
    if len(set(keys)) < len(keys):  # only a tie copies the values, to compare their bytes
        keys = [(*key, g.values.tobytes()) for key, (g, _) in zip(keys, parts)]
    parts = [p for _, p in sorted(zip(keys, parts), key=lambda kp: kp[0])]
    if not leaves and len(parts) == 1 and parts[0][1] == 1:
        return parts[0][0]
    step = parts[0][0].spec.step
    if not all(math.isclose(g.spec.step, step, rel_tol=1e-9) for g, _ in parts):
        raise GridError("the grid parts of a sum must share one step")
    n = 1 + sum(k * (g.spec.count - 1) for g, k in parts)
    origin = (sum(k * g.spec.origin for g, k in parts)
              + (sum(k for _, k in parts) - 1) * step / 2.0)
    inherited = sum(k * g.error_estimate for g, k in parts)
    if tails is None:
        tails = [leaf_tail(m) for m, _ in leaves]
    lo = hi = 0.0
    for (m, k), tail in zip(leaves, tails):
        w_lo, w_hi = m.window()
        lo, hi = lo + k * w_lo, hi + k * w_hi
        inherited += k * tail
    first = math.floor(lo / step)
    n += math.ceil(hi / step) - first
    size = _fft_length(n)
    rows = np.zeros((len(parts), size))
    for row, (g, _) in zip(rows, parts):
        np.multiply(g.values, step, out=row[:g.values.size])
    spec = None
    for s, (_, k) in zip(np.fft.rfft(rows, size), parts):
        # not np.power(s, k, out=s): for k = 2 it differs from s ** 2 in the last bit
        if k > 1:
            s **= k
        spec = s if spec is None else np.multiply(spec, s, out=spec)
    if leaves:
        t = np.arange(spec.size) * (-2.0 * math.pi / (size * step))
        shift = 0.0
        for m, k in leaves:
            center, phi = m.characteristic(t)
            spec *= phi if k == 1 else phi ** k
            shift += k * center
        whole = round(shift / step)
        spec *= np.exp(1j * (shift - whole * step) * t)
    dens = np.fft.irfft(spec, size)
    if leaves:  # the first n cells of np.roll(dens, r)
        r = (whole - first) % size
        dens = np.concatenate((dens[size - r:size - r + n], dens[:max(n - r, 0)]))
    dens = dens[:n]
    dens /= step
    sampling = var = 0.0
    for v, k in ([(g.moments.variance, k) for g, k in parts]
                 + [(m.moments().variance, k) for m, k in leaves]):
        # one-cell grids cap the term at SAMPLING_COEF
        sampling += sum(SAMPLING_COEF * step * step / max(var + j * v, step * step)
                        for j in range(2 if var == 0.0 else 1, k + 1))
        var += k * v
    return _cut(dens, origin + first * step, step, inherited + sampling)


def _plain_entropy(values: np.ndarray, step: float) -> float:
    v = values if values.min() > DENSITY_FLOOR else values[values > DENSITY_FLOOR]
    vlogv = np.log(v)
    vlogv *= v
    return float(-vlogv.sum() * step)


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


def _both_grids(f: GridDensity) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """(values, centers, step) of f and of its half grid, which merges f's cell pairs."""
    x = f.spec.centers()
    half = np.add(f.values[0::2], f.values[1::2])
    half *= 0.5
    return [(f.values, x, f.spec.step), (half, 0.5 * (x[0::2] + x[1::2]), 2.0 * f.spec.step)]


def _plain_kl(g: DensityModel, values: np.ndarray, x: np.ndarray, step: float) -> float:
    ref = np.asarray(g.pdf(x), dtype=float)
    mask = values > DENSITY_FLOOR
    if np.any(ref[mask] <= 0.0):
        raise GridError("reference density vanishes inside the grid support")
    vv, rr = values[mask], ref[mask]
    return float(np.sum(vv * (np.log(vv) - np.log(rr))) * step)


def kl_divergence(f: GridDensity, g: DensityModel) -> tuple[float, float]:
    """Relative entropy of the grid f against a model with positive density.

    Returns (value, err), err being a Richardson estimate from recomputing
    at half resolution plus the grid's stored error estimate, as in
    ``entropy``.  Nonnegative up to numerical error; values within the error
    band are clamped to zero.
    """
    val, val_half = (_plain_kl(g, *grid) for grid in _both_grids(f))
    err = max(abs(val - val_half), 1e-12) + f.error_estimate
    if val < 0.0:
        if val < -err:
            raise GridError(f"divergence {val:.3g} below -err={-err:.3g}; grid inconsistent")
        return 0.0, err
    return val, err


def l1_distance(f: GridDensity, g: DensityModel) -> tuple[float, float]:
    """Grid estimate of the L1 distance between f and a model density, and its err.

    err is a Richardson estimate, as in ``entropy``, plus step * |d[i+1] - d[i]| / 2
    for each pair of adjacent cells where d = f - g changes sign: |d| has a
    kink between them, where the midpoint rule is not O(step^2) and the half
    grid's change is no bound.  Model mass outside the grid window counts
    fully toward the distance.
    """
    d, half = (values - g.pdf(x) for values, x, _ in _both_grids(f))
    step = f.spec.step
    inside = float(np.sum(np.abs(d)) * step)
    below = d < 0.0
    cross = np.flatnonzero(below[:-1] != below[1:])
    kinks = float(np.sum(np.abs(d[cross + 1] - d[cross]))) * step / 2
    return (inside + _tail_mass(g, f.spec.origin, f.spec.origin + f.spec.width),
            abs(inside - float(np.sum(np.abs(half)) * (2.0 * step))) + kinks)
