"""Catalog of one-dimensional distributions.

Every model is an immutable value with exact moments, a vectorized density,
a closed-form differential entropy where one exists (nats), affine
transforms, and seeded sampling.  Models with no closed-form entropy
(mixtures, gridded densities) are handled numerically by
:mod:`entrolab.grids`.

One-sided families (exponential, gamma) carry an optional shift and a
``reflected`` flag so that the catalog is closed under affine maps ``a*X + b``
with ``a != 0``; reflection and shift leave the entropy untouched.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from . import _special

if TYPE_CHECKING:  # pragma: no cover
    from .grids import GridDensity

__all__ = [
    "ModelError",
    "MomentSummary",
    "DensityModel",
    "Gaussian",
    "Uniform",
    "Exponential",
    "Laplace",
    "Gamma",
    "Mixture",
    "Gridded",
    "KINDS",
    "is_finite_number",
    "make_model",
    "sample",
]

LN_2PI_E = math.log(2.0 * math.pi * math.e)

# Per-tail probability used when converting a sigma window into a finite
# grid window for heavy-shouldered (exponential-type) tails.
TAIL_EPS = 1e-13

WEIGHT_SUM_TOL = 1e-9


class ModelError(ValueError):
    """Distribution parameters violate the catalog contract."""


def is_finite_number(value) -> bool:
    """A real number other than NaN or an infinity; booleans and strings are not numbers."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class MomentSummary:
    """Mean and variance of a model, exact for analytic kinds."""

    mean: float
    variance: float


@dataclass(frozen=True)
class DensityModel:
    """Base class for catalog entries.  Instances are immutable values.

    The fields are the parameters that ``to_dict`` writes and ``make_model``
    reads; a kind adds its own inequalities in ``_check``.
    """

    # True when the law of -X is a translate of the law of X.  A wrong False
    # only costs a cache hit in GridContext; a wrong True gives wrong entropies.
    symmetric: ClassVar[bool] = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not is_finite_number(value) \
                    or f.type == "bool" and not isinstance(value, bool):
                want = "a finite number" if f.type == "float" else "true or false"
                raise ModelError(f"{type(self).__name__.lower()} {f.name} must be {want}, "
                                 f"got {value!r}")
        self._check()

    def _check(self) -> None:
        """Raise ModelError unless the parameters meet the kind's inequalities."""

    def moments(self) -> MomentSummary:
        raise NotImplementedError

    def closed_form_entropy(self) -> float | None:
        """Differential entropy in nats, or None when no closed form exists."""
        return None

    def pdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def window(self, eps: float = TAIL_EPS) -> tuple[float, float]:
        """Finite interval containing all mass except at most eps per tail."""
        raise NotImplementedError

    def bounded_density(self) -> bool:
        return True

    # False when ``characteristic`` is not available (gridded densities)
    has_characteristic: ClassVar[bool] = True

    def characteristic(self, t: np.ndarray) -> tuple[float, np.ndarray]:
        """(center, phi) with E[exp(itX)] = exp(it * center) * phi(t) at each t."""
        raise NotImplementedError

    def affine(self, a: float, b: float) -> "DensityModel":
        """Law of ``a*X + b``; entropy shifts by log|a|."""
        raise NotImplementedError

    def sample_rng(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        """The kind and every parameter that is not at its default."""
        d = {"kind": type(self).__name__.lower()}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default is MISSING or value != f.default:
                d[f.name] = value
        return d

    @cached_property
    def echo(self) -> dict:
        """``to_dict()``, made once: the one dict that every report on this law
        echoes in its ``inputs``, so a report writer formats each law once.  Never mutate it."""
        return self.to_dict()

    @cached_property
    def content_key(self) -> str:
        """Cache key equal for equal parameters, computed once per instance.

        Content-based on purpose: id()-keyed memoization would alias
        recycled addresses of dead model objects.
        """
        return json.dumps(self.echo, sort_keys=True)


@dataclass(frozen=True)
class Gaussian(DensityModel):
    mean: float
    variance: float

    symmetric = True

    def _check(self):
        if not self.variance > 0.0:
            raise ModelError(f"gaussian variance must be positive, got {self.variance}")

    def moments(self) -> MomentSummary:
        return MomentSummary(self.mean, self.variance)

    def closed_form_entropy(self) -> float:
        return 0.5 * (LN_2PI_E + math.log(self.variance))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) ** 2 / (2.0 * self.variance)
        return np.exp(-z) / math.sqrt(2.0 * math.pi * self.variance)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _special.ndtr((x - self.mean) / math.sqrt(self.variance))

    def window(self, eps: float = TAIL_EPS):
        half = -_special.ndtri(eps) * math.sqrt(self.variance)
        return (self.mean - half, self.mean + half)

    def characteristic(self, t):
        return self.mean, np.exp(-0.5 * self.variance * np.square(t))

    def affine(self, a, b):
        _check_scale(a)
        return Gaussian(a * self.mean + b, a * a * self.variance)

    def sample_rng(self, rng, n):
        return rng.normal(self.mean, math.sqrt(self.variance), n)


@dataclass(frozen=True)
class Uniform(DensityModel):
    lower: float
    upper: float

    symmetric = True

    def _check(self):
        if not self.upper > self.lower:
            raise ModelError(f"uniform needs lower < upper, got [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def moments(self) -> MomentSummary:
        return MomentSummary(0.5 * (self.lower + self.upper), self.width ** 2 / 12.0)

    def closed_form_entropy(self) -> float:
        return math.log(self.width)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lower) & (x <= self.upper)
        return np.where(inside, 1.0 / self.width, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lower) / self.width, 0.0, 1.0)

    def support(self):
        return (self.lower, self.upper)

    def window(self, eps: float = TAIL_EPS):
        return (self.lower, self.upper)

    def characteristic(self, t):
        return 0.5 * (self.lower + self.upper), np.sinc(t * (0.5 * self.width / math.pi))

    def affine(self, a, b):
        _check_scale(a)
        lo, hi = a * self.lower + b, a * self.upper + b
        return Uniform(min(lo, hi), max(lo, hi))

    def sample_rng(self, rng, n):
        return rng.uniform(self.lower, self.upper, n)


class _OneSided(DensityModel):
    """Law of ``s*T + shift`` with T >= 0, s = -1 if reflected.

    A kind's fields are T's parameters, then ``shift`` and ``reflected``; it
    gives ``_reach(eps)``, the upper eps-quantile of T, and ``_scaled(k)``,
    T's parameters for the law of k*T.
    """

    def _sign(self) -> float:
        return -1.0 if self.reflected else 1.0

    def support(self):
        return (-math.inf, self.shift) if self.reflected else (self.shift, math.inf)

    def window(self, eps: float = TAIL_EPS):
        edge = self.shift + self._sign() * self._reach(eps)
        return (min(edge, self.shift), max(edge, self.shift))

    def affine(self, a, b):
        _check_scale(a)
        return replace(self, shift=a * self.shift + b, reflected=self.reflected != bool(a < 0),
                       **self._scaled(abs(a)))


@dataclass(frozen=True)
class Exponential(_OneSided):
    """Law of ``s*E + shift`` with E ~ Exponential(rate), s = -1 if reflected."""

    rate: float
    shift: float = 0.0
    reflected: bool = False

    def _check(self):
        if not self.rate > 0.0:
            raise ModelError(f"exponential rate must be positive, got {self.rate}")

    def _reach(self, eps):
        return -math.log(eps) / self.rate

    def _scaled(self, k):
        return {"rate": self.rate / k}

    def moments(self) -> MomentSummary:
        return MomentSummary(self._sign() / self.rate + self.shift, 1.0 / self.rate ** 2)

    def closed_form_entropy(self) -> float:
        return 1.0 - math.log(self.rate)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        t = self._sign() * (x - self.shift)
        return np.where(t >= 0.0, self.rate * np.exp(-self.rate * np.maximum(t, 0.0)), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        t = self.rate * (x - self.shift)
        if self.reflected:
            return np.where(t < 0.0, np.exp(np.clip(t, None, 0.0)), 1.0)
        return np.where(t > 0.0, -np.expm1(-np.clip(t, 0.0, None)), 0.0)

    def characteristic(self, t):
        return self.shift, self.rate / (self.rate - 1j * self._sign() * t)

    def sample_rng(self, rng, n):
        return self._sign() * rng.exponential(1.0 / self.rate, n) + self.shift


@dataclass(frozen=True)
class Laplace(DensityModel):
    location: float
    scale: float

    symmetric = True

    def _check(self):
        if not self.scale > 0.0:
            raise ModelError(f"laplace scale must be positive, got {self.scale}")

    def moments(self) -> MomentSummary:
        return MomentSummary(self.location, 2.0 * self.scale ** 2)

    def closed_form_entropy(self) -> float:
        return 1.0 + math.log(2.0 * self.scale)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.abs(x - self.location) / self.scale) / (2.0 * self.scale)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        t = (x - self.location) / self.scale
        return np.where(t < 0.0, 0.5 * np.exp(np.clip(t, None, 0.0)),
                        1.0 - 0.5 * np.exp(-np.clip(t, 0.0, None)))

    def window(self, eps: float = TAIL_EPS):
        reach = self.scale * math.log(1.0 / (2.0 * eps))
        return (self.location - reach, self.location + reach)

    def characteristic(self, t):
        return self.location, 1.0 / (1.0 + np.square(self.scale * t))

    def affine(self, a, b):
        _check_scale(a)
        return Laplace(a * self.location + b, abs(a) * self.scale)

    def sample_rng(self, rng, n):
        return rng.laplace(self.location, self.scale, n)


@dataclass(frozen=True)
class Gamma(_OneSided):
    """Law of ``s*G + shift`` with G ~ Gamma(shape, scale), s = -1 if reflected."""

    shape: float
    scale: float
    shift: float = 0.0
    reflected: bool = False

    def _check(self):
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise ModelError(f"gamma shape and scale must be positive, "
                             f"got ({self.shape}, {self.scale})")

    def _reach(self, eps):
        return _special.gammainccinv(self.shape, eps) * self.scale

    def _scaled(self, k):
        return {"scale": self.scale * k}

    def moments(self) -> MomentSummary:
        return MomentSummary(self._sign() * self.shape * self.scale + self.shift,
                             self.shape * self.scale ** 2)

    def closed_form_entropy(self) -> float:
        k = self.shape
        return k + math.log(self.scale) + math.lgamma(k) + (1.0 - k) * _special.digamma(k)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        t = self._sign() * (x - self.shift) / self.scale
        t = np.clip(t, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = ((self.shape - 1.0) * np.log(t) - t
                      - math.lgamma(self.shape) - math.log(self.scale))
        out = np.exp(logpdf)
        return np.where(self._sign() * (x - self.shift) > 0.0, out, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        t = np.clip(self._sign() * (x - self.shift) / self.scale, 0.0, None)
        c = _special.gammainc(self.shape, t)
        return 1.0 - c if self.reflected else c

    def characteristic(self, t):
        return self.shift, (1.0 - 1j * self._sign() * self.scale * t) ** -self.shape

    def bounded_density(self) -> bool:
        # shape < 1 puts an integrable singularity at the support edge
        return self.shape >= 1.0

    def sample_rng(self, rng, n):
        return self._sign() * rng.gamma(self.shape, self.scale, n) + self.shift


@dataclass(frozen=True)
class Mixture(DensityModel):
    weights: tuple[float, ...]
    components: tuple[DensityModel, ...]

    def _check(self):
        if len(self.components) == 0:
            raise ModelError("mixture needs at least one component")
        if len(self.weights) != len(self.components):
            raise ModelError("mixture weights and components must have equal length")
        if not all(map(is_finite_number, self.weights)):
            raise ModelError(f"mixture weights must be finite numbers, got {self.weights!r}")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0.0):
            raise ModelError("mixture weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ModelError(f"mixture weights sum to {total}, beyond {WEIGHT_SUM_TOL} of 1")
        object.__setattr__(self, "weights", tuple(float(x) for x in w / total))
        object.__setattr__(self, "components", tuple(self.components))

    def moments(self) -> MomentSummary:
        ms = [c.moments() for c in self.components]
        mean = sum(w * m.mean for w, m in zip(self.weights, ms))
        second = sum(w * (m.variance + m.mean ** 2) for w, m in zip(self.weights, ms))
        return MomentSummary(mean, second - mean ** 2)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for w, c in zip(self.weights, self.components):
            out += w * c.pdf(x)
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for w, c in zip(self.weights, self.components):
            out += w * c.cdf(x)
        return out

    def support(self):
        los, his = zip(*(c.support() for c in self.components))
        return (min(los), max(his))

    def window(self, eps: float = TAIL_EPS):
        los, his = zip(*(c.window(eps) for c in self.components))
        return (min(los), max(his))

    def bounded_density(self) -> bool:
        return all(c.bounded_density() for c in self.components)

    @property
    def has_characteristic(self) -> bool:
        return all(c.has_characteristic for c in self.components)

    def characteristic(self, t):
        parts = [c.characteristic(t) for c in self.components]
        center = sum(w * c for w, (c, _) in zip(self.weights, parts))
        return center, sum(w * np.exp(1j * (c - center) * t) * phi
                           for w, (c, phi) in zip(self.weights, parts))

    def affine(self, a, b):
        _check_scale(a)
        return Mixture(self.weights, tuple(c.affine(a, b) for c in self.components))

    def sample_rng(self, rng, n):
        idx = rng.choice(len(self.weights), size=n, p=np.asarray(self.weights))
        out = np.empty(n, dtype=float)
        for i, c in enumerate(self.components):
            where = idx == i
            cnt = int(where.sum())
            if cnt:
                out[where] = c.sample_rng(rng, cnt)
        return out

    def to_dict(self):
        return {
            "kind": "mixture",
            "weights": list(self.weights),
            "components": [c.to_dict() for c in self.components],
        }


@dataclass(frozen=True)
class Gridded(DensityModel):
    """A density given only through its grid representation."""

    grid: "GridDensity"

    has_characteristic = False

    def moments(self) -> MomentSummary:
        return self.grid.moments

    def pdf(self, x):
        return np.interp(np.asarray(x, dtype=float), self.grid.spec.centers(),
                         self.grid.values, left=0.0, right=0.0)

    def cdf(self, x):
        cum = np.cumsum(self.grid.values) * self.grid.spec.step
        return np.interp(np.asarray(x, dtype=float), self.grid.spec.centers(), cum,
                         left=0.0, right=1.0)

    def support(self):
        spec = self.grid.spec
        return (spec.origin, spec.origin + spec.count * spec.step)

    def window(self, eps: float = TAIL_EPS):
        return self.support()

    def affine(self, a, b):
        _check_scale(a)
        from .grids import GridDensity, GridSpec

        spec = self.grid.spec
        width = spec.count * spec.step
        if a > 0:
            origin = a * spec.origin + b
            values = self.grid.values / a
        else:
            origin = a * (spec.origin + width) + b
            values = self.grid.values[::-1] / (-a)
        new_spec = GridSpec(origin=origin, step=abs(a) * spec.step, count=spec.count)
        return Gridded(GridDensity(spec=new_spec, values=values,
                                   mass_defect=self.grid.mass_defect,
                                   error_estimate=self.grid.error_estimate))

    def sample_rng(self, rng, n):
        spec = self.grid.spec
        cell_mass = self.grid.values * spec.step
        cum = np.cumsum(cell_mass)
        cum /= cum[-1]
        u = rng.random(n)
        cells = np.searchsorted(cum, u, side="right")
        cells = np.clip(cells, 0, spec.count - 1)
        return spec.origin + (cells + rng.random(n)) * spec.step

    @cached_property
    def content_key(self) -> str:
        # to_dict records the grid's shape and moments, not its values
        return (json.dumps(self.to_dict(), sort_keys=True)
                + hashlib.sha1(self.grid.values.tobytes()).hexdigest())

    def to_dict(self):
        spec = self.grid.spec
        m = self.moments()
        return {
            "kind": "gridded",
            "origin": spec.origin,
            "step": spec.step,
            "count": spec.count,
            "mean": m.mean,
            "variance": m.variance,
        }


def _check_scale(a: float) -> None:
    if a == 0.0 or not math.isfinite(a):
        raise ModelError("affine scale must be finite and nonzero")


# the catalog kinds a spec can name, besides "mixture"
KINDS: dict[str, type[DensityModel]] = {
    cls.__name__.lower(): cls for cls in (Gaussian, Uniform, Exponential, Laplace, Gamma)
}


def make_model(spec: dict) -> DensityModel:
    """Build a validated model from a parameter record (see ``to_dict``); other keys are errors."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ModelError(f"model spec must be a dict with a 'kind' field, got {spec!r}")
    kind = spec["kind"]
    cls = {"mixture": Mixture, **KINDS}.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ModelError(f"unknown model kind {kind!r}")
    params = {k: v for k, v in spec.items() if k != "kind"}
    unknown = sorted(params.keys() - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in params]
    if unknown or missing:
        raise ModelError(f"kind '{kind}': unknown parameters {unknown}, missing {missing}")
    if cls is Mixture:
        if not all(isinstance(params[k], (list, tuple)) for k in ("weights", "components")):
            raise ModelError("mixture weights and components must be lists")
        params["components"] = [make_model(c) for c in params["components"]]
    return cls(**params)


def sample(m: DensityModel, n: int, seed: int) -> np.ndarray:
    """Draw n reproducible samples; identical (model, n, seed) give identical output."""
    if n < 1:
        raise ModelError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    return m.sample_rng(rng, n)
