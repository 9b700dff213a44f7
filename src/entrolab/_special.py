"""Scalar special functions for the distribution catalog.

Normal cdf and quantile, digamma, and the regularized incomplete gamma
function with its upper-tail inverse, built on :mod:`math` and
:mod:`statistics` so that importing entrolab loads no scipy module.  The
catalog calls these on scalars and on 1-element arrays.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

__all__ = ["ndtr", "ndtri", "digamma", "gammainc", "gammainccinv"]

# sqrt(1/2) as one double; z * _SQRT1_2 rounds once, where z / sqrt(2)
# rounds twice, and erfc magnifies an argument error by 2 x^2 in the tail
_SQRT1_2 = math.sqrt(0.5)

_EPS = 2.0 ** -52
_TINY = 1e-300
# the continued fraction converges in O(sqrt(a)) terms: 198 at a = 1e4
_MAX_TERMS = 10_000

# B_2j / (2j) for j = 1..8: psi(x) ~ log x - 1/(2x) - sum_j B_2j / (2j x^2j)
_ASYMPTOTIC = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12, -3617 / 8160)

# the double nearest the positive zero of digamma, and digamma there
_ROOT = 1.4616321449683622
_ROOT_VALUE = -9.241265521729427e-17

_STANDARD_NORMAL = NormalDist()


def _elementwise(fn, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.fromiter((fn(v) for v in x.ravel().tolist()), float, x.size).reshape(x.shape)


def ndtr(z) -> np.ndarray:
    """Standard normal cdf, elementwise: erfc(-z / sqrt 2) / 2."""
    return _elementwise(lambda v: 0.5 * math.erfc(-v * _SQRT1_2), z)


def ndtri(p: float) -> float:
    """Standard normal quantile of p in (0, 1)."""
    return _STANDARD_NORMAL.inv_cdf(p)


def _asymptotic_series(x: float) -> float:
    """sum_j B_2j / (2j x^2j), accurate to an ulp for x >= 10."""
    z = 1.0 / (x * x)
    s = 0.0
    for c in reversed(_ASYMPTOTIC):
        s = s * z + c
    return z * s


def digamma(x: float) -> float:
    """psi(x) for x > 0, within 1e-15 relative of a correctly rounded value.

    In general: the recurrence psi(x) = psi(x + n) - sum_{j<n} 1/(x + j) up
    to x + n >= 10, then the asymptotic series, with every term added in one
    exactly rounded sum.  That sum cancels near the zero x0 = 1.4616... of
    psi, so for x0/2 <= x <= 2 x0 the result is psi(x0) + (x - x0) * G
    instead: the divided difference G = sum_k 1/((x0 + k)(x + k)) is summed
    to k = 9, and its tail [psi(x + 10) - psi(x0 + 10)] / (x - x0) is taken
    from the asymptotic series term by term, so no two O(1) values are
    subtracted.
    """
    if not x > 0.0:
        raise ValueError(f"digamma needs x > 0, got {x}")
    if 0.5 * _ROOT <= x <= 2.0 * _ROOT:
        d = x - _ROOT  # exact here (Sterbenz)
        if d == 0.0:
            return _ROOT_VALUE
        terms = [1.0 / ((_ROOT + k) * (x + k)) for k in range(10)]
        u, v = 1.0 / (x + 10.0), 1.0 / (_ROOT + 10.0)
        terms.append(math.log1p(d * v) / d + 0.5 * u * v)
        # -c_j (u^2j - v^2j) / d = c_j u v H_(2j-1), with the complete
        # homogeneous sums H_m = sum_{i<=m} u^i v^(m-i) = v H_(m-1) + u^m
        h, up, m = 1.0, 1.0, 0
        for j, c in enumerate(_ASYMPTOTIC, start=1):
            while m < 2 * j - 1:
                m += 1
                up *= u
                h = h * v + up
            terms.append(c * u * v * h)
        return _ROOT_VALUE + d * math.fsum(terms)
    terms = []
    while x < 10.0:
        terms.append(-1.0 / x)
        x += 1.0
    terms += [math.log(x), -0.5 / x, -_asymptotic_series(x)]
    return math.fsum(terms)


def _log_prefactor(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a))."""
    return a * math.log(x) - x - math.lgamma(a)


def _lower_series(a: float, x: float) -> float:
    """P(a, x) by its power series; converges fast for x < a + 1."""
    term = total = 1.0 / a
    n = a
    while abs(term) > abs(total) * _EPS:
        n += 1.0
        term *= x / n
        total += term
    return total * math.exp(_log_prefactor(a, x))


def _upper_fraction(a: float, x: float) -> float:
    """Q(a, x) by Lentz's continued fraction; converges fast for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h * math.exp(_log_prefactor(a, x))
    raise ArithmeticError(f"incomplete gamma fraction did not converge for a={a}, x={x}")


def _gammainc(a: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    return _lower_series(a, x) if x < a + 1.0 else 1.0 - _upper_fraction(a, x)


def _gammaincc(a: float, x: float) -> float:
    if x <= 0.0:
        return 1.0
    return 1.0 - _lower_series(a, x) if x < a + 1.0 else _upper_fraction(a, x)


def gammainc(a: float, x) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, x), elementwise in x >= 0."""
    return _elementwise(lambda v: _gammainc(a, v), x)


def gammainccinv(a: float, q: float) -> float:
    """The x > 0 with Q(a, x) = q, for 0 < q < 1.

    Solved for the tail mass itself rather than as P(a, x) = 1 - q, since
    1 - q rounds: 1 - 1e-13 leaves a tail of 1.000311e-13.  Newton steps on
    log Q(a, x) - log q, kept inside a bracket that bisection shrinks when
    a step leaves it, start from the Wilson-Hilferty approximation.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"upper-tail mass must lie in (0, 1), got {q}")
    target = math.log(q)
    lo, hi = 0.0, math.inf
    t = 1.0 / (9.0 * a)
    x = max(a * (1.0 - t - ndtri(q) * math.sqrt(t)) ** 3, _TINY)
    for _ in range(200):
        tail = _gammaincc(a, x)
        if tail > q:
            lo = x
        else:
            hi = x
        # d/dx log Q = -x^(a-1) e^-x / (Gamma(a) Q)
        density = math.exp(_log_prefactor(a, x)) / x
        nxt = x + (math.log(tail) - target) * tail / density if tail > 0.0 < density else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        if abs(nxt - x) <= 4.0 * _EPS * x:
            return nxt
        x = nxt
    raise ArithmeticError(f"upper-tail inverse did not converge for a={a}, q={q}")
