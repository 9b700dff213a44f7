"""Exact Shannon-entropy verification over small cyclic groups.

Everything here is exhaustive computation on dense probability tables, so
checks are exact up to 1e-12 float accumulation: there is no numerical
error band to argue about, and identities must land on the nose.  The
sumset checks are the ones registered in ``entrolab.checks``, run on the
group backend ``_group_entropy``, which folds raw probability vectors
through the same gathers and renormalizations as ``sum_pmf`` and
``reflect_pmf``.  This is also where the results live that are true for
Shannon entropy but fail for differential entropy (``sum_upper``,
functional submodularity, the covering identity).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checks import EXACT_TOL, REGISTRY, Approx, CheckDef, Exact
from .report import InequalityReport, make_report

__all__ = [
    "DiscretePmf",
    "DiscreteJoint",
    "discrete_entropy",
    "sum_pmf",
    "difference_pmf",
    "check_functional_submodularity",
    "check_covering_lemma",
    "check_discrete_registry",
    "random_pmf",
    "GROUP_CHECKS",
    "DISCRETE_CHECK_IDS",
    "DISCRETE_REGISTRY_ORDER",
]

MAX_ORDER = 64
MAX_AXES = 5


@dataclass(frozen=True)
class DiscretePmf:
    """Probability mass function on the cyclic group of the given order."""

    group_order: int
    probs: np.ndarray

    def __post_init__(self):
        if not 2 <= self.group_order <= MAX_ORDER:
            raise ValueError(f"group order must be in [2, {MAX_ORDER}]")
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (self.group_order,):
            raise ValueError("probs length must equal the group order")
        p = _normalized(p)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def entropy(self) -> float:
        return _entropy_of(self.probs)


@dataclass(frozen=True)
class DiscreteJoint:
    """Dense probability tensor over a product of cyclic groups (<= 5 axes)."""

    dims: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        if not 1 <= len(self.dims) <= MAX_AXES:
            raise ValueError(f"joint must have 1..{MAX_AXES} axes")
        t = np.asarray(self.table, dtype=float)
        if t.shape != tuple(self.dims):
            raise ValueError("table shape must match dims")
        if t.size == 0:
            raise ValueError("table is empty")
        t = _normalized(t, "table entries")
        t.flags.writeable = False
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "table", t)

    def marginal(self, axes: Sequence[int]) -> np.ndarray:
        axes = tuple(axes)
        drop = tuple(i for i in range(len(self.dims)) if i not in axes)
        out = self.table.sum(axis=drop) if drop else self.table
        # reorder to the requested axis order
        kept = tuple(i for i in range(len(self.dims)) if i in axes)
        perm = tuple(kept.index(a) for a in axes)
        return np.transpose(out, perm)


def _normalized(p: np.ndarray, what: str = "probabilities") -> np.ndarray:
    """p / p.sum() after checking that p is a finite, nonnegative law.

    Every stored law goes through here: a drawn ``DiscretePmf``, a joint
    table, and each intermediate of the group backend's fold.  A NaN fails
    both comparisons, so one min and one sum screen every entry.
    """
    total = p.sum()
    if not (p.min() >= 0.0 and abs(total - 1.0) <= 1e-9):
        if not np.isfinite(p).all():
            raise ValueError(f"{what}: {np.count_nonzero(~np.isfinite(p))} non-finite entries")
        if p.min() < 0.0:
            raise ValueError(f"{what} must be nonnegative")
        raise ValueError(f"{what} sum to {float(total)}")
    return p / total


def _entropy_of(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def discrete_entropy(j: DiscreteJoint, axes: Sequence[int] | None = None) -> float:
    """Exact Shannon entropy (nats) of the selected axes' marginal."""
    if axes is None:
        axes = tuple(range(len(j.dims)))
    return _entropy_of(j.marginal(axes).ravel())


def sum_pmf(p: DiscretePmf, q: DiscretePmf) -> DiscretePmf:
    """Law of X + Y (mod n) for independent X ~ p, Y ~ q.

    One gather builds the n x n table rows[s, x] = q[(s - x) mod n]; then
    out[s] = p . rows[s], one dot product per row, all in one ``np.vecdot``.
    A matrix product over the whole table would sum in another order and
    move results in the last bit.
    """
    if p.group_order != q.group_order:
        raise ValueError("group orders differ")
    return DiscretePmf(p.group_order, _convolve(p.probs, q.probs))


def reflect_pmf(p: DiscretePmf) -> DiscretePmf:
    """Law of -X (mod n)."""
    return DiscretePmf(p.group_order, p.probs[_gathers(p.group_order)[0]])


@functools.cache
def _gathers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of order n: (-x) mod n, and (s - x) mod n by row s."""
    idx = np.arange(n)
    return (-idx) % n, (idx[:, None] - idx[None, :]) % n


def _convolve(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unnormalized law of X + Y on raw vectors: p . q[(s - x) mod n] per row s."""
    return np.vecdot(q[_gathers(len(p))[1]], p)


def difference_pmf(p: DiscretePmf, q: DiscretePmf) -> DiscretePmf:
    return sum_pmf(p, reflect_pmf(q))


def random_pmf(rng: np.random.Generator, group_order: int) -> DiscretePmf:
    return DiscretePmf(group_order, rng.dirichlet(np.ones(group_order)))


# ---------------------------------------------------------------------------


def check_functional_submodularity(
    joint: DiscreteJoint,
    f_map: Sequence[int],
    g_map: Sequence[int],
    r_map: np.ndarray,
    extra_err: float = 0.0,
) -> InequalityReport:
    """H(R(X1,X2)) + H(X0) <= H(X1) + H(X2) with X0 = F(X1) = G(X2) on the support.

    f_map/g_map give F and G by value tables on the two alphabets; r_map is
    a value table on the product.  Raises when F(X1) != G(X2) somewhere on
    the support, since X0 is then ill-defined.  extra_err widens the error
    band (a configured per-check tolerance) on top of EXACT_TOL.
    """
    if len(joint.dims) != 2:
        raise ValueError("needs a two-axis joint")
    n1, n2 = joint.dims
    f_arr = np.asarray(f_map, dtype=int)
    g_arr = np.asarray(g_map, dtype=int)
    r_arr = np.asarray(r_map, dtype=int)
    if f_arr.shape != (n1,) or g_arr.shape != (n2,) or r_arr.shape != (n1, n2):
        raise ValueError("map shapes must match the joint alphabet")

    support = joint.table > 0.0
    consistent = f_arr[:, None] == g_arr[None, :]
    if np.any(support & ~consistent):
        raise ValueError("F(X1) != G(X2) on the support; common value ill-defined")

    h1 = _entropy_of(joint.marginal([0]))
    h2 = _entropy_of(joint.marginal([1]))
    h0 = _entropy_of(np.bincount(f_arr, weights=joint.marginal([0])))
    h12 = _entropy_of(np.bincount(r_arr.ravel(), weights=joint.table.ravel()))
    return make_report("functional_submodularity", lhs=h12 + h0, rhs=h1 + h2,
                       err=EXACT_TOL + extra_err)


def _covering_joint(p: DiscretePmf, q: DiscretePmf) -> DiscreteJoint:
    """Joint of (X1, X2, Y1, Y2): two conditionally independent copies of
    (X, Y) given X + Y, for independent X ~ p, Y ~ q."""
    n = p.group_order
    s_pmf = sum_pmf(p, q).probs
    idx = np.arange(n)
    table = np.zeros((n, n, n, n))
    for s in range(n):
        if s_pmf[s] <= 0.0:
            continue
        # conditional law of (X, Y) given X + Y = s, supported on y = s - x
        cond = p.probs * q.probs[(s - idx) % n] / s_pmf[s]
        pair = np.outer(cond, cond) * s_pmf[s]  # (x1, x2) weights
        table[idx[:, None], idx[None, :], ((s - idx) % n)[:, None], ((s - idx) % n)[None, :]] += pair
    return DiscreteJoint((n, n, n, n), table)


def check_covering_lemma(p: DiscretePmf, q: DiscretePmf,
                         extra_err: float = 0.0) -> InequalityReport:
    """Exact identity H(X1, X2, Y1 | Y2) = 2 H(X) + H(Y) - H(X+Y).

    The conditional copies share the sum, so the left side is computable
    from the explicit four-variable joint; the continuous analog fails
    (the conditioned triple is degenerate there), which is why this check
    lives in the discrete lab only.  extra_err widens the error band as in
    ``check_functional_submodularity``.
    """
    if p.group_order != q.group_order:
        raise ValueError("group orders differ")
    joint = _covering_joint(p, q)
    lhs = discrete_entropy(joint) - discrete_entropy(joint, [3])
    rhs = 2.0 * p.entropy() + q.entropy() - sum_pmf(p, q).entropy()
    return make_report("covering_lemma", lhs=lhs, rhs=rhs, err=EXACT_TOL + extra_err,
                       kind="identity")


# ---------------------------------------------------------------------------
# the sumset registry of entrolab.checks, on the exact group backend


def _group_entropy(*terms: tuple[int, DiscretePmf]) -> Approx:
    """Exact entropy of a signed sum of independent pmfs, folded left to right.

    The fold runs on raw vectors with the arithmetic of ``reflect_pmf`` and
    ``sum_pmf``, each step renormalized by ``_normalized`` as a
    ``DiscretePmf`` would be, so it gives their floats bit for bit without
    building a ``DiscretePmf`` per step.
    """
    out = None
    for sign, p in terms:
        v = p.probs if sign > 0 else _normalized(p.probs[_gathers(p.group_order)[0]])
        out = v if out is None else _normalized(_convolve(out, v))
    return Exact(_entropy_of(out))


GROUP_CHECKS: dict[str, CheckDef] = {c.id: c for c in REGISTRY if c.group}

# registry order: the order in which `entrolab discrete` reports the checks
DISCRETE_REGISTRY_ORDER = tuple(GROUP_CHECKS)
DISCRETE_CHECK_IDS = tuple(sorted(GROUP_CHECKS))


def check_discrete_registry(
    check_id: str,
    pmfs: Sequence[DiscretePmf],
    params: dict | None = None,
    extra_err: float = 0.0,
) -> InequalityReport:
    """Exact Shannon-entropy analog of a registered sumset check.

    extra_err widens the error band as in ``check_functional_submodularity``.
    """
    if check_id not in GROUP_CHECKS:
        raise KeyError(f"unknown discrete check '{check_id}'")
    if len({p.group_order for p in pmfs}) > 1:
        raise ValueError("all pmfs must share one group order")
    return GROUP_CHECKS[check_id].report(
        f"discrete.{check_id}", _group_entropy, pmfs, params or {}, EXACT_TOL + extra_err,
        tuple({"group_order": p.group_order, "probs": p.probs.tolist()} for p in pmfs))
