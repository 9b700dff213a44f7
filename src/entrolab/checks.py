"""Registry of sumset-type entropy inequalities as executable checks.

Each check evaluates both sides of one inequality or identity through the
grid pipeline, propagates the grid error estimates, and reports slack with
a verdict.  Mutual-information quantities are always computed as entropy
differences of independent-sum laws (I(X+Y;Y) = h(X+Y) - h(X)), keeping
everything one-dimensional.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import grids
from .distributions import DensityModel, Gaussian, Mixture, Uniform
from .poincare import poincare_constant
from .report import InequalityReport, make_report

__all__ = [
    "CheckDef",
    "RuzsaFunctionals",
    "GridContext",
    "CHECKS",
    "run_check",
    "ruzsa_distance",
    "doubling_and_difference",
    "sum_minus_difference_gap",
    "sum_dominant_gap",
    "inverse_theorem_check",
    "default_corpus",
]

LN2 = math.log(2.0)

Terms = tuple[tuple[int, DensityModel], ...]


class GridContext:
    """Caches discretizations and entropies of signed-sum expressions.

    Repeated models in a term list denote independent copies, so the
    entropy of a term list depends only on the multiset of (model, sign)
    pairs.  A point-symmetric law (``DensityModel.symmetric``) has its sign
    dropped: -X is a translate of X, so the sum changes by a translate and
    its entropy not at all, and h(X - Y) and h(X + Y) share one entry.  Keys
    and evaluation order are content-based, which makes every result
    independent of call order, cache state and process layout.
    """

    def __init__(self, count: int = 1 << 14, window_sigmas: float = 12.0):
        self.count = count
        self.window_sigmas = window_sigmas
        self._grids: dict[str, grids.GridDensity] = {}
        self._entropies: dict[tuple, tuple[float, float]] = {}

    def grid(self, m: DensityModel) -> grids.GridDensity:
        key = m.content_key
        if key not in self._grids:
            self._grids[key] = grids.discretize(m, self.window_sigmas, self.count)
        return self._grids[key]

    def sum_grid(self, terms: Sequence[tuple[int, DensityModel]]) -> grids.GridDensity:
        """Grid of the signed independent sum: each run of equal (law, sign)
        leaves as one convolution power, the runs folded in content order."""
        ordered = sorted(terms, key=_term_key)
        out = None
        for (_, sign), run in itertools.groupby(ordered, key=_term_key):
            run = list(run)
            g = self.grid(run[0][1])
            part = grids.convolve_power(g if sign > 0 else grids.reflect(g), len(run))
            out = part if out is None else grids.convolve(out, part)
        return out

    def entropy(self, *terms: tuple[int, DensityModel]) -> tuple[float, float]:
        """(value, err) of the signed independent sum of the given terms.

        The sum evaluated is the given one with every symmetric law's sign
        set to +1; its entropy is the same.
        """
        terms = tuple((1 if m.symmetric else sign, m) for sign, m in terms)
        key = tuple(sorted(_term_key(t) for t in terms))
        if key not in self._entropies:
            self._entropies[key] = grids.entropy(self.sum_grid(terms))
        return self._entropies[key]


def _term_key(term: tuple[int, DensityModel]) -> tuple[str, int]:
    sign, m = term
    return m.content_key, sign


@dataclass(frozen=True)
class RuzsaFunctionals:
    """Additive-entropy functionals of a single law (all grid-based)."""

    dist_r: float  # self-distance h(X - X') - h(X), nats
    sigma: float  # doubling constant exp{h(X+X') - h(X)}
    delta: float  # difference constant exp{h(X-X') - h(X)}
    delta_plus: float  # h(X+X') - h(X), nats
    delta_minus: float  # h(X-X') - h(X), nats
    err_plus: float
    err_minus: float


def ruzsa_distance(ctx: GridContext, mx: DensityModel, my: DensityModel) -> tuple[float, float]:
    """dist(X, Y) = h(X' - Y') - h(X')/2 - h(Y')/2 for independent copies."""
    h_diff, e_diff = ctx.entropy((1, mx), (-1, my))
    h_x, e_x = ctx.entropy((1, mx))
    h_y, e_y = ctx.entropy((1, my))
    return h_diff - 0.5 * h_x - 0.5 * h_y, e_diff + 0.5 * e_x + 0.5 * e_y


def doubling_and_difference(ctx: GridContext, m: DensityModel) -> RuzsaFunctionals:
    h_x, e_x = ctx.entropy((1, m))
    h_sum, e_sum = ctx.entropy((1, m), (1, m))
    h_diff, e_diff = ctx.entropy((1, m), (-1, m))
    dplus = h_sum - h_x
    dminus = h_diff - h_x
    return RuzsaFunctionals(
        dist_r=dminus,
        sigma=math.exp(dplus),
        delta=math.exp(dminus),
        delta_plus=dplus,
        delta_minus=dminus,
        err_plus=e_sum + e_x,
        err_minus=e_diff + e_x,
    )


# ---------------------------------------------------------------------------
# registry evaluators: each returns (lhs, rhs, err, note, degenerate)


def _eval_lower_bound(ctx, models):
    x, y = models
    h_x, e_x = ctx.entropy((1, x))
    h_y, e_y = ctx.entropy((1, y))
    h_sum, e_sum = ctx.entropy((1, x), (1, y))
    lhs, e_lhs = (h_x, e_x) if h_x >= h_y else (h_y, e_y)
    return lhs, h_sum, e_lhs + e_sum, None, False


def _eval_ruzsa_triangle(ctx, models):
    x, y, z = models
    h_xz, e1 = ctx.entropy((1, x), (-1, z))
    h_xy, e2 = ctx.entropy((1, x), (-1, y))
    h_yz, e3 = ctx.entropy((1, y), (-1, z))
    h_y, e4 = ctx.entropy((1, y))
    return h_xz, h_xy + h_yz - h_y, e1 + e2 + e3 + e4, None, False


def _eval_triangle_metric(ctx, models):
    x, y, z = models
    d_xz, e1 = ruzsa_distance(ctx, x, z)
    d_xy, e2 = ruzsa_distance(ctx, x, y)
    d_yz, e3 = ruzsa_distance(ctx, y, z)
    return d_xz, d_xy + d_yz, e1 + e2 + e3, None, False


def _eval_csumdiff(ctx, models):
    x, y, z = models
    h_xz, e1 = ctx.entropy((1, x), (-1, z))
    h_y, e2 = ctx.entropy((1, y))
    h_xy, e3 = ctx.entropy((1, x), (1, y))
    h_yz, e4 = ctx.entropy((1, y), (1, z))
    return h_xz + h_y, h_xy + h_yz, e1 + e2 + e3 + e4, None, False


def _eval_c3122(ctx, models):
    x, y, z = models
    h_xyz, e1 = ctx.entropy((1, x), (1, y), (1, z))
    h_y, e2 = ctx.entropy((1, y))
    h_xy, e3 = ctx.entropy((1, x), (1, y))
    h_yz, e4 = ctx.entropy((1, y), (1, z))
    return h_xyz + h_y, h_xy + h_yz, e1 + e2 + e3 + e4, None, False


def _eval_doubling_difference(ctx, models):
    (x,) = models
    f = doubling_and_difference(ctx, x)
    err = f.err_plus + f.err_minus
    if abs(f.delta_minus) <= f.err_minus:
        return f.delta_plus, f.delta_minus, err, "degenerate denominator", True
    ratio = f.delta_plus / f.delta_minus
    note = f"ratio={ratio:.6f}"
    # two-sided: ratio in [1/2, 2]; report the binding side in log form
    slack_upper = 2.0 * f.delta_minus - f.delta_plus
    slack_lower = f.delta_plus - 0.5 * f.delta_minus
    e_upper = 2.0 * f.err_minus + f.err_plus
    e_lower = f.err_plus + 0.5 * f.err_minus
    if slack_upper <= slack_lower:
        return f.delta_plus, 2.0 * f.delta_minus, e_upper, note + " side=upper", False
    return 0.5 * f.delta_minus, f.delta_plus, e_lower, note + " side=lower", False


def _eval_sigma_delta(ctx, models):
    (x,) = models
    f = doubling_and_difference(ctx, x)
    # log form of delta^(1/2) <= sigma <= delta^2
    slack_lower = f.delta_plus - 0.5 * f.delta_minus
    slack_upper = 2.0 * f.delta_minus - f.delta_plus
    e_lower = f.err_plus + 0.5 * f.err_minus
    e_upper = 2.0 * f.err_minus + f.err_plus
    if slack_upper <= slack_lower:
        return f.delta_plus, 2.0 * f.delta_minus, e_upper, "side=upper", False
    return 0.5 * f.delta_minus, f.delta_plus, e_lower, "side=lower", False


def _eval_sum_difference(ctx, models):
    x, y = models
    h_sum, e1 = ctx.entropy((1, x), (1, y))
    h_diff, e2 = ctx.entropy((1, x), (-1, y))
    h_x, e3 = ctx.entropy((1, x))
    h_y, e4 = ctx.entropy((1, y))
    return h_sum, 3.0 * h_diff - h_x - h_y, e1 + 3.0 * e2 + e3 + e4, None, False


def _eval_sum_difference_mi(ctx, models, alpha):
    x, y = models
    h_sum, e_sum = ctx.entropy((1, x), (1, y))
    h_diff, e_diff = ctx.entropy((1, x), (-1, y))
    h_x, e_x = ctx.entropy((1, x))
    h_y, e_y = ctx.entropy((1, y))
    i_sum_x = h_sum - h_y  # I(X+Y;X)
    i_sum_y = h_sum - h_x
    i_diff_x = h_diff - h_y
    i_diff_y = h_diff - h_x
    lhs = alpha * i_sum_x + (1.0 - alpha) * i_sum_y
    rhs = (1.0 + alpha) * i_diff_x + (2.0 - alpha) * i_diff_y
    err = (e_sum + alpha * e_y + (1.0 - alpha) * e_x
           + 3.0 * e_diff + (1.0 + alpha) * e_y + (2.0 - alpha) * e_x)
    return lhs, rhs, err, None, False


def _eval_plunnecke_ruzsa(ctx, models, n):
    x, ys = models[0], models[1 : n + 1]
    h_x, e_x = ctx.entropy((1, x))
    rhs, err = h_x, e_x
    for y in ys:
        h_xy, e_xy = ctx.entropy((1, x), (1, y))
        rhs += h_xy - h_x  # log K_i, computed rather than user-supplied
        err += e_xy + e_x
    terms = ((1, x),) + tuple((1, y) for y in ys)
    lhs, e_lhs = ctx.entropy(*terms)
    return lhs, rhs, err + e_lhs, None, False


def _eval_four_variable(ctx, models):
    x, y, z, w = models
    h_all, e1 = ctx.entropy((1, x), (1, y), (1, z), (1, w))
    h_y, e2 = ctx.entropy((1, y))
    h_z, e3 = ctx.entropy((1, z))
    h_xy, e4 = ctx.entropy((1, x), (1, y))
    h_yz, e5 = ctx.entropy((1, y), (1, z))
    h_zw, e6 = ctx.entropy((1, z), (1, w))
    return h_all + h_y + h_z, h_xy + h_yz + h_zw, e1 + e2 + e3 + e4 + e5 + e6, None, False


def _eval_iterated_sum(ctx, models, n):
    x, y = models
    copies = n + 1
    terms = tuple((1, x) for _ in range(copies)) + tuple((1, y) for _ in range(copies))
    lhs, e_lhs = ctx.entropy(*terms)
    h_xy, e_xy = ctx.entropy((1, x), (1, y))
    h_x, e_x = ctx.entropy((1, x))
    h_y, e_y = ctx.entropy((1, y))
    rhs = (2 * n + 1) * h_xy - n * h_x - n * h_y
    err = e_lhs + (2 * n + 1) * e_xy + n * e_x + n * e_y
    return lhs, rhs, err, None, False


def _eval_epi_doubling(ctx, models):
    (x,) = models
    f = doubling_and_difference(ctx, x)
    slack_plus = f.delta_plus - 0.5 * LN2
    slack_minus = f.delta_minus - 0.5 * LN2
    if slack_plus <= slack_minus:
        return 0.5 * LN2, f.delta_plus, f.err_plus, "side=sum", False
    return 0.5 * LN2, f.delta_minus, f.err_minus, "side=difference", False


@dataclass(frozen=True)
class CheckDef:
    """One registered inequality/identity over independent catalog models."""

    id: str
    statement: str
    arity: int  # number of independent input models (before params)
    kind: str  # "inequality" | "identity" | "two-sided-bound"
    evaluator: Callable
    variants: tuple[dict, ...] = (dict(),)

    def arity_for(self, params: dict) -> int:
        if self.id == "plunnecke_ruzsa":
            return 1 + params["n"]
        return self.arity


CHECKS: dict[str, CheckDef] = {
    c.id: c
    for c in [
        CheckDef(
            "lower_bound",
            "h(X+Y) >= max(h(X), h(Y)) for independent X, Y",
            2, "inequality", _eval_lower_bound,
        ),
        CheckDef(
            "ruzsa_triangle",
            "h(X-Z) <= h(X-Y) + h(Y-Z) - h(Y) for independent X, Y, Z",
            3, "inequality", _eval_ruzsa_triangle,
        ),
        CheckDef(
            "triangle_metric",
            "dist(X,Z) <= dist(X,Y) + dist(Y,Z) for the entropy distance",
            3, "inequality", _eval_triangle_metric,
        ),
        CheckDef(
            "csumdiff",
            "h(X-Z) + h(Y) <= h(X+Y) + h(Y+Z) for independent X, Y, Z",
            3, "inequality", _eval_csumdiff,
        ),
        CheckDef(
            "c3122",
            "h(X+Y+Z) + h(Y) <= h(X+Y) + h(Y+Z) for independent X, Y, Z",
            3, "inequality", _eval_c3122,
        ),
        CheckDef(
            "doubling_difference",
            "1/2 <= (h(X1+X2)-h(X1)) / (h(X1-X2)-h(X1)) <= 2 for i.i.d. X1, X2",
            1, "two-sided-bound", _eval_doubling_difference,
        ),
        CheckDef(
            "sigma_delta",
            "delta^(1/2) <= sigma <= delta^2 for the doubling/difference constants",
            1, "two-sided-bound", _eval_sigma_delta,
        ),
        CheckDef(
            "sum_difference",
            "h(X+Y) <= 3 h(X-Y) - h(X) - h(Y) for independent X, Y",
            2, "inequality", _eval_sum_difference,
        ),
        CheckDef(
            "sum_difference_mi",
            "a I(X+Y;X) + (1-a) I(X+Y;Y) <= (1+a) I(X-Y;X) + (2-a) I(X-Y;Y)",
            2, "inequality", _eval_sum_difference_mi,
            tuple({"alpha": a} for a in (0.0, 0.25, 0.5, 0.75, 1.0)),
        ),
        CheckDef(
            "plunnecke_ruzsa",
            "h(X + Y1 + ... + Yn) <= h(X) + sum_i [h(X+Yi) - h(X)]",
            2, "inequality", _eval_plunnecke_ruzsa,
            tuple({"n": n} for n in (1, 2, 3, 4)),
        ),
        CheckDef(
            "four_variable",
            "h(X+Y+Z+W) + h(Y) + h(Z) <= h(X+Y) + h(Y+Z) + h(Z+W)",
            4, "inequality", _eval_four_variable,
        ),
        CheckDef(
            "iterated_sum",
            "h(S0+...+Sn) <= (2n+1) h(X+Y) - n h(X) - n h(Y) for i.i.d. sums Si = Xi+Yi",
            2, "inequality", _eval_iterated_sum,
            tuple({"n": n} for n in (1, 2, 3)),
        ),
        CheckDef(
            "epi_doubling",
            "sigma >= sqrt(2) and delta >= sqrt(2): entropy gain of an i.i.d. sum",
            1, "two-sided-bound", _eval_epi_doubling,
        ),
    ]
}


def run_check(
    check: CheckDef,
    models: Sequence[DensityModel],
    ctx: GridContext | None = None,
    params: dict | None = None,
    extra_err: float = 0.0,
) -> InequalityReport:
    """Evaluate one registered check on the given independent input models.

    extra_err widens the error band (configured per-check tolerance
    overrides) on top of the propagated grid estimates.
    """
    params = params or {}
    ctx = ctx or GridContext()
    need = check.arity_for(params)
    if len(models) != need:
        raise ValueError(f"check '{check.id}' needs {need} models, got {len(models)}")
    lhs, rhs, err, note, degenerate = check.evaluator(ctx, tuple(models), **params)
    return make_report(
        check.id, lhs=lhs, rhs=rhs, err=err + extra_err,
        kind="identity" if check.kind == "identity" else "inequality",
        params=params,
        inputs=tuple(m.to_dict() for m in models),
        note=note, degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# sum-versus-difference demonstrations


def sum_minus_difference_gap(p: float, a: float, ctx: GridContext | None = None) -> tuple[float, float]:
    """h(X1+X2) - h(X1-X2) for the two-cluster law p U(0,1) + (1-p) U(a,a+1).

    Returns (gap, err).  For a >= 2 the three clusters of the sum law (at 0,
    a, 2a, weights p^2, 2pq, q^2) and of the difference law (at -a, 0, a,
    weights pq, p^2+q^2, pq) are disjoint translates of one triangular
    density, so the gap equals the three-cluster weight-entropy difference
    H(p^2, 2pq, q^2) - H(pq, p^2+q^2, pq) exactly and is constant in a.  That
    difference is strictly negative for p != 1/2: the difference law
    concentrates collision mass at zero yet still carries more entropy than
    the sum law.  See sum_dominant_gap for a family with the opposite sign.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0,1)")
    if a < 0.0:
        raise ValueError("a must be nonnegative")
    ctx = ctx or GridContext()
    if a == 0.0:
        m: DensityModel = Uniform(0.0, 1.0)
    else:
        m = Mixture((p, 1.0 - p), (Uniform(0.0, 1.0), Uniform(a, a + 1.0)))
    h_sum, e_sum = ctx.entropy((1, m), (1, m))
    h_diff, e_diff = ctx.entropy((1, m), (-1, m))
    return h_sum - h_diff, e_sum + e_diff


# smallest set with more pairwise sums than differences
_SUM_DOMINANT_SET = (0, 2, 3, 4, 7, 11, 12, 14)


def sum_dominant_gap(scale: float = 3.0, ctx: GridContext | None = None) -> tuple[float, float]:
    """Positive sum-minus-difference entropy gap from a sum-dominant support.

    X is uniform over translates of U(0,1) placed on a scaled set whose
    sumset beats its difference set; for separated clusters the gap
    approaches the (positive) weight-entropy difference of the cluster
    laws.
    """
    if scale <= 2.0:
        raise ValueError("scale must exceed 2 to keep clusters separated")
    ctx = ctx or GridContext()
    n = len(_SUM_DOMINANT_SET)
    comps = tuple(Uniform(scale * s, scale * s + 1.0) for s in _SUM_DOMINANT_SET)
    m = Mixture((1.0 / n,) * n, comps)
    h_sum, e_sum = ctx.entropy((1, m), (1, m))
    h_diff, e_diff = ctx.entropy((1, m), (-1, m))
    return h_sum - h_diff, e_sum + e_diff


# ---------------------------------------------------------------------------
# inverse-theorem bundle


def inverse_theorem_check(
    m: DensityModel,
    ctx: GridContext | None = None,
    identity_tol: float = 1e-9,
) -> list[InequalityReport]:
    """Bundle of maximum-entropy-gap bounds for one law.

    Emits, in log form: the sqrt(2) lower bounds on sigma and delta, the
    Poincare-weighted upper bounds on D(f||phi) in terms of sigma and
    delta, the reverse bounds sigma, delta <= sqrt(2) exp(D), the
    standardized-sum contraction bound, and the Pinsker bound.  The
    Poincare-dependent reports are marked skipped when no constant is
    available.
    """
    ctx = ctx or GridContext()
    f = doubling_and_difference(ctx, m)
    g = ctx.grid(m)
    phi = grids.gaussian_fit(g)
    div, div_err = grids.kl_divergence(g, phi)
    var = g.moments.variance
    echo = (m.to_dict(),)
    half_ln2 = 0.5 * LN2

    reports = [
        make_report("inverse_epi_sigma", lhs=half_ln2, rhs=f.delta_plus,
                    err=f.err_plus, inputs=echo),
        make_report("inverse_epi_delta", lhs=half_ln2, rhs=f.delta_minus,
                    err=f.err_minus, inputs=echo),
        make_report("inverse_reverse_sigma", lhs=f.delta_plus, rhs=half_ln2 + div,
                    err=f.err_plus + div_err, inputs=echo),
        make_report("inverse_reverse_delta", lhs=f.delta_minus, rhs=half_ln2 + div,
                    err=f.err_minus + div_err, inputs=echo),
    ]

    l1 = grids.l1_distance(g, phi)
    reports.append(
        make_report("inverse_pinsker", lhs=0.5 * l1 * l1, rhs=div,
                    err=div_err + l1 * g.error_estimate, inputs=echo)
    )

    r = poincare_constant(m)
    if r is None:
        for cid in ("inverse_fgr_sigma", "inverse_fgr_delta", "inverse_contraction"):
            reports.append(InequalityReport(
                check_id=cid, lhs=math.nan, rhs=math.nan, slack=math.nan,
                err=math.nan, verdict="skipped", inputs=echo,
                note="Poincare constant unavailable (oracle did not converge)",
            ))
        return reports

    factor = 2.0 * r / var + 1.0
    reports.append(
        make_report("inverse_fgr_sigma", lhs=div,
                    rhs=factor * (f.delta_plus - half_ln2),
                    err=div_err + factor * f.err_plus, inputs=echo,
                    note=f"poincare={r:.6g}")
    )
    reports.append(
        make_report("inverse_fgr_delta", lhs=div,
                    rhs=factor * (2.0 * f.delta_minus - half_ln2),
                    err=div_err + 2.0 * factor * f.err_minus, inputs=echo,
                    note=f"poincare={r:.6g}")
    )
    contraction = var / (2.0 * r + var)
    reports.append(
        make_report("inverse_contraction",
                    lhs=contraction * div, rhs=f.delta_plus - half_ln2,
                    err=f.err_plus + contraction * div_err, inputs=echo,
                    note=f"poincare={r:.6g}")
    )
    return reports


# ---------------------------------------------------------------------------
# randomized corpus


def default_corpus(seed: int, size: int = 100) -> list[DensityModel]:
    """Seeded draw of catalog models with moderate scales and locations."""
    rng = np.random.default_rng(seed)
    out: list[DensityModel] = []
    kinds = rng.choice(5, size=size, p=[0.25, 0.2, 0.2, 0.15, 0.2])
    for kind in kinds:
        if kind == 0:
            out.append(Gaussian(rng.uniform(-3, 3), rng.uniform(0.25, 9.0)))
        elif kind == 1:
            lo = rng.uniform(-3, 3)
            out.append(Uniform(lo, lo + rng.uniform(0.5, 6.0)))
        elif kind == 2:
            from .distributions import Exponential

            out.append(Exponential(rng.uniform(1.0 / 3.0, 3.0),
                                   shift=rng.uniform(-2, 2),
                                   reflected=bool(rng.integers(2))))
        elif kind == 3:
            from .distributions import Laplace

            out.append(Laplace(rng.uniform(-3, 3), rng.uniform(0.3, 3.0)))
        else:
            n_comp = int(rng.integers(2, 4))
            w = rng.dirichlet(np.ones(n_comp))
            comps = tuple(
                Gaussian(rng.uniform(-4, 4), rng.uniform(0.25, 4.0))
                for _ in range(n_comp)
            )
            out.append(Mixture(tuple(w), comps))
    return out
