"""Registry of sumset-type entropy inequalities, each written once.

Every check is a linear form in entropies of signed independent sums.  It is
written once, as a function of an entropy backend ``h(*terms)`` whose terms
are (sign, law) pairs and whose result is an ``Approx`` (value, err).  The
same definition runs on two backends: ``GridContext.entropy`` (differential
entropy of continuous laws on grids, ``run_check``) and the exact cyclic-group
backend of ``entrolab.discrete`` (Shannon entropy, ``registry_reports`` over a
stack of trials; ``check_discrete_registry`` is its one-trial case).
err propagates term by term through each check's own arithmetic; the group
backend's err is 0.  Mutual-information quantities are entropy differences of
independent-sum laws (I(X+Y;Y) = h(X+Y) - h(X)), keeping everything
one-dimensional.

Each ``Approx`` also carries its value as a linear form (``Approx.form``):
``GridContext.entropy`` tags a grid estimate with its cache key and returns
a closed form (``exact_entropy``), with err the round-off ``EXACT_TOL``,
wherever the catalog has one.  A value is exact when no grid estimate is in
its form.

Verdicts are decided coarse first (lazy precision): a ``GridContext`` of
``count`` cells has a coarse sibling of ``count // REFINE_RATIO`` cells, and
``decide`` evaluates on it first and again on the context itself only when
an entry is undecided there.  An entry that no grid count can decide is
final at the first rung: rhs - lhs is exact, or every coefficient of its
form is 0, so that lhs = rhs for every input.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _special, grids
from .distributions import (LN_2PI_E, DensityModel, Exponential, Gamma, Gaussian, Laplace,
                            Mixture, ModelError, Uniform)
from .poincare import poincare_constant
from .report import HOLDS, VIOLATED, InequalityReport, make_report, skipped

__all__ = [
    "Approx",
    "Exact",
    "EXACT_TOL",
    "exact_entropy",
    "CheckDef",
    "GridContext",
    "REFINE_RATIO",
    "decide",
    "REGISTRY",
    "CHECKS",
    "run_check",
    "inverse_theorem_check",
    "INVERSE_CHECK_IDS",
    "default_corpus",
]

LN2 = math.log(2.0)
# leaves off a sum's step whose grids span fewer cells enter by characteristic function
NARROW = 16
# a law sampled at a sum's step mostly recurs within the next two sums: keep the latest 4
RECENT = 4
DEGENERATE = "degenerate denominator"
# a verdict is decided at count // REFINE_RATIO cells first, then refined at count
REFINE_RATIO = 8
_DECIDED = (HOLDS, VIOLATED)
# float round-off err of an exact value: a closed-form entropy, or a group entropy
EXACT_TOL = 1e-12


class _ValueErr(NamedTuple):
    value: float
    err: float = 0.0


class Approx(_ValueErr):
    """A value, a bound on its numerical error, and the value as a linear form.

    x + y and x - y carry x.err + y.err, and c * x carries |c| * x.err, so
    err accumulates term by term in the order an expression is written.
    ``form`` maps term keys to coefficients and follows the same arithmetic:
    a grid estimate is {its cache key: 1.0}, a constant or a closed form is
    {(): value}, and an ``Approx`` built without a form is a term of its
    own, which cancels only with itself.  Unpacking and equality see
    (value, err) alone.
    """

    def __new__(cls, value: float, err: float = 0.0, form: dict | None = None):
        return _approx(value, err, {object(): 1.0} if form is None else form)

    @property
    def exact(self) -> bool:
        """True when no grid count moves the value: its form is a constant."""
        return self.form.keys() <= {()}

    def __add__(self, other: Approx) -> Approx:
        form = self.form.copy()
        for key, c in other.form.items():
            form[key] = form.get(key, 0.0) + c
        return _approx(self[0] + other[0], self[1] + other[1], form)

    def __sub__(self, other: Approx) -> Approx:
        form = self.form.copy()
        for key, c in other.form.items():
            form[key] = form.get(key, 0.0) - c
        return _approx(self[0] - other[0], self[1] + other[1], form)

    def __mul__(self, c: float) -> Approx:
        return _approx(c * self[0], abs(c) * self[1], {key: c * v for key, v in self.form.items()})

    __rmul__ = __mul__


def _approx(value: float, err: float, form: dict) -> Approx:
    """An ``Approx`` built without the call through its class, which the arithmetic repeats."""
    self = tuple.__new__(Approx, (value, err))
    self.form = form
    return self


def Exact(value: float, err: float = 0.0) -> Approx:
    """A constant or a closed form: its err is float round-off, and no grid count moves it."""
    return _approx(value, err, {(): value})


def exact_entropy(*terms: tuple[int, DensityModel]) -> Approx | None:
    """Closed-form entropy of a signed independent sum, or None where the catalog has none.

    There is one for a single law with ``closed_form_entropy``, for any
    signed sum of Gaussians (the Gaussian with the summed variance), for
    two Uniforms of widths a <= b (a trapezoid: log b + a / 2b), and for
    Exponentials by orientation, sign times reflection: k of one rate and
    one orientation (a Gamma(k) law scaled by 1/rate, up to a shift and a
    reflection), two of rates a < b and one orientation (hypoexponential:
    1 + gamma + psi(b / (b - a)) + log((b - a) / ab)), or two of opposite
    orientations (asymmetric Laplace: 1 + log((a + b) / ab)).
    """
    laws = [m for _, m in terms]
    kind, *others = {type(m) for m in laws}
    if len(laws) == 1:
        h = laws[0].closed_form_entropy()
    elif others:
        return None
    elif kind is Gaussian:
        h = 0.5 * (LN_2PI_E + math.log(sum(m.variance for m in laws)))
    elif kind is Uniform and len(laws) == 2:
        a, b = sorted(m.width for m in laws)
        h = math.log(b) + a / (2.0 * b)
    elif kind is Exponential:
        a, *_, b = sorted(m.rate for m in laws)
        one_way = len({sign * (-1 if m.reflected else 1) for sign, m in terms}) == 1
        if one_way and a == b:
            h = Gamma(float(len(laws)), 1.0).closed_form_entropy() - math.log(a)
        elif len(laws) > 2:
            return None
        elif one_way:
            h = 1.0 + np.euler_gamma + _special.digamma(b / (b - a)) + math.log((b - a) / (a * b))
        else:
            h = 1.0 + math.log((a + b) / (a * b))
    else:
        return None
    return None if h is None else Exact(h, EXACT_TOL)


class GridContext:
    """Caches discretizations and entropies of signed-sum expressions.

    Repeated models in a term list denote independent copies, so the
    entropy of a term list depends only on the multiset of (model, sign)
    pairs.  A point-symmetric law (``DensityModel.symmetric``) has its sign
    dropped: -X is a translate of X, so the sum changes by a translate and
    its entropy not at all, and h(X - Y) and h(X + Y) share one entry.  A
    sum and its negation (its mirror image) share one entry too.  Keys and
    evaluation order are content-based, which makes every result
    independent of call order, cache state and process layout.  Each law's
    grid, window and leaf tail term are made once per context (``_per_law``),
    and the RECENT latest grids of laws sampled at a sum's step are kept.
    """

    def __init__(self, count: int = 1 << 14, window_sigmas: float = 12.0):
        self.count = count
        self.window_sigmas = window_sigmas
        self._laws: dict[tuple[str, str], object] = {}
        self._entropies: dict[tuple, Approx] = {}
        self._resampled: dict[tuple[str, float], grids.GridDensity] = {}  # most recent last
        self._coarse: GridContext | None = None

    def _per_law(self, what: str, m: DensityModel, make: Callable[[], object]):
        """make() once per (what, law), keyed by content: a grid, a window or a tail term."""
        key = what, m.content_key
        if key not in self._laws:
            self._laws[key] = make()
        return self._laws[key]

    @property
    def ladder(self) -> tuple[GridContext, ...]:
        """The contexts a verdict is decided on, coarsest first.

        These are the coarse sibling of ``count // REFINE_RATIO`` cells,
        built on first use and kept, then this context.  There is no coarse
        sibling when it would have fewer than ``grids.MIN_COUNT`` cells.
        """
        coarse = self.count // REFINE_RATIO
        if coarse < grids.MIN_COUNT:
            return (self,)
        if self._coarse is None:
            self._coarse = GridContext(coarse, self.window_sigmas)
        return (self._coarse, self)

    def grid(self, m: DensityModel) -> grids.GridDensity:
        return self._per_law("grid", m, lambda: grids.discretize(
            m, self.window_sigmas, self.count, self._window(m)))

    def _window(self, m: DensityModel) -> tuple[float, float, float]:
        return self._per_law("window", m, lambda: grids._window(m, self.window_sigmas))

    def sum_grid(self, terms: Sequence[tuple[int, DensityModel]]) -> grids.GridDensity:
        """Grid of the signed independent sum at the step of its coarsest leaf grid.

        Each run of k equal (law, sign) leaves enters as k copies of its own
        grid when that is on the step.  Otherwise it is sampled at the step
        when its law has at most one finite support end and its grid spans
        at least NARROW cells of the step, and enters through its
        characteristic function if not.
        """
        runs = []
        for _, run in itertools.groupby(sorted(terms, key=_term_key), key=_term_key):
            run = list(run)
            runs.append((*run[0], len(run)))
        leaf_grids = [self.grid(m) for _, m, _ in runs]
        step = max(g.spec.step for g in leaf_grids)
        parts, leaves = [], []
        for (sign, m, k), g in zip(runs, leaf_grids):
            if not math.isclose(g.spec.step, step, rel_tol=1e-9):
                if g.spec.width < NARROW * step or all(map(math.isfinite, m.support())):
                    leaves.append((m if sign > 0 else m.affine(-1.0, 0.0), k))
                    continue
                g = self._resampled.pop((m.content_key, step), None) or grids.resample(
                    m, step, self.window_sigmas, self._window(m))
                self._resampled[m.content_key, step] = g
                if len(self._resampled) > RECENT:
                    del self._resampled[next(iter(self._resampled))]
            parts.append((g if sign > 0 else grids.reflect(g), k))
        tails = [self._per_law("leaf", m, lambda: grids.leaf_tail(m)) for m, _ in leaves]
        return grids.convolve(parts, leaves, tails)

    def entropy(self, *terms: tuple[int, DensityModel]) -> Approx:
        """(value, err) of the signed independent sum of the given terms.

        It is ``exact_entropy`` where that has a closed form, and the grid
        estimate otherwise.  The sum evaluated has every symmetric law's
        sign set to +1, and is negated as a whole when that gives the
        smaller key; its entropy is the same.
        """
        terms = [(1 if m.symmetric else sign, m) for sign, m in terms]
        key = tuple(sorted(map(_term_key, terms)))
        if not all(m.symmetric for _, m in terms):  # else the mirror image is the sum itself
            mirror = [(sign if m.symmetric else -sign, m) for sign, m in terms]
            # on equal keys (a sum that is its own mirror image) min keeps the first
            key, terms = min((key, terms), (tuple(sorted(map(_term_key, mirror))), mirror),
                             key=lambda kt: kt[0])
        h = self._entropies.get(key)
        if h is None:
            h = exact_entropy(*terms) or Approx(*grids.entropy(self.sum_grid(terms)), {key: 1.0})
            self._entropies[key] = h
        return h


def decide(ctx: GridContext, evaluate: Callable[[GridContext], list[InequalityReport]],
           rejected: Callable[[str], list[InequalityReport]]) -> list[InequalityReport]:
    """Each entry of ``evaluate(rung)`` from the first rung of ``ctx.ladder`` that settles it.

    evaluate gives the same entries, in the same order, on every rung.  An
    entry is settled when it is decided or final (``InequalityReport.final``);
    evaluate runs on the next rung only while an entry is not, and an entry
    no rung settles comes from ``ctx`` itself.  A law the grid pipeline
    rejects (GridError or ModelError) gives a rung the entries
    ``rejected(note)``.
    """
    out: list[InequalityReport] = []
    for rung in ctx.ladder:
        try:
            reports = evaluate(rung)
        except (grids.GridError, ModelError) as e:
            reports = rejected(f"{type(e).__name__}: {e}")
        out = [a if _settled(a) else b for a, b in zip(out, reports)] if out else reports
        if all(map(_settled, out)):
            break
    return out


def _settled(r: InequalityReport) -> bool:
    return r.verdict in _DECIDED or r.final


def _term_key(term: tuple[int, DensityModel]) -> tuple[str, int]:
    # a plus sign sorts first, so of a sum and its mirror image the one
    # evaluated leads with plus signs: X + X' stays X + X'
    sign, m = term
    return m.content_key, -sign


# ---------------------------------------------------------------------------
# the registry: each check maps an entropy backend h and its input laws to
# candidate sides [(lhs, rhs, note), ...] of lhs <= rhs


def _dist(h, x, y):
    return h((1, x), (-1, y)) - 0.5 * h((1, x)) - 0.5 * h((1, y))


def _deltas(h, x):
    """(h(X+X') - h(X), h(X-X') - h(X)) for i.i.d. copies."""
    h_x = h((1, x))
    return h((1, x), (1, x)) - h_x, h((1, x), (-1, x)) - h_x


def _doubling_sides(d_plus, d_minus, note=""):
    # log form of delta^(1/2) <= sigma <= delta^2
    return [(d_plus, 2.0 * d_minus, note + "side=upper"),
            (0.5 * d_minus, d_plus, note + "side=lower")]


def _lower_bound(h, models):
    x, y = models
    h_x, h_y, h_sum = h((1, x)), h((1, y)), h((1, x), (1, y))
    return [(h_x, h_sum, None), (h_y, h_sum, None)]


def _sum_upper(h, models):
    x, y = models
    return [(h((1, x), (1, y)), h((1, x)) + h((1, y)), None)]


def _ruzsa_triangle(h, models):
    x, y, z = models
    return [(h((1, x), (-1, z)),
             h((1, x), (-1, y)) + h((1, y), (-1, z)) - h((1, y)), None)]


def _triangle_metric(h, models):
    x, y, z = models
    return [(_dist(h, x, z), _dist(h, x, y) + _dist(h, y, z), None)]


def _csumdiff(h, models):
    x, y, z = models
    return [(h((1, x), (-1, z)) + h((1, y)), h((1, x), (1, y)) + h((1, y), (1, z)), None)]


def _c3122(h, models):
    x, y, z = models
    return [(h((1, x), (1, y), (1, z)) + h((1, y)),
             h((1, x), (1, y)) + h((1, y), (1, z)), None)]


def _doubling_difference(h, models):
    (x,) = models
    d_plus, d_minus = _deltas(h, x)
    # the grid err of d_minus, or float round-off where err is exact
    if abs(d_minus.value) <= max(d_minus.err, 1e-9):
        return [(d_plus, d_minus, DEGENERATE)]
    # two-sided: ratio in [1/2, 2], in log form
    return _doubling_sides(d_plus, d_minus, f"ratio={d_plus.value / d_minus.value:.6f} ")


def _sigma_delta(h, models):
    (x,) = models
    return _doubling_sides(*_deltas(h, x))


def _sum_difference(h, models):
    x, y = models
    return [(h((1, x), (1, y)),
             3.0 * h((1, x), (-1, y)) - h((1, x)) - h((1, y)), None)]


def _sum_difference_mi(h, models, alpha):
    x, y = models
    h_sum, h_diff = h((1, x), (1, y)), h((1, x), (-1, y))
    h_x, h_y = h((1, x)), h((1, y))
    # I(X+Y;X) = h(X+Y) - h(Y), I(X-Y;Y) = h(X-Y) - h(X) and so on
    lhs = alpha * (h_sum - h_y) + (1.0 - alpha) * (h_sum - h_x)
    rhs = (1.0 + alpha) * (h_diff - h_y) + (2.0 - alpha) * (h_diff - h_x)
    return [(lhs, rhs, None)]


def _plunnecke_ruzsa(h, models, n):
    x, ys = models[0], models[1 : n + 1]
    h_x = h((1, x))
    rhs = h_x
    for y in ys:
        rhs += h((1, x), (1, y)) - h_x  # log K_i, computed rather than user-supplied
    return [(h((1, x), *((1, y) for y in ys)), rhs, None)]


def _four_variable(h, models):
    x, y, z, w = models
    return [(h((1, x), (1, y), (1, z), (1, w)) + h((1, y)) + h((1, z)),
             h((1, x), (1, y)) + h((1, y), (1, z)) + h((1, z), (1, w)), None)]


def _iterated_sum(h, models, n):
    x, y = models
    lhs = h(*[(1, x)] * (n + 1), *[(1, y)] * (n + 1))
    return [(lhs, (2 * n + 1) * h((1, x), (1, y)) - n * h((1, x)) - n * h((1, y)), None)]


def _epi_doubling(h, models):
    (x,) = models
    d_plus, d_minus = _deltas(h, x)
    half_ln2 = Exact(0.5 * LN2)
    return [(half_ln2, d_plus, "side=sum"), (half_ln2, d_minus, "side=difference")]


@dataclass(frozen=True)
class CheckDef:
    """One registered inequality over independent input laws.

    ``evaluator(h, models, **params)`` returns the candidate sides
    [(lhs, rhs, note), ...] of lhs <= rhs as ``Approx`` values, computed
    through the entropy backend ``h``.  A parameter left out of ``params``
    takes its value in ``defaults``.  A check runs on grids (differential
    entropy) and on cyclic groups (Shannon entropy) unless it is false for
    one of them.
    """

    id: str
    statement: str
    arity: int  # number of independent input models (before params)
    evaluator: Callable
    variants: tuple[dict, ...] = (dict(),)
    grid: bool = True
    group: bool = True
    defaults: dict = field(default_factory=dict)

    def arity_for(self, params: dict) -> int:
        if self.id == "plunnecke_ruzsa":
            return 1 + {**self.defaults, **params}["n"]
        return self.arity

    def evaluate(self, h: Callable, models: Sequence, params: dict):
        """The binding side (lhs, rhs, note): least rhs - lhs, the first on a tie."""
        params = {**self.defaults, **params}
        need = self.arity_for(params)
        if len(models) != need:
            raise ValueError(f"check '{self.id}' needs {need} inputs, got {len(models)}")
        sides = self.evaluator(h, tuple(models), **params)
        return min(sides, key=lambda side: side[1].value - side[0].value)

    def report(self, check_id: str, h: Callable, models: Sequence, params: dict,
               extra_err: float, inputs: tuple) -> InequalityReport:
        """The binding side as a report; extra_err widens its error band."""
        params = {**self.defaults, **params}
        return _side_report(check_id, *self.evaluate(h, models, params), extra_err,
                            params=params, inputs=inputs)


def _side_report(check_id: str, lhs: Approx, rhs: Approx, note: str | None = None,
                 extra_err: float = 0.0, **fields) -> InequalityReport:
    """Report of lhs <= rhs with err = lhs.err + rhs.err + extra_err.

    It is final when rhs - lhs is exact, or when all its coefficients are 0
    (lhs = rhs for every input).
    """
    slack = rhs - lhs
    return make_report(check_id, lhs=lhs.value, rhs=rhs.value,
                       err=lhs.err + rhs.err + extra_err, note=note,
                       degenerate=note == DEGENERATE,
                       final=slack.exact or not any(slack.form.values()), **fields)


REGISTRY: tuple[CheckDef, ...] = (
    CheckDef("lower_bound", "h(X+Y) >= max(h(X), h(Y)) for independent X, Y",
             2, _lower_bound),
    # true for Shannon entropy; a sum of narrow laws breaks it for differential entropy
    CheckDef("sum_upper", "H(X+Y) <= H(X) + H(Y) for independent X, Y",
             2, _sum_upper, grid=False),
    CheckDef("ruzsa_triangle", "h(X-Z) <= h(X-Y) + h(Y-Z) - h(Y) for independent X, Y, Z",
             3, _ruzsa_triangle),
    CheckDef("triangle_metric", "dist(X,Z) <= dist(X,Y) + dist(Y,Z) for the entropy distance",
             3, _triangle_metric),
    CheckDef("csumdiff", "h(X-Z) + h(Y) <= h(X+Y) + h(Y+Z) for independent X, Y, Z",
             3, _csumdiff),
    CheckDef("c3122", "h(X+Y+Z) + h(Y) <= h(X+Y) + h(Y+Z) for independent X, Y, Z",
             3, _c3122),
    CheckDef("doubling_difference",
             "1/2 <= (h(X1+X2)-h(X1)) / (h(X1-X2)-h(X1)) <= 2 for i.i.d. X1, X2",
             1, _doubling_difference),
    CheckDef("sigma_delta",
             "delta^(1/2) <= sigma <= delta^2 for the doubling/difference constants",
             1, _sigma_delta),
    CheckDef("sum_difference", "h(X+Y) <= 3 h(X-Y) - h(X) - h(Y) for independent X, Y",
             2, _sum_difference),
    CheckDef("sum_difference_mi",
             "a I(X+Y;X) + (1-a) I(X+Y;Y) <= (1+a) I(X-Y;X) + (2-a) I(X-Y;Y)",
             2, _sum_difference_mi,
             tuple({"alpha": a} for a in (0.0, 0.25, 0.5, 0.75, 1.0)),
             defaults={"alpha": 0.5}),
    CheckDef("plunnecke_ruzsa", "h(X + Y1 + ... + Yn) <= h(X) + sum_i [h(X+Yi) - h(X)]",
             2, _plunnecke_ruzsa, tuple({"n": n} for n in (1, 2, 3, 4)), defaults={"n": 2}),
    CheckDef("four_variable", "h(X+Y+Z+W) + h(Y) + h(Z) <= h(X+Y) + h(Y+Z) + h(Z+W)",
             4, _four_variable),
    CheckDef("iterated_sum",
             "h(S0+...+Sn) <= (2n+1) h(X+Y) - n h(X) - n h(Y) for i.i.d. sums Si = Xi+Yi",
             2, _iterated_sum, tuple({"n": n} for n in (1, 2, 3)), defaults={"n": 2}),
    # the entropy power inequality has no analog on a finite group
    CheckDef("epi_doubling",
             "sigma >= sqrt(2) and delta >= sqrt(2): entropy gain of an i.i.d. sum",
             1, _epi_doubling, group=False),
)

CHECKS: dict[str, CheckDef] = {c.id: c for c in REGISTRY if c.grid}


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
    return check.report(check.id, ctx.entropy, models, params, extra_err,
                        tuple(m.echo for m in models))


# ---------------------------------------------------------------------------
# inverse-theorem bundle


# the entries of the inverse bundle, in report order; the last three need a Poincare constant
INVERSE_CHECK_IDS = ("inverse_epi_sigma", "inverse_epi_delta", "inverse_reverse_sigma",
                     "inverse_reverse_delta", "inverse_pinsker", "inverse_fgr_sigma",
                     "inverse_fgr_delta", "inverse_contraction")


def inverse_theorem_check(
    m: DensityModel,
    ctx: GridContext | None = None,
    extra_err: float = 0.0,
) -> list[InequalityReport]:
    """Bundle of maximum-entropy-gap bounds for one law.

    Emits, in log form: the sqrt(2) lower bounds on sigma and delta, the
    Poincare-weighted upper bounds on D(f||phi) in terms of sigma and
    delta, the reverse bounds sigma, delta <= sqrt(2) exp(D), the
    standardized-sum contraction bound, and the Pinsker bound.  The
    Poincare-dependent reports are marked skipped when no constant is
    available.  extra_err widens every error band, as in ``run_check``.

    The bundle is decided coarse first (``decide``): each entry reports the
    grid count that decided it.  The Poincare constant depends on the law
    alone, so it is computed once, on first use, for every rung.  A law the
    grid pipeline rejects gives eight skipped entries.
    """
    ctx = ctx or GridContext()
    echo = (m.echo,)
    poincare = functools.cache(lambda: poincare_constant(m))
    return decide(ctx, lambda rung: _inverse_bundle(m, rung, poincare, extra_err, echo),
                  lambda note: [skipped(cid, note, inputs=echo) for cid in INVERSE_CHECK_IDS])


def _inverse_bundle(m: DensityModel, ctx: GridContext, poincare: Callable[[], float | None],
                    extra_err: float, echo: tuple) -> list[InequalityReport]:
    """The eight entries of the inverse bundle on one grid count."""
    (half_ln2, d_plus, _), (_, d_minus, _) = epi = _epi_doubling(ctx.entropy, (m,))
    if isinstance(m, Gaussian):
        # the law is its own Gaussian fit: D(f||phi) and the L1 distance are 0
        div = pinsker = Exact(0.0, EXACT_TOL)
    else:
        g = ctx.grid(m)
        phi = grids.gaussian_fit(g)
        div = Approx(*grids.kl_divergence(g, phi))
        l1, l1_err = grids.l1_distance(g, phi)
        pinsker = Approx(0.5 * l1 * l1, l1 * (g.error_estimate + l1_err))
    # exact for every catalog kind, where the grid's variance carries an error no err covers
    var = m.moments().variance
    side = functools.partial(_side_report, extra_err=extra_err, inputs=echo)
    reports = [
        *(side(cid, lhs, rhs) for cid, (lhs, rhs, _) in zip(INVERSE_CHECK_IDS, epi)),
        side("inverse_reverse_sigma", d_plus, half_ln2 + div),
        side("inverse_reverse_delta", d_minus, half_ln2 + div),
        side("inverse_pinsker", pinsker, div),
    ]

    r = poincare()
    if r is None:
        note = "Poincare constant unavailable (oracle did not converge)"
        return reports + [skipped(cid, note, inputs=echo) for cid in INVERSE_CHECK_IDS[-3:]]

    factor = 2.0 * r / var + 1.0
    contraction = var / (2.0 * r + var)
    note = f"poincare={r:.6g}"
    return reports + [
        side("inverse_fgr_sigma", div, factor * (d_plus - half_ln2), note),
        side("inverse_fgr_delta", div, factor * (2.0 * d_minus - half_ln2), note),
        side("inverse_contraction", contraction * div, d_plus - half_ln2, note),
    ]


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
            out.append(Exponential(rng.uniform(1.0 / 3.0, 3.0),
                                   shift=rng.uniform(-2, 2),
                                   reflected=bool(rng.integers(2))))
        elif kind == 3:
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
