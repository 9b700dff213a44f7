import collections
import dataclasses
import functools
import hashlib
import itertools
import math

import numpy as np
import pytest

from entrolab import _special, checks, grids, suite
from entrolab.checks import (
    CHECKS,
    EXACT_TOL,
    REGISTRY,
    Approx,
    CheckDef,
    Exact,
    GridContext,
    decide,
    default_corpus,
    exact_entropy,
    inverse_theorem_check,
    run_check,
)
from entrolab.discrete import GROUP_CHECKS
from entrolab.distributions import Exponential, Gamma, Gaussian, Laplace, Uniform
from entrolab.estimators import estimate_functional
from entrolab.distributions import Mixture
from entrolab.report import InequalityReport, make_report, skipped
from entrolab.suite import config_from_dict, run_suite, serialize_report

LN2 = math.log(2.0)
EULER_GAMMA = float(np.euler_gamma)


def cluster_entropy(weights):
    w = np.asarray([x for x in weights if x > 0])
    return float(-(w * np.log(w)).sum())


class TestRuzsaDistance:
    def test_gaussian_self_distance(self, ctx):
        d, err = checks._dist(ctx.entropy, Gaussian(0, 1), Gaussian(0, 1))
        assert d == pytest.approx(0.5 * LN2, abs=1e-4)

    def test_uniform_self_distance(self, ctx):
        d, _ = checks._dist(ctx.entropy, Uniform(0, 1), Uniform(0, 1))
        assert d == pytest.approx(0.5, abs=1e-4)

    def test_nonnegative_for_wildly_different_scales(self, ctx):
        d, err = checks._dist(ctx.entropy, Gaussian(0, 1), Gaussian(0, 1e6))
        assert d >= -err

    def test_symmetry(self, ctx):
        a, b = Gaussian(0, 1), Exponential(1.0)
        d1, e1 = checks._dist(ctx.entropy, a, b)
        d2, e2 = checks._dist(ctx.entropy, b, a)
        assert abs(d1 - d2) <= e1 + e2


class TestDoublingDifference:
    """sigma = exp(h(X+X') - h(X)) and delta = exp(h(X-X') - h(X)), from ``_deltas``."""

    def test_gaussian_constants(self, ctx):
        d_plus, d_minus = checks._deltas(ctx.entropy, Gaussian(0, 1))
        assert math.exp(d_plus.value) == pytest.approx(math.sqrt(2), abs=1e-4)
        assert math.exp(d_minus.value) == pytest.approx(math.sqrt(2), abs=1e-4)

    def test_uniform_constant(self, ctx):
        d_plus, d_minus = checks._deltas(ctx.entropy, Uniform(0, 1))
        assert math.exp(d_plus.value) == pytest.approx(math.exp(0.5), abs=1e-4)
        assert math.exp(d_minus.value) == pytest.approx(math.exp(0.5), abs=1e-4)

    def test_exponential_constants(self, ctx):
        d_plus, d_minus = checks._deltas(ctx.entropy, Exponential(1.0))
        assert math.exp(d_plus.value) == pytest.approx(math.exp(EULER_GAMMA), abs=1e-3)
        assert math.exp(d_minus.value) == pytest.approx(2.0, abs=1e-3)

    def test_symmetric_law_ratio_one(self, ctx):
        # ctx.entropy shares one value between X + X' and X - X' for a
        # symmetric law, so the literal difference is built through sum_grid
        x = Laplace(0.0, 1.0)
        h_sum, e_sum = grids.entropy(ctx.sum_grid([(1, x), (1, x)]))
        h_diff, e_diff = grids.entropy(ctx.sum_grid([(1, x), (-1, x)]))
        assert h_diff == pytest.approx(h_sum, abs=e_sum + e_diff)

    def test_constants_at_least_one(self, ctx):
        for m in (Gaussian(1, 2), Uniform(-1, 3), Exponential(0.5)):
            d_plus, d_minus = checks._deltas(ctx.entropy, m)
            assert math.exp(d_plus.value) >= 1.0 - 1e-6 and math.exp(d_minus.value) >= 1.0 - 1e-6
            assert d_minus.value >= -d_minus.err  # the self-distance dist(X, X)


class TestSignFreeKeys:
    """GridContext.entropy evaluates a symmetric law's term with sign +1."""

    @pytest.mark.parametrize("y", [Gaussian(0.5, 2.0), Uniform(-1.0, 2.0), Laplace(1.0, 0.7)])
    def test_difference_shares_the_sum(self, monkeypatch, y):
        calls = _count_convolutions(monkeypatch)
        ctx = GridContext()
        x = Exponential(1.3, shift=0.2)
        h_diff = ctx.entropy((1, x), (-1, y))
        assert ctx.entropy((1, x), (1, y)) == h_diff
        assert calls == [1]

    @pytest.mark.parametrize("y", [
        Exponential(1.3, shift=0.2),
        Mixture((0.3, 0.7), (Gaussian(-1.0, 1.0), Gaussian(2.0, 0.5))),
    ], ids=["exponential", "mixture"])
    def test_asymmetric_law_gets_two_sums(self, monkeypatch, y):
        # X + Y and X - Y of two asymmetric laws are two sums; -X - Y, the
        # mirror image of X + Y, shares its entry (X is a Gamma law, so that
        # no sum has a closed form)
        calls = _count_convolutions(monkeypatch)
        ctx = GridContext()
        x = Gamma(2.0, 0.6, shift=-0.4)
        ctx.entropy((1, x), (-1, y))
        h_sum = ctx.entropy((1, x), (1, y))
        assert calls == [2]
        assert ctx.entropy((-1, x), (-1, y)) == h_sum
        assert calls == [2]

    @pytest.mark.parametrize("y", [
        Exponential(1.3, shift=0.2),
        Mixture((0.3, 0.7), (Gaussian(-1.0, 1.0), Gaussian(2.0, 0.5))),
    ], ids=["exponential", "mixture"])
    def test_mirror_image_shares_the_sum(self, monkeypatch, y):
        # X is symmetric, so X - Y is a translate of -(X + Y)
        calls = _count_convolutions(monkeypatch)
        ctx = GridContext()
        x = Gaussian(0.5, 2.0)
        h_sum = ctx.entropy((1, x), (1, y))
        assert ctx.entropy((1, x), (-1, y)) == h_sum
        assert calls == [1]
        h, err = grids.entropy(ctx.sum_grid([(1, x), (-1, y)]))
        assert abs(h - h_sum.value) <= err + h_sum.err

    def test_symmetric_self_difference_is_one_power(self, monkeypatch):
        # a Laplace law: the Uniform X - X' has a closed form and no grid
        calls = _count_convolutions(monkeypatch)
        ctx = GridContext()
        x = Laplace(0.3, 1.0)
        assert ctx.entropy((1, x), (-1, x)) == ctx.entropy((1, x), (1, x))
        assert calls == [1]


def _count_convolutions(monkeypatch) -> list[int]:
    """Patch grids.convolve to count its calls into the returned one-item list."""
    calls = [0]
    convolve = grids.convolve

    def counted(*args, **kwargs):
        calls[0] += 1
        return convolve(*args, **kwargs)

    monkeypatch.setattr(grids, "convolve", counted)
    return calls


class TestRegistryGoldenCases:
    def test_ruzsa_triangle_gaussian_slack(self, ctx):
        rep = run_check(CHECKS["ruzsa_triangle"], [Gaussian(0, 1)] * 3, ctx)
        assert rep.verdict == "holds"
        assert rep.slack == pytest.approx(0.5 * LN2, abs=1e-4)

    def test_triangle_metric_self_consistency(self, ctx):
        x, z = Gaussian(0, 1), Uniform(0, 2)
        rep = run_check(CHECKS["triangle_metric"], [x, x, z], ctx)
        # with Y = X the slack reduces to dist(X, X) >= 0
        d_xx, _ = checks._dist(ctx.entropy, x, x)
        assert rep.slack == pytest.approx(d_xx, abs=2 * rep.err + 1e-9)

    def test_doubling_difference_gaussian_ratio_one(self, ctx):
        rep = run_check(CHECKS["doubling_difference"], [Gaussian(0, 1)], ctx)
        assert rep.verdict == "holds"
        assert "ratio=1.0000" in rep.note

    def test_sum_difference_exponential_closed_forms(self, ctx):
        rep = run_check(CHECKS["sum_difference"], [Exponential(1.0)] * 2, ctx)
        assert rep.verdict == "holds"
        assert rep.lhs == pytest.approx(1 + EULER_GAMMA, abs=1e-4)
        assert rep.rhs == pytest.approx(3 * (1 + LN2) - 2, abs=1e-3)

    def test_plunnecke_all_gaussian_closed_form(self, ctx):
        tau2 = 2.0
        for n in (1, 2, 3):
            ys = [Gaussian(0, tau2) for _ in range(n)]
            rep = run_check(CHECKS["plunnecke_ruzsa"], [Gaussian(0, 1)] + ys,
                            ctx, {"n": n})
            lhs_minus_rhs = 0.5 * math.log(1 + n * tau2) - (n / 2) * math.log(1 + tau2)
            assert rep.slack == pytest.approx(-lhs_minus_rhs, abs=2 * rep.err)
            assert rep.verdict in ("holds", "inconclusive")

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_sum_difference_mi_alpha_sweep(self, ctx, alpha):
        rep = run_check(CHECKS["sum_difference_mi"],
                        [Exponential(1.0), Uniform(0, 1)], ctx, {"alpha": alpha})
        assert rep.verdict in ("holds", "inconclusive")

    def test_iterated_sum_gaussian(self, ctx):
        rep = run_check(CHECKS["iterated_sum"], [Gaussian(0, 1), Gaussian(0, 1)],
                        ctx, {"n": 2})
        # lhs = h(N(0, 6)), rhs = 5 h(N(0,2)) - 4 h(N(0,1))
        assert rep.lhs == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e * 6), abs=1e-3)
        assert rep.verdict == "holds"

    def test_epi_doubling_gaussian_equality_is_inconclusive(self, ctx):
        rep = run_check(CHECKS["epi_doubling"], [Gaussian(0, 1)], ctx)
        assert rep.verdict in ("holds", "inconclusive")
        assert abs(rep.slack) <= 1e-3

    def test_arity_mismatch_rejected(self, ctx):
        with pytest.raises(ValueError):
            run_check(CHECKS["ruzsa_triangle"], [Gaussian(0, 1)], ctx)


class TestGaussianOracle:
    """Every grid check on the grid against the same definition on the closed forms."""

    @pytest.mark.parametrize("cid,params", [(c.id, p) for c in CHECKS.values()
                                            for p in c.variants], ids=str)
    def test_grid_sides_within_err(self, ctx, cid, params):
        check = CHECKS[cid]
        rng = np.random.default_rng(sorted(CHECKS).index(cid))

        def grid_entropy(*terms):
            return Approx(*grids.entropy(ctx.sum_grid(terms)))

        for _ in range(3):
            models = [Gaussian(rng.uniform(-3, 3), rng.uniform(0.25, 9.0))
                      for _ in range(check.arity_for(params))]
            lhs, rhs, note = check.evaluate(grid_entropy, models, params)
            exact_lhs, exact_rhs, exact_note = check.evaluate(exact_entropy, models, params)
            assert exact_lhs.exact and exact_rhs.exact
            assert (abs(lhs.value - exact_lhs.value) + abs(rhs.value - exact_rhs.value)
                    <= lhs.err + rhs.err)
            assert note == exact_note


def _gamma_entropy(k: int, rate: float) -> float:
    """Entropy of the sum of k independent Exp(rate), a Gamma(k, 1/rate) law, by mpmath."""
    import mpmath as mp

    with mp.workdps(40):
        return float(k - mp.log(rate) + mp.loggamma(k) + (1 - k) * mp.digamma(k))


class TestExactEntropy:
    """GridContext.entropy returns the closed form wherever the catalog has one."""

    @pytest.mark.parametrize("signs", [(1, -1), (-1, -1, 1), (1, -1, 1, -1, -1)], ids=str)
    def test_gaussian_sums_of_mixed_signs(self, signs):
        laws = [Gaussian(0.7 * i - 1.0, 0.3 + 1.1 * i) for i in range(len(signs))]
        h = GridContext().entropy(*zip(signs, laws))
        variance = sum(m.variance for m in laws)
        assert h.exact and h.form == {(): h.value} and h.err == EXACT_TOL
        assert abs(h.value - 0.5 * math.log(2 * math.pi * math.e * variance)) <= h.err

    @pytest.mark.parametrize("orientation", [1, -1])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_equal_rate_exponentials_are_gamma(self, k, orientation):
        # one orientation written both ways: s * E with s = orientation, and
        # -s * (-E), the reflected law; shifts only translate the sum
        rate = 0.7
        terms = [(orientation, Exponential(rate, shift=0.3 * i)) if i % 2 else
                 (-orientation, Exponential(rate, reflected=True)) for i in range(k)]
        h = GridContext().entropy(*terms)
        assert h.exact and h.form == {(): h.value} and h.err == EXACT_TOL
        assert abs(h.value - _gamma_entropy(k, rate)) <= h.err

    @pytest.mark.parametrize("terms", [
        [(1, Exponential(0.7)), (1, Exponential(0.8)), (1, Exponential(0.9))],
        [(1, Gamma(2.0, 0.7)), (-1, Gamma(2.0, 0.7))],
        [(1, Gamma(2.0, 0.7)), (1, Gamma(2.0, 0.7, reflected=True))],
        [(1, Exponential(0.7))] * 3 + [(1, Exponential(0.7, reflected=True))],
        [(1, Gaussian(0.0, 1.0)), (1, Exponential(0.7))],
        [(1, Mixture((0.5, 0.5), (Gaussian(-1.0, 1.0), Gaussian(1.0, 1.0))))],
    ], ids=["mixed-rates", "difference", "reflected", "mixed-orientations", "mixed-kinds",
            "mixture"])
    def test_no_closed_form_takes_the_grid(self, monkeypatch, terms):
        calls = _count_convolutions(monkeypatch)
        assert exact_entropy(*terms) is None
        h = GridContext().entropy(*terms)
        # a grid estimate is one term of its form, under its cache key
        assert not h.exact and list(h.form.values()) == [1.0]
        assert calls == [1]

    @pytest.mark.parametrize("terms,h", [
        ([(1, Exponential(0.7)), (1, Exponential(0.8))],
         1.0 + EULER_GAMMA + float(_special.digamma(8.0)) + math.log(0.1 / 0.56)),
        ([(1, Exponential(0.7)), (-1, Exponential(0.7))], 1.0 + math.log(1.4 / 0.49)),
        ([(1, Exponential(0.7)), (1, Exponential(0.7, reflected=True))],
         1.0 + math.log(1.4 / 0.49)),
    ], ids=["mixed-rates", "difference", "reflected"])
    def test_two_exponentials_are_closed_forms(self, monkeypatch, terms, h):
        # these sums took the grid before the two-law forms
        calls = _count_convolutions(monkeypatch)
        got = GridContext().entropy(*terms)
        assert got.exact and got.err == EXACT_TOL and abs(got.value - h) <= 1e-14
        assert calls == [0]

    def test_exactness_survives_only_exact_arithmetic(self):
        x, y = Exact(1.0, EXACT_TOL), Approx(2.0, 0.1)
        assert (x + x).exact and (x - 0.5 * x).exact and (3 * x).exact
        assert not (x + y).exact and not (y - x).exact and not (2.0 * y).exact
        assert x - y == Approx(-1.0, EXACT_TOL + 0.1)

    def test_gaussian_inverse_bundle_is_exact(self, monkeypatch):
        # a Gaussian is its own fit: no grid, and every entry final at the first rung
        calls = _count_convolutions(monkeypatch)
        reps = {r.check_id: r for r in inverse_theorem_check(Gaussian(0.5, 2.0))}
        assert calls == [0]
        assert all(r.final for r in reps.values())
        assert reps["inverse_pinsker"].lhs == reps["inverse_pinsker"].rhs == 0.0
        assert reps["inverse_fgr_delta"].verdict == "holds"
        assert {r.verdict for cid, r in reps.items() if cid != "inverse_fgr_delta"} \
            == {"inconclusive"}


def _equality_check(tilt: float) -> CheckDef:
    """A check with lhs h(X) and rhs h(X) - tilt; an identity for tilt 0."""
    return CheckDef("equality", "h(X) <= h(X) - tilt", 1,
                    lambda h, models: [(h((1, models[0])), h((1, models[0])) - Exact(tilt),
                                        None)])


class TestFinalEntries:
    """An entry no grid count can decide is final at the first rung of the ladder."""

    @staticmethod
    def _decide(check, models, params=None):
        """The entry of one check, decided on the default ladder, and the rungs evaluated."""
        rungs = []

        def evaluate(rung):
            rungs.append(rung.count)
            return [run_check(check, models, rung, params)]

        (rep,) = decide(GridContext(), evaluate, lambda note: [skipped(check.id, note)])
        return rep, rungs

    def test_exact_equality_with_negative_round_off_stays_inconclusive(self):
        # h(U(0, 1)) = log 1 = 0 exactly, so the slack is -1e-16 exactly
        rep, rungs = self._decide(_equality_check(1e-16), [Uniform(0.0, 1.0)])
        assert rep.slack == -1e-16
        assert rep.err == 2 * EXACT_TOL
        assert (rep.verdict, rep.final) == ("inconclusive", True)
        assert rungs == [(1 << 14) // checks.REFINE_RATIO]

    def test_exact_inequality_is_decided(self):
        rep, rungs = self._decide(_equality_check(-1e-9), [Uniform(0.0, 1.0)])
        assert (rep.verdict, rep.final) == ("holds", True)
        assert len(rungs) == 1

    def test_grid_near_equality_is_refined(self):
        x = Mixture((0.3, 0.7), (Gaussian(-1.0, 1.0), Gaussian(2.0, 0.5)))
        rep, rungs = self._decide(_equality_check(1e-16), [x])
        assert (rep.verdict, rep.final) == ("inconclusive", False)
        assert rungs == [(1 << 14) // checks.REFINE_RATIO, 1 << 14]
        # with tilt 0 the check is an identity, final on the grid too
        rep, rungs = self._decide(_equality_check(0.0), [x])
        assert (rep.verdict, rep.final) == ("inconclusive", True)
        assert len(rungs) == 1

    def test_identity_on_the_grid_is_final(self):
        # plunnecke_ruzsa n = 1 reads h(X+Y) <= h(X) + [h(X+Y) - h(X)]
        rep, rungs = self._decide(CHECKS["plunnecke_ruzsa"], [Laplace(0.0, 1.0), Uniform(0, 1)],
                                  {"n": 1})
        assert (rep.verdict, rep.final) == ("inconclusive", True)
        assert rep.err > 1e-9  # grid values, not closed forms
        assert len(rungs) == 1

    def test_pool_reports_equal_serial_ones(self):
        raw = {"seed": 20240501, "corpus_size": 24,
               "checks": ["epi_doubling", "plunnecke_ruzsa", "c3122", "inverse"]}
        serial = serialize_report(run_suite(config_from_dict({**raw, "workers": 1})))
        assert serialize_report(run_suite(config_from_dict({**raw, "workers": 2}))) == serial


# two-Gaussian mixtures: no signed sum of them has a closed form
_MIXTURES = [Mixture((0.3 + 0.1 * i, 0.7 - 0.1 * i),
                     (Gaussian(-1.0 - 0.3 * i, 1.0), Gaussian(2.0, 0.5 + 0.2 * i)))
             for i in range(5)]


def _grid_sides(ctx, check, params):
    """Every candidate side of one variant on the mixtures, through ctx.entropy."""
    params = {**check.defaults, **params}
    return check.evaluator(ctx.entropy, tuple(_MIXTURES[:check.arity_for(params)]), **params)


class TestLinearForms:
    """Approx.form: each value as a linear form in the GridContext keys of its entropies."""

    @pytest.mark.parametrize("cid,params", [(c.id, p) for c in CHECKS.values()
                                            for p in c.variants], ids=str)
    def test_only_the_identity_is_final_on_the_grid(self, ctx, cid, params):
        # plunnecke_ruzsa n = 1 reads h(X+Y) <= h(X) + [h(X+Y) - h(X)]; the
        # other variants, doubling_difference too, need a finer grid to settle
        check = CHECKS[cid]
        rep = run_check(check, _MIXTURES[:check.arity_for(params)], ctx, params)
        assert rep.final == ((cid, params) == ("plunnecke_ruzsa", {"n": 1}))

    @pytest.mark.parametrize("cid,params", [(c.id, p) for c in CHECKS.values()
                                            for p in c.variants], ids=str)
    def test_every_side_is_balanced(self, ctx, cid, params):
        # the entropy coefficients of rhs - lhs sum to 0, so that scaling every
        # input by a, which adds log|a| to each entropy, leaves the slack alone
        for lhs, rhs, _ in _grid_sides(ctx, CHECKS[cid], params):
            form = (rhs - lhs).form
            assert sum(c for key, c in form.items() if key != ()) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("cid,params", [(c.id, p) for c in REGISTRY for p in c.variants],
                             ids=str)
    def test_form_gives_the_value(self, ctx, cid, params):
        # a key is the sorted (content key, -sign) pairs of the sum that ctx evaluated
        laws = {m.content_key: m for m in _MIXTURES}
        check = next(c for c in REGISTRY if c.id == cid)
        for side in _grid_sides(ctx, check, params):
            for x in side[:2]:
                value = sum(c if key == () else
                            c * ctx.entropy(*((-neg, laws[ck]) for ck, neg in key)).value
                            for key, c in x.form.items())
                assert value == pytest.approx(x.value, rel=1e-12, abs=1e-12)

    def test_form_arithmetic(self, ctx):
        x = ctx.entropy((1, _MIXTURES[0]))
        y = ctx.entropy((1, _MIXTURES[0]), (-1, _MIXTURES[1]))
        assert set((x - x).form.values()) == {0.0} and not (x - x).exact
        (kx,), (ky,) = x.form, y.form
        assert (3.0 * y - x + x - 2.0 * y).form == {ky: 1.0, kx: 0.0}
        # a form-less Approx is a term of its own, which cancels only with itself
        a, b = Approx(1.0, 0.1), Approx(1.0, 0.1)
        assert a == b and not a.exact
        assert set((a - a).form.values()) == {0.0}
        assert sorted((a - b).form.values()) == [-1.0, 1.0]
        c = Exact(0.5, EXACT_TOL)
        assert (c - c).exact and (c + x).form == {(): 0.5, **x.form}

    def test_unpacks_and_compares_as_a_pair(self, ctx):
        h = ctx.entropy((1, _MIXTURES[0]))
        value, err = h
        assert h == (value, err) and (h[0], h[1]) == (h.value, h.err) and len(h) == 2
        assert Exact(1.0, EXACT_TOL) == Approx(1.0, EXACT_TOL) == (1.0, EXACT_TOL)


class TestReportFields:
    @pytest.mark.parametrize("lhs,rhs,kind,degenerate", [
        (0.25, 1.5, "inequality", False), (1.5, 0.25, "inequality", False),
        (1.0, 1.0 + 1e-13, "identity", False), (0.25, 1.5, "inequality", True)])
    def test_make_report_is_the_dataclass_report(self, lhs, rhs, kind, degenerate):
        """make_report stores the fields at once; the report equals the one the
        frozen dataclass builds, field for field and in field order, and stays frozen."""
        law = {"kind": "uniform", "lower": 0.0, "upper": 1.0}
        rep = make_report("c3122", lhs, rhs, 1e-12, kind=kind, params={"n": 2}, inputs=(law,),
                          note="n", degenerate=degenerate, final=True)
        want = InequalityReport(check_id="c3122", lhs=lhs, rhs=rhs, slack=rhs - lhs, err=1e-12,
                                verdict=rep.verdict, kind=kind, params={"n": 2},
                                inputs=(law,), note="n", final=True)
        assert rep == want and list(vars(rep).items()) == list(vars(want).items())
        assert rep.verdict == ("inconclusive" if degenerate else
                               "holds" if kind == "identity" or rhs > lhs else "violated")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.lhs = 0.0


class TestOneRegistry:
    def test_shared_ids_share_one_definition(self):
        shared = set(CHECKS) & set(GROUP_CHECKS)
        assert len(shared) == 12
        assert all(CHECKS[cid] is GROUP_CHECKS[cid] for cid in shared)
        assert {c.id for c in REGISTRY} == set(CHECKS) | set(GROUP_CHECKS)

    def test_backend_specific_checks(self):
        # H(X+Y) <= H(X) + H(Y) fails for differential entropy, and the
        # entropy power inequality fails on a finite group
        assert "sum_upper" not in CHECKS and "sum_upper" in GROUP_CHECKS
        assert "epi_doubling" in CHECKS and "epi_doubling" not in GROUP_CHECKS


@functools.lru_cache(maxsize=None)
def _quad_entropy(kind: str, a: float, b: float) -> float:
    """-int f log f by mpmath quadrature, f the density of a two-law sum.

    kind "one-way" is E_a + E_b (Exponentials of rates a != b),
    "opposite" is E_a - E_b, and "uniform" is U(0, a) + U(0, b), a <= b.
    """
    import mpmath as mp

    with mp.workdps(40):
        a, b = mp.mpf(a), mp.mpf(b)
        if kind == "one-way":
            lo, hi = min(a, b), max(a, b)
            pieces = [(lambda z: a * b / (b - a) * (mp.exp(-a * z) - mp.exp(-b * z)),
                       [0, 1 / hi, 10 / hi, 1 / lo, 10 / lo, 100 / lo, mp.inf])]
        elif kind == "opposite":
            c = a * b / (a + b)
            pieces = [(lambda z: c * mp.exp(-a * z), [0, 1 / a, 100 / a, mp.inf]),
                      (lambda z: c * mp.exp(b * z), [-mp.inf, -100 / b, -1 / b, 0])]
        else:
            pieces = [(lambda z: z / (a * b), [0, a]), (lambda z: 1 / b, [a, b]),
                      (lambda z: (a + b - z) / (a * b), [b, a + b])]
        total = 0
        for f, points in pieces:
            total += mp.quad(lambda z: -f(z) * mp.log(f(z)) if f(z) > 0 else 0, points)
        return float(total)


def _exponential_term(rate: float, orientation: int, reflected: bool, shift: float):
    """A term of the given orientation: (s, E) with s = orientation, or (-s, -E)."""
    law = Exponential(rate, shift=shift, reflected=reflected)
    return (-orientation if reflected else orientation, law)


class TestTwoLawClosedForms:
    """The two-law Uniform and Exponential closed forms against mpmath quadrature."""

    RATIOS = [1.0 + 1e-6, 1.001, 1.5, 10.0, 1e4]

    def _assert_exact(self, monkeypatch, terms, ref):
        calls = _count_convolutions(monkeypatch)
        h = GridContext().entropy(*terms)
        assert h.exact and h.form == {(): h.value} and h.err == EXACT_TOL
        assert abs(h.value - ref) <= EXACT_TOL, (h.value, ref)
        assert calls == [0]

    @pytest.mark.parametrize("orientation", [1, -1])
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_one_orientation_is_hypoexponential(self, monkeypatch, ratio, orientation):
        a, b = 0.7, 0.7 * ratio
        ref = _quad_entropy("one-way", a, b)
        # each law written with either sign convention, shifted or not
        for ref_a, ref_b in itertools.product((False, True), repeat=2):
            terms = [_exponential_term(a, orientation, ref_a, 0.0),
                     _exponential_term(b, orientation, ref_b, -1.3)]
            self._assert_exact(monkeypatch, terms, ref)
            self._assert_exact(monkeypatch, terms[::-1], ref)

    @pytest.mark.parametrize("orientation", [1, -1])
    @pytest.mark.parametrize("ratio", [1.0] + RATIOS)
    def test_opposite_orientations_are_asymmetric_laplace(self, monkeypatch, ratio,
                                                          orientation):
        a, b = 0.7, 0.7 * ratio
        ref = _quad_entropy("opposite", a, b)
        for ref_a, ref_b in itertools.product((False, True), repeat=2):
            terms = [_exponential_term(a, orientation, ref_a, 0.4),
                     _exponential_term(b, -orientation, ref_b, 0.0)]
            self._assert_exact(monkeypatch, terms, ref)

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)], ids=str)
    @pytest.mark.parametrize("widths", [(0.5, 2.0), (1.0, 1.0 + 1e-6), (1e-3, 3.0), (1.0, 1.0)],
                             ids=str)
    def test_uniform_pair_is_trapezoid(self, monkeypatch, widths, signs):
        ref = _quad_entropy("uniform", *widths)
        x, y = Uniform(-1.0, widths[0] - 1.0), Uniform(2.5, 2.5 + widths[1])
        for terms in ([(signs[0], x), (signs[1], y)], [(signs[0], y), (signs[1], x)]):
            self._assert_exact(monkeypatch, terms, ref)

    def test_three_laws_take_the_grid(self):
        # the two-law forms do not extend to a third law
        e = [Exponential(0.7), Exponential(0.9), Exponential(0.7, reflected=True)]
        assert exact_entropy(*((1, m) for m in e)) is None
        assert exact_entropy(*((1, Uniform(0.0, w)) for w in (1.0, 2.0, 3.0))) is None
        assert exact_entropy((1, Uniform(0.0, 1.0)), (1, Exponential(1.0))) is None


class TestRandomizedCorpus:
    def test_small_corpus_no_violations(self, ctx):
        models = default_corpus(seed=1234, size=12)
        rng = np.random.default_rng(0)
        for check in CHECKS.values():
            for params in check.variants:
                arity = check.arity_for(params)
                picks = [models[int(i)] for i in rng.integers(0, len(models), arity)]
                rep = run_check(check, picks, ctx, dict(params))
                assert rep.verdict != "violated", (check.id, params, rep)

    def test_corpus_is_seeded(self):
        a = [m.to_dict() for m in default_corpus(seed=5, size=10)]
        b = [m.to_dict() for m in default_corpus(seed=5, size=10)]
        assert a == b

    def test_default_suite_verdict_counts(self, default_suite):
        # faster grids must not change what the default suite concludes
        suite, _ = default_suite
        assert suite.summary() == {"holds": 648, "violated": 0, "inconclusive": 38,
                                   "skipped": 0}

    def test_default_suite_report_bytes(self, default_suite):
        # the whole report, byte for byte: a faster sum path must not move a bit
        report, _ = default_suite
        text = suite.serialize_report(report)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "748043f9b8819b81"

    @pytest.mark.parametrize("seed,digest", [
        (909, "84ad1b1b5771e353"),
        (7, "cd9f20d1efbd8160"),
        (301, "366a42d97385b09f"),
    ])
    def test_default_suite_report_bytes_at_other_seeds(self, seed, digest):
        # the other corpus seeds the verdict-stability audits use, pinned the same way
        text = serialize_report(run_suite(config_from_dict({"seed": seed, "workers": 1})))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_echoes_are_shared(self, ctx):
        # one dict per law, so the report writer formats each law once
        x, y = Gaussian(0.0, 1.0), Laplace(0.5, 2.0)
        a = run_check(CHECKS["lower_bound"], [x, y], ctx)
        b = run_check(CHECKS["sum_difference"], [y, x], ctx)
        assert a.inputs[0] is b.inputs[1] is x.echo == x.to_dict()
        assert a.to_dict()["inputs"][1] is y.echo

    def test_default_suite_ladder_work(self, monkeypatch):
        # evaluations per rung: the fine count decides one c3122 entry, and the
        # 38 exact equalities are final at the coarse count
        rungs = []

        def counted(ctx, evaluate, rejected):
            def evaluate_counted(rung):
                rungs.append(rung.count)
                return evaluate(rung)
            return decide(ctx, evaluate_counted, rejected)

        monkeypatch.setattr(suite, "decide", counted)
        monkeypatch.setattr(checks, "decide", counted)
        run_suite(config_from_dict({"seed": 20240501, "workers": 1}))
        assert (rungs.count(1 << 11), rungs.count(1 << 14)) == (686, 1)
        rungs.clear()
        run_suite(config_from_dict({"seed": 20240501, "workers": 1, "checks": ["inverse"]}))
        assert (rungs.count(1 << 11), rungs.count(1 << 14)) == (100, 4)


    def test_default_suite_grid_work(self, monkeypatch):
        # sums on the grid per count, and one sampling window per law and
        # context: the coarse context windows the 100 laws, the fine one
        # the 3 laws of its one evaluation
        sums, windows = [], collections.Counter()
        sum_grid, window = GridContext.sum_grid, grids._window

        def sum_grid_counted(ctx, terms):
            sums.append(ctx.count)
            return sum_grid(ctx, terms)

        def window_counted(m, *args, **kwargs):
            windows[m.content_key] += 1
            return window(m, *args, **kwargs)

        calls = _count_convolutions(monkeypatch)
        monkeypatch.setattr(GridContext, "sum_grid", sum_grid_counted)
        monkeypatch.setattr(grids, "_window", window_counted)
        run_suite(config_from_dict({"seed": 20240501, "workers": 1}))
        assert (sums.count(1 << 11), sums.count(1 << 14)) == (717, 4) and calls == [721]
        assert (len(windows), sum(windows.values())) == (100, 103)

class TestGapDemos:
    """h(X1+X2) - h(X1-X2) on the grid for cluster mixtures, against cluster-weight entropies.

    For the two-cluster law p U(0,1) + (1-p) U(a,a+1) with a >= 2, the
    clusters of the sum law (weights p^2, 2pq, q^2) and of the difference law
    (pq, p^2+q^2, pq) are disjoint translates of one triangular density, so
    the gap is their weight-entropy difference, negative for p != 1/2.  A
    support with more pairwise sums than differences gives a positive gap.
    """

    def test_collapsed_mixture_has_zero_gap(self, ctx):
        m = Uniform(0.0, 1.0)
        gap, err = ctx.entropy((1, m), (1, m)) - ctx.entropy((1, m), (-1, m))
        assert abs(gap) <= 2 * err

    def test_two_cluster_gap_matches_weight_entropy(self, ctx):
        p = 0.1
        m = Mixture((p, 1 - p), (Uniform(0, 1), Uniform(100.0, 101.0)))
        gap, err = ctx.entropy((1, m), (1, m)) - ctx.entropy((1, m), (-1, m))
        q = 1 - p
        asymptote = (cluster_entropy([p * p, 2 * p * q, q * q])
                     - cluster_entropy([p * q, p * p + q * q, p * q]))
        assert gap == pytest.approx(asymptote, abs=1e-3)
        assert gap < 0  # this family's sums carry less weight entropy

    def test_two_cluster_gap_sign_checked_by_knn_oracle(self, ctx):
        p, a = 0.1, 100.0
        m = Mixture((p, 1 - p), (Uniform(0, 1), Uniform(a, a + 1)))
        gap, _ = ctx.entropy((1, m), (1, m)) - ctx.entropy((1, m), (-1, m))
        est_sum = estimate_functional([(1, m), (1, m)], 10 ** 5, 5, seed=21)
        est_diff = estimate_functional([(1, m), (-1, m)], 10 ** 5, 5, seed=22)
        oracle_gap = est_sum.value - est_diff.value
        tol = 3 * (est_sum.stderr + est_diff.stderr) + 0.02
        assert gap == pytest.approx(oracle_gap, abs=tol)
        assert oracle_gap < 0

    def test_gap_magnitude_grows_with_separation(self, ctx):
        # For a >= 2 the sum and difference clusters are disjoint, so all three
        # gaps equal the weight-entropy asymptote in exact arithmetic; only FFT
        # round-off (~1e-14) separates them, in either direction.
        roundoff = 1e-6
        laws = [Mixture((0.1, 0.9), (Uniform(0, 1), Uniform(a, a + 1))) for a in (3.0, 6.0, 30.0)]
        gaps = [abs((ctx.entropy((1, m), (1, m)) - ctx.entropy((1, m), (-1, m))).value)
                for m in laws]
        assert gaps[0] <= gaps[1] + roundoff
        assert gaps[1] <= gaps[2] + roundoff

    def test_gap_consistent_with_two_sided_ratio_bound(self, ctx):
        p = 0.1
        m = Mixture((p, 1 - p), (Uniform(0, 1), Uniform(100.0, 101.0)))
        d_plus, d_minus = checks._deltas(ctx.entropy, m)
        ratio = d_plus.value / d_minus.value
        assert 0.5 - 1e-3 <= ratio <= 2.0 + 1e-3

    def test_sum_dominant_support_gives_positive_gap(self, ctx):
        # the smallest set with more pairwise sums than differences, scaled by 3
        support = [0, 2, 3, 4, 7, 11, 12, 14]
        m = Mixture((1 / 8,) * 8, tuple(Uniform(3.0 * s, 3.0 * s + 1.0) for s in support))
        gap, _ = ctx.entropy((1, m), (1, m)) - ctx.entropy((1, m), (-1, m))
        # exact cluster-weight entropies of the scaled sum-dominant set
        base = np.zeros(15)
        base[support] = 1 / 8
        s = np.convolve(base, base)
        d = np.convolve(base, base[::-1])
        target = cluster_entropy(s) - cluster_entropy(d)
        assert target > 0
        assert gap == pytest.approx(target, abs=2e-4)
        assert gap > 0


class TestInverseBundle:
    def test_uniform_bundle_values(self, ctx):
        reps = {r.check_id: r for r in inverse_theorem_check(Uniform(0, 1), ctx)}
        d = reps["inverse_fgr_sigma"].lhs
        assert d == pytest.approx(0.5 * math.log(2 * math.pi * math.e / 12), abs=1e-3)
        assert reps["inverse_fgr_sigma"].rhs == pytest.approx(0.5265, abs=2e-3)
        assert reps["inverse_fgr_sigma"].verdict == "holds"
        assert all(r.verdict in ("holds", "inconclusive") for r in reps.values())

    def test_exponential_bundle_values(self, ctx):
        reps = {r.check_id: r for r in inverse_theorem_check(Exponential(1.0), ctx)}
        assert reps["inverse_fgr_sigma"].lhs == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e) - 1, abs=1e-3)
        assert reps["inverse_fgr_sigma"].rhs == pytest.approx(2.075, abs=5e-3)
        assert reps["inverse_fgr_sigma"].verdict == "holds"

    def test_gaussian_bundle_is_equality_cases(self, ctx):
        reps = inverse_theorem_check(Gaussian(0, 1), ctx)
        for r in reps:
            assert r.verdict in ("holds", "inconclusive")
            if r.check_id in ("inverse_epi_sigma", "inverse_reverse_sigma"):
                assert abs(r.slack) <= max(r.err, 1e-3)

    def test_contraction_holds_for_canonical_models(self, ctx):
        for m in (Gaussian(0, 1), Uniform(0, 1), Exponential(1.0)):
            reps = {r.check_id: r for r in inverse_theorem_check(m, ctx)}
            assert reps["inverse_contraction"].verdict in ("holds", "inconclusive")
            assert reps["inverse_contraction"].slack >= -reps["inverse_contraction"].err

    @pytest.mark.parametrize("lo,width", [(0.0, 1.0), (-2.5, 0.7), (1.3, 5.2)])
    def test_uniform_divergence_within_its_err(self, ctx, lo, width):
        # a uniform grid carries no truncation error, so the Pinsker err is
        # the divergence's own error estimate
        reps = {r.check_id: r for r in inverse_theorem_check(Uniform(lo, lo + width), ctx)}
        pinsker = reps["inverse_pinsker"]
        assert abs(pinsker.rhs - 0.5 * math.log(math.pi * math.e / 6)) <= pinsker.err

    def test_pinsker_on_mixture(self, ctx):
        m = Mixture((0.4, 0.6), (Gaussian(-2, 0.5), Gaussian(1, 2.0)))
        reps = {r.check_id: r for r in inverse_theorem_check(m, ctx)}
        assert reps["inverse_pinsker"].verdict in ("holds", "inconclusive")
