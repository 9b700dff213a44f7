import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from entrolab.distributions import Exponential, Gaussian, Uniform, sample
from entrolab.estimators import _knn_point_estimate, _psi_gap, estimate_functional, knn_entropy

LN_2PI_E = math.log(2 * math.pi * math.e)


def within_tolerance(result, target):
    return abs(result.value - target) <= max(3 * result.stderr, 0.05)


class TestKnnEntropy:
    def test_gaussian_golden(self):
        r = knn_entropy(sample(Gaussian(0, 1), 10 ** 5, seed=11), k=5)
        assert within_tolerance(r, 0.5 * LN_2PI_E)
        assert r.n == 10 ** 5 and r.k == 5

    def test_uniform_golden(self):
        r = knn_entropy(sample(Uniform(0, 1), 10 ** 5, seed=12), k=5)
        assert within_tolerance(r, 0.0)

    def test_triangle_golden(self):
        r = estimate_functional([(1, Uniform(0, 1)), (1, Uniform(0, 1))],
                                n=10 ** 5, k=5, seed=13)
        assert within_tolerance(r, 0.5)

    def test_bit_for_bit_determinism(self):
        xs = sample(Gaussian(0, 1), 2000, seed=5)
        assert knn_entropy(xs, 5) == knn_entropy(xs.copy(), 5)

    def test_stderr_positive_and_monotone(self):
        errs = [knn_entropy(sample(Gaussian(0, 1), n, seed=3), 5).stderr
                for n in (10 ** 3, 10 ** 4, 10 ** 5)]
        assert all(e > 0 for e in errs)
        assert errs[0] > errs[1] > errs[2]

    def test_ties_are_tolerated(self):
        xs = np.repeat(np.arange(10.0), 20)  # heavy exact ties
        r = knn_entropy(xs, 5)
        assert math.isfinite(r.value)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError):
            knn_entropy(np.ones(100), 5)

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            knn_entropy(np.arange(10.0), 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        x = np.random.default_rng(8).normal(size=200)
        x[[3, 70, 150]] = bad
        with pytest.raises(ValueError, match="3 of 200 samples are not finite"):
            knn_entropy(x)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            knn_entropy(np.arange(100.0), 0)
        with pytest.raises(ValueError):
            knn_entropy(np.arange(100.0), 100)


def _partition_reference(xs, k):
    """The window scan's predecessor: an n x 2k candidate matrix and np.partition."""
    xs = np.sort(xs)
    n = len(xs)
    cand = np.full((n, 2 * k), np.inf)
    for j in range(1, k + 1):
        gaps = xs[j:] - xs[:-j]
        cand[j:, j - 1] = gaps
        cand[:-j, k + j - 1] = gaps
    eps = np.partition(cand, k - 1, axis=1)[:, k - 1]
    eps = np.clip(eps, 1e-300, None)
    return float(_psi_gap(n, k) + np.mean(np.log(2.0 * eps)))


def _brute_force_reference(xs, k):
    """k-th neighbor distance of every sorted sample from all n - 1 distances."""
    xs = np.sort(xs)
    n = len(xs)
    dist = np.abs(xs[:, None] - xs[None, :])
    np.fill_diagonal(dist, np.inf)
    eps = np.clip(np.sort(dist, axis=1)[:, k - 1], 1e-300, None)
    return float(_psi_gap(n, k) + np.mean(np.log(2.0 * eps)))


def _scan(xs, k):
    """``_knn_point_estimate`` of unsorted samples, on buffers left dirty and
    oversized by an earlier, larger estimate, as ``knn_entropy`` reuses them."""
    n = len(xs)
    ext, scratch = np.full(n + 2 * k + 9, np.nan), np.full((3, n + 5), np.nan)
    ext[k:k + n] = xs
    return _knn_point_estimate(ext, n, k, scratch)


@st.composite
def knn_samples(draw, max_n):
    """(samples, k): unsorted, with exact ties and duplicates in some draws."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k + 1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xs = rng.normal(size=n) * draw(st.sampled_from([1e-6, 1.0, 1e6]))
    ties = draw(st.sampled_from(["none", "rounded", "duplicated"]))
    if ties == "rounded":  # few distinct values: runs of exact ties
        xs = np.round(xs / np.std(xs) * draw(st.integers(1, 8)))
    elif ties == "duplicated":  # about 30% of the samples share one value
        xs[rng.random(n) < 0.3] = xs[0]
    return rng.permutation(xs), k


class TestKnnKernel:
    """The neighbour scan against two references that share its psi(n) - psi(k)
    term, :func:`_psi_gap`, so the scan itself is pinned bit for bit;
    ``TestPsiGap`` pins that term against scipy's digamma."""

    @given(knn_samples(max_n=3000))
    @settings(max_examples=200, deadline=None)
    def test_window_scan_matches_partition_bit_for_bit(self, case):
        xs, k = case
        assert _scan(xs, k).hex() == _partition_reference(xs, k).hex()

    @given(knn_samples(max_n=120))
    @settings(max_examples=100, deadline=None)
    def test_window_scan_matches_brute_force(self, case):
        xs, k = case
        assert _scan(xs, k).hex() == _brute_force_reference(xs, k).hex()

    def test_fewest_samples(self):
        # n = k + 1: every other sample is a neighbor, so eps is the farther end
        xs = np.array([0.0, 1.0, 3.0])
        expected = digamma(3) - digamma(2) + np.mean(np.log(2.0 * np.array([3.0, 2.0, 3.0])))
        assert _scan(xs, 2) == pytest.approx(expected, abs=1e-15)


class TestOracleAgreement:
    @pytest.mark.parametrize("model,seed", [
        (Gaussian(0.5, 2.0), 41),
        (Uniform(-1, 2), 42),
        (Exponential(0.8), 43),
    ])
    def test_grid_and_knn_agree_on_catalog_models(self, ctx, model, seed):
        from entrolab.distributions import sample as draw

        grid_h, grid_err = ctx.entropy((1, model))
        est = knn_entropy(draw(model, 10 ** 5, seed), 5)
        assert abs(est.value - grid_h) <= max(3 * est.stderr, 5 * grid_err, 0.05)

    def test_grid_and_knn_agree_on_differences(self, ctx):
        from entrolab.distributions import Laplace

        model = Laplace(0.0, 1.5)
        grid_h, grid_err = ctx.entropy((1, model), (-1, model))
        est = estimate_functional([(1, model), (-1, model)], 10 ** 5, 5, seed=44)
        assert abs(est.value - grid_h) <= max(3 * est.stderr, 5 * grid_err, 0.05)


class _NanModel:
    """A sampler that returns one NaN, as a faulty model would."""

    def sample_rng(self, rng, n):
        out = rng.normal(size=n)
        out[0] = math.nan
        return out


class TestEstimateFunctional:
    def test_exponential_difference_is_laplace(self):
        r = estimate_functional([(1, Exponential(1.0)), (-1, Exponential(1.0))],
                                n=10 ** 5, k=5, seed=14)
        assert within_tolerance(r, 1 + math.log(2))

    def test_gaussian_selfsum(self):
        r = estimate_functional([(1, Gaussian(0, 1)), (1, Gaussian(0, 1))],
                                n=10 ** 5, k=5, seed=15)
        assert within_tolerance(r, 0.5 * math.log(4 * math.pi * math.e))

    def test_reflected_uniform_sum(self):
        r = estimate_functional([(1, Uniform(0, 1)), (-1, Uniform(-1, 0))],
                                n=10 ** 5, k=5, seed=16)
        assert within_tolerance(r, 0.5)

    def test_seeded_determinism(self):
        terms = [(1, Gaussian(0, 1)), (-1, Exponential(2.0))]
        assert estimate_functional(terms, 5000, 5, seed=9) == \
            estimate_functional(terms, 5000, 5, seed=9)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            estimate_functional([(2, Gaussian(0, 1))], 1000, 5, seed=0)

    def test_non_finite_sum_rejected(self):
        terms = [(1, Gaussian(0.0, 1.0)), (1, _NanModel())]
        with pytest.raises(ValueError, match="not finite"):
            estimate_functional(terms, 200)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_functional([], 1000, 5, seed=0)


class TestKnnGoldens:
    """The benchmark's four golden kNN expressions at n = 10^5, k = 5, pinned bit for bit."""

    E = Exponential(1.0)

    @pytest.mark.parametrize("i,terms,value,stderr", [
        (0, [(1, Gaussian(0.0, 1.0))], "0x1.6b56b35917a50p+0", "0x1.b6b6cb0904efep-10"),
        (1, [(1, Uniform(0.0, 1.0))] * 2, "0x1.005d0302cde20p-1", "0x1.d95874e452700p-10"),
        (2, [(1, E), (-1, E)], "0x1.b0f23d72966b8p+0", "0x1.ad7da28122443p-9"),
        (3, [(1, E)] * 2, "0x1.93abd7ac43b10p+0", "0x1.623c373de1ec1p-9"),
    ], ids=["h(N(0,1))", "h(U+U')", "h(E-E')", "h(E+E')"])
    def test_estimate(self, i, terms, value, stderr):
        r = estimate_functional(terms, 10 ** 5, 5, seed=20240501 * 8 + i)
        assert (r.value.hex(), r.stderr.hex()) == (value, stderr)
