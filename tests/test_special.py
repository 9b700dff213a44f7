"""``entrolab._special`` and the kNN psi gap against scipy.special, an independent oracle.

scipy is imported inside each test: entrolab itself must not load it.
"""

import math

import numpy as np
import pytest

from entrolab import _special
from entrolab.distributions import TAIL_EPS, Gamma
from entrolab.estimators import _psi_gap

SHAPES = [0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 25.0, 100.0]


def test_ndtr_relative_accuracy():
    from scipy.special import ndtr

    z = np.linspace(-37.0, 8.0, 45_001)
    ref = ndtr(z)
    assert np.max(np.abs(_special.ndtr(z) - ref) / ref) <= 1e-13


def test_ndtr_keeps_shape():
    assert _special.ndtr(np.array([0.0])).shape == (1,)
    assert _special.ndtr(np.zeros((2, 3))).shape == (2, 3)


def test_ndtri_relative_accuracy():
    from scipy.special import ndtri

    p = np.concatenate([np.geomspace(1e-300, 0.49, 2000), 1.0 - np.geomspace(1e-16, 0.49, 500)])
    ours = np.array([_special.ndtri(float(v)) for v in p])
    ref = ndtri(p)
    assert np.max(np.abs(ours - ref) / np.abs(ref)) <= 1e-15


def test_digamma_relative_accuracy():
    from scipy.special import digamma

    root = _special._ROOT
    x = np.concatenate([
        np.geomspace(1e-3, 1e6, 2001),
        np.arange(1.0, 60.0, 0.25),
        np.linspace(0.9, 2.0, 1101),  # both branches around the zero of psi
        [root, np.nextafter(root, 0.0), np.nextafter(root, 2.0), root + 1e-9],
    ])
    ours = np.array([_special.digamma(float(v)) for v in x])
    ref = digamma(x)
    assert np.max(np.abs(ours - ref) / np.abs(ref)) <= 1e-15


def test_digamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        _special.digamma(0.0)


@pytest.mark.parametrize("a", SHAPES)
def test_incomplete_gamma_relative_accuracy(a):
    from scipy.special import gammainc, gammaincc

    # both sides of the series / continued-fraction switch at x = a + 1
    x = np.concatenate([np.geomspace(1e-3 * a, 30.0 * a + 50.0, 400), [a + 1.0]])
    upper = np.array([_special._gammaincc(a, float(v)) for v in x])
    for ours, ref in ((_special.gammainc(a, x), gammainc(a, x)), (upper, gammaincc(a, x))):
        live = ref > 1e-300
        assert np.max(np.abs(ours[live] - ref[live]) / ref[live]) <= 1e-12
    assert _special.gammainc(a, np.array([0.0]))[0] == 0.0
    assert _special._gammaincc(a, 0.0) == 1.0


@pytest.mark.parametrize("a", SHAPES)
@pytest.mark.parametrize("q", [0.5, 1e-3, 1e-8, TAIL_EPS, 1e-30])
def test_upper_tail_inverse(a, q):
    from scipy.special import gammaincc, gammainccinv

    x = _special.gammainccinv(a, q)
    assert x == pytest.approx(gammainccinv(a, q), rel=1e-12, abs=0.0)
    assert gammaincc(a, x) == pytest.approx(q, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("q", [0.0, 1.0, -0.5])
def test_upper_tail_inverse_rejects_bad_mass(q):
    with pytest.raises(ValueError):
        _special.gammainccinv(2.0, q)


@pytest.mark.parametrize("shape", [1.0, 2.0, 5.5, 30.0, 100.0])
@pytest.mark.parametrize("reflected", [False, True])
def test_gamma_window_leaves_tail_eps(shape, reflected):
    # the window used to come from P(a, x) = 1 - 1e-13, which rounds and left
    # a tail of 1.000311e-13
    from scipy.special import gammaincc

    m = Gamma(shape, 0.7, shift=2.0, reflected=reflected)
    lo, hi = m.window()
    reach = (m.shift - lo) if reflected else (hi - m.shift)
    assert gammaincc(shape, reach / m.scale) == pytest.approx(TAIL_EPS, rel=1e-10, abs=0.0)


class TestPsiGap:
    """psi(n) - psi(k) as a harmonic sum, for the kNN estimator."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_scipy_digamma(self, k):
        from scipy.special import digamma

        n = np.unique(np.concatenate([np.arange(k + 1, 2000),
                                      np.geomspace(2000, 1e6, 60).astype(int)]))
        psi_n, psi_k = digamma(n.astype(float)), digamma(float(k))
        ref = psi_n - psi_k
        ours = np.array([_psi_gap(int(v), k) for v in n])
        # ulps at the largest magnitude the reference subtraction handles
        unit = np.spacing(np.maximum.reduce([np.abs(psi_n), np.full_like(ref, abs(psi_k)),
                                             np.abs(ref)]))
        assert np.max(np.abs(ours - ref) / unit) <= 4.0

    def test_adjacent_integers(self):
        assert _psi_gap(4, 3) == 1.0 / 3.0
        assert _psi_gap(1, 1) == 0.0
        assert math.isclose(_psi_gap(11, 1), sum(1.0 / j for j in range(1, 11)), rel_tol=1e-15)
