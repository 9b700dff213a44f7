import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import entrolab
from entrolab.distributions import (
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    Mixture,
    ModelError,
    Uniform,
    affine,
    closed_form_entropy,
    make_model,
    sample,
)
from entrolab.poincare import poincare_constant, spectral_poincare

EULER_GAMMA = float(np.euler_gamma)


def quadrature_entropy(m):
    """Independent oracle: -integral of f log f over the effective support."""
    lo, hi = m.window(1e-14)

    def integrand(x):
        f = float(m.pdf(np.array([x]))[0])
        return -f * math.log(f) if f > 0 else 0.0

    val, _ = quad(integrand, lo, hi, limit=400)
    return val


CLOSED_FORM_CASES = [
    (Gaussian(0.0, 1.0), 0.5 * math.log(2 * math.pi * math.e)),
    (Gaussian(3.0, 4.0), 0.5 * math.log(2 * math.pi * math.e * 4.0)),
    (Uniform(0.0, 1.0), 0.0),
    (Uniform(-2.0, 3.0), math.log(5.0)),
    (Exponential(1.0), 1.0),
    (Exponential(2.5), 1.0 - math.log(2.5)),
    (Laplace(0.0, 1.0), 1.0 + math.log(2.0)),
    (Gamma(2.0, 1.0), 1.0 + EULER_GAMMA),
]


@pytest.mark.parametrize("model,expected", CLOSED_FORM_CASES)
def test_closed_form_entropy_values(model, expected):
    assert closed_form_entropy(model) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("model,expected", CLOSED_FORM_CASES)
def test_closed_form_matches_quadrature_oracle(model, expected):
    assert quadrature_entropy(model) == pytest.approx(expected, abs=1e-8)


def test_mixture_and_gridded_have_no_closed_form():
    mix = Mixture((0.3, 0.7), (Gaussian(-2, 1), Gaussian(2, 1)))
    assert closed_form_entropy(mix) is None


def test_make_model_round_trip():
    spec = {"kind": "mixture", "weights": [0.3, 0.7],
            "components": [{"kind": "gaussian", "mean": -2, "variance": 1},
                           {"kind": "gaussian", "mean": 2, "variance": 1}]}
    m = make_model(spec)
    assert isinstance(m, Mixture)
    assert m.to_dict()["weights"] == [0.3, 0.7]
    g = make_model({"kind": "gaussian", "mean": 0, "variance": 1})
    assert g.moments().mean == 0.0 and g.moments().variance == 1.0
    u = make_model({"kind": "uniform", "lower": 0, "upper": 1})
    assert u.moments().mean == pytest.approx(0.5)
    assert u.moments().variance == pytest.approx(1.0 / 12.0)


@pytest.mark.parametrize("bad", [
    {"kind": "gaussian", "mean": 0, "variance": -1},
    {"kind": "gaussian", "mean": 0, "variance": 0},
    {"kind": "exponential", "rate": 0},
    {"kind": "laplace", "location": 0, "scale": -2},
    {"kind": "uniform", "lower": 1, "upper": 1},
    {"kind": "mixture", "weights": [], "components": []},
    {"kind": "mixture", "weights": [0.5, 0.6],
     "components": [{"kind": "gaussian", "mean": 0, "variance": 1}] * 2},
    {"kind": "frobnicate"},
])
def test_make_model_rejects_bad_specs(bad):
    with pytest.raises(ModelError):
        make_model(bad)


def test_mixture_weight_renormalization_within_tolerance():
    w = (0.3 + 4e-10, 0.7)
    m = Mixture(w, (Gaussian(0, 1), Gaussian(1, 1)))
    assert sum(m.weights) == pytest.approx(1.0, abs=1e-15)


def test_mixture_moments_formula():
    m = Mixture((0.3, 0.7), (Gaussian(-2, 1), Gaussian(2, 1)))
    mom = m.moments()
    assert mom.mean == pytest.approx(0.8, abs=1e-12)
    # weighted component variance plus between-component spread
    expected_var = 0.3 * (1 + 4) + 0.7 * (1 + 4) - 0.8 ** 2
    assert mom.variance == pytest.approx(expected_var, abs=1e-12)


def test_mixture_mean_against_monte_carlo():
    m = Mixture((0.3, 0.7), (Gaussian(-2, 1), Gaussian(2, 1)))
    xs = sample(m, 10 ** 6, seed=3)
    assert abs(xs.mean() - 0.8) < 0.01


class TestAffine:
    def test_gaussian_closure(self):
        out = affine(Gaussian(0, 1), 2.0, 3.0)
        assert isinstance(out, Gaussian)
        assert (out.mean, out.variance) == (3.0, 4.0)

    def test_uniform_reflection(self):
        out = affine(Uniform(0, 1), -1.0, 0.0)
        assert (out.lower, out.upper) == (-1.0, 0.0)

    def test_entropy_scaling_law(self):
        h0 = closed_form_entropy(Gaussian(0, 1))
        h1 = closed_form_entropy(affine(Gaussian(0, 1), 2.0, 0.0))
        assert h1 - h0 == pytest.approx(math.log(2), abs=1e-12)

    def test_exponential_negation_flags_reflection(self):
        out = affine(Exponential(1.0), -1.0, 0.0)
        assert isinstance(out, Exponential) and out.reflected
        assert out.moments().mean == pytest.approx(-1.0)
        assert closed_form_entropy(out) == pytest.approx(1.0)

    def test_composition(self):
        m = Laplace(0.3, 1.2)
        two_step = affine(affine(m, 2.0, 1.0), -3.0, 0.5)
        one_step = affine(m, -6.0, -2.5)
        assert two_step.moments().mean == pytest.approx(one_step.moments().mean, abs=1e-10)
        assert two_step.moments().variance == pytest.approx(one_step.moments().variance, abs=1e-10)
        assert closed_form_entropy(two_step) == pytest.approx(
            closed_form_entropy(one_step), abs=1e-10)

    def test_zero_scale_rejected(self):
        with pytest.raises(ModelError):
            affine(Gaussian(0, 1), 0.0, 1.0)


class TestSampling:
    def test_seeded_determinism(self):
        a = sample(Gaussian(0, 1), 4, seed=7)
        b = sample(Gaussian(0, 1), 4, seed=7)
        assert np.array_equal(a, b)

    def test_uniform_lln(self):
        xs = sample(Uniform(0, 1), 10 ** 5, seed=1)
        assert abs(xs.mean() - 0.5) < 0.01

    @pytest.mark.parametrize("model", [
        Exponential(2.0, shift=1.0, reflected=True),
        Gamma(3.0, 0.5),
        Laplace(-1.0, 2.0),
    ])
    def test_sample_moments_match(self, model):
        xs = sample(model, 200_000, seed=5)
        mom = model.moments()
        assert abs(xs.mean() - mom.mean) < 5 * math.sqrt(mom.variance / len(xs)) * 2
        assert abs(xs.var() - mom.variance) / mom.variance < 0.05

    def test_bad_count_rejected(self):
        with pytest.raises(ModelError):
            sample(Gaussian(0, 1), 0, seed=1)


class TestPoincare:
    def test_gaussian_table_exact(self):
        assert poincare_constant(Gaussian(0.0, 2.5)) == 2.5

    def test_uniform_table(self):
        assert poincare_constant(Uniform(0, 1)) == pytest.approx(1 / math.pi ** 2, rel=1e-12)

    def test_exponential_table(self):
        assert poincare_constant(Exponential(1.0)) == 4.0
        assert poincare_constant(Exponential(2.0)) == 1.0

    @pytest.mark.parametrize("model,expected", [
        (Gaussian(0.0, 2.5), 2.5),
        (Uniform(0.0, 1.0), 1 / math.pi ** 2),
        (Exponential(1.0), 4.0),
        (Laplace(0.0, 1.0), 4.0),
    ])
    def test_spectral_oracle_reproduces_known_constants(self, model, expected):
        est = spectral_poincare(model)
        assert est is not None
        assert abs(est - expected) / expected < 0.01

    def test_laplace_constant_loads_the_eigensolver_on_first_use(self):
        # a fresh interpreter: this test process has scipy loaded already
        code = ("import sys; from entrolab import Laplace, poincare_constant; "
                "assert not [m for m in sys.modules if m.startswith('scipy')]; "
                "r = poincare_constant(Laplace(1.0, 0.5)); "
                "print(r, 'scipy.linalg' in sys.modules)")
        src = os.path.dirname(os.path.dirname(entrolab.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        value, loaded = out.stdout.split()
        assert abs(float(value) - 1.0) < 0.01  # R = 4 b^2 for Laplace(., b)
        assert loaded == "True"

    def test_mixture_constant_is_finite_and_large(self):
        # well-separated modes force a small spectral gap
        m = Mixture((0.5, 0.5), (Gaussian(-3, 0.5), Gaussian(3, 0.5)))
        r = poincare_constant(m)
        assert r is not None and r > m.moments().variance
