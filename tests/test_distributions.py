import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    make_model,
    sample,
)
from entrolab import poincare
from entrolab.checks import default_corpus, inverse_theorem_check
from entrolab.cli import main
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
    assert model.closed_form_entropy() == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("model,expected", CLOSED_FORM_CASES)
def test_closed_form_matches_quadrature_oracle(model, expected):
    assert quadrature_entropy(model) == pytest.approx(expected, abs=1e-8)


def test_mixture_and_gridded_have_no_closed_form():
    mix = Mixture((0.3, 0.7), (Gaussian(-2, 1), Gaussian(2, 1)))
    assert mix.closed_form_entropy() is None


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


GAUSSIAN = {"kind": "gaussian", "mean": 0, "variance": 1}

# specs that break the parameter contract: each once crashed a run or ran as another law
CONTRACT_BREAKS = [
    {"kind": "laplace", "location": float("nan"), "scale": 1},
    {"kind": "gamma", "shape": float("inf"), "scale": 1},
    {"kind": "exponential", "rate": 1, "shift": float("inf")},
    {"kind": "exponential", "rate": 1, "reflected": "no"},
    {"kind": "gaussian", "mean": True, "variance": 1},
    {"kind": "gaussian", "mean": "0", "variance": 1},
    {"kind": "uniform", "lower": 0, "upper": None},
    {"kind": "exponential", "rate": 1, "shfit": 2},
    {"kind": "mixture", "weights": [1.0]},
    {"kind": "mixture", "weights": 5, "components": [GAUSSIAN]},
]


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
] + CONTRACT_BREAKS)
def test_make_model_rejects_bad_specs(bad):
    with pytest.raises(ModelError):
        make_model(bad)


@pytest.mark.parametrize("bad", CONTRACT_BREAKS)
def test_bad_corpus_spec_exits_2_at_load(bad, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "checks": ["lower_bound"], "corpus": [bad]}))
    assert main(["check", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "config error: bad corpus model spec" in captured.err
    assert captured.out == ""


ROUND_TRIP_LAWS = [
    Gaussian(-1.5, 2.0),
    Gaussian(0, 1),
    Uniform(-2.0, 0.5),
    Exponential(1.5),
    Exponential(1.5, shift=-0.75),
    Exponential(1.5, reflected=True),
    Exponential(0.4, shift=2.0, reflected=True),
    Laplace(0.3, 1.2),
    Gamma(2.5, 0.5),
    Gamma(0.5, 2.0, shift=1.0),
    Gamma(3.0, 1.0, reflected=True),
    Gamma(3.0, 1.0, shift=-4.0, reflected=True),
    Mixture((0.25, 0.75), (Uniform(0.0, 1.0), Exponential(2.0, shift=1.0, reflected=True))),
    Mixture((0.5, 0.5), (Gaussian(0.0, 1.0),
                         Mixture((0.5, 0.5), (Laplace(0.0, 1.0), Gamma(2.0, 1.0))))),
]


@pytest.mark.parametrize("m", ROUND_TRIP_LAWS, ids=repr)
def test_to_dict_round_trips_through_json(m):
    spec = m.to_dict()
    assert make_model(spec) == m
    assert make_model(json.loads(json.dumps(spec))) == m
    # defaults are left out, so a spec names only what differs from them
    assert "shift" not in spec or spec["shift"] != 0.0
    assert spec.get("reflected", True) is True
    mirrored = m.affine(-2.0, 0.5)
    assert make_model(mirrored.to_dict()) == mirrored


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
        out = Gaussian(0, 1).affine(2.0, 3.0)
        assert isinstance(out, Gaussian)
        assert (out.mean, out.variance) == (3.0, 4.0)

    def test_uniform_reflection(self):
        out = Uniform(0, 1).affine(-1.0, 0.0)
        assert (out.lower, out.upper) == (-1.0, 0.0)

    def test_entropy_scaling_law(self):
        h0 = Gaussian(0, 1).closed_form_entropy()
        h1 = Gaussian(0, 1).affine(2.0, 0.0).closed_form_entropy()
        assert h1 - h0 == pytest.approx(math.log(2), abs=1e-12)

    def test_exponential_negation_flags_reflection(self):
        out = Exponential(1.0).affine(-1.0, 0.0)
        assert isinstance(out, Exponential) and out.reflected
        assert out.moments().mean == pytest.approx(-1.0)
        assert out.closed_form_entropy() == pytest.approx(1.0)

    def test_composition(self):
        m = Laplace(0.3, 1.2)
        two_step = m.affine(2.0, 1.0).affine(-3.0, 0.5)
        one_step = m.affine(-6.0, -2.5)
        assert two_step.moments().mean == pytest.approx(one_step.moments().mean, abs=1e-10)
        assert two_step.moments().variance == pytest.approx(one_step.moments().variance, abs=1e-10)
        assert two_step.closed_form_entropy() == pytest.approx(
            one_step.closed_form_entropy(), abs=1e-10)

    def test_zero_scale_rejected(self):
        with pytest.raises(ModelError):
            Gaussian(0, 1).affine(0.0, 1.0)


def _dyadic(lo: float, hi: float):
    """Multiples of 2^-10 in [lo, hi]."""
    return st.integers(int(lo * 1024), int(hi * 1024)).map(lambda i: i / 1024)


# dyadic centers and offsets make c + x, c - x and their distances to c
# exact, so the check sees the shape of the law, not the rounding of points
SYMMETRIC_LAWS = {
    "gaussian": st.builds(Gaussian, _dyadic(-3, 3), st.floats(0.25, 9.0)),
    "uniform": st.builds(lambda lo, w: Uniform(lo, lo + w), _dyadic(-3, 3), _dyadic(0.5, 6)),
    "laplace": st.builds(Laplace, _dyadic(-3, 3), st.floats(0.3, 3.0)),
}


class TestSymmetricFlag:
    """DensityModel.symmetric: the law of -X is a translate of the law of X."""

    def test_flagged_kinds(self):
        kinds = (Gaussian, Uniform, Exponential, Laplace, Gamma, Mixture)
        assert {k for k in kinds if k.symmetric} == {Gaussian, Uniform, Laplace}

    @pytest.mark.parametrize("kind", sorted(SYMMETRIC_LAWS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_flagged_density_is_even_about_the_mean(self, kind, data):
        m = data.draw(SYMMETRIC_LAWS[kind])
        x = np.array(data.draw(st.lists(_dyadic(0, 12), min_size=1, max_size=8)))
        c = m.moments().mean
        assert m.symmetric
        np.testing.assert_allclose(m.pdf(c + x), m.pdf(c - x), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("m", [
        Exponential(1.5),
        Exponential(1.5, shift=0.3, reflected=True),
        Gamma(2.0, 1.0),
        Mixture((0.3, 0.7), (Gaussian(-1.0, 1.0), Gaussian(2.0, 1.0))),
    ], ids=["exponential", "reflected-exponential", "gamma", "mixture"])
    def test_unflagged_instance_is_not_even(self, m):
        assert not m.symmetric
        mom = m.moments()
        x = np.array([0.5, 1.0]) * math.sqrt(mom.variance)
        assert not np.allclose(m.pdf(mom.mean + x), m.pdf(mom.mean - x), rtol=1e-3)


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

    @pytest.mark.parametrize("model,bits", [
        (Gaussian(0.0, 2.5), "0x1.4000000602023p+1"),
        (Uniform(0.0, 1.0), "0x1.9f02fb7781d1bp-4"),
        (Exponential(1.0), "0x1.ff808d2344576p+1"),
        (Laplace(0.0, 1.0), "0x1.ff896b2186f73p+1"),
        (Mixture((0.3, 0.7), (Gaussian(-2.0, 1.0), Gaussian(2.0, 1.0))), "0x1.f4ebed1fa93dfp+2"),
        (Gamma(2.5, 1.5), "0x1.60cb7be64b6abp+3"),
    ])
    def test_spectral_oracle_bits(self, model, bits):
        # the values of the Lanczos loop that built its tridiagonal with three np.diag
        # calls per step; writing it in place must not move a bit
        assert spectral_poincare(model).hex() == bits

    @pytest.mark.parametrize("mu,b", [(0.0, 1.0), (1.0, 0.5), (-3.0, 7.25), (2.0, 1e-3)])
    def test_laplace_table_exact(self, mu, b):
        # Bobkov-Ledoux: R = 4 b^2
        assert poincare_constant(Laplace(mu, b)) == 4 * b ** 2

    def test_inverse_bundle_loads_no_scipy(self):
        # a fresh interpreter: this test process has scipy loaded already
        code = ("import sys; from entrolab import Gaussian, Laplace, Mixture; "
                "from entrolab.checks import inverse_theorem_check; "
                "mix = Mixture((0.3, 0.7), (Gaussian(-1.0, 0.5), Laplace(2.0, 1.0))); "
                "reports = inverse_theorem_check(Laplace(1.0, 0.5)) "
                "+ inverse_theorem_check(mix); "
                "print(sum(r.verdict == 'skipped' for r in reports), "
                "sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = os.path.dirname(os.path.dirname(entrolab.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "0 []"

    def test_mixture_constant_is_finite_and_large(self):
        # well-separated modes force a small spectral gap
        m = Mixture((0.5, 0.5), (Gaussian(-3, 0.5), Gaussian(3, 0.5)))
        r = poincare_constant(m)
        assert r is not None and r > m.moments().variance


def _tridiagonal_rayleigh_max(m, lo, hi, count):
    """Reference for ``poincare._rayleigh_max``: scipy's tridiagonal eigensolver
    on the symmetric standard form of the same discretization."""
    from scipy.linalg import eigh_tridiagonal

    mass, k_off = poincare._weighted_laplacian(m, lo, hi, count)
    k_diag = np.zeros(len(mass))
    k_diag[:-1] += k_off
    k_diag[1:] += k_off
    off = -k_off / (np.sqrt(mass[:-1]) * np.sqrt(mass[1:]))
    vals = eigh_tridiagonal(k_diag / mass, off, select="i", select_range=(0, 1),
                            eigvals_only=True)
    return 1.0 / float(vals[1])


def _corpus_mixtures(count):
    return [m for m in default_corpus(20240501, 100) if isinstance(m, Mixture)][:count]


class TestLanczosOracle:
    """The Lanczos solve on the inverted stiffness matrix against scipy."""

    @pytest.mark.parametrize("model", [
        Laplace(0.0, 1.0),
        *_corpus_mixtures(2),
        Gamma(2.0, 1.0),
        Mixture((0.2, 0.8), (Gaussian(0.0, 1.0), Laplace(3.0, 0.5))),
    ])
    def test_matches_tridiagonal_eigensolver_on_every_visited_grid(self, model,
                                                                   monkeypatch):
        visited = []
        lanczos = poincare._rayleigh_max

        def record(m, lo, hi, count):
            est = lanczos(m, lo, hi, count)
            visited.append((lo, hi, count, est))
            return est

        monkeypatch.setattr(poincare, "_rayleigh_max", record)
        assert spectral_poincare(model) is not None
        assert len(visited) >= 2
        for lo, hi, count, est in visited:
            ref = _tridiagonal_rayleigh_max(model, lo, hi, count)
            assert est == pytest.approx(ref, rel=1e-8), (lo, hi, count)

    def test_separated_modes_resolve_at_any_resolution(self):
        # lam_1 lies below eps * |K|, where a direct eigensolve of the standard
        # form loses it; the inverted operator puts it on top
        m = Mixture((0.5, 0.5), (Gaussian(-4.0, 0.3), Gaussian(4.0, 0.3)))
        lo, hi = m.window(1e-13)
        coarse = poincare._rayleigh_max(m, lo, hi, 1024)
        fine = poincare._rayleigh_max(m, lo, hi, 32768)
        assert coarse > 1e10
        assert fine == pytest.approx(coarse, rel=1e-6)
        reports = inverse_theorem_check(m)
        assert [r for r in reports if r.verdict == "skipped"] == []
