import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrolab.gaussians import (
    DegenerateSubsetError,
    GaussianVector,
    run_bsg_scenario,
    run_conditional_copies_scenario,
    run_weak_bsg_scenario,
)

C = 0.5 * math.log(2 * math.pi * math.e)  # h of a standard normal
LN2 = math.log(2.0)


def pair(rho):
    return GaussianVector(("X", "Y"), np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))


class TestEntropyQueries:
    def test_single_standard_normal(self):
        assert pair(0.0).joint_entropy(["X"]) == pytest.approx(C, abs=1e-12)

    def test_independent_additivity(self):
        assert pair(0.0).joint_entropy(["X", "Y"]) == pytest.approx(2 * C, abs=1e-12)

    def test_correlated_logdet(self):
        v = pair(0.8)
        assert v.joint_entropy(["X", "Y"]) == pytest.approx(
            2 * C + 0.5 * math.log(0.36), abs=1e-12)

    def test_conditional_independent(self):
        assert pair(0.0).conditional_entropy(["X"], ["Y"]) == pytest.approx(C, abs=1e-12)

    def test_conditional_schur(self):
        assert pair(0.8).conditional_entropy(["X"], ["Y"]) == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e * 0.36), abs=1e-12)

    def test_self_conditioning_is_minus_infinity(self):
        assert pair(0.5).conditional_entropy(["X"], ["X"]) == -math.inf

    def test_degenerate_joint_raises(self):
        v = pair(0.3).with_linear("S", {"X": 1.0, "Y": 1.0})
        with pytest.raises(DegenerateSubsetError):
            v.joint_entropy(["X", "Y", "S"])

    def test_mutual_information_values(self):
        assert pair(0.0).mutual_information(["X"], ["Y"]) == pytest.approx(0.0, abs=1e-12)
        assert pair(0.8).mutual_information(["X"], ["Y"]) == pytest.approx(
            -0.5 * math.log(0.36), abs=1e-12)

    def test_mi_with_sum(self):
        v = pair(0.0).with_linear("S", {"X": 1.0, "Y": 1.0})
        assert v.mutual_information(["X"], ["S"]) == pytest.approx(0.5 * LN2, abs=1e-12)

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianVector(("A", "B"), np.zeros(2), np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            pair(0.0).joint_entropy(["Q"])

    def test_unknown_linear_label_rejected(self):
        with pytest.raises(KeyError, match=r"unknown labels \['Q'\]"):
            pair(0.0).with_linear("S", {"X": 1.0, "Q": 1.0})

    def test_entropy_of_nothing_is_zero(self):
        v = pair(0.6)
        assert v.joint_entropy([]) == 0.0
        assert v.conditional_entropy([], ["Y"]) == 0.0
        assert v.conditional_entropy([], []) == 0.0

    @pytest.mark.parametrize("rho", [0.0, 0.6, -0.95])
    def test_conditioning_on_nothing(self, rho):
        v = pair(rho).with_linear("S", {"X": 1.0, "Y": 1.0})
        assert v.conditional_entropy(["X", "Y"], []) == v.joint_entropy(["X", "Y"])
        assert v.conditional_entropy(["S"], []) == v.joint_entropy(["S"])
        assert v.conditional_mutual_information(["X"], ["Y"], []) == pytest.approx(
            v.mutual_information(["X"], ["Y"]), abs=1e-12)
        assert v.conditional_mutual_information(["X"], ["S"], []) == pytest.approx(
            v.mutual_information(["X"], ["S"]), abs=1e-12)


class TestExtendMarkov:
    def test_conditional_copies_covariance(self):
        v = pair(0.8).extend_markov([
            ("X1", ("Y",), ("X", ("Y",))),
            ("X2", ("Y",), ("X", ("Y",))),
        ])
        i = {n: k for k, n in enumerate(v.names)}
        assert v.cov[i["X1"], i["X2"]] == pytest.approx(0.64, abs=1e-12)
        assert v.cov[i["X1"], i["Y"]] == pytest.approx(0.8, abs=1e-12)
        assert v.cov[i["X1"], i["X1"]] == pytest.approx(1.0, abs=1e-12)

    def test_chain_covariance_products(self):
        v = pair(0.8).extend_markov([
            ("X1", ("Y",), ("X", ("Y",))),
            ("X2", ("Y",), ("X", ("Y",))),
            ("Yp", ("X1",), ("Y", ("X",))),
        ])
        i = {n: k for k, n in enumerate(v.names)}
        assert v.cov[i["Yp"], i["Y"]] == pytest.approx(0.64, abs=1e-12)
        assert v.cov[i["Yp"], i["X2"]] == pytest.approx(0.512, abs=1e-12)

    def test_independence_propagates_at_zero_correlation(self):
        v = pair(0.0).extend_markov([
            ("X1", ("Y",), ("X", ("Y",))),
            ("X2", ("Y",), ("X", ("Y",))),
        ])
        i = {n: k for k, n in enumerate(v.names)}
        off = v.cov[np.ix_([i["X1"], i["X2"]], [i["X1"], i["X2"]])] - np.eye(2)
        assert np.max(np.abs(off)) < 1e-12
        assert v.cov[i["X1"], i["Y"]] == 0.0

    def test_unknown_recipe_label_rejected(self):
        with pytest.raises(KeyError):
            pair(0.0).extend_markov([("W", ("Q",), ("X", ("Y",)))])

    @given(st.floats(-0.9, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_data_processing_along_chain(self, rho):
        v = pair(rho).extend_markov([
            ("X1", ("Y",), ("X", ("Y",))),
        ])
        # X -- Y -- X1 is Markov, so I(X; X1) <= I(X; Y)
        if abs(rho) < 1e-12:
            return
        assert v.mutual_information(["X"], ["X1"]) <= (
            v.mutual_information(["X"], ["Y"]) + 1e-10)


class TestScenarios:
    def test_bsg_independent_case(self):
        r = run_bsg_scenario(0.0)
        assert r.log_k == pytest.approx(0.5 * LN2, abs=1e-12)
        assert r.conclusion_a[2] == pytest.approx(r.log_k, abs=1e-12)
        assert r.min_slack() >= -1e-9

    def test_bsg_negative_rho_mi_binds(self):
        r = run_bsg_scenario(-0.8)
        assert r.log_k == pytest.approx(-0.5 * math.log(0.36), abs=1e-12)
        for lhs, rhs, slack in (r.conclusion_a, r.conclusion_b, r.conclusion_c):
            assert slack >= -1e-9

    def test_bsg_sweep_all_conclusions_hold(self):
        for rho in np.arange(-0.95, 0.951, 0.05):
            r = run_bsg_scenario(float(rho))
            assert r.min_slack() >= -1e-9, f"rho={rho}"

    def test_bsg_rejects_unit_correlation(self):
        with pytest.raises(ValueError):
            run_bsg_scenario(1.0)

    def test_weak_bsg_independent_case(self):
        rep = run_weak_bsg_scenario(0.0)
        assert rep.lhs == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 2), abs=1e-12)
        assert rep.slack == pytest.approx(1.5 * LN2, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.5, -0.9, 0.25, -0.6])
    def test_weak_bsg_holds(self, rho):
        assert run_weak_bsg_scenario(rho).verdict == "holds"

    def test_three_sum_unit_variance_slack_is_ln2(self):
        ineq, ident = run_conditional_copies_scenario(1.0, 1.0)
        assert ineq.slack == pytest.approx(LN2, abs=1e-9)
        assert ident.lhs == pytest.approx(2 * C, abs=1e-9)
        assert abs(ident.slack) <= 1e-9

    def test_pair_identity_across_variances(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vx, vy = rng.uniform(0.2, 5.0, 2)
            _, ident = run_conditional_copies_scenario(float(vx), float(vy))
            assert abs(ident.slack) <= 1e-9

    def test_conditional_copies_reject_bad_variance(self):
        with pytest.raises(ValueError):
            run_conditional_copies_scenario(0.0, 1.0)


class TestDataProcessingForms:
    @given(st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0)))
    @settings(max_examples=40, deadline=None)
    def test_difference_pair_processing(self, variances):
        vx, vy, vz = variances
        v = GaussianVector(("X", "Y", "Z"), np.zeros(3), np.diag([vx, vy, vz]))
        v = (v.with_linear("XmY", {"X": 1, "Y": -1})
             .with_linear("YmZ", {"Y": 1, "Z": -1})
             .with_linear("XmZ", {"X": 1, "Z": -1}))
        lhs = v.mutual_information(["X"], ["XmZ"])
        rhs = v.mutual_information(["X"], ["XmY", "YmZ"])
        assert rhs - lhs >= -1e-10

    @given(st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0)))
    @settings(max_examples=40, deadline=None)
    def test_nested_sum_processing(self, variances):
        vx, vy, vz = variances
        v = GaussianVector(("X", "Y", "Z"), np.zeros(3), np.diag([vx, vy, vz]))
        v = (v.with_linear("XY", {"X": 1, "Y": 1})
             .with_linear("XYZ", {"X": 1, "Y": 1, "Z": 1}))
        lhs = v.mutual_information(["XYZ"], ["X"])
        rhs = v.mutual_information(["XY"], ["X"])
        assert rhs - lhs >= -1e-10


# -- the scenarios against their composition through public queries ---------

SWEEP = [(i - 95) / 100.0 for i in range(191)] + [-0.999, 0.999]


def _minimal_log_k_reference(v):
    h_x, h_y, h_xy = v.joint_entropy(["X"]), v.joint_entropy(["Y"]), v.joint_entropy(["X", "Y"])
    h_sum = v.with_linear("S", {"X": 1.0, "Y": 1.0}).joint_entropy(["S"])
    log_k = max(h_x + h_y - h_xy, h_sum - 0.5 * h_x - 0.5 * h_y, 0.0)
    return log_k, (h_x + h_y - log_k, h_xy), (h_sum, 0.5 * h_x + 0.5 * h_y + log_k)


def _bsg_reference(rho):
    """run_bsg_scenario with one query per quantity, the two conditional
    mutual informations through conditional_mutual_information."""
    v = pair(rho)
    log_k, condition_mi, condition_sum = _minimal_log_k_reference(v)
    chain = v.extend_markov([
        ("X1", ("Y",), ("X", ("Y",))),
        ("X2", ("Y",), ("X", ("Y",))),
        ("Yp", ("X1",), ("Y", ("X",))),
    ]).with_linear("S2p", {"X2": 1.0, "Yp": 1.0})
    h_x, h_y = chain.joint_entropy(["X"]), chain.joint_entropy(["Y"])
    lhs_a, rhs_a = h_x - log_k, chain.conditional_entropy(["X2"], ["X1", "Y"])
    lhs_b, rhs_b = h_y - log_k, chain.conditional_entropy(["Yp"], ["X1", "Y"])
    lhs_c = chain.conditional_entropy(["S2p"], ["X1", "Y"])
    rhs_c = 0.5 * h_x + 0.5 * h_y + 7.0 * log_k
    mi_sum = (chain.conditional_mutual_information(["S2p"], ["Yp"], ["X1", "Y"])
              + chain.conditional_mutual_information(["S2p"], ["X2"], ["X1", "Y"]))
    rhs_mi = 16.0 * log_k
    return {
        "rho": rho, "k": math.exp(log_k), "log_k": log_k,
        "condition_mi": list(condition_mi), "condition_sum": list(condition_sum),
        "conclusion_a": [lhs_a, rhs_a, rhs_a - lhs_a],
        "conclusion_b": [lhs_b, rhs_b, rhs_b - lhs_b],
        "conclusion_c": [lhs_c, rhs_c, rhs_c - lhs_c],
        "mi_sum_bound": [mi_sum, rhs_mi, rhs_mi - mi_sum],
    }


def _weak_bsg_reference(rho):
    v = pair(rho)
    log_k, _, _ = _minimal_log_k_reference(v)
    chain = v.extend_markov([
        ("X1", ("Y",), ("X", ("Y",))),
        ("X2", ("Y",), ("X", ("Y",))),
    ]).with_linear("D", {"X1": 1.0, "X2": -1.0})
    return chain.conditional_entropy(["D"], ["Y"]), chain.joint_entropy(["X"]) + 4.0 * log_k


def _hexed(value):
    """Floats as their exact hex strings, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    return value


class TestScenarioComposition:
    @pytest.mark.parametrize("rho", SWEEP)
    def test_bsg_fields_bit_for_bit(self, rho):
        assert _hexed(run_bsg_scenario(rho).to_dict()) == _hexed(_bsg_reference(rho))

    @pytest.mark.parametrize("rho", SWEEP)
    def test_weak_bsg_sides_bit_for_bit(self, rho):
        rep = run_weak_bsg_scenario(rho)
        lhs, rhs = _weak_bsg_reference(rho)
        assert _hexed([rep.lhs, rep.rhs, rep.slack]) == _hexed([lhs, rhs, rhs - lhs])

    @pytest.mark.parametrize("rho", [-0.999999, 0.999999])
    def test_near_unit_correlation_matches_or_raises_alike(self, rho):
        for scenario, reference in ((lambda r: run_bsg_scenario(r).to_dict(), _bsg_reference),
                                    (lambda r: _weak_sides(run_weak_bsg_scenario(r)),
                                     lambda r: _weak_sides(*_weak_bsg_reference(r)))):
            try:
                want = _hexed(reference(rho))
            except Exception as e:  # the scenario must fail the same way
                with pytest.raises(type(e), match=str(e)):
                    scenario(rho)
                continue
            assert _hexed(scenario(rho)) == want


def _weak_sides(rep, rhs=None):
    """(lhs, rhs, slack) of a weak-BSG report, or of a reference's two sides."""
    lhs, rhs = (rep.lhs, rep.rhs) if rhs is None else (rep, rhs)
    return [lhs, rhs, rhs - lhs]


# -- the linear-algebra facts that the query paths rest on -------------------


def _lapack_conditional_entropy(v, a, b):
    """conditional_entropy with one LAPACK call per block, as it was first written."""
    ia, ib = ([v.names.index(x) for x in labels] for labels in (a, b))
    sbb = v.cov[np.ix_(ib, ib)]
    eigs = np.linalg.eigvalsh(sbb)
    if len(eigs) and eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        raise DegenerateSubsetError("conditioning block")
    sab = v.cov[np.ix_(ia, ib)]
    schur = v.cov[np.ix_(ia, ia)] - sab @ np.linalg.solve(sbb, sab.T)
    eigs = np.linalg.eigvalsh(0.5 * (schur + schur.T))
    if len(eigs) and eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        return -math.inf
    return 0.5 * (len(ia) * C * 2 + float(np.log(eigs).sum()))


def _chain(rho):
    return pair(rho).extend_markov([
        ("X1", ("Y",), ("X", ("Y",))),
        ("X2", ("Y",), ("X", ("Y",))),
        ("Yp", ("X1",), ("Y", ("X",))),
    ]).with_linear("S2p", {"X2": 1.0, "Yp": 1.0})


LABELS = ("X", "Y", "X1", "X2", "Yp", "S2p")


class TestLinearAlgebraFacts:
    def test_one_by_one_blocks_need_no_lapack(self):
        """eigvalsh of a 1 x 1 block is its entry and one 1 x 1 equation is a division, so
        the log-determinant and the solve of such a block keep their bits; a solve with
        several right-hand sides is not a division, so it stays with LAPACK."""
        rng = np.random.default_rng(0)
        entries = np.exp(rng.uniform(-25.0, 30.0, 5000))
        rhs = rng.standard_normal((5000, 3))
        for x, b in zip(entries, rhs):
            m = np.array([[x]])
            assert np.linalg.eigvalsh(m)[0] == x
            assert GaussianVector._logdet_pd(m, "m") == float(np.log(np.linalg.eigvalsh(m)).sum())
            assert np.array_equal(b[:1] / x, np.linalg.solve(m, b[:1]))
            assert np.array_equal(b[None, :1] / x, np.linalg.solve(m, b[None, :1]))

    def test_stacked_calls_match_a_call_per_matrix(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3000, 2, 2))
        spd = a @ a.transpose(0, 2, 1) + 1e-3 * np.eye(2)
        rhs = rng.standard_normal((3000, 2, 2))
        assert np.array_equal(np.linalg.eigvalsh(spd), [np.linalg.eigvalsh(m) for m in spd])
        assert np.array_equal(np.linalg.solve(spd, rhs),
                              [np.linalg.solve(m, r) for m, r in zip(spd, rhs)])

    @given(st.floats(-0.999, 0.999), st.lists(st.lists(st.sampled_from(LABELS), min_size=1,
                                                        max_size=3, unique=True),
                                               min_size=1, max_size=5),
           st.lists(st.sampled_from(LABELS), max_size=2, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_conditional_entropies_match_one_lapack_query_each(self, rho, queries, b):
        v = _chain(rho)
        try:
            want = [_lapack_conditional_entropy(v, a, b) for a in queries]
        except DegenerateSubsetError:
            with pytest.raises(DegenerateSubsetError):
                v.conditional_entropies(queries, b)
            return
        assert _hexed(v.conditional_entropies(queries, b)) == _hexed(want)

    @given(st.floats(-0.999999, 0.999999), st.sampled_from(LABELS), st.sampled_from(LABELS),
           st.floats(-2.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_bordered_vectors_match_the_checked_constructor(self, rho, x, y, c):
        """A bordered covariance skips only the symmetry check, and is clamped alike."""
        v = _chain(rho)
        ix, iy = v.names.index(x), v.names.index(y)
        coeffs = np.zeros(len(v.names))
        coeffs[ix] += 1.0
        coeffs[iy] += c
        row = v.cov @ coeffs
        cov = np.block([[v.cov, row[:, None]], [row[None], np.array([[coeffs @ row]])]])
        want = GaussianVector(v.names + ("Z",), np.append(v.mean, 0.0), cov)
        got = v._bordered("Z", 0.0, row, float(coeffs @ row))
        assert np.array_equal(got.cov, want.cov) and np.array_equal(got.mean, want.mean)
        assert got.names == want.names

    def test_bordered_name_must_be_new(self):
        with pytest.raises(ValueError, match="unique"):
            pair(0.3).with_linear("X", {"Y": 1.0})

    def test_a_conditioning_set_is_checked_once_per_vector(self, monkeypatch):
        seen = []
        check = GaussianVector._logdet_pd
        monkeypatch.setattr(GaussianVector, "_logdet_pd",
                            staticmethod(lambda m, what: seen.append(what) or check(m, what)))
        v = _chain(0.4)
        v.conditional_entropy(["X2"], ["X1", "Y"])
        v.conditional_mutual_information(["S2p"], ["Yp"], ["X1", "Y"])
        assert seen.count("conditioning block") == 1
