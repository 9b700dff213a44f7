import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrolab import suite
from entrolab.checks import Approx, Exact
from entrolab.discrete import (
    DISCRETE_CHECK_IDS,
    DISCRETE_REGISTRY_ORDER,
    GROUP_CHECKS,
    DiscreteJoint,
    DiscretePmf,
    _convolve,
    _covering_joint,
    _fold_entropies,
    _normalized,
    check_covering_lemma,
    check_discrete_registry,
    check_functional_submodularity,
    difference_pmf,
    discrete_entropy,
    random_pmf,
    reflect_pmf,
    registry_reports,
    sum_pmf,
)

LN2 = math.log(2.0)


def pmf(*probs):
    return DiscretePmf(len(probs), np.array(probs, dtype=float))


probs_strategy = st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5).map(
    lambda ws: DiscretePmf(5, np.array(ws) / np.sum(ws))
)


class TestEntropy:
    def test_uniform_z2(self):
        assert pmf(0.5, 0.5).entropy() == pytest.approx(LN2, abs=1e-15)

    def test_point_mass(self):
        assert pmf(1.0, 0.0, 0.0).entropy() == 0.0

    def test_half_quarter_quarter(self):
        assert pmf(0.5, 0.25, 0.25).entropy() == pytest.approx(1.5 * LN2, abs=1e-14)

    def test_joint_marginal_entropy(self):
        table = np.array([[0.25, 0.25], [0.25, 0.25]])
        j = DiscreteJoint((2, 2), table)
        assert discrete_entropy(j) == pytest.approx(2 * LN2, abs=1e-14)
        assert discrete_entropy(j, [0]) == pytest.approx(LN2, abs=1e-14)


class TestValidation:
    @pytest.mark.parametrize("probs", [[math.nan, 0.5], [0.5, math.nan], [math.inf, 0.0],
                                       [math.nan, math.nan, 1.0]])
    def test_pmf_rejects_non_finite(self, probs):
        with pytest.raises(ValueError, match="non-finite"):
            DiscretePmf(len(probs), probs)

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
    def test_joint_rejects_non_finite(self, cell):
        table = np.full((2, 2), 0.25)
        table[1, 0] = cell
        with pytest.raises(ValueError, match="1 non-finite"):
            DiscreteJoint((2, 2), table)

    def test_negative_and_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiscretePmf(3, [1.2, -0.2, 0.0])
        with pytest.raises(ValueError, match="sum to 0.75"):
            DiscretePmf(2, [0.5, 0.25])
        with pytest.raises(ValueError, match="sum to 0.0"):
            DiscreteJoint((2,), [0.0, 0.0])


class TestSumPmf:
    def test_hand_convolution_z3(self):
        a = pmf(0.5, 0.5, 0.0)
        out = sum_pmf(a, a)
        assert np.allclose(out.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_uniform_absorbs(self):
        u = DiscretePmf(5, np.ones(5) / 5)
        p = random_pmf(np.random.default_rng(0), 5)
        assert np.allclose(sum_pmf(u, p).probs, 0.2, atol=1e-15)

    def test_identity_element(self):
        d0 = pmf(1.0, 0.0, 0.0, 0.0)
        p = random_pmf(np.random.default_rng(1), 4)
        assert np.allclose(sum_pmf(d0, p).probs, p.probs, atol=1e-15)

    def test_reflect_then_sum_is_difference(self):
        rng = np.random.default_rng(2)
        p, q = random_pmf(rng, 6), random_pmf(rng, 6)
        direct = difference_pmf(p, q)
        manual = sum_pmf(p, reflect_pmf(q))
        assert np.allclose(direct.probs, manual.probs, atol=1e-15)

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError):
            sum_pmf(pmf(0.5, 0.5), pmf(0.5, 0.25, 0.25))

    @pytest.mark.parametrize("order", range(2, 65))
    def test_gather_matches_roll_reference_bit_for_bit(self, order):
        rng = np.random.default_rng(order)
        for trial in range(8):
            p, q = random_pmf(rng, order), random_pmf(rng, order)
            if trial % 2:  # sparse supports put exact zeros in the rows
                p = DiscretePmf(order, _sparsify(rng, p.probs))
            got = sum_pmf(p, q).probs
            assert np.array_equal(got, _roll_sum_reference(p, q).probs)
            definition = np.array([sum(p.probs[x] * q.probs[(s - x) % order]
                                       for x in range(order)) for s in range(order)])
            assert np.max(np.abs(got - definition)) <= 1e-15


@st.composite
def signed_terms(draw):
    """1-5 signed pmfs on one group of order 2-64; about a third of the cells are 0."""
    n = draw(st.integers(2, 64))
    cell = st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        w = np.array(draw(st.lists(cell, min_size=n, max_size=n)))
        w[draw(st.integers(0, n - 1))] += 1.0
        terms.append((draw(st.sampled_from((1, -1))), DiscretePmf(n, w / w.sum())))
    return terms


def _group_entropy(*terms):
    """The group backend on one trial: a signed sum of DiscretePmf, folded as one row."""
    return Exact(float(_fold_entropies([(s, p.probs[None]) for s, p in terms])[0]))


class TestRawFold:
    @given(signed_terms())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_pmf_fold_bit_for_bit(self, terms):
        """The group backend against the fold it replaced: a DiscretePmf per
        step, each reflection by np.roll and each sum by the roll reference."""
        out = None
        for sign, p in terms:
            if sign < 0:
                p = DiscretePmf(p.group_order, np.roll(p.probs[::-1], 1))
            out = p if out is None else _roll_sum_reference(out, p)
        assert _group_entropy(*terms).value.hex() == out.entropy().hex()

    @given(signed_terms())
    @settings(max_examples=25, deadline=None)
    def test_group_values_are_exact(self, terms):
        h = _group_entropy(*terms)
        assert h.exact and h.err == 0.0 and h.form == {(): h.value}

    def test_reflect_is_the_roll_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for order in range(2, 65):
            p = DiscretePmf(order, _sparsify(rng, random_pmf(rng, order).probs))
            got = reflect_pmf(p).probs
            assert np.array_equal(got, DiscretePmf(order, np.roll(p.probs[::-1], 1)).probs)


def _roll_sum_reference(p, q):
    """sum_pmf as it was first written: one np.roll of the reversed q per output cell."""
    n = p.group_order
    out = np.zeros(n)
    for shift in range(n):
        out[shift] = float(np.dot(p.probs, np.roll(q.probs[::-1], shift + 1)))
    return DiscretePmf(n, out)


def _sparsify(rng, probs):
    keep = rng.random(len(probs)) < 0.5
    keep[rng.integers(len(probs))] = True
    out = np.where(keep, probs, 0.0)
    return out / out.sum()


class TestFunctionalSubmodularity:
    def test_equal_variables_identity_maps(self):
        p = random_pmf(np.random.default_rng(3), 4)
        joint = DiscreteJoint((4, 4), np.diag(p.probs))
        r_map = np.arange(4)[:, None] * np.ones(4, dtype=int)
        rep = check_functional_submodularity(joint, np.arange(4), np.arange(4), r_map)
        assert rep.slack == pytest.approx(0.0, abs=1e-12)
        assert rep.verdict in ("holds", "inconclusive")

    def test_constant_maps_reduce_to_subadditivity(self):
        rng = np.random.default_rng(4)
        table = rng.random((4, 4))
        joint = DiscreteJoint((4, 4), table / table.sum())
        # F, G constant => H(X0) = 0; R = pair index => H(X12) = H(X1, X2)
        r_map = (np.arange(4)[:, None] * 4 + np.arange(4)[None, :])
        rep = check_functional_submodularity(
            joint, np.zeros(4, dtype=int), np.zeros(4, dtype=int), r_map % 16)
        h12 = discrete_entropy(joint)
        h1 = discrete_entropy(joint, [0])
        h2 = discrete_entropy(joint, [1])
        assert rep.lhs == pytest.approx(h12, abs=1e-12)
        assert rep.slack == pytest.approx(h1 + h2 - h12, abs=1e-12)
        assert rep.slack >= -1e-12

    def test_inconsistent_maps_rejected(self):
        joint = DiscreteJoint((2, 2), np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            check_functional_submodularity(joint, [0, 1], [0, 0], np.zeros((2, 2), int))

    def test_random_instances_never_violate(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            f_map = rng.integers(0, 2, 4)
            g_map = rng.integers(0, 2, 4)
            table = rng.random((4, 4)) * (f_map[:, None] == g_map[None, :])
            if table.sum() <= 0:
                continue
            joint = DiscreteJoint((4, 4), table / table.sum())
            rep = check_functional_submodularity(joint, f_map, g_map,
                                                 rng.integers(0, 4, (4, 4)))
            assert rep.slack >= -1e-12


class TestCoveringLemma:
    def test_uniform_z2_both_sides(self):
        u = pmf(0.5, 0.5)
        rep = check_covering_lemma(u, u)
        assert rep.lhs == pytest.approx(2 * LN2, abs=1e-12)
        assert rep.rhs == pytest.approx(2 * LN2, abs=1e-12)
        assert rep.verdict == "holds"

    def test_degenerate_x_collapses_both_sides(self):
        # X a point mass makes Y1 = Y2 = X + Y, so both sides vanish
        d0 = pmf(1.0, 0.0, 0.0, 0.0)
        q = random_pmf(np.random.default_rng(1), 4)
        rep = check_covering_lemma(d0, q)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)

    def test_hundred_random_pairs_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rep = check_covering_lemma(random_pmf(rng, 5), random_pmf(rng, 5))
            assert abs(rep.slack) <= 1e-12

    @given(probs_strategy, probs_strategy)
    @settings(max_examples=30, deadline=None)
    def test_identity_property(self, p, q):
        assert abs(check_covering_lemma(p, q).slack) <= 1e-12


class TestDiscreteRegistry:
    def test_uniform_equalities(self):
        u = DiscretePmf(6, np.ones(6) / 6)
        rep = check_discrete_registry("sum_upper", [u, u])
        assert rep.slack == pytest.approx(math.log(6), abs=1e-12)
        rep = check_discrete_registry("sum_difference", [u, u])
        assert abs(rep.slack) <= 1e-12
        assert rep.verdict != "violated"

    def test_uniform_doubling_difference_degenerate(self):
        u = DiscretePmf(6, np.ones(6) / 6)
        rep = check_discrete_registry("doubling_difference", [u])
        assert rep.verdict == "inconclusive"
        assert "degenerate" in rep.note

    def test_half_support_z4_sum_difference(self):
        h = pmf(0.5, 0.5, 0.0, 0.0)
        rep = check_discrete_registry("sum_difference", [h, h])
        # sums spread over three residues, differences concentrate at zero
        assert rep.lhs == pytest.approx(1.5 * LN2, abs=1e-12)
        assert rep.slack >= -1e-12

    def test_ratio_bound_when_denominator_alive(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_pmf(rng, 6)
            rep = check_discrete_registry("doubling_difference", [p])
            if rep.note and "degenerate" in rep.note:
                continue
            ratio = float(rep.note.split("ratio=")[1].split()[0])
            assert 0.5 - 1e-9 <= ratio <= 2.0 + 1e-9

    def test_five_hundred_random_pmfs_zero_violations(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            pool = [random_pmf(rng, 6) for _ in range(5)]
            for cid in DISCRETE_CHECK_IDS:
                check = GROUP_CHECKS[cid]
                params = dict(check.variants[rng.integers(len(check.variants))])
                rep = check_discrete_registry(cid, pool[:check.arity_for(params)], params)
                assert rep.verdict != "violated", (cid, params, rep.slack)

    @pytest.mark.parametrize("cid", DISCRETE_REGISTRY_ORDER)
    def test_default_params_match_default_arity(self, cid):
        # arity_for and check_discrete_registry read the same default parameters
        rng = np.random.default_rng(DISCRETE_REGISTRY_ORDER.index(cid))
        pmfs = [random_pmf(rng, 4) for _ in range(GROUP_CHECKS[cid].arity_for({}))]
        assert check_discrete_registry(cid, pmfs).verdict != "violated"

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError):
            check_discrete_registry("frobnicate", [])

    def test_mixed_group_orders_rejected(self):
        with pytest.raises(ValueError):
            check_discrete_registry("sum_upper",
                                    [pmf(0.5, 0.5), pmf(0.5, 0.25, 0.25)])

    @given(probs_strategy)
    @settings(max_examples=25, deadline=None)
    def test_sigma_delta_property(self, p):
        rep = check_discrete_registry("sigma_delta", [p])
        assert rep.slack >= -1e-12


def brute_force_entropy(*terms):
    """Group backend by enumeration: the law of the signed sum over every tuple of values."""
    n = terms[0][1].group_order
    law = np.zeros(n)
    for values in itertools.product(range(n), repeat=len(terms)):
        s = sum(sign * v for (sign, _), v in zip(terms, values))
        law[s % n] += math.prod(p.probs[v] for (_, p), v in zip(terms, values))
    return Approx(DiscretePmf(n, law).entropy())


class TestBruteForceOracle:
    """Every group check against the same definition on the enumeration backend."""

    @pytest.mark.parametrize("cid,params", [(cid, p) for cid in DISCRETE_REGISTRY_ORDER
                                            for p in GROUP_CHECKS[cid].variants], ids=str)
    def test_matches_the_sum_pmf_backend(self, cid, params):
        check = GROUP_CHECKS[cid]
        rng = np.random.default_rng(DISCRETE_REGISTRY_ORDER.index(cid))
        pmfs = [random_pmf(rng, 4) for _ in range(check.arity_for(params))]
        rep = check_discrete_registry(cid, pmfs, params)
        lhs, rhs, note = check.evaluate(brute_force_entropy, pmfs, params)
        assert abs(rep.lhs - lhs.value) <= 1e-12 and abs(rep.rhs - rhs.value) <= 1e-12
        assert rep.note == note


# -- the stacked group path: every trial of a check in one array -------------


@st.composite
def stacked_terms(draw):
    """A signed term pattern over 1-4 inputs and 1-6 trials of laws on one group of
    order 2-64; some trials get exact zeros."""
    n, trials = draw(st.integers(2, 64)), draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    pattern = draw(st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(0, k - 1)),
                            min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pmfs = [[random_pmf(rng, n) for _ in range(k)] for _ in range(trials)]
    for t in draw(st.sets(st.integers(0, trials - 1))):
        pmfs[t] = [DiscretePmf(n, _sparsify(rng, p.probs)) for p in pmfs[t]]
    return pattern, pmfs


def _stack(pmfs):
    return np.array([[p.probs for p in trial] for trial in pmfs])


class TestStackedFold:
    @given(stacked_terms())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_the_pmf_fold_bit_for_bit(self, case):
        """Each row of one stacked fold is the roll-reference fold of its trial."""
        pattern, pmfs = case
        laws = list(_stack(pmfs).transpose(1, 0, 2).copy())
        rows = _fold_entropies([(s, laws[i]) for s, i in pattern])
        for trial, h in zip(pmfs, rows):
            out = None
            for sign, i in pattern:
                p = trial[i] if sign > 0 else \
                    DiscretePmf(trial[i].group_order, np.roll(trial[i].probs[::-1], 1))
                out = p if out is None else _roll_sum_reference(out, p)
            assert float(h).hex() == out.entropy().hex()

    @pytest.mark.parametrize("order", [2, 3, 6, 7, 8, 9, 16, 31, 64])
    def test_row_forms_match_one_trial_calls(self, order):
        """The 2-D vecdot, the row sums and the row entropies each equal a call per row."""
        rng = np.random.default_rng(order)
        p, q = rng.dirichlet(np.ones(order), size=(2, 50)) * (1.0 + 1e-12)
        gather = (np.arange(order)[:, None] - np.arange(order)) % order
        one = np.array([np.vecdot(q[t][gather], p[t]) for t in range(50)])
        assert np.array_equal(_convolve(p, q), one)
        assert np.array_equal(_normalized(q, axis=-1), np.array([r / r.sum() for r in q]))
        rows = _normalized(p, axis=-1)
        assert np.array_equal(_fold_entropies([(1, rows)]),
                              np.array([DiscretePmf(order, r).entropy() for r in p]))
        # a reflection gathered as rows[:, idx] has strided rows, whose sums differ
        assert np.array_equal(_fold_entropies([(-1, rows)]),
                              [reflect_pmf(DiscretePmf(order, r)).entropy() for r in p])

    def test_row_normalization_reports_the_bad_row(self):
        rows = np.array([[0.5, 0.5], [0.5, 0.25]])
        with pytest.raises(ValueError, match="sum to 0.75"):
            _normalized(rows, axis=-1)

    @pytest.mark.parametrize("order,k", [(2, 1), (6, 2), (6, 5), (64, 3)])
    def test_one_draw_is_the_per_trial_draws(self, order, k):
        stacked = np.random.default_rng(order).dirichlet(np.ones(order), size=(40, k))
        rng = np.random.default_rng(order)
        assert np.array_equal(stacked, [rng.dirichlet(np.ones(order), size=k)
                                        for _ in range(40)])

    @pytest.mark.parametrize("cid,params", [(cid, p) for cid in DISCRETE_REGISTRY_ORDER
                                            for p in GROUP_CHECKS[cid].variants], ids=str)
    def test_registry_reports_match_one_call_per_trial(self, cid, params):
        check = GROUP_CHECKS[cid]
        rng = np.random.default_rng(len(cid))
        pmfs = [[random_pmf(rng, 6) for _ in range(check.arity_for(params))]
                for _ in range(12)]
        pmfs[3] = [DiscretePmf(6, _sparsify(rng, p.probs)) for p in pmfs[3]]
        got = [r.to_dict() for r in registry_reports(cid, _stack(pmfs), params, 0.5)]
        want = [check_discrete_registry(cid, trial, params, 0.5).to_dict() for trial in pmfs]
        assert repr(got) == repr(want)

    def test_covering_joint_is_the_loop_over_sums(self):
        rng = np.random.default_rng(9)
        for order in (2, 3, 6, 11):
            p, q = random_pmf(rng, order), DiscretePmf(order, _sparsify(rng, random_pmf(
                rng, order).probs))
            s_pmf, idx = sum_pmf(p, q).probs, np.arange(order)
            table = np.zeros((order,) * 4)
            for s in range(order):
                if s_pmf[s] > 0.0:
                    cond = p.probs * q.probs[(s - idx) % order] / s_pmf[s]
                    y = (s - idx) % order
                    table[idx[:, None], idx[None, :], y[:, None], y[None, :]] += \
                        np.outer(cond, cond) * s_pmf[s]
            assert np.array_equal(_covering_joint(p, q, s_pmf).table,
                                  DiscreteJoint((order,) * 4, table).table)


def _per_trial_job(config, check_id):
    """The suite's registry job as one check_discrete_registry call per trial, each
    trial drawing its variant (when there are several) and then its pmfs."""
    rng = suite._trial_rng(config.seed, 1000, 0, salt=suite.VALID_CHECK_IDS.index(check_id))
    check = GROUP_CHECKS[check_id.removeprefix("discrete.")]
    out = []
    for _ in range(config.trials or config.discrete_trials):
        n_variants = len(check.variants)
        params = dict(check.variants[rng.integers(n_variants) if n_variants > 1 else 0])
        pmfs = [DiscretePmf(config.discrete_group_order, p) for p in rng.dirichlet(
            np.ones(config.discrete_group_order), size=check.arity_for(params))]
        out.append(check_discrete_registry(check.id, pmfs, params).to_dict())
    return out


class TestSuiteStacks:
    @pytest.mark.parametrize("seed,order", [(3, 6), (20240501, 2), (7, 64)])
    def test_job_reports_match_one_call_per_trial(self, seed, order):
        config = suite.config_from_dict({"seed": seed, "discrete": {"group_order": order,
                                                                    "trials": 30}})
        for cid in DISCRETE_REGISTRY_ORDER:
            got = [r.to_dict() for r in suite._discrete_job((config, f"discrete.{cid}"), None)]
            assert repr(got) == repr(_per_trial_job(config, f"discrete.{cid}")), cid
