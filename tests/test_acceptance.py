"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.  Criteria are checked at their stated tolerances; the
randomized-corpus items use the shipped default corpus generator.
"""

import math
import time

import numpy as np
import pytest

from entrolab import grids
from entrolab.checks import (
    default_corpus,
    doubling_and_difference,
    inverse_theorem_check,
)
from entrolab.distributions import Exponential, Gaussian, Uniform
from entrolab.estimators import estimate_functional, knn_entropy
from entrolab.gaussians import (
    GaussianVector,
    run_bsg_scenario,
    run_conditional_copies_scenario,
    run_weak_bsg_scenario,
)
from entrolab.discrete import (
    DISCRETE_CHECK_IDS,
    GROUP_CHECKS,
    DiscreteJoint,
    check_covering_lemma,
    check_discrete_registry,
    check_functional_submodularity,
    random_pmf,
)
from entrolab.distributions import sample
from entrolab.suite import config_from_dict, run_suite, serialize_report

LN2 = math.log(2.0)
EULER_GAMMA = float(np.euler_gamma)
H_STD_NORMAL = 0.5 * math.log(2 * math.pi * math.e)

GOLDEN_CASES = [
    ("h(N(0,1))", ((1, Gaussian(0, 1)),), H_STD_NORMAL),
    ("h(U+U')", ((1, Uniform(0, 1)), (1, Uniform(0, 1))), 0.5),
    ("h(E-E')", ((1, Exponential(1.0)), (-1, Exponential(1.0))), 1 + LN2),
    ("h(E+E')", ((1, Exponential(1.0)), (1, Exponential(1.0))), 1 + EULER_GAMMA),
]


def report_line(num, ok, text):
    print(f"[ACCEPTANCE {num:>2}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_golden_entropies(ctx):
    worst = 0.0
    for label, terms, target in GOLDEN_CASES:
        # through the grid: ctx.entropy returns the closed form of these sums
        value, _ = grids.entropy(ctx.sum_grid(terms))
        worst = max(worst, abs(value - target))
    report_line(1, worst < 1e-4,
                f"grid pipeline golden entropies within 1e-4 (worst {worst:.2e})")


def test_criterion_2_doubling_difference_constants(ctx):
    g = doubling_and_difference(ctx, Gaussian(0, 1))
    u = doubling_and_difference(ctx, Uniform(0, 1))
    e = doubling_and_difference(ctx, Exponential(1.0))
    checks = [
        abs(g.sigma - math.sqrt(2)) < 1e-4,
        abs(g.delta - math.sqrt(2)) < 1e-4,
        abs(u.sigma - math.exp(0.5)) < 1e-4,
        abs(e.sigma - math.exp(EULER_GAMMA)) < 1e-3,
        abs(e.delta - 2.0) < 1e-3,
    ]
    report_line(2, all(checks),
                "sigma/delta constants: Gaussian sqrt(2), uniform e^1/2, "
                f"exponential (e^gamma, 2) -> {checks}")


def test_criterion_3_randomized_corpus_no_violations(default_suite):
    suite, elapsed = default_suite
    violated = suite.violated()
    families = {r.check_id for r in suite.reports}
    ok = violated == 0 and len(families) >= 13 and elapsed < 300
    report_line(3, ok,
                f"100-distribution corpus, {len(families)} check families, "
                f"{len(suite.reports)} reports, {violated} violated, {elapsed:.1f}s")


def test_criterion_4_exponential_ratio(ctx):
    f = doubling_and_difference(ctx, Exponential(1.0))
    ratio = f.delta_plus / f.delta_minus
    target = EULER_GAMMA / LN2
    ok = abs(ratio - target) < 1e-3 and 0.5 <= ratio <= 2.0
    report_line(4, ok,
                f"exp(1) sum/difference entropy-gain ratio {ratio:.6f} "
                f"vs gamma/ln2 {target:.6f}, inside [1/2, 2]")


def test_criterion_5_gaussian_network_identities():
    rng = np.random.default_rng(0)
    worst_ident = 0.0
    for _ in range(50):
        vx, vy = rng.uniform(0.2, 5.0, 2)
        _, ident = run_conditional_copies_scenario(float(vx), float(vy))
        worst_ident = max(worst_ident, abs(ident.slack))
    ineq, _ = run_conditional_copies_scenario(1.0, 1.0)
    three_sum_ok = abs(ineq.slack - LN2) <= 1e-9

    worst_dp = math.inf
    for _ in range(50):
        vx, vy, vz = rng.uniform(0.2, 5.0, 3)
        v = GaussianVector(("X", "Y", "Z"), np.zeros(3), np.diag([vx, vy, vz]))
        v = (v.with_linear("XmY", {"X": 1, "Y": -1})
             .with_linear("YmZ", {"Y": 1, "Z": -1})
             .with_linear("XmZ", {"X": 1, "Z": -1})
             .with_linear("XY", {"X": 1, "Y": 1})
             .with_linear("XYZ", {"X": 1, "Y": 1, "Z": 1}))
        s1 = (v.mutual_information(["X"], ["XmY", "YmZ"])
              - v.mutual_information(["X"], ["XmZ"]))
        s2 = (v.mutual_information(["XY"], ["X"])
              - v.mutual_information(["XYZ"], ["X"]))
        worst_dp = min(worst_dp, s1, s2)

    ok = worst_ident <= 1e-9 and three_sum_ok and worst_dp >= -1e-10
    report_line(5, ok,
                f"network identities: worst |identity slack| {worst_ident:.2e}, "
                f"three-sum slack = ln2 {three_sum_ok}, "
                f"worst processing slack {worst_dp:.2e}")


def test_criterion_6_bsg_sweep():
    worst = math.inf
    for rho in np.arange(-0.95, 0.951, 0.05):
        r = run_bsg_scenario(float(rho))
        w = run_weak_bsg_scenario(float(rho))
        worst = min(worst, r.conclusion_a[2], r.conclusion_b[2],
                    r.conclusion_c[2], w.slack)
    log_k0 = run_bsg_scenario(0.0).log_k
    exact = abs(log_k0 - 0.5 * LN2) < 1e-12
    report_line(6, worst >= -1e-9 and exact,
                f"conditional-copies sweep: worst slack {worst:.2e}, "
                f"log K at rho=0 exact {exact}")


def test_criterion_7_discrete_exactness():
    rng = np.random.default_rng(7)
    worst_cover = max(abs(check_covering_lemma(random_pmf(rng, 5),
                                               random_pmf(rng, 5)).slack)
                      for _ in range(100))

    rng = np.random.default_rng(3)
    worst_sub = math.inf
    trials = 0
    while trials < 1000:
        f_map = rng.integers(0, 2, 4)
        g_map = rng.integers(0, 2, 4)
        table = rng.random((4, 4)) * (f_map[:, None] == g_map[None, :])
        if table.sum() <= 0:
            continue
        joint = DiscreteJoint((4, 4), table / table.sum())
        rep = check_functional_submodularity(joint, f_map, g_map,
                                             rng.integers(0, 4, (4, 4)))
        worst_sub = min(worst_sub, rep.slack)
        trials += 1

    rng = np.random.default_rng(42)
    violations = 0
    for _ in range(500):
        pool = [random_pmf(rng, 6) for _ in range(5)]
        for cid in DISCRETE_CHECK_IDS:
            check = GROUP_CHECKS[cid]
            params = dict(check.variants[rng.integers(len(check.variants))])
            rep = check_discrete_registry(cid, pool[: check.arity_for(params)], params)
            if rep.verdict == "violated":
                violations += 1

    ok = worst_cover <= 1e-12 and worst_sub >= -1e-12 and violations == 0
    report_line(7, ok,
                f"discrete exactness: covering worst {worst_cover:.2e}, "
                f"submodularity worst {worst_sub:.2e}, registry violations {violations}")


def test_criterion_8_inverse_theorem_bundle(ctx):
    u = {r.check_id: r for r in inverse_theorem_check(Uniform(0, 1), ctx)}
    e = {r.check_id: r for r in inverse_theorem_check(Exponential(1.0), ctx)}
    u_ok = (abs(u["inverse_fgr_sigma"].lhs - 0.1765) < 1e-3
            and u["inverse_fgr_sigma"].rhs == pytest.approx(0.5265, abs=2e-3)
            and u["inverse_fgr_sigma"].slack > 0)
    e_ok = (abs(e["inverse_fgr_sigma"].lhs - 0.4189) < 1e-3
            and e["inverse_fgr_sigma"].rhs == pytest.approx(2.075, abs=5e-3)
            and e["inverse_fgr_sigma"].slack > 0)

    pinsker_ok = True
    for m in default_corpus(seed=20240501, size=100):
        reps = {r.check_id: r for r in inverse_theorem_check(m, ctx)}
        if reps["inverse_pinsker"].verdict == "violated":
            pinsker_ok = False
            break

    contraction_ok = all(
        {r.check_id: r for r in inverse_theorem_check(m, ctx)}
        ["inverse_contraction"].verdict != "violated"
        for m in (Gaussian(0, 1), Uniform(0, 1), Exponential(1.0))
    )
    ok = u_ok and e_ok and pinsker_ok and contraction_ok
    report_line(8, ok,
                f"gap bounds: uniform {u_ok}, exponential {e_ok}, "
                f"corpus normal-approximation bound {pinsker_ok}, "
                f"standardized-sum contraction {contraction_ok}")


def test_criterion_9_estimator_agreement(ctx):
    t0 = time.perf_counter()
    worst_margin = -math.inf
    seeds = {"h(N(0,1))": 31, "h(U+U')": 32, "h(E-E')": 33, "h(E+E')": 34}
    ok = True
    for label, terms, _target in GOLDEN_CASES:
        grid_value, _ = grids.entropy(ctx.sum_grid(terms))
        est = (knn_entropy(sample(terms[0][1], 10 ** 5, seeds[label]), 5)
               if len(terms) == 1
               else estimate_functional(list(terms), 10 ** 5, 5, seeds[label]))
        margin = abs(est.value - grid_value) - max(3 * est.stderr, 0.05)
        worst_margin = max(worst_margin, margin)
        ok = ok and margin <= 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30
    report_line(9, ok,
                f"nearest-neighbor oracle agrees with grid on all goldens "
                f"(worst margin {worst_margin:.3f}, {elapsed:.1f}s)")


def test_criterion_10_reproducible_reports():
    raw = {"seed": 99, "corpus_size": 15,
           "checks": ["lower_bound", "sigma_delta", "sum_difference", "ruzsa_triangle",
                      "discrete.sum_difference"],
           "workers": 1}
    a = serialize_report(run_suite(config_from_dict(raw)))
    b = serialize_report(run_suite(config_from_dict(raw)))
    parallel = serialize_report(run_suite(config_from_dict({**raw, "workers": 2})))
    ok = a == b and a == parallel
    report_line(10, ok,
                "identical config and seed reproduce the serialized report "
                f"byte for byte (serial repeat {a == b}, across pool sizes {a == parallel})")
