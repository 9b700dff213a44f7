"""The benchmark's output checks flag doctored outputs and pass real ones.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import copy
import hashlib
import json
import math

import pytest

import run
import tracing
import verify
import workloads


def gaussian(mean, variance):
    return {"kind": "gaussian", "mean": mean, "variance": variance}


def h(variance):
    return 0.5 * math.log(2 * math.pi * math.e * variance)


def entry(check_id, inputs, lhs, rhs, err, params=None, note=None, kind="inequality"):
    slack = rhs - lhs
    return {"check_id": check_id, "kind": kind, "inputs": inputs, "params": params or {},
            "lhs": lhs, "rhs": rhs, "slack": slack, "err": err, "note": note,
            "verdict": verify.expected_verdict(kind, slack, err)}


def sum_difference_entry():
    inputs = [gaussian(0.0, 2.0), gaussian(1.0, 3.0)]
    return entry("sum_difference", inputs, h(5.0), 3 * h(5.0) - h(2.0) - h(3.0), 1e-6)


class TestSuiteEntries:
    def test_exact_gaussian_entry_passes(self):
        assert verify.check_suite_entry(sum_difference_entry()).ok

    def test_violated_entry_is_flagged(self):
        e = sum_difference_entry()
        e["verdict"] = "violated"
        op = verify.check_suite_entry(e)
        assert not op.ok and "violated" in op.why

    def test_skipped_entry_is_flagged(self):
        e = sum_difference_entry()
        e.update(verdict="skipped", lhs=None, rhs=None, slack=None, err=None)
        assert not verify.check_suite_entry(e).ok

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_gaussian_entry_moved_by_two_err_is_flagged(self, side):
        e = sum_difference_entry()
        e[side] += 2 * e["err"]
        e["slack"] = e["rhs"] - e["lhs"]
        op = verify.check_suite_entry(e)
        assert not op.ok and "closed form" in op.why

    def test_slack_that_is_not_rhs_minus_lhs_is_flagged(self):
        e = sum_difference_entry()
        e["slack"] += 1e-3
        assert not verify.check_suite_entry(e).ok

    def test_verdict_that_contradicts_slack_is_flagged(self):
        e = sum_difference_entry()
        e["verdict"] = "inconclusive"
        assert not verify.check_suite_entry(e).ok

    def test_two_sided_side_is_taken_from_the_note(self):
        x = [gaussian(0.0, 4.0)]
        d = 0.5 * math.log(2.0)
        assert verify.gaussian_sides(entry("epi_doubling", x, d, d, 1e-9,
                                           note="side=sum")) == (d, pytest.approx(d))
        upper = entry("doubling_difference", x, d, 2 * d, 1e-9, note="ratio=1 side=upper")
        assert verify.gaussian_sides(upper) == (pytest.approx(d), pytest.approx(2 * d))

    def test_counts_follow_the_trial_rule(self):
        counts = verify.expected_counts(100)
        assert sum(counts.values()) == 686
        assert counts[("plunnecke_ruzsa", "n=4")] == 100 // (5 * 4)
        report = {"checks": [sum_difference_entry()]}
        ops = {op.name: op for op in verify.check_suite_report(report, 100)}
        assert not ops["count:sum_difference"].ok and not ops["count:lower_bound"].ok


def test_report_that_differs_by_one_byte_is_flagged():
    text = json.dumps({"checks": [sum_difference_entry()]}, sort_keys=True)
    doctored = text[:-2] + ("x" if text[-2] != "x" else "y") + text[-1]

    def digest(t):
        return hashlib.sha256(t.encode()).hexdigest()

    assert verify.check_identical("identical", digest(text), {"round 1": digest(text)}).ok
    op = verify.check_identical("identical", digest(doctored), {"round 1": digest(text)})
    assert not op.ok and "round 1" in op.why


class TestInverse:
    def laplace_bundle(self, scale, poincare):
        model = {"kind": "laplace", "location": 0.0, "scale": scale}
        div = 0.5 * math.log(math.pi * math.e) - 1.0
        reports = [entry("inverse_pinsker", [model], 0.01, div, 1e-6),
                   entry("inverse_fgr_sigma", [model], div, 1.0, 1e-6,
                         note=f"poincare={poincare:.6g}")]
        return model, reports

    def test_exact_laplace_constant_passes(self):
        model, reports = self.laplace_bundle(1.5, 4 * 1.5 ** 2)
        assert all(op.ok for op in verify.check_inverse_law(model, reports))

    def test_laplace_constant_one_percent_off_is_flagged(self):
        model, reports = self.laplace_bundle(1.5, 1.01 * 4 * 1.5 ** 2)
        bad = [op for op in verify.check_inverse_law(model, reports) if not op.ok]
        assert [op.name for op in bad] == ["inverse:poincare"]

    def test_divergence_outside_err_is_flagged(self):
        model, reports = self.laplace_bundle(1.5, 4 * 1.5 ** 2)
        reports[0]["rhs"] += 2e-6
        reports[0]["slack"] = reports[0]["rhs"] - reports[0]["lhs"]
        bad = [op.name for op in verify.check_inverse_law(model, reports) if not op.ok]
        assert bad == ["inverse:divergence"]


class TestExact:
    def test_knn_estimate_off_by_point_two_is_flagged(self):
        target = verify.H_STD_NORMAL
        assert verify.check_knn("g", target + 0.01, 0.004, target).ok
        assert not verify.check_knn("g", target + 0.2, 0.004, target).ok

    def test_covering_identity_slack_above_tolerance_is_flagged(self):
        e = entry("covering_lemma", [], 1.0, 1.0 + 1e-11, 1e-9, kind="identity")
        ops = verify.check_discrete_report({"checks": [e]}, 1)
        assert not ops[0].ok and ops[1].ok

    def test_log_k_closed_form(self):
        assert verify.bsg_log_k(0.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
        assert verify.bsg_log_k(-0.9) == pytest.approx(-0.5 * math.log(1 - 0.81))


class TestAgainstTheProgram:
    """The closed forms agree with entrolab where entrolab is right."""

    def test_small_suite_passes_every_check(self):
        from entrolab.suite import config_from_dict, run_suite, serialize_report

        config = config_from_dict({"seed": 5, "corpus_size": 12, "workers": 1,
                                   "checks": ["sum_difference", "epi_doubling",
                                              "plunnecke_ruzsa"]})
        report = json.loads(serialize_report(run_suite(config)))
        entries = [verify.check_suite_entry(e) for e in report["checks"]]
        assert entries and all(op.ok for op in entries)
        assert any(verify.gaussian_sides(e) for e in report["checks"])

    def test_inverse_closed_forms_and_the_known_uniform_fault(self):
        from entrolab.checks import GridContext, inverse_theorem_check
        from entrolab.distributions import Exponential, Gaussian, Laplace, Uniform

        ctx = GridContext()
        failed = {}
        for m in (Gaussian(0.5, 2.0), Exponential(0.7), Laplace(1.0, 0.8), Uniform(-1, 2)):
            reports = [r.to_dict() for r in inverse_theorem_check(m, ctx)]
            failed[m.to_dict()["kind"]] = [op.name for op in
                                           verify.check_inverse_law(m.to_dict(), reports)
                                           if not op.ok]
        # grids.kl_divergence drops its Richardson estimate, so err is too
        # small for the Uniform divergence; every other check passes
        assert failed == {"gaussian": [], "exponential": [], "laplace": [],
                          "uniform": ["inverse:divergence"]}


class TestTracing:
    def test_self_time_excludes_children_and_counts_cells(self):
        spans = [
            {"id": "0", "parent": None, "name": "grids.convolve",
             "start": 0.0, "end": 1.0, "cells": 512},
            {"id": "1", "parent": "0", "name": "grids.resample", "start": 0.2, "end": 0.5},
            {"id": "2", "parent": None, "name": "checks.family.c3122",
             "start": 1.0, "end": 4.0},
            {"id": "3", "parent": None, "name": "checks.family.c3122",
             "start": 4.0, "end": 5.0},
        ]
        m = tracing.layer_metrics(spans)
        assert m["grids.convolve.self_s"] == pytest.approx(0.7)
        assert m["grids.convolve.cells"] == 512 and m["grids.resample.calls"] == 1
        assert m["checks.family.c3122.s"] == pytest.approx(4.0)

    def test_counts_that_do_not_repeat_are_reported(self):
        rounds = [{"grids.convolve.calls": 3, "grids.entropy.s": 1.0},
                  {"grids.convolve.calls": 4, "grids.entropy.s": 3.0}]
        combined, unsteady = tracing.combine_rounds(copy.deepcopy(rounds))
        assert unsteady == ["grids.convolve.calls"]
        assert combined["grids.entropy.s"] == 2.0

    def test_metric_list_matches_benchmark_json(self):
        import pathlib

        spec = json.loads((pathlib.Path(tracing.__file__).parent.parent
                           / "BENCHMARK.json").read_text())
        assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in
                                                          tracing.LAYER_METRICS]
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
        assert spec["run_seconds"] == run.DEFAULT_SECONDS
