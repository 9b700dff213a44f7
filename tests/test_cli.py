import dataclasses
import json
import math
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrolab import checks, cli, grids, suite
from entrolab.checks import CHECKS, INVERSE_CHECK_IDS
from entrolab.cli import ExpressionError, main, parse_expression
from entrolab.distributions import Exponential, Gamma, Gaussian, Uniform, make_model
from entrolab.gaussians import run_bsg_scenario
from entrolab.report import make_report, skipped
from entrolab.suite import ConfigError, config_from_dict, run_suite


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "seed": 7,
        "corpus_size": 10,
        "checks": ["lower_bound", "covering_lemma"],
        "discrete": {"group_order": 5, "trials": 10},
        "output": {"path": str(tmp_path / "report.json"), "format": "json"},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestExpressionParser:
    def test_single_model(self):
        terms = parse_expression("gaussian(0,1)")
        assert len(terms) == 1
        assert terms[0][0] == 1 and isinstance(terms[0][1], Gaussian)

    def test_signed_sum(self):
        terms = parse_expression("uniform(0, 1) + gaussian(0,2) - exponential(1)")
        assert [s for s, _ in terms] == [1, 1, -1]
        assert isinstance(terms[1][1], Gaussian)
        assert isinstance(terms[2][1], Exponential)

    def test_negative_parameters(self):
        terms = parse_expression("uniform(-2, -1)")
        assert isinstance(terms[0][1], Uniform)
        assert terms[0][1].lower == -2.0

    @pytest.mark.parametrize("text,fragment", [
        ("frobnicate(1)", "unknown distribution"),
        ("gaussian(0,1", "expected ')'"),
        ("gaussian(0 1)", "expected ','"),
        ("gaussian(0,1) * uniform(0,1)", "expected '+' or '-'"),
        ("gaussian(0,-1)", "variance"),
    ])
    def test_errors_carry_position(self, text, fragment):
        with pytest.raises(ExpressionError) as exc:
            parse_expression(text)
        assert fragment in str(exc.value)
        assert "position" in str(exc.value)


class TestEntropyCommand:
    def test_gaussian_value(self, capsys):
        assert main(["entropy", "gaussian(0,1)"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1.418939")
        assert "nats" in out

    def test_triangle_value(self, capsys):
        assert main(["entropy", "uniform(0,1) + uniform(0,1)"]) == 0
        assert capsys.readouterr().out.startswith("0.500000")

    def test_laplace_difference(self, capsys):
        assert main(["entropy", "exponential(1) - exponential(1)"]) == 0
        assert capsys.readouterr().out.startswith("1.693147")

    def test_bits_flag(self, capsys):
        assert main(["entropy", "gaussian(0,1)", "--bits"]) == 0
        out = capsys.readouterr().out
        assert "bits" in out
        assert float(out.split()[0]) == pytest.approx(
            0.5 * math.log2(2 * math.pi * math.e), abs=1e-4)

    def test_parse_error_exits_2(self, capsys):
        assert main(["entropy", "frobnicate(1)"]) == 2

    @pytest.mark.parametrize("count", ["1000", "128", str(1 << 25)])
    def test_bad_grid_count_exits_2(self, capsys, count):
        assert main(["entropy", "gaussian(0,1)", "--grid-count", count]) == 2
        assert capsys.readouterr().err.startswith("error: '--grid-count' must be a power of two")

    @pytest.mark.parametrize("sigmas", ["0", "-1", "nan"])
    def test_bad_window_sigmas_exits_2(self, capsys, sigmas):
        assert main(["entropy", "gaussian(0,1)", "--window-sigmas", sigmas]) == 2
        assert "--window-sigmas" in capsys.readouterr().err

    def test_unbounded_density_exits_2(self, capsys):
        # a sum with the law needs its grid, which the pipeline rejects
        assert main(["entropy", "gamma(0.5,1) + uniform(0,1)"]) == 2
        assert "unbounded" in capsys.readouterr().err

    def test_single_law_prints_its_closed_form(self, capsys):
        # no grid: the closed form, with the round-off err of an exact value
        assert main(["entropy", "gamma(0.5,1)"]) == 0
        assert capsys.readouterr().out == \
            f"{Gamma(0.5, 1.0).closed_form_entropy():.6f} ± 1.00e-12 nats\n"


class TestCheckCommand:
    def test_exit_zero_and_report_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["check", "--config", cfg]) == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["schema_version"] == 1
        assert data["summary"]["violated"] == 0
        assert data["summary"]["holds"] + data["summary"]["inconclusive"] \
            + data["summary"]["skipped"] == len(data["checks"])
        assert data["config"]["seed"] == 7

    def test_unknown_check_id_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, checks=["frobnicate"])
        assert main(["check", "--config", cfg]) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"checks": "all"}))
        assert main(["check", "--config", str(path)]) == 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["check", "--config", cfg])
        first = (tmp_path / "report.json").read_bytes()
        main(["check", "--config", cfg])
        assert (tmp_path / "report.json").read_bytes() == first

    def test_csv_projection(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output={
            "path": str(tmp_path / "report.csv"), "format": "csv"})
        assert main(["check", "--config", cfg]) == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0].split(",")[:4] == ["check_id", "kind", "params", "lhs"]
        assert len(lines) > 1

    def test_covering_lemma_on_z5_corpus(self, tmp_path, capsys):
        cfg = write_config(tmp_path, checks=["covering_lemma"],
                           discrete={"group_order": 5, "trials": 25})
        assert main(["check", "--config", cfg]) == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert len(data["checks"]) == 25
        assert all(abs(c["slack"]) < 1e-12 for c in data["checks"])

    def test_config_validation_errors(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": 1, "checks": []})
        with pytest.raises(ConfigError):
            config_from_dict({"seed": 1, "output": {"format": "xml"}})
        with pytest.raises(ConfigError):
            config_from_dict({"seed": 1, "corpus": [{"kind": "gaussian",
                                                     "mean": 0, "variance": -1}]})

    @pytest.mark.parametrize("field,value", [
        ("numerics", {"grid_count": 1000}),  # not a power of two
        ("numerics", {"grid_count": 128}),  # below the grid minimum
        ("numerics", {"grid_count": 1 << 25}),  # above the grid maximum
        ("corpus_size", 0),
        ("corpus_size", "many"),
        ("numerics", {"window_sigmas": "wide"}),
        ("numerics", {"window_sigmas": "nan"}),
        ("numerics", {"window_sigmas": float("nan")}),
        ("numerics", {"window_sigmas": float("inf")}),
        ("numerics", {"window_sigmas": 0}),
        ("numerics", {"window_sigmas": -1}),
        ("workers", "two"),
        ("workers", 0),
        ("workers", -3),
        ("workers", 2.5),
        ("corpus_size", 2.5),  # not truncated to 2
        ("corpus_size", True),
        ("trials", "3"),
        ("trials", 3.0),
        ("discrete", {"group_order": 6.9}),
        ("discrete", {"group_order": 65}),  # above discrete.MAX_ORDER
        ("discrete", {"group_order": 1}),  # the trivial group
        ("discrete", {"trials": 0}),
        ("numerics", {"tolerances": {"lower_bound": "x"}}),
        ("numerics", {"tolerances": {"lower_bound": -5}}),  # would make err negative
        ("numerics", {"tolerances": {"lower_bound": float("nan")}}),
        ("numerics", {"tolerances": {"lower_bound": float("inf")}}),
        ("numerics", {"tolerances": {"lower_bound": True}}),
        ("numerics", {"tolerances": ["lower_bound"]}),
        ("numerics", []),  # sections must be objects
        ("discrete", 5),
        ("output", "x"),
        ("seed", True),
        ("seed", -1),  # numpy seeds are nonnegative
        ("output", {"path": 1}),  # not file descriptor 1
        ("output", {"path": True}),
        ("output", {"path": []}),
        ("output", {"path": ""}),
    ])
    def test_bad_numbers_rejected_at_load(self, tmp_path, capsys, field, value):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": 1, field: value})
        cfg = write_config(tmp_path, **{field: value})
        assert main(["check", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unwritable_output_path_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "missing_dir" / "report.json")
        cfg = write_config(tmp_path, checks=["lower_bound"], trials=1, workers=1,
                           output={"path": path})
        assert main(["check", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {path}" in err
        assert "summary:" not in err

    @pytest.mark.parametrize("command", ["check", "inverse", "discrete"])
    @pytest.mark.parametrize("target,reason", [("missing_dir/report.json", "no directory"),
                                               ("", "it is a directory")])
    def test_unwritable_output_path_fails_before_the_suite_runs(self, tmp_path, monkeypatch,
                                                                capsys, command, target, reason):
        def never(config):
            raise AssertionError("run_suite called")

        monkeypatch.setattr(cli, "run_suite", never)
        path = str(tmp_path / target)
        flags = ["--seed", "1"] if command == "discrete" else ["--config", write_config(tmp_path)]
        assert main([command, *flags, "--out", path]) == 2
        assert f"error: cannot write {path}: {reason}" in capsys.readouterr().err

    def test_good_window_and_workers_accepted(self):
        config = config_from_dict({"seed": 1, "numerics": {"window_sigmas": 8},
                                   "workers": 3})
        assert config.window_sigmas == 8.0 and config.workers == 3
        assert config_from_dict({"seed": 1, "workers": None}).workers is None

    @pytest.mark.parametrize("tol", [0, 0.0, 1e-3, 2])
    def test_good_tolerance_accepted(self, tol):
        config = config_from_dict({"seed": 1, "numerics": {"tolerances": {"lower_bound": tol}}})
        assert config.tolerances == {"lower_bound": tol}

    def test_tolerance_widens_discrete_err(self):
        raw = {"seed": 1, "workers": 1, "trials": 2,
               "checks": ["covering_lemma", "discrete.sum_difference",
                          "functional_submodularity"]}
        plain = run_suite(config_from_dict(raw)).reports
        tolerances = {"covering_lemma": 5, "discrete.sum_difference": 5}
        wide = run_suite(config_from_dict({**raw, "numerics": {"tolerances": tolerances}})).reports
        assert [r.check_id for r in wide] == [r.check_id for r in plain]
        for a, b in zip(plain, wide):
            assert (b.lhs, b.rhs) == (a.lhs, a.rhs)
            assert b.err == a.err + tolerances.get(a.check_id, 0)
        # every sum_difference slack is below 5 nats, so none holds once widened
        assert {r.verdict for r in plain if r.check_id == "discrete.sum_difference"} == {"holds"}
        assert {r.verdict for r in wide
                if r.check_id == "discrete.sum_difference"} == {"inconclusive"}

    @pytest.mark.parametrize("order", [2, 64])
    def test_group_order_bounds_accepted(self, order):
        config = config_from_dict({"seed": 1, "discrete": {"group_order": order}})
        assert config.discrete_group_order == order

    @pytest.mark.parametrize("flag", [["--workers", "0"], ["--window-sigmas", "0"],
                                      ["--grid-count", "0"]])
    def test_bad_override_exits_2(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path)
        assert main(["check", "--config", cfg, *flag]) == 2
        assert "config error" in capsys.readouterr().err

    def test_all_skipped_report_exits_2(self, tmp_path, capsys):
        # Gamma(0.5) has an unbounded density, so every entry is skipped
        cfg = write_config(tmp_path, checks=["lower_bound"], trials=3, workers=1,
                           corpus=[{"kind": "gamma", "shape": 0.5, "scale": 1.0}])
        assert main(["check", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "3 skipped" in err
        assert "error: every entry was skipped" in err
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["summary"]["skipped"] == len(data["checks"]) == 3

    def test_partly_skipped_report_keeps_exit_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, checks=["lower_bound"], trials=8, workers=1,
                           corpus=[{"kind": "gamma", "shape": 0.5, "scale": 1.0},
                                   {"kind": "gaussian", "mean": 0, "variance": 1}])
        assert main(["check", "--config", cfg]) == 0
        err = capsys.readouterr().err
        assert "every entry was skipped" not in err
        summary = json.loads((tmp_path / "report.json").read_text())["summary"]
        assert 0 < summary["skipped"] < 8
        assert f"{summary['skipped']} skipped" in err

    def test_pool_timings_list_every_family(self, tmp_path, capsys):
        cfg = write_config(tmp_path, checks="all", corpus_size=8)
        assert main(["check", "--config", cfg, "--timings", "--workers", "2"]) == 0
        err = capsys.readouterr().err
        for cid in CHECKS:
            assert f"  {cid}: " in err
        assert "  total: " in err

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched class only when forked")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_grid_context_per_worker(self, tmp_path, monkeypatch, workers):
        # one context per worker, at grid_count; its coarse sibling is built inside checks
        log = tmp_path / "contexts"

        class CountedContext(suite.GridContext):
            def __init__(self, count, *args):
                super().__init__(count, *args)
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()} {count}\n")

        monkeypatch.setattr(suite, "GridContext", CountedContext)
        # 11 jobs: one lower_bound variant, four plunnecke_ruzsa variants, six laws
        config = config_from_dict({"seed": 1, "workers": workers, "corpus_size": 6,
                                   "checks": ["lower_bound", "plunnecke_ruzsa", "inverse"]})
        run_suite(config)
        built = [line.split() for line in log.read_text().splitlines()]
        pids = {pid for pid, _ in built}
        assert len(pids) == workers
        assert sorted(built) == sorted([pid, str(config.grid_count)] for pid in pids)

    def test_full_registry_reports_all_families(self, tmp_path, capsys):
        cfg = write_config(tmp_path, checks="all", corpus_size=8)
        assert main(["check", "--config", cfg]) == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert len({c["check_id"] for c in data["checks"]}) >= 13

    def test_rejected_law_becomes_skipped_entry(self, monkeypatch):
        # Gamma(0.5) has an unbounded density, which the grid pipeline rejects
        counts = _record_run_check_counts(monkeypatch)
        config = config_from_dict({
            "seed": 1, "workers": 1, "checks": ["lower_bound"], "trials": 2,
            "corpus": [{"kind": "gamma", "shape": 0.5, "scale": 1.0}]})
        reports = run_suite(config).reports
        # rejected at both counts, each trial gives one entry, not one per count
        assert [r.verdict for r in reports] == ["skipped", "skipped"]
        coarse = config.grid_count // checks.REFINE_RATIO
        assert counts == [coarse, config.grid_count] * 2
        assert all(r.note.startswith("GridError: ") for r in reports)
        # the entry names the law it rejected
        law = make_model(config.corpus[0]).to_dict()
        assert all(r.inputs == (law, law) for r in reports)

    def test_program_error_propagates(self, monkeypatch):
        def broken(ctx, models, **params):
            raise TypeError("evaluator bug")

        monkeypatch.setitem(CHECKS, "lower_bound",
                            dataclasses.replace(CHECKS["lower_bound"], evaluator=broken))
        config = config_from_dict({"seed": 1, "workers": 1, "checks": ["lower_bound"],
                                   "corpus_size": 4})
        with pytest.raises(TypeError, match="evaluator bug"):
            run_suite(config)

    def test_explicit_corpus_accepted(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            checks=["lower_bound"],
            corpus=[{"kind": "gaussian", "mean": 0, "variance": 1},
                    {"kind": "uniform", "lower": 0, "upper": 1}],
            trials=3,
        )
        assert main(["check", "--config", cfg]) == 0


def _record_run_check_counts(monkeypatch) -> list[int]:
    """Patch suite.run_check to log the grid count of each call's context."""
    counts = []
    run_check = suite.run_check

    def recorded(check, models, ctx, *args, **kwargs):
        counts.append(ctx.count)
        return run_check(check, models, ctx, *args, **kwargs)

    monkeypatch.setattr(suite, "run_check", recorded)
    return counts


class TestCoarseFirst:
    """Each grid check is decided at grid_count // REFINE_RATIO first and refined if undecided."""

    @pytest.fixture(scope="class")
    def fine_suite(self):
        """The default suite at seed 20240501 with every check run at grid_count only."""
        with pytest.MonkeyPatch.context() as mp:
            # a ratio that leaves no coarse count of at least MIN_COUNT cells
            mp.setattr(checks, "REFINE_RATIO", 1 << 14)
            return run_suite(config_from_dict({"seed": 20240501, "workers": 1}))

    def test_coarse_verdicts_and_sides_agree_with_the_fine_count(self, default_suite,
                                                                 fine_suite):
        coarse_first, _ = default_suite
        assert len(coarse_first.reports) == len(fine_suite.reports) == 686
        for a, b in zip(coarse_first.reports, fine_suite.reports):
            assert (a.check_id, a.inputs, a.params) == (b.check_id, b.inputs, b.params)
            assert (a.verdict, a.final) == (b.verdict, b.final)
            if a.verdict == "inconclusive" and not a.final:  # refined: the fine run's entry
                assert a == b
                continue
            # decided, or final, at the coarse count; 0.60 of the bound at most at this seed
            for side_a, side_b in ((a.lhs, b.lhs), (a.rhs, b.rhs)):
                assert abs(side_a - side_b) <= a.err + b.err, (a.check_id, a.params)
        # the exact equalities: 26 Gaussian epi_doubling and 12 plunnecke_ruzsa n = 1
        assert sum(r.final and r.verdict == "inconclusive" for r in coarse_first.reports) == 38

    def test_only_undecided_checks_are_refined(self, monkeypatch):
        counts = _record_run_check_counts(monkeypatch)
        config = config_from_dict({"seed": 20240501, "workers": 1, "corpus_size": 30,
                                   "checks": ["epi_doubling", "plunnecke_ruzsa"]})
        reports = run_suite(config).reports
        coarse = config.grid_count // checks.REFINE_RATIO
        calls = iter(counts)
        for r in reports:
            assert next(calls) == coarse
            if r.verdict not in ("holds", "violated") and not r.final:
                assert next(calls) == config.grid_count
        assert next(calls, None) is None
        assert {r.verdict for r in reports} == {"holds", "inconclusive"}
        # Gaussian epi_doubling and plunnecke_ruzsa n = 1 are final at the coarse count
        assert any(r.final and r.verdict == "inconclusive" for r in reports)

    @pytest.mark.parametrize("grid_count,ladder", [(512, [512]), (2048, [256, 2048])])
    def test_no_coarse_count_below_the_minimum(self, monkeypatch, grid_count, ladder):
        counts = _record_run_check_counts(monkeypatch)
        reports = run_suite(config_from_dict({
            "seed": 909, "workers": 1, "corpus_size": 12, "numerics": {"grid_count": grid_count},
            "checks": ["lower_bound", "ruzsa_triangle", "epi_doubling", "c3122"]})).reports
        assert sorted(set(counts)) == ladder
        if len(ladder) == 1:  # one call per entry: every check runs once, at grid_count
            assert len(counts) == len(reports)


class TestInverseCoarseFirst:
    """Each inverse entry is decided at grid_count // REFINE_RATIO first and refined if undecided."""

    RAW = {"seed": 20240501, "workers": 1, "corpus_size": 40, "checks": ["inverse"]}
    # a mixture with an entry that only the fine count decides
    MIXTURE = {"kind": "mixture", "weights": [0.35, 0.65],
               "components": [{"kind": "gaussian", "mean": -1.12, "variance": 2.84},
                              {"kind": "gaussian", "mean": -1.73, "variance": 3.51}]}

    @pytest.fixture
    def counts(self, monkeypatch):
        """The cell counts of the leaf grids built, one per (law, count)."""
        seen = []
        discretize = grids.discretize

        def recorded(m, window_sigmas, count, *args, **kwargs):
            seen.append(count)
            return discretize(m, window_sigmas, count, *args, **kwargs)

        monkeypatch.setattr(grids, "discretize", recorded)
        return seen

    def test_coarse_verdicts_and_sides_agree_with_the_fine_count(self, monkeypatch):
        coarse_first = run_suite(config_from_dict(self.RAW)).reports
        monkeypatch.setattr(checks, "REFINE_RATIO", 1 << 14)
        fine = run_suite(config_from_dict(self.RAW)).reports
        assert len(coarse_first) == len(fine) == 8 * 40
        refined = decided_coarse = 0
        for a, b in zip(coarse_first, fine):
            assert (a.check_id, a.inputs) == (b.check_id, b.inputs)
            assert a.verdict == b.verdict
            if a == b:  # refined: the fine run's entry
                refined += 1
                continue
            assert a.verdict in ("holds", "violated") and a.err > b.err
            decided_coarse += 1
            # 0.60 of the bound at most at this seed
            for side_a, side_b in ((a.lhs, b.lhs), (a.rhs, b.rhs)):
                assert abs(side_a - side_b) <= a.err + b.err, (a.check_id, a.inputs)
        assert refined and decided_coarse

    def test_law_decided_at_the_coarse_count_never_reaches_the_fine_count(self, counts):
        ctx = checks.GridContext()
        reports = checks.inverse_theorem_check(Exponential(1.0), ctx)
        assert {r.verdict for r in reports} == {"holds"}
        assert set(counts) == {ctx.count // checks.REFINE_RATIO}

    def test_undecided_law_is_refined(self, counts):
        ctx = checks.GridContext()
        reports = checks.inverse_theorem_check(make_model(self.MIXTURE), ctx)
        assert {r.verdict for r in reports} == {"holds"}
        assert counts == [ctx.count // checks.REFINE_RATIO, ctx.count]

    def test_poincare_constant_is_computed_once_per_law(self, monkeypatch, counts):
        calls = []
        poincare_constant = checks.poincare_constant

        def recorded(m):
            calls.append(m.content_key)
            return poincare_constant(m)

        monkeypatch.setattr(checks, "poincare_constant", recorded)
        corpus = [self.MIXTURE, {"kind": "gaussian", "mean": 0.0, "variance": 2.0},
                  {"kind": "laplace", "location": 0.5, "scale": 1.0}]
        run_suite(config_from_dict({"seed": 1, "workers": 1, "checks": ["inverse"],
                                    "corpus": corpus}))
        assert calls == [make_model(spec).content_key for spec in corpus]
        # the mixture reaches the fine count; the Laplace law is decided at the
        # coarse count, and the Gaussian law is exact there, on no grid
        assert counts.count(1 << 14) == 1


class TestBsgCommand:
    def test_single_rho_report(self, tmp_path, capsys):
        out = tmp_path / "bsg.json"
        assert main(["bsg", "--rho", "0", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["scenarios"][0]["log_k"] == pytest.approx(
            0.5 * math.log(2), abs=1e-12)

    def test_sweep_has_39_scenarios_all_holding(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(["bsg", "--sweep=-0.95:0.95:0.05", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["scenarios"]) == 39
        worst = min(min(s["conclusion_a"][2], s["conclusion_b"][2], s["conclusion_c"][2],
                        s["mi_sum_bound"][2]) for s in data["scenarios"])
        assert worst >= -1e-9

    def test_violated_mi_sum_bound_exits_1(self, tmp_path, monkeypatch, capsys):
        # conclusions a-c hold; only the 16 log K bound is broken
        def broken(rho):
            r = run_bsg_scenario(rho)
            mi_sum, _, _ = r.mi_sum_bound
            return dataclasses.replace(r, mi_sum_bound=(mi_sum, mi_sum - 0.5, -0.5))

        monkeypatch.setattr(cli, "run_bsg_scenario", broken)
        assert main(["bsg", "--rho", "0.3", "--out", str(tmp_path / "bsg.json")]) == 1
        assert "worst conclusion slack: -5.000e-01" in capsys.readouterr().err

    def test_out_of_range_rho_exits_2(self, capsys):
        assert main(["bsg", "--rho", "1.0"]) == 2

    def test_sweep_stops_at_the_last_step_below_hi(self, tmp_path, capsys):
        # 1.8 / 0.7 is 2.57 steps: three points, none past hi
        out = tmp_path / "sweep.json"
        assert main(["bsg", "--sweep=-0.9:0.9:0.7", "--out", str(out)]) == 0
        rhos = [s["rho"] for s in json.loads(out.read_text())["scenarios"]]
        assert rhos == pytest.approx([-0.9, -0.2, 0.5], abs=1e-12)

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "missing_dir" / "bsg.json")
        assert main(["bsg", "--rho", "0", "--out", path]) == 2
        assert f"error: cannot write {path}" in capsys.readouterr().err


class TestDiscreteCommand:
    def test_runs_clean(self, tmp_path, capsys):
        out = tmp_path / "disc.json"
        assert main(["discrete", "--seed", "3", "--group-order", "5",
                     "--trials", "10", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["summary"]["violated"] == 0

    def test_report_lists_checks_in_registry_order(self, tmp_path, capsys):
        out = tmp_path / "disc.json"
        assert main(["discrete", "--seed", "3", "--group-order", "3",
                     "--trials", "1", "--out", str(out)]) == 0
        ids = [c["check_id"] for c in json.loads(out.read_text())["checks"]]
        assert ids == ["covering_lemma", "functional_submodularity"] + [
            f"discrete.{c}" for c in (
                "lower_bound", "sum_upper", "ruzsa_triangle", "triangle_metric",
                "csumdiff", "c3122", "doubling_difference", "sigma_delta",
                "sum_difference", "sum_difference_mi", "plunnecke_ruzsa",
                "four_variable", "iterated_sum")]

    @pytest.mark.parametrize("order", ["1", "65"])
    def test_bad_group_order_exits_2(self, capsys, order):
        assert main(["discrete", "--seed", "3", "--group-order", order]) == 2
        assert "discrete.group_order" in capsys.readouterr().err


class TestInverseCommand:
    def test_runs_on_small_corpus(self, tmp_path, capsys):
        cfg = write_config(tmp_path, corpus_size=6, checks="all")
        out = tmp_path / "inv.json"
        assert main(["inverse", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        ids = {c["check_id"] for c in data["checks"]}
        assert "inverse_pinsker" in ids and "inverse_fgr_sigma" in ids
        assert data["summary"]["violated"] == 0


class TestInverseSuiteFamily:
    """`entrolab inverse` is a suite run of the `inverse` family."""

    def inverse_config(self, tmp_path, **overrides):
        return write_config(tmp_path, corpus_size=4, workers=1, **overrides)

    def test_config_output_section_is_honoured(self, tmp_path, capsys):
        out = tmp_path / "inverse.csv"
        cfg = self.inverse_config(tmp_path, output={"path": str(out), "format": "csv"})
        assert main(["inverse", "--config", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["check_id", "kind", "params", "lhs"]
        assert len(lines) == 1 + 8 * 4
        assert all(line.startswith("inverse_") for line in lines[1:])
        assert not (tmp_path / "report.json").exists()

    def test_seed_flag_overrides_config_and_echo_names_the_family(self, tmp_path, capsys):
        cfg = self.inverse_config(tmp_path)
        assert main(["inverse", "--config", cfg, "--seed", "3"]) == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["config"]["seed"] == 3
        assert data["config"]["checks"] == ["inverse"]
        laws = [m.to_dict() for m in config_from_dict({"seed": 3, "corpus_size": 4})
                .corpus_models()]
        assert [c["inputs"][0] for c in data["checks"][::8]] == json.loads(json.dumps(laws))

    def test_tolerance_widens_every_inverse_err(self):
        # at 1024 cells there is no coarse rung, so a wider err cannot change
        # the count an entry is decided at, and lhs and rhs stay put
        raw = {"seed": 5, "workers": 1, "corpus_size": 4, "checks": ["inverse"],
               "numerics": {"grid_count": 1024}}
        plain = run_suite(config_from_dict(raw)).reports
        wide = run_suite(config_from_dict(
            {**raw, "numerics": {"grid_count": 1024, "tolerances": {"inverse": 0.25}}})).reports
        assert len(plain) == len(wide) == 8 * 4
        for a, b in zip(plain, wide):
            assert (a.check_id, a.lhs, a.rhs) == (b.check_id, b.lhs, b.rhs)
            if a.verdict != "skipped":
                assert b.err == a.err + 0.25

    def test_check_with_inverse_family_matches_inverse_command(self, tmp_path, capsys):
        cfg = self.inverse_config(tmp_path, checks=["inverse"])
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "check.json")]) == 0
        assert main(["inverse", "--config", cfg, "--out", str(tmp_path / "inv.json")]) == 0
        check = json.loads((tmp_path / "check.json").read_text())
        inverse = json.loads((tmp_path / "inv.json").read_text())
        assert check["checks"] == inverse["checks"]
        assert len(check["checks"]) == 8 * 4

    def test_rejected_law_gives_eight_skipped_entries(self, tmp_path, capsys):
        # Gamma(0.5) has an unbounded density, which the grid pipeline rejects
        gamma = {"kind": "gamma", "shape": 0.5, "scale": 1.0}
        cfg = self.inverse_config(tmp_path, corpus=[
            gamma, {"kind": "gaussian", "mean": 0.0, "variance": 1.0}])
        assert main(["inverse", "--config", cfg]) == 0
        assert "8 skipped" in capsys.readouterr().err
        entries = json.loads((tmp_path / "report.json").read_text())["checks"]
        rejected, gaussian = entries[:8], entries[8:]
        assert [e["check_id"] for e in rejected] == [e["check_id"] for e in gaussian] \
            == list(INVERSE_CHECK_IDS)
        assert all(e["verdict"] == "skipped" for e in rejected)
        assert all(e["note"].startswith("GridError: ") for e in rejected)
        assert all(e["inputs"] == [gamma] for e in rejected)
        assert not any(e["verdict"] == "skipped" for e in gaussian)

    def test_pool_report_equals_serial_report(self, tmp_path, capsys):
        reports = []
        for workers in (1, 2):
            out = tmp_path / f"inv{workers}.json"
            path = write_config(tmp_path, name=f"cfg{workers}.json", corpus_size=4,
                                workers=workers)
            assert main(["inverse", "--config", path, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


def _stdlib_json(d) -> str:
    return json.dumps(d, indent=2, sort_keys=True, allow_nan=False) + "\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


class TestReportWriter:
    """serialize_report writes what json.dumps(indent=2, sort_keys=True) writes, byte for byte."""

    @pytest.mark.parametrize("raw", [
        *({"seed": seed, "workers": 1} for seed in (20240501, 909, 7, 301)),
        {"seed": 20240501, "workers": 1, "checks": ["inverse"]},
        {"seed": 3, "workers": 1, "checks": ["covering_lemma", "functional_submodularity",
                                              *suite._DISCRETE_PREFIXED]},
    ], ids=["suite-20240501", "suite-909", "suite-7", "suite-301", "inverse", "discrete"])
    def test_reports(self, raw):
        report = run_suite(config_from_dict(raw))
        assert suite.serialize_report(report) == _stdlib_json(report.to_dict())

    def test_skipped_entries_write_null(self):
        law = Gamma(0.5, 1.0).to_dict()
        report = suite.SuiteReport(config={"seed": 1}, timings={}, reports=[
            *(skipped(cid, "GridError: unbounded", inputs=(law,)) for cid in INVERSE_CHECK_IDS),
            skipped("c3122", "no law", params={"n": 2})])
        text = suite.serialize_report(report)
        assert text == _stdlib_json(report.to_dict())
        assert json.loads(text)["checks"][0]["lhs"] is None

    @settings(max_examples=200, deadline=None)
    @given(value=_JSON_VALUES)
    def test_any_json_value(self, value):
        assert suite._json(value) + "\n" == _stdlib_json(value)

    @settings(max_examples=50, deadline=None)
    @given(notes=st.lists(st.text(), min_size=1, max_size=5),
           params=st.dictionaries(st.text(), _JSON_VALUES, max_size=3),
           config=st.dictionaries(st.text(), _JSON_VALUES, max_size=3))
    def test_reports_with_any_notes_and_params(self, notes, params, config):
        law = {"kind": "uniform", "lower": 0.0, "upper": 1.0, "note": "é≤∞  "}
        reports = [make_report("c3122", 0.25, 1.5, 1e-3, params=params, inputs=(law, law),
                               note=note) for note in notes]
        report = suite.SuiteReport(config=config, reports=reports, timings={})
        assert suite.serialize_report(report) == _stdlib_json(report.to_dict())

    def test_non_finite_floats_are_rejected(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            suite._json({"x": [1.0, math.inf]})
