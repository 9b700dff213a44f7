"""The two workloads: how each builds its inputs, runs one round, and is checked.

A workload's ``setup`` is what a user pays before the work starts (config
and corpus); ``run_round`` is the timed section; ``check`` turns one
round's output into operations, each passed or failed, using the
closed forms in ``verify``.  Every round of a workload performs the same
operations, so the share of failed operations does not depend on how many
rounds a run manages.

How long a round takes depends on its inputs (which laws a trial draws
sets the grid sizes), so a run sets up ``input_sets`` input sets from
successive seeds and its rounds take them in turn: a run's timing then
stands for several draws, not one.

entrolab is reached through module attributes (``suite.run_suite``, not a
name imported by value) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import verify

DEFAULT_SEED = 20240501
# The inverse corpus keeps the family mix of the default corpus at the
# default seed, whatever the seed, so every run checks the same number of
# closed forms.  Its Uniform laws are always those of the default seed: each
# one fails the divergence check through a known fault in the program, and
# inputs that fail must not depend on the seed.
INVERSE_TEMPLATE_SEED = DEFAULT_SEED
CORPUS_SIZE = 100
RHOS = tuple((i - 95) / 100.0 for i in range(191))  # -0.95 .. 0.95, step 0.01
KNN_N = 10 ** 5
BUNDLE = 8  # reports inverse_theorem_check emits per law
KNN_K = 5
# the 15 ids `entrolab discrete` runs, in its order
DISCRETE_IDS = ("covering_lemma", "functional_submodularity") + tuple(
    f"discrete.{c}" for c in (
        "lower_bound", "sum_upper", "ruzsa_triangle", "triangle_metric", "csumdiff",
        "c3122", "doubling_difference", "sigma_delta", "sum_difference",
        "sum_difference_mi", "plunnecke_ruzsa", "four_variable", "iterated_sum"))
DISCRETE_GROUP_ORDER = 6
DISCRETE_TRIALS = 100


def input_seeds(seed: int, count: int) -> list[int]:
    """Seeds of a run's input sets: the run's seed, then the ones after it."""
    return [seed + i for i in range(count)]


@dataclass
class Output:
    text: str  # canonical serialized output; identical across rounds
    holds: int
    report_bytes: int  # size of the serialized entrolab report


def _holds(report: dict) -> int:
    return sum(e["verdict"] == "holds" for e in report["checks"])


class SuiteWorkload:
    """The default suite (`entrolab check`) in one process, one shared GridContext."""

    name = "suite-serial"
    why = ("default suite in one process, one shared GridContext; "
           "grids.convolve and iterated_sum dominate")
    input_sets = 4  # a run has a warm-up and two to four timed rounds

    def setup(self, el, seed: int):
        config = el.suite.config_from_dict({"seed": seed, "workers": 1})
        config.corpus_models()  # drawn here as `entrolab check` pays for it; run_suite redraws
        return config

    def run_round(self, el, config) -> str:
        return el.suite.serialize_report(el.suite.run_suite(config))

    def check(self, config, text: str) -> tuple[Output, list[verify.Op]]:
        report = json.loads(text)
        return (Output(text, _holds(report), len(text.encode())),
                verify.check_suite_report(report, config.corpus_size))


class InverseWorkload:
    """`entrolab inverse`: the inverse-theorem bundle over a corpus, one context."""

    def setup(self, el, seed: int):
        config = el.suite.config_from_dict({"seed": seed})
        return config, inverse_corpus(el, seed)

    def run_round(self, el, inputs) -> str:
        config, models = inputs
        ctx = el.checks.GridContext(config.grid_count, config.window_sigmas)
        reports = []
        for m in models:
            reports.extend(el.checks.inverse_theorem_check(m, ctx))
        return el.suite.serialize_report(
            el.suite.SuiteReport(config=config.echo(), reports=reports, timings={}))

    def check(self, inputs, text: str) -> tuple[Output, list[verify.Op]]:
        report = json.loads(text)
        entries = report["checks"]
        models = json.loads(json.dumps([m.to_dict() for m in inputs[1]]))
        ops = [verify.Op("inverse:count", len(entries) == BUNDLE * len(models),
                         f"{len(entries)} reports, expected {BUNDLE * len(models)}")]
        for i, model in enumerate(models):
            bundle = entries[BUNDLE * i: BUNDLE * (i + 1)]
            ops.append(verify.Op("inverse:inputs", all(e["inputs"] == [model] for e in bundle),
                                 f"reports {BUNDLE * i}..{BUNDLE * (i + 1) - 1} are not "
                                 f"about law {i}"))
            ops.extend(verify.check_inverse_law(model, bundle))
        return Output(text, _holds(report), len(text.encode())), ops


def inverse_corpus(el, seed: int) -> list:
    """Laws drawn by the default corpus generator, in the template's family mix.

    Position i holds the next new draw of the template's i-th family, taken
    from ``default_corpus(seed, n)`` for n = 100, 200, 400, ... until every
    family is filled (longer draws can repeat laws of shorter ones; repeats
    are skipped).  Uniform positions keep the template's law.  At the
    default seed this is exactly the default corpus.
    """
    template = el.checks.default_corpus(INVERSE_TEMPLATE_SEED, CORPUS_SIZE)
    kinds = [m.to_dict()["kind"] for m in template]
    need = {k: kinds.count(k) for k in set(kinds) if k != "uniform"}
    draws: dict[str, list] = {k: [] for k in need}
    seen: set[str] = set()
    size = CORPUS_SIZE
    while any(len(draws[k]) < n for k, n in need.items()):
        for m in el.checks.default_corpus(seed, size):
            spec = m.to_dict()
            key = json.dumps(spec, sort_keys=True)
            if spec["kind"] in draws and key not in seen:
                seen.add(key)
                draws[spec["kind"]].append(m)
        size *= 2
    return [m if kind == "uniform" else draws[kind].pop(0)
            for kind, m in zip(kinds, template)]


@dataclass
class ExactInputs:
    config: object
    knn_terms: list
    knn_seeds: list[int]


class ExactWorkload:
    """Everything that never touches a grid: discrete registry, Gaussian sweep, kNN."""

    def setup(self, el, seed: int):
        config = el.suite.config_from_dict({
            "seed": seed, "checks": list(DISCRETE_IDS), "workers": 1,
            "discrete": {"group_order": DISCRETE_GROUP_ORDER, "trials": DISCRETE_TRIALS}})
        terms = [[(s, el.distributions.make_model(spec)) for s, spec in golden[1]]
                 for golden in verify.KNN_GOLDENS]
        seeds = [seed * 8 + i for i in range(len(terms))]
        return ExactInputs(config, terms, seeds)

    def run_round(self, el, inputs: ExactInputs):
        discrete = el.suite.serialize_report(el.suite.run_suite(inputs.config))
        scenarios = [el.gaussians.run_bsg_scenario(r).to_dict() for r in RHOS]
        weak = [el.gaussians.run_weak_bsg_scenario(r).to_dict() for r in RHOS]
        knn = [el.estimators.estimate_functional(t, KNN_N, KNN_K, s)
               for t, s in zip(inputs.knn_terms, inputs.knn_seeds)]
        return discrete, scenarios, weak, knn

    def check(self, inputs: ExactInputs, result) -> tuple[Output, list[verify.Op]]:
        discrete_text, scenarios, weak, knn = result
        report = json.loads(discrete_text)
        ops = verify.check_discrete_report(report, len(DISCRETE_IDS) * DISCRETE_TRIALS)
        for scenario, w in zip(scenarios, weak):
            ops.extend(verify.check_bsg(scenario, w))
        zero = scenarios[RHOS.index(0.0)]
        half_ln2 = 0.5 * verify.LN2
        ops.append(verify.Op("bsg:log_k_at_zero", abs(zero["log_k"] - half_ln2) <= 1e-12,
                             f"log K at rho=0 is {zero['log_k']!r}, not 1/2 log 2"))
        for (label, _, target), est in zip(verify.KNN_GOLDENS, knn):
            ops.append(verify.check_knn(label, est.value, est.stderr, target))
        text = json.dumps({"discrete": discrete_text, "bsg": scenarios, "weak": weak,
                           "knn": [[e.value, e.stderr] for e in knn]}, sort_keys=True)
        holds = _holds(report) + sum(w["verdict"] == "holds" for w in weak)
        return Output(text, holds, len(discrete_text.encode())), ops


class OracleWorkload:
    """The inverse-theorem bundle and the exact oracles, one after the other.

    Neither runs a sum of more than two terms, so deep-sum grid work should
    not move this workload, while ``poincare``, ``discrete``, ``gaussians``
    and ``estimators`` are only reached here.
    """

    name = "inverse-exact"
    why = ("inverse bundle (two-term sums, quadrature, Poincare eigensolve) and the exact "
           "oracles (discrete registry, Gaussian sweep, kNN); no deep grid sums")
    parts = (InverseWorkload(), ExactWorkload())
    input_sets = 6  # a run has about twenty rounds

    def setup(self, el, seed: int):
        return tuple(part.setup(el, seed) for part in self.parts)

    def run_round(self, el, inputs):
        return tuple(part.run_round(el, i) for part, i in zip(self.parts, inputs))

    def check(self, inputs, result) -> tuple[Output, list[verify.Op]]:
        outputs, ops = [], []
        for part, i, r in zip(self.parts, inputs, result):
            output, part_ops = part.check(i, r)
            outputs.append(output)
            ops.extend(part_ops)
        return Output(json.dumps([o.text for o in outputs]), sum(o.holds for o in outputs),
                      sum(o.report_bytes for o in outputs)), ops


WORKLOADS = {w.name: w for w in (SuiteWorkload(), OracleWorkload())}
