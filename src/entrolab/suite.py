"""Suite configuration, orchestration and machine-readable reporting.

A suite run draws a seeded corpus, executes the selected check families
(optionally split over a process pool in fixed strides, one GridContext per
process), and assembles a deterministic report: rerunning with the same
config and seed reproduces the serialized report byte for byte.  Per-family
wall-clock timings are collected for the console summary but kept out of
the serialized report to preserve that guarantee.

A family is a grid check of the registry, an exact group check, or
``inverse``, the inverse-theorem bundle run once per corpus law; its
entries follow the order of the config's ``checks``.  Each trial of a grid
check and each law's inverse bundle is decided coarse first
(``checks.decide``): on the context's coarse sibling of
``grid_count // checks.REFINE_RATIO`` cells, and again at ``grid_count``
only when an entry is inconclusive or skipped there and not final (an exact
equality, which no count decides).  Each entry reports the count that
decided it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import __version__
from .checks import CHECKS, GridContext, decide, default_corpus, inverse_theorem_check, run_check
from .discrete import (
    DISCRETE_CHECK_IDS,
    GROUP_CHECKS,
    MAX_ORDER,
    check_covering_lemma,
    check_discrete_registry,  # not called here; looked up here by name like the others
    check_functional_submodularity,
    DiscreteJoint,
    DiscretePmf,
    registry_reports,
    row_laws,
)
from .distributions import DensityModel, ModelError, is_finite_number, make_model
from .grids import MAX_COUNT, MIN_COUNT
from .report import InequalityReport, skipped

__all__ = ["ConfigError", "SuiteConfig", "SuiteReport", "load_config", "run_suite",
           "serialize_report"]

SCHEMA_VERSION = 1

_DISCRETE_PREFIXED = tuple(f"discrete.{cid}" for cid in DISCRETE_CHECK_IDS)
# appended last: a discrete job's draws are salted by its id's index here
VALID_CHECK_IDS = tuple(sorted(CHECKS)) + ("covering_lemma", "functional_submodularity") \
    + _DISCRETE_PREFIXED + ("inverse",)


class ConfigError(ValueError):
    """Unusable suite configuration."""


@dataclass(frozen=True)
class SuiteConfig:
    seed: int
    grid_count: int = 1 << 14
    window_sigmas: float = 12.0
    tolerances: dict = field(default_factory=dict)
    corpus: object = "default-corpus"  # or list of model spec dicts
    corpus_size: int = 100
    checks: object = "all"  # or list of check ids
    trials: int | None = None
    discrete_group_order: int = 6
    discrete_trials: int = 100
    output_path: str | None = None
    output_format: str = "json"
    workers: int | None = None

    def selected_checks(self) -> list[str]:
        if self.checks == "all":
            return sorted(CHECKS)
        return list(self.checks)

    def corpus_models(self) -> list[DensityModel]:
        if self.corpus == "default-corpus":
            return default_corpus(self.seed, self.corpus_size)
        return [make_model(spec) for spec in self.corpus]

    def echo(self) -> dict:
        return {
            "seed": self.seed,
            "numerics": {
                "grid_count": self.grid_count,
                "window_sigmas": self.window_sigmas,
                "tolerances": dict(self.tolerances),
            },
            "corpus": self.corpus if self.corpus == "default-corpus"
            else list(self.corpus),
            "corpus_size": self.corpus_size,
            "checks": self.checks if self.checks == "all" else list(self.checks),
            "trials": self.trials,
            "discrete": {
                "group_order": self.discrete_group_order,
                "trials": self.discrete_trials,
            },
        }


def load_config(path: str) -> SuiteConfig:
    """Parse and validate a JSON suite configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return config_from_dict(raw)


def _int_field(value, name: str, low: int = 1, high: int | None = None) -> int:
    """A JSON integer in [low, high]; booleans, floats and strings are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{name}' must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"'{name}' must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"'{name}' must be at most {high}, got {value}")
    return value


def grid_count_field(value, name: str) -> int:
    """A grid cell count: a power of two in [MIN_COUNT, MAX_COUNT]."""
    count = _int_field(value, name)
    if not MIN_COUNT <= count <= MAX_COUNT or count & (count - 1):
        raise ConfigError(f"'{name}' must be a power of two in "
                          f"[{MIN_COUNT}, {MAX_COUNT}], got {count}")
    return count


def window_sigmas_field(value, name: str) -> float:
    """A discretization window half-width in standard deviations: a positive finite number."""
    if not is_finite_number(value) or value <= 0:
        raise ConfigError(f"'{name}' must be a positive finite number, got {value!r}")
    return float(value)


def _tolerances_field(value) -> dict:
    """Per-check err allowances: known check ids mapped to finite numbers >= 0.

    An allowance widens a verdict's error band, so a negative one would
    shrink err below the numerical error it bounds.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"'numerics.tolerances' must be a JSON object, got {value!r}")
    for cid, tol in value.items():
        if cid not in VALID_CHECK_IDS:
            raise ConfigError(f"tolerance override for unknown check id '{cid}'")
        if not is_finite_number(tol) or tol < 0:
            raise ConfigError(f"'numerics.tolerances.{cid}' must be a finite number "
                              f">= 0, got {tol!r}")
    return dict(value)


def _known(value: dict, keys: tuple[str, ...], where: str) -> dict:
    """value, unless it has a key outside keys: a misspelled or misplaced key is an error."""
    unknown = [k for k in value if k not in keys]
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    return value


def _section(raw: dict, key: str, keys: tuple[str, ...]) -> dict:
    """An optional JSON object field of the config with the given keys; absent means empty."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"'{key}' must be a JSON object, got {value!r}")
    return _known(value, keys, f"'{key}'")


def config_from_dict(raw: dict) -> SuiteConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _known(raw, ("seed", "numerics", "corpus", "corpus_size", "checks", "trials", "discrete",
                 "output", "workers"), "the config")
    if "seed" not in raw:
        raise ConfigError("config requires a 'seed' field")
    seed = _int_field(raw["seed"], "seed", low=0)

    numerics = _section(raw, "numerics", ("grid_count", "window_sigmas", "tolerances"))
    grid_count = grid_count_field(numerics.get("grid_count", 1 << 14), "numerics.grid_count")
    window_sigmas = window_sigmas_field(numerics.get("window_sigmas", 12.0),
                                        "numerics.window_sigmas")
    tolerances = _tolerances_field(numerics.get("tolerances", {}))

    checks = raw.get("checks", "all")
    if checks != "all":
        if not isinstance(checks, list) or not checks:
            raise ConfigError("'checks' must be \"all\" or a nonempty list of ids")
        unknown = [c for c in checks if c not in VALID_CHECK_IDS]
        if unknown:
            raise ConfigError(f"unknown check ids: {unknown}")

    corpus = raw.get("corpus", "default-corpus")
    if corpus != "default-corpus":
        if not isinstance(corpus, list) or not corpus:
            raise ConfigError("'corpus' must be \"default-corpus\" or a list of model specs")
        try:
            for spec in corpus:
                make_model(spec)
        except ModelError as e:
            raise ConfigError(f"bad corpus model spec: {e}") from e

    discrete = _section(raw, "discrete", ("group_order", "trials"))
    output = _section(raw, "output", ("path", "format"))
    fmt = output.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"output format must be json or csv, got '{fmt}'")
    path = output.get("path")
    if path is not None and not (isinstance(path, str) and path):
        raise ConfigError(f"'output.path' must be a nonempty string or null, got {path!r}")

    trials = raw.get("trials")
    if trials is not None:
        trials = _int_field(trials, "trials")

    return SuiteConfig(
        seed=seed,
        grid_count=grid_count,
        window_sigmas=window_sigmas,
        tolerances=tolerances,
        corpus=corpus,
        corpus_size=_int_field(raw.get("corpus_size", 100), "corpus_size"),
        checks=checks,
        trials=trials,
        discrete_group_order=_int_field(discrete.get("group_order", 6), "discrete.group_order",
                                        low=2, high=MAX_ORDER),
        discrete_trials=_int_field(discrete.get("trials", 100), "discrete.trials"),
        output_path=path,
        output_format=fmt,
        workers=None if raw.get("workers") is None else _int_field(raw["workers"], "workers"),
    )


@dataclass
class SuiteReport:
    config: dict
    reports: list[InequalityReport]
    timings: dict[str, float]  # seconds per check family; console only

    def summary(self) -> dict:
        counts = {"holds": 0, "violated": 0, "inconclusive": 0, "skipped": 0}
        for r in self.reports:
            counts[r.verdict] += 1
        return counts

    def violated(self) -> int:
        return self.summary()["violated"]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": "entrolab",
            "version": __version__,
            "config": self.config,
            "checks": [r.to_dict() for r in self.reports],
            "summary": self.summary(),
        }


# ---------------------------------------------------------------------------
# job execution


def _trial_rng(seed: int, family_index: int, variant_index: int, salt: int = 0):
    return np.random.default_rng(
        np.random.SeedSequence([seed, family_index, variant_index, salt])
    )


def _run_jobs(jobs, grid) -> list[tuple[list[InequalityReport], float]]:
    """Run (job, args) pairs in order on one context: (reports, seconds) per job.

    The context is GridContext(*grid) for grid = (count, window_sigmas);
    every job shares it and its coarse sibling.
    """
    ctx = GridContext(*grid)
    out = []
    for job, args in jobs:
        t0 = time.perf_counter()
        out.append((job(args, ctx), time.perf_counter() - t0))
    return out


def _continuous_job(args, ctx) -> list[InequalityReport]:
    """Trials of one grid check variant; each trial reports the first rung that decides it."""
    config, check_id, variant_index, models = args
    check = CHECKS[check_id]
    params = check.variants[variant_index]
    extra = float(config.tolerances.get(check_id, 0.0))
    arity = check.arity_for(params)
    n_trials = config.trials or max(1, len(models) // (arity * len(check.variants)))
    rng = _trial_rng(config.seed, sorted(CHECKS).index(check_id), variant_index)
    out = []
    for trial in range(n_trials):
        picks = [models[int(i)] for i in rng.integers(0, len(models), arity)]
        out += decide(ctx, lambda rung: [run_check(check, picks, rung, dict(params),
                                                   extra_err=extra)],
                      lambda note: [skipped(check_id, note, dict(params),
                                            tuple(m.echo for m in picks))])
    return out


def _inverse_job(args, ctx) -> list[InequalityReport]:
    """The inverse bundle of one law, decided coarse first; a rejected law skips all of it."""
    config, m = args
    return inverse_theorem_check(m, ctx, float(config.tolerances.get("inverse", 0.0)))


def _discrete_job(args, ctx) -> list[InequalityReport]:
    """Trials of one exact group check; the context is unused, as groups need no grid."""
    config, check_id = args
    rng = _trial_rng(config.seed, 1000, 0, salt=VALID_CHECK_IDS.index(check_id))
    order = config.discrete_group_order
    extra = float(config.tolerances.get(check_id, 0.0))
    n_trials = config.trials or config.discrete_trials
    if check_id == "covering_lemma":  # one draw gives each trial's floats, as below
        return [check_covering_lemma(DiscretePmf(order, p), DiscretePmf(order, q), extra)
                for p, q in rng.dirichlet(np.ones(order), size=(n_trials, 2))]
    if check_id == "functional_submodularity":
        return [_random_submodularity(rng, order, extra) for _ in range(n_trials)]
    check = GROUP_CHECKS[check_id.removeprefix("discrete.")]
    arity, ones = [check.arity_for(params) for params in check.variants], np.ones(order)
    if len(arity) == 1:
        # no variant is drawn, so one draw for all trials gives each trial's floats
        trials = [(0, p) for p in rng.dirichlet(ones, size=(n_trials, arity[0]))]
    else:  # the generator draws each trial's variant just before its pmfs
        trials = [(vi, rng.dirichlet(ones, size=arity[vi]))
                  for vi in (int(rng.integers(len(arity))) for _ in range(n_trials))]
    stacks = {}  # one stacked call per variant, read back in trial order
    for vi in dict.fromkeys(vi for vi, _ in trials):
        laws = row_laws(np.array([p for v, p in trials if v == vi]))
        stacks[vi] = iter(registry_reports(check.id, laws, check.variants[vi], extra))
    return [next(stacks[vi]) for vi, _ in trials]


def _random_submodularity(rng, order: int, extra_err: float) -> InequalityReport:
    n_out = max(2, order // 2)
    while True:
        f_map = rng.integers(0, n_out, order)
        g_map = rng.integers(0, n_out, order)
        table = rng.random((order, order)) * (f_map[:, None] == g_map[None, :])
        total = table.sum()
        if total > 0.0:
            break
    joint = DiscreteJoint((order, order), table / total)
    r_map = rng.integers(0, order, (order, order))
    return check_functional_submodularity(joint, f_map, g_map, r_map, extra_err)


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute every selected check and assemble the deterministic report."""
    selected = config.selected_checks()  # the corpus is drawn only where a check reads it
    models = config.corpus_models() if {*CHECKS, "inverse"}.intersection(selected) else []
    jobs = []
    for cid in selected:
        if cid in CHECKS:
            jobs += [(cid, _continuous_job, (config, cid, vi, models))
                     for vi in range(len(CHECKS[cid].variants))]
        elif cid == "inverse":
            jobs += [(cid, _inverse_job, (config, m)) for m in models]
        else:
            jobs.append((cid, _discrete_job, (config, cid)))
    grid = (config.grid_count, config.window_sigmas)
    work = [(fn, args) for _, fn, args in jobs]
    workers = min(config.workers or os.cpu_count() or 1, len(jobs))

    t0 = time.perf_counter()
    if workers > 1:
        # imported here, so that a serial run does not load the process pool
        from concurrent.futures import ProcessPoolExecutor

        # worker i runs jobs i, i + w, i + 2w, ... on its own GridContext, so
        # each worker's work is fixed by the config and the worker count
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = pool.map(_run_jobs, [work[i::workers] for i in range(workers)],
                              [grid] * workers)
            results = [None] * len(jobs)
            for i, share in enumerate(shares):
                results[i::workers] = share
    else:
        results = _run_jobs(work, grid)
    reports: list[InequalityReport] = []
    timings: dict[str, float] = {}
    for (cid, _, _), (res, dt) in zip(jobs, results):
        reports.extend(res)
        timings[cid] = timings.get(cid, 0.0) + dt
    timings["total"] = time.perf_counter() - t0

    return SuiteReport(config=config.echo(), reports=reports, timings=timings)


# ---------------------------------------------------------------------------
# serialization


def serialize_report(report: SuiteReport, fmt: str = "json") -> str:
    if fmt == "json":
        return _report_json(report.to_dict())
    if fmt == "csv":
        return _to_csv(report)
    raise ConfigError(f"unknown report format '{fmt}'")


def _members(texts: list[str], pad: str, ends: str = "[]") -> str:
    """An array, or with ends "{}" an object, of member texts at indent ``pad``."""
    inner = pad + "  "
    return ends[0] + "\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + ends[1] \
        if texts else ends


def _json(value, pad: str = "") -> str:
    """A JSON value with string keys, written at indent ``pad``."""
    kind = type(value)
    if kind not in _KINDS:  # a subclass, as a numpy float, is written as its base
        kind = next((t for t in _KINDS if isinstance(value, t)), None)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        return _members([_json_str(k) + ": " + _json(v, pad + "  ")
                         for k, v in sorted(value.items())], pad, "{}")
    if kind is list or kind is tuple:
        try:  # a list of floats, as a law's probabilities, in one join; inf and nan hold an "n"
            floats = (",\n  " + pad).join(map(float.__repr__, value))
        except TypeError:
            floats = "n"
        return "[\n  " + pad + floats + "\n" + pad + "]" if value and "n" not in floats \
            else _members([_json(v, pad + "  ") for v in value], pad)
    return json.dumps(value, allow_nan=False)  # a bool, None, or an error


# the kinds _json writes itself, bool first: it is an int that JSON writes as true or false
_KINDS = (bool, float, str, int, dict, list, tuple)


def _report_json(d: dict) -> str:
    """json.dumps(d, indent=2, sort_keys=True, allow_nan=False) + "\n" byte for byte, without
    its pure-Python encoder: entries joined once, each input dict object written once."""
    laws: dict[int, str] = {}  # by id, as d keeps them alive; an inverse bundle shares one

    def law(x: dict) -> str:
        if id(x) not in laws:
            laws[id(x)] = _json(x, 8 * " ")
        return laws[id(x)]

    out = []
    for key, value in sorted(d.items()):
        out += [",\n  " if out else "{\n  ", _json_str(key), ": "]
        if key != "checks" or not value:
            out.append(_json(value, "  "))
            continue
        for i, e in enumerate(value):
            out += [",\n    " if i else "[\n    ", _members([_json_str(k) + ": " + (
                _members([law(x) for x in v], 6 * " ") if k == "inputs" else _json(v, 6 * " "))
                for k, v in sorted(e.items())], 4 * " ", "{}")]
        out.append("\n  ]")
    out.append("\n}\n")
    return "".join(out)


_CSV_COLUMNS = ("check_id", "kind", "params", "lhs", "rhs", "slack", "err",
                "verdict", "note", "inputs")


def _to_csv(report: SuiteReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    def num(x):
        return "" if x is None else repr(x)

    for r in report.reports:
        d = r.to_dict()
        writer.writerow([
            d["check_id"], d["kind"],
            json.dumps(d["params"], sort_keys=True),
            num(d["lhs"]), num(d["rhs"]), num(d["slack"]), num(d["err"]),
            d["verdict"], d.get("note", ""),
            json.dumps(d["inputs"], sort_keys=True),
        ])
    return buf.getvalue()

