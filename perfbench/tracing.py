"""Span tracing of entrolab's public functions, installed from outside.

The tracer replaces module attributes with wrappers that record one span
per call: a name, a start, an end, the span that was open when the call was
made, and a few counts taken at the same boundary (for example the cells of
a convolution).  Spans are kept in memory until taken.

A wrapper only sees calls that look the name up where it was replaced, so
names that entrolab imports by value are replaced in each importing module
too (``checks.poincare_constant``, ``suite.run_check`` and the three
discrete checks in ``suite``).
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import verify

FAMILY_IDS = tuple(sorted(verify.FAMILIES))


def _targets(entrolab_modules):
    """(objects holding the name, attribute, span name, label fn, attrs fn)."""
    grids, checks, poincare, discrete, gaussians, estimators, suite = entrolab_modules

    def cells(args, kwargs, out):
        return {"cells": out.spec.count}

    def family(args, kwargs):
        check = args[0] if args else kwargs["check"]
        return f"checks.family.{check.id}"

    return [
        ((grids,), "convolve", "grids.convolve", None, cells),
        ((grids,), "resample", "grids.resample", None, None),
        ((grids,), "discretize", "grids.discretize", None, None),
        ((grids,), "entropy", "grids.entropy", None, None),
        ((grids,), "kl_divergence", "grids.kl_divergence", None, None),
        ((grids,), "l1_distance", "grids.l1_distance", None, None),
        ((checks.GridContext,), "entropy", "checks.ctx_entropy", None, None),
        ((checks, suite), "run_check", "checks.run_check", family, None),
        ((checks,), "inverse_theorem_check", "checks.inverse_theorem_check", None, None),
        ((checks, suite), "default_corpus", "checks.default_corpus", None, None),
        ((poincare, checks), "poincare_constant", "poincare.poincare_constant", None, None),
        ((poincare,), "spectral_poincare", "poincare.spectral_poincare", None, None),
        ((discrete,), "sum_pmf", "discrete.sum_pmf", None, None),
        ((discrete, suite), "check_discrete_registry", "discrete.check_discrete_registry",
         None, None),
        ((discrete, suite), "check_covering_lemma", "discrete.check_covering_lemma",
         None, None),
        ((discrete, suite), "check_functional_submodularity",
         "discrete.check_functional_submodularity", None, None),
        ((gaussians,), "run_bsg_scenario", "gaussians.run_bsg_scenario", None, None),
        ((gaussians,), "run_weak_bsg_scenario", "gaussians.run_weak_bsg_scenario",
         None, None),
        ((estimators,), "knn_entropy", "estimators.knn_entropy", None, None),
        ((estimators,), "estimate_functional", "estimators.estimate_functional", None, None),
        ((suite,), "run_suite", "suite.run_suite", None, None),
        ((suite,), "serialize_report", "suite.serialize_report", None, None),
    ]


class Tracer:
    def __init__(self, entrolab_modules):
        self.modules = entrolab_modules
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, label=None, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = str(tracer.next_id)
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                rec = {"id": sid, "parent": parent,
                       "name": label(args, kwargs) if label else name,
                       "start": t0, "end": t1}
                if attrs is not None and out is not None:
                    rec.update(attrs(args, kwargs, out))
                tracer.spans.append(rec)

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for holders, attr, name, label, attrs in _targets(self.modules):
            for holder in holders:
                fn = getattr(holder, attr)
                if id(fn) not in wrappers:  # one wrapper per function object
                    wrappers[id(fn)] = self.wrap(name, fn, label, attrs)
                self._saved.append((holder, attr, fn))
                setattr(holder, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved = []

    def take(self) -> list[dict]:
        """Spans recorded since the last take."""
        out, self.spans = self.spans, []
        return out


# ---------------------------------------------------------------------------
# per-layer metrics from spans

# (metric, unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = [
    ("grids.convolve.calls", "count", "lower"),
    ("grids.convolve.self_s", "s", "lower"),
    ("grids.convolve.cells", "cells", "lower"),
    ("grids.convolve.max_cells", "cells", "lower"),
    ("grids.resample.calls", "count", "lower"),
    ("grids.resample.s", "s", "lower"),
    ("grids.discretize.calls", "count", "lower"),
    ("grids.discretize.s", "s", "lower"),
    ("grids.entropy.calls", "count", "lower"),
    ("grids.entropy.s", "s", "lower"),
    ("grids.kl_divergence.s", "s", "lower"),
    ("grids.l1_distance.s", "s", "lower"),
    ("checks.ctx_entropy.calls", "count", "lower"),
    ("checks.ctx_entropy.hit_ratio", "ratio", "higher"),
    *[(f"checks.family.{cid}.s", "s", "lower") for cid in FAMILY_IDS],
    ("checks.inverse_theorem_check.s", "s", "lower"),
    ("checks.default_corpus.s", "s", "lower"),
    ("poincare.poincare_constant.calls", "count", "lower"),
    ("poincare.spectral_poincare.calls", "count", "lower"),
    ("poincare.spectral_poincare.s", "s", "lower"),
    ("discrete.sum_pmf.calls", "count", "lower"),
    ("discrete.sum_pmf.s", "s", "lower"),
    ("discrete.check_discrete_registry.s", "s", "lower"),
    ("discrete.check_covering_lemma.s", "s", "lower"),
    ("discrete.check_functional_submodularity.s", "s", "lower"),
    ("gaussians.run_bsg_scenario.s", "s", "lower"),
    ("gaussians.run_weak_bsg_scenario.s", "s", "lower"),
    ("estimators.knn_entropy.calls", "count", "lower"),
    ("estimators.estimate_functional.s", "s", "lower"),
    ("suite.run_suite.s", "s", "lower"),
    ("suite.serialize_report.s", "s", "lower"),
    ("suite.report_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
COUNT_UNITS = ("count", "cells", "bytes")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric except report size and tracing overhead."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum((dur(s) for s in named(name)), 0.0)

    out: dict[str, float] = {}
    conv = named("grids.convolve")
    out["grids.convolve.calls"] = len(conv)
    out["grids.convolve.self_s"] = sum(
        (dur(s) - sum(dur(c) for c in children.get(s["id"], []))
         for s in conv), 0.0)
    out["grids.convolve.cells"] = sum(s["cells"] for s in conv)
    out["grids.convolve.max_cells"] = max((s["cells"] for s in conv), default=0)
    for name in ("grids.resample", "grids.discretize", "grids.entropy"):
        out[f"{name}.calls"] = len(named(name))
        out[f"{name}.s"] = total(name)
    out["grids.kl_divergence.s"] = total("grids.kl_divergence")
    out["grids.l1_distance.s"] = total("grids.l1_distance")

    ctx = named("checks.ctx_entropy")
    misses = sum(any(c["name"] == "grids.entropy" for c in children.get(s["id"], []))
                 for s in ctx)
    out["checks.ctx_entropy.calls"] = len(ctx)
    out["checks.ctx_entropy.hit_ratio"] = (len(ctx) - misses) / len(ctx) if ctx else 0.0
    for cid in FAMILY_IDS:
        out[f"checks.family.{cid}.s"] = total(f"checks.family.{cid}")
    out["checks.inverse_theorem_check.s"] = total("checks.inverse_theorem_check")
    out["checks.default_corpus.s"] = total("checks.default_corpus")

    out["poincare.poincare_constant.calls"] = len(named("poincare.poincare_constant"))
    out["poincare.spectral_poincare.calls"] = len(named("poincare.spectral_poincare"))
    out["poincare.spectral_poincare.s"] = total("poincare.spectral_poincare")

    out["discrete.sum_pmf.calls"] = len(named("discrete.sum_pmf"))
    out["discrete.sum_pmf.s"] = total("discrete.sum_pmf")
    for name in ("check_discrete_registry", "check_covering_lemma",
                 "check_functional_submodularity"):
        out[f"discrete.{name}.s"] = total(f"discrete.{name}")
    out["gaussians.run_bsg_scenario.s"] = total("gaussians.run_bsg_scenario")
    out["gaussians.run_weak_bsg_scenario.s"] = total("gaussians.run_weak_bsg_scenario")
    out["estimators.knn_entropy.calls"] = len(named("estimators.knn_entropy"))
    out["estimators.estimate_functional.s"] = total("estimators.estimate_functional")
    out["suite.run_suite.s"] = total("suite.run_suite")
    out["suite.serialize_report.s"] = total("suite.serialize_report")

    return out


def combine_rounds(per_round: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time over the traced rounds; counts must repeat exactly.

    Returns the combined metrics and the names of counts that differed.
    """
    out, unsteady = {}, []
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if UNITS.get(name) in COUNT_UNITS:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
        else:
            out[name] = statistics.median(values)
    return out, unsteady
