"""The benchmark's tracer installs on the live modules and sees each layer.

``perfbench/tracing.py`` looks up every name it wraps with ``getattr`` and
labels each ``run_check`` span by the ``CheckDef`` passed first, so a
renamed or removed function, or ``run_check`` called another way, breaks a
traced benchmark run.  This runs a tiny traced suite to catch that here.
"""

from pathlib import Path

from entrolab import checks, discrete, estimators, gaussians, grids, poincare, suite
from entrolab.distributions import Exponential, Gaussian, Uniform

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_sees_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer((grids, checks, poincare, discrete, gaussians, estimators, suite))
    config = suite.config_from_dict({
        "seed": 1, "workers": 1, "corpus_size": 4, "trials": 1,
        "checks": ["lower_bound", "plunnecke_ruzsa", "covering_lemma", "discrete.sum_upper"]})
    tracer.install()
    try:
        suite.run_suite(config)
        checks.inverse_theorem_check(Gaussian(0.0, 1.0), checks.GridContext())
        # three leaf grids on unequal steps: one sampled, one transformed
        checks.GridContext().entropy((1, Gaussian(0.0, 1.0)), (1, Exponential(2.0)),
                                     (1, Uniform(0.0, 1.0)))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.take())
    assert metrics["checks.ctx_entropy.calls"] > 0
    assert metrics["grids.convolve.calls"] > 0
    assert metrics["grids.convolve.cells"] > 0
    assert metrics["grids.entropy.calls"] > 0
    assert metrics["grids.resample.calls"] > 0
    assert metrics["checks.family.plunnecke_ruzsa.s"] > 0
    assert metrics["discrete.check_covering_lemma.s"] > 0
    assert metrics["checks.inverse_theorem_check.s"] > 0
