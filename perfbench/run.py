"""entrolab benchmark: two workloads, checked outputs, optional per-layer trace.

Run from the repository root:

    python3 perfbench/run.py                          # both workloads
    python3 perfbench/run.py --workload inverse-exact --seed 7 --seconds 60
    python3 perfbench/run.py --workload suite-serial --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (one such line per
workload when both run).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs untraced and traced rounds in turn and reports the
per-layer metrics.  Details of every run go to ``perfbench/out/``.

This process only orchestrates.  One fresh interpreter (``--role round``)
sets up, runs one warm-up round and then timed rounds, back to back, until
the run's time is up; every round's output is checked outside its timed
section.  Before and after it, fresh interpreters that only set the
workload up (``--role setup``) add samples of ``setup_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SECONDS = 60.0  # run_seconds in BENCHMARK.json
SETUP_SAMPLES = 5  # the round interpreter's set-up is one of them
MIN_TIMED = 2  # timed rounds after the warm-up, even past the run's time
RUN_LIMIT_S = 170.0  # a run ends well inside three minutes
# numpy/scipy may start BLAS threads; one keeps a workload to one compute thread
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="run rounds for about this long, set-up included")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("round", "setup"), default=None,
                   help=argparse.SUPPRESS)
    p.add_argument("--until", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# child side: one fresh interpreter


def _load_entrolab():
    sys.path.insert(0, str(SRC))
    import entrolab
    from entrolab import (checks, discrete, distributions, estimators, gaussians, grids,
                          poincare, suite)

    if Path(entrolab.__file__).resolve().parent != SRC / "entrolab":
        raise ImportError(f"entrolab imported from {entrolab.__file__}, not from {SRC}")
    return SimpleNamespace(grids=grids, checks=checks, poincare=poincare, discrete=discrete,
                           gaussians=gaussians, estimators=estimators, suite=suite,
                           distributions=distributions)


def _round(el, wl, inputs, tracer, setup_spans) -> dict:
    """Run, time and check one round; traced when ``tracer`` is given."""
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    result = wl.run_round(el, inputs)
    rec = {"wall": time.perf_counter() - t0, "traced": tracer is not None}
    if tracer:
        tracer.uninstall()
    output, ops = wl.check(inputs, result)
    failures: dict[str, list] = {}  # op name -> [count, first reason]
    for op in ops:
        if not op.ok:
            failures.setdefault(op.name, [0, op.why])[0] += 1
    rec.update(ops=len(ops), failures=failures, holds=output.holds,
               digest=hashlib.sha256(output.text.encode()).hexdigest())
    if tracer:
        rec["layer"] = tracing.layer_metrics(setup_spans + tracer.take())
        rec["layer"]["suite.report_bytes"] = output.report_bytes
    return rec


def _child(args) -> int:
    """Set up; for ``--role round`` also run rounds until ``--until``.

    Round i takes input set i mod ``input_sets``; the first round is a
    warm-up.  With ``--trace 1`` there is one input set, set-up is traced
    and, after the warm-up, traced and untraced rounds alternate in pairs.
    Prints one JSON line for the parent.
    """
    el = _load_entrolab()
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer((el.grids, el.checks, el.poincare, el.discrete, el.gaussians,
                                 el.estimators, el.suite))
        tracer.install()
    # a traced run keeps to the first input set, so that its counts repeat
    seeds = workloads.input_seeds(args.seed, 1 if tracer else wl.input_sets)
    inputs = [wl.setup(el, seed) for seed in seeds]
    rec = {"setup_end": time.monotonic()}
    if args.role == "round":
        setup_spans = []
        if tracer:
            tracer.uninstall()
            setup_spans = tracer.take()
        rounds = [_round(el, wl, inputs[0], None, setup_spans)]  # warm-up
        step, least = (2, 2) if tracer else (1, MIN_TIMED)  # a traced run ends on a pair
        while True:
            timed = len(rounds) - 1
            slowest = max(r["wall"] for r in rounds[-step:])
            if (timed >= least and timed % step == 0
                    and time.monotonic() + step * slowest > args.until):
                break
            traced = tracer is not None and timed % 2 == 0
            rounds.append(_round(el, wl, inputs[len(rounds) % len(inputs)],
                                 tracer if traced else None, setup_spans))
        rec["rounds"] = rounds
        rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(rec))
    return 0


# ---------------------------------------------------------------------------
# parent side


def _spawn(args, role: str, until: float, limit: float) -> dict:
    """Run one child interpreter; returns its JSON line with its set-up time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--until", repr(until)]
    env = {**os.environ, **CHILD_ENV}
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(limit - started, 1.0))
    except BaseException as e:  # time limit or interrupt: the child goes too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            raise RuntimeError(f"{role} child ran past the run's time limit") from None
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with status {proc.returncode}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["setup_s"] = rec.pop("setup_end") - started
    return rec


def _run_workload(args) -> dict:
    start = time.monotonic()
    until, limit = start + args.seconds, start + RUN_LIMIT_S
    if args.trace:
        child = _spawn(args, "round", until, limit)
        setups = [child["setup_s"]]
    else:
        # set-up samples on both sides of the rounds, so that one slow spell
        # of the host does not set them all; the rounds leave time for those after
        before = [_spawn(args, "setup", until, limit) for _ in range(SETUP_SAMPLES // 2)]
        spent = time.monotonic() - start
        child = _spawn(args, "round", until - spent, limit)
        after = [_spawn(args, "setup", until, limit)
                 for _ in range(SETUP_SAMPLES - 1 - len(before))]
        setups = [r["setup_s"] for r in before + [child] + after]
    rounds = child["rounds"]

    sets = 1 if args.trace else workloads.WORKLOADS[args.workload].input_sets
    failures: dict[str, list] = {}
    for i, r in enumerate(rounds):
        for name, (n, why) in r["failures"].items():
            failures.setdefault(name, [0, why])[0] += n
        # one more operation per round: its output is byte-identical to the
        # first round's on the same inputs
        first = i % sets
        op = verify.check_identical("identical", r["digest"],
                                    {f"round {first + 1}": rounds[first]["digest"]})
        if not op.ok:
            failures.setdefault(op.name, [0, op.why])[0] += 1
    attempted = sum(r["ops"] + 1 for r in rounds)
    failed = sum(n for n, _ in failures.values())

    untraced = [r for r in rounds[1:] if not r["traced"]]
    unsteady = []
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        layer, unsteady = tracing.combine_rounds([r["layer"] for r in traced])
        layer["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                     - statistics.median(r["wall"] for r in untraced))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in tracing.LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall"] for r in untraced), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MiB"},
            "holds": {"value": rounds[0]["holds"], "unit": "verdicts"},
        }
    # verdicts that change between rounds, or span counts that do not
    # repeat, mean the run itself is not reproducible
    correct = all(r["holds"] == rounds[i % sets]["holds"]
                  for i, r in enumerate(rounds)) and not unsteady
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {**line, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "setup_samples": setups, "unsteady_counts": unsteady, "failures": failures,
              "rounds": rounds}
    kind = "trace" if args.trace else "result"
    (OUT / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    _summarize(args, line, rounds, setups, failures)
    return line


def _summarize(args, line, rounds, setups, failures):
    err = sys.stderr
    print(f"{args.workload} seed {args.seed}: attempted {line['attempted']}, "
          f"failed {line['failed']}, correct {line['correct']}", file=err)
    walls = ", ".join(f"{r['wall']:.3f}{'*' if r['traced'] else ''}" for r in rounds)
    print(f"  rounds {len(rounds)}, the first a warm-up ({walls} s"
          f"{'; * traced' if args.trace else ''})", file=err)
    if args.trace:
        print(f"  tracing overhead {line['metrics']['trace.overhead_s']['value']:+.3f} s; "
              f"per-layer metrics in {OUT.relative_to(ROOT)}/trace-{args.workload}"
              f"-seed{args.seed}.json", file=err)
    else:
        print("  setup samples " + ", ".join(f"{s:.3f}" for s in setups) + " s", file=err)
        for name, m in line["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}", file=err)
    for name, (n, why) in sorted(failures.items()):
        print(f"  FAILED {name} x{n}, first: {why}", file=err)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role:
        return _child(args)
    if not (SRC / "entrolab" / "__init__.py").is_file():
        print(f"error: entrolab sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            line = _run_workload(one)
        except (RuntimeError, ValueError, KeyError) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
