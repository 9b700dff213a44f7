"""Command-line front end.

Subcommands: check (run the configured suite), entropy (evaluate one
signed-sum expression), bsg (conditional-copies scenarios), discrete
(exact group checks), inverse (maximum-entropy-gap bundle over the corpus).

Exit status: 0 when no check is violated, 1 when at least one is,
2 on configuration or usage errors.  A suite report (check, discrete,
inverse) in which every entry is skipped also exits 2, with "error: every
entry was skipped" on stderr; a report with only some entries skipped
keeps the exit status above and prints its skipped count on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .checks import GridContext, inverse_theorem_check
from .discrete import DISCRETE_REGISTRY_ORDER
from .distributions import DensityModel, Exponential, Gamma, Gaussian, Laplace, ModelError, Uniform
from .gaussians import run_bsg_scenario, run_weak_bsg_scenario
from .grids import GridError
from .report import InequalityReport
from .suite import (
    ConfigError,
    SuiteConfig,
    SuiteReport,
    config_from_dict,
    grid_count_field,
    load_config,
    run_suite,
    serialize_report,
    window_sigmas_field,
    write_report,
)

LN2 = math.log(2.0)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2


class ExpressionError(ValueError):
    """Expression parse failure; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# expression grammar: term (('+'|'-') term)*, term = name '(' num {',' num} ')'
# every literal denotes a fresh independent variable, so "x - x" style
# repeated-variable expressions are inexpressible by construction

_BUILDERS = {
    "gaussian": (2, lambda a: Gaussian(a[0], a[1])),
    "uniform": (2, lambda a: Uniform(a[0], a[1])),
    "exponential": (1, lambda a: Exponential(a[0])),
    "laplace": (2, lambda a: Laplace(a[0], a[1])),
    "gamma": (2, lambda a: Gamma(a[0], a[1])),
}


def parse_expression(text: str) -> list[tuple[int, DensityModel]]:
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_number() -> float:
        nonlocal pos
        start = pos
        while pos < n and (text[pos].isdigit() or text[pos] in "+-.eE"):
            pos += 1
        try:
            return float(text[start:pos])
        except ValueError:
            raise ExpressionError(f"expected a number, got {text[start:pos]!r}", start) from None

    def parse_term() -> DensityModel:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and (text[pos].isalpha() or text[pos] == "_"):
            pos += 1
        name = text[start:pos].lower()
        if name not in _BUILDERS:
            raise ExpressionError(f"unknown distribution {name!r}", start)
        n_args, build = _BUILDERS[name]
        skip_ws()
        if pos >= n or text[pos] != "(":
            raise ExpressionError("expected '('", pos)
        pos += 1
        args = []
        for i in range(n_args):
            skip_ws()
            args.append(parse_number())
            skip_ws()
            if i < n_args - 1:
                if pos >= n or text[pos] != ",":
                    raise ExpressionError("expected ','", pos)
                pos += 1
        skip_ws()
        if pos >= n or text[pos] != ")":
            raise ExpressionError("expected ')'", pos)
        pos += 1
        try:
            return build(args)
        except ModelError as e:
            raise ExpressionError(str(e), start) from None

    terms = [(1, parse_term())]
    while True:
        skip_ws()
        if pos >= n:
            return terms
        op = text[pos]
        if op not in "+-":
            raise ExpressionError(f"expected '+' or '-', got {op!r}", pos)
        pos += 1
        terms.append((1 if op == "+" else -1, parse_term()))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_entropy(args) -> int:
    try:
        terms = parse_expression(args.expression)
        grid_count = grid_count_field(args.grid_count, "--grid-count")
        window_sigmas = window_sigmas_field(args.window_sigmas, "--window-sigmas")
        value, err = GridContext(grid_count, window_sigmas).entropy(*terms)
    except (ExpressionError, ConfigError, GridError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if not math.isfinite(value):
        print("error: entropy is not finite for this expression "
              "(degenerate or unsupported law)", file=sys.stderr)
        return EXIT_USAGE
    if args.bits:
        print(f"{value / LN2:.6f} ± {err / LN2:.2e} bits")
    else:
        print(f"{value:.6f} ± {err:.2e} nats")
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        config = load_config(args.config)
        config = _apply_overrides(config, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    report = run_suite(config)
    _emit_suite(report, config, args)
    return _suite_exit(report)


def _suite_exit(report: SuiteReport) -> int:
    """Exit status of a suite report; a report with nothing but skipped entries is an error."""
    counts = report.summary()
    if report.reports and counts["skipped"] == len(report.reports):
        print("error: every entry was skipped", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_VIOLATED if counts["violated"] else EXIT_OK


def _apply_overrides(config: SuiteConfig, args) -> SuiteConfig:
    raw = {
        "seed": args.seed if args.seed is not None else config.seed,
        "numerics": {
            "grid_count": args.grid_count if args.grid_count is not None
            else config.grid_count,
            "window_sigmas": args.window_sigmas if args.window_sigmas is not None
            else config.window_sigmas,
            "tolerances": config.tolerances,
        },
        "corpus": config.corpus,
        "corpus_size": config.corpus_size,
        "checks": config.checks,
        "trials": config.trials,
        "discrete": {
            "group_order": config.discrete_group_order,
            "trials": config.discrete_trials,
        },
        "output": {
            "path": args.out or config.output_path,
            "format": args.format or config.output_format,
        },
        "workers": args.workers if args.workers is not None else config.workers,
    }
    return config_from_dict(raw)


def _emit_suite(report: SuiteReport, config: SuiteConfig, args) -> None:
    fmt = config.output_format
    if config.output_path:
        write_report(report, config.output_path, fmt)
        print(f"wrote {config.output_path}")
    else:
        sys.stdout.write(serialize_report(report, fmt))
    counts = report.summary()
    print(f"summary: {counts['holds']} holds, {counts['violated']} violated, "
          f"{counts['inconclusive']} inconclusive, {counts['skipped']} skipped",
          file=sys.stderr)
    if getattr(args, "timings", False):
        for cid, dt in sorted(report.timings.items()):
            if dt > 0.0:
                print(f"  {cid}: {dt:.3f}s", file=sys.stderr)


def _cmd_bsg(args) -> int:
    if args.sweep:
        try:
            lo, hi, step = (float(x) for x in args.sweep.split(":"))
        except ValueError:
            print("error: --sweep expects lo:hi:step", file=sys.stderr)
            return EXIT_USAGE
        if not (-1.0 < lo <= hi < 1.0) or step <= 0.0:
            print("error: sweep range must lie inside (-1, 1) with positive step",
                  file=sys.stderr)
            return EXIT_USAGE
        rhos = [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]
    elif args.rho is not None:
        if not -1.0 < args.rho < 1.0:
            print(f"error: rho must lie in (-1, 1), got {args.rho}", file=sys.stderr)
            return EXIT_USAGE
        rhos = [args.rho]
    else:
        print("error: provide --rho or --sweep", file=sys.stderr)
        return EXIT_USAGE

    scenarios = []
    weak = []
    for rho in rhos:
        scenarios.append(run_bsg_scenario(rho).to_dict())
        weak.append(run_weak_bsg_scenario(rho).to_dict())
    payload = {
        "schema_version": 1,
        "tool": "entrolab",
        "version": __version__,
        "scenarios": scenarios,
        "weak_bounds": weak,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(scenarios)} scenario(s))")
    else:
        sys.stdout.write(text)
    worst = min(min(s["conclusion_a"][2], s["conclusion_b"][2], s["conclusion_c"][2])
                for s in scenarios)
    print(f"worst conclusion slack: {worst:.3e}", file=sys.stderr)
    violated = worst < -1e-9 or any(w["verdict"] == "violated" for w in weak)
    return EXIT_VIOLATED if violated else EXIT_OK


def _cmd_discrete(args) -> int:
    raw = {
        "seed": args.seed,
        "checks": ["covering_lemma", "functional_submodularity"]
        + [f"discrete.{c}" for c in DISCRETE_REGISTRY_ORDER],
        "discrete": {"group_order": args.group_order, "trials": args.trials},
        "output": {"path": args.out, "format": args.format or "json"},
    }
    try:
        config = config_from_dict(raw)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    report = run_suite(config)
    _emit_suite(report, config, args)
    return _suite_exit(report)


def _cmd_inverse(args) -> int:
    try:
        config = load_config(args.config) if args.config else config_from_dict(
            {"seed": args.seed if args.seed is not None else 0}
        )
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    models = config.corpus_models()
    ctx = GridContext(config.grid_count, config.window_sigmas)
    reports: list[InequalityReport] = []
    for m in models:
        reports.extend(inverse_theorem_check(m, ctx))
    suite = SuiteReport(config=config.echo(), reports=reports, timings={})
    fmt = args.format or "json"
    text = serialize_report(suite, fmt)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    counts = suite.summary()
    print(f"summary: {counts}", file=sys.stderr)
    return _suite_exit(suite)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrolab",
        description="Numerical checks of sumset-type entropy inequalities.",
    )
    parser.add_argument("--version", action="version", version=f"entrolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the configured inequality suite")
    p.add_argument("--config", required=True, help="JSON suite configuration")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid-count", type=int, default=None)
    p.add_argument("--window-sigmas", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv"], default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--timings", action="store_true",
                   help="print per-check wall clock to stderr")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("entropy", help="entropy of a signed sum of catalog laws")
    p.add_argument("expression",
                   help='e.g. "gaussian(0,1) + uniform(0,1) - exponential(1)"')
    p.add_argument("--grid-count", type=int, default=1 << 14)
    p.add_argument("--window-sigmas", type=float, default=12.0)
    p.add_argument("--bits", action="store_true", help="report bits instead of nats")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("bsg", help="conditional-copies sum scenarios")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--sweep", default=None, help="lo:hi:step over correlations")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bsg)

    p = sub.add_parser("discrete", help="exact checks over a cyclic group")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--group-order", type=int, default=6)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--format", choices=["json", "csv"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_discrete)

    p = sub.add_parser("inverse", help="maximum-entropy-gap bundle over the corpus")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_inverse)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(e.code) if e.code else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
