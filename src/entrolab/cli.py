"""Command-line front end.

Subcommands: check (run the configured suite), entropy (evaluate one
signed-sum expression), bsg (conditional-copies scenarios), discrete
(exact group checks), inverse (maximum-entropy-gap bundle over the corpus).
check, discrete and inverse are suite runs that differ only in their
config: discrete selects the exact group checks, and inverse the
``inverse`` family alone, over the corpus of its config (seed 0 when none
is given).  Flags given on the command line take the place of the config's
fields.

Exit status: 0 when no check is violated, 1 when at least one is, 2 on
configuration or usage errors and when the output file cannot be written;
an output path whose directory is missing or not writable is rejected
before any work is done.
A suite report (check, discrete, inverse) in which every entry is skipped
also exits 2, with "error: every entry was skipped" on stderr; a report
with only some entries skipped keeps the exit status above and prints its
skipped count on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields, replace

from . import __version__
from .checks import GridContext
from .discrete import DISCRETE_REGISTRY_ORDER
from .distributions import KINDS, DensityModel, ModelError, make_model
from .gaussians import run_bsg_scenario, run_weak_bsg_scenario
from .grids import GridError
from .suite import (
    ConfigError,
    SuiteConfig,
    config_from_dict,
    grid_count_field,
    load_config,
    run_suite,
    serialize_report,
    window_sigmas_field,
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
        if name not in KINDS:
            raise ExpressionError(f"unknown distribution {name!r}", start)
        # the arguments are the kind's required parameters, in order
        names = [f.name for f in fields(KINDS[name]) if f.default is MISSING]
        skip_ws()
        if pos >= n or text[pos] != "(":
            raise ExpressionError("expected '('", pos)
        pos += 1
        args = []
        for i in range(len(names)):
            skip_ws()
            args.append(parse_number())
            skip_ws()
            if i < len(names) - 1:
                if pos >= n or text[pos] != ",":
                    raise ExpressionError("expected ','", pos)
                pos += 1
        skip_ws()
        if pos >= n or text[pos] != ")":
            raise ExpressionError("expected ')'", pos)
        pos += 1
        try:
            return make_model({"kind": name, **dict(zip(names, args))})
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
    return _run(_apply_overrides(load_config(args.config), args), args)


def _apply_overrides(config: SuiteConfig, args) -> SuiteConfig:
    """The config with each command-line flag that was given in place of its field."""
    raw = config.echo() | {
        "output": {"path": config.output_path, "format": config.output_format},
        "workers": config.workers,
    }
    for section, key, flag in ((raw, "seed", "seed"),
                               (raw["numerics"], "grid_count", "grid_count"),
                               (raw["numerics"], "window_sigmas", "window_sigmas"),
                               (raw["output"], "path", "out"),
                               (raw["output"], "format", "format"),
                               (raw, "workers", "workers")):
        if getattr(args, flag, None) is not None:
            section[key] = getattr(args, flag)
    return config_from_dict(raw)


def _run(config: SuiteConfig, args) -> int:
    """Run the suite, write its report and return the exit status.

    A report with nothing but skipped entries is an error.
    """
    if not _writable(config.output_path):
        return EXIT_USAGE
    report = run_suite(config)
    if not _emit(serialize_report(report, config.output_format), config.output_path):
        return EXIT_USAGE
    counts = report.summary()
    print(f"summary: {counts['holds']} holds, {counts['violated']} violated, "
          f"{counts['inconclusive']} inconclusive, {counts['skipped']} skipped",
          file=sys.stderr)
    if getattr(args, "timings", False):
        for cid, dt in sorted(report.timings.items()):
            if dt > 0.0:
                print(f"  {cid}: {dt:.3f}s", file=sys.stderr)
    if report.reports and counts["skipped"] == len(report.reports):
        print("error: every entry was skipped", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_VIOLATED if counts["violated"] else EXIT_OK


def _writable(path: str | None) -> bool:
    """False, with the reason on stderr, when path's directory is missing or not writable."""
    if not path:
        return True
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        reason = f"no directory {directory}"
    elif not os.access(directory, os.W_OK | os.X_OK):
        reason = f"directory {directory} is not writable"
    elif os.path.isdir(path):
        reason = "it is a directory"
    else:
        return True
    print(f"error: cannot write {path}: {reason}", file=sys.stderr)
    return False


def _emit(text: str, path: str | None, what: str = "") -> bool:
    """Write text to path, or to stdout without one; False when the file cannot be written."""
    if not path:
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: cannot write {path}: {e}", file=sys.stderr)
        return False
    print(f"wrote {path}{what}")
    return True


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
        rhos = [lo + i * step for i in range(math.floor((hi - lo) / step + 1e-9) + 1)]
    elif args.rho is not None:
        if not -1.0 < args.rho < 1.0:
            print(f"error: rho must lie in (-1, 1), got {args.rho}", file=sys.stderr)
            return EXIT_USAGE
        rhos = [args.rho]
    else:
        print("error: provide --rho or --sweep", file=sys.stderr)
        return EXIT_USAGE

    if not _writable(args.out):
        return EXIT_USAGE
    reports = [run_bsg_scenario(rho) for rho in rhos]
    scenarios = [r.to_dict() for r in reports]
    weak = [run_weak_bsg_scenario(rho).to_dict() for rho in rhos]
    payload = {
        "schema_version": 1,
        "tool": "entrolab",
        "version": __version__,
        "scenarios": scenarios,
        "weak_bounds": weak,
    }
    if not _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out,
                 f" ({len(scenarios)} scenario(s))"):
        return EXIT_USAGE
    worst = min(r.min_slack() for r in reports)
    print(f"worst conclusion slack: {worst:.3e}", file=sys.stderr)
    violated = worst < -1e-9 or any(w["verdict"] == "violated" for w in weak)
    return EXIT_VIOLATED if violated else EXIT_OK


def _cmd_discrete(args) -> int:
    return _run(config_from_dict({
        "seed": args.seed,
        "checks": ["covering_lemma", "functional_submodularity"]
        + [f"discrete.{c}" for c in DISCRETE_REGISTRY_ORDER],
        "discrete": {"group_order": args.group_order, "trials": args.trials},
        "output": {"path": args.out, "format": args.format or "json"},
    }), args)


def _cmd_inverse(args) -> int:
    config = load_config(args.config) if args.config else config_from_dict({"seed": 0})
    return _run(_apply_overrides(replace(config, checks=["inverse"]), args), args)


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
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
