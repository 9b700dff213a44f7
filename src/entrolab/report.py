"""Shared report type for inequality and identity checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["InequalityReport", "make_report", "skipped", "HOLDS", "VIOLATED", "INCONCLUSIVE", "SKIPPED"]

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
SKIPPED = "skipped"


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one named check.

    slack is rhs - lhs, oriented so that nonnegative slack means the
    statement holds; the verdict is "violated" only when slack < -err.
    final is true when no finer grid can change the entry, as for an
    exact equality; it stays out of ``to_dict``.
    """

    check_id: str
    lhs: float
    rhs: float
    slack: float
    err: float
    verdict: str
    kind: str = "inequality"
    params: dict = field(default_factory=dict)
    inputs: tuple = ()
    note: str | None = None
    final: bool = False

    def to_dict(self) -> dict:
        def clean(x: float):
            # strict JSON has no NaN/Infinity; skipped entries carry those
            return x if isinstance(x, float) and math.isfinite(x) else None

        d = {
            "check_id": self.check_id,
            "kind": self.kind,
            "lhs": clean(self.lhs),
            "rhs": clean(self.rhs),
            "slack": clean(self.slack),
            "err": clean(self.err),
            "verdict": self.verdict,
            "params": dict(self.params),
            "inputs": list(self.inputs),
        }
        if self.note is not None:
            d["note"] = self.note
        return d


def _verdict(kind: str, slack: float, err: float) -> str:
    if kind == "identity":
        return HOLDS if abs(slack) <= err else VIOLATED
    if slack < -err:
        return VIOLATED
    if abs(slack) <= err:
        return INCONCLUSIVE
    return HOLDS


def make_report(
    check_id: str,
    lhs: float,
    rhs: float,
    err: float,
    kind: str = "inequality",
    params: dict | None = None,
    inputs: tuple = (),
    note: str | None = None,
    degenerate: bool = False,
    final: bool = False,
) -> InequalityReport:
    slack = rhs - lhs
    # every field is given, so they are stored at once, not by the frozen
    # dataclass's __init__, which sets them one call at a time
    report = object.__new__(InequalityReport)
    vars(report).update(
        check_id=check_id,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        err=err,
        verdict=INCONCLUSIVE if degenerate else _verdict(kind, slack, err),
        kind=kind,
        params=params or {},
        inputs=inputs,
        note=note,
        final=final,
    )
    return report


def skipped(check_id: str, note: str, params: dict | None = None,
            inputs: tuple = ()) -> InequalityReport:
    """An entry that could not be evaluated; note says why."""
    nan = math.nan
    return InequalityReport(check_id=check_id, lhs=nan, rhs=nan, slack=nan, err=nan,
                            verdict=SKIPPED, params=params or {}, inputs=inputs, note=note)
