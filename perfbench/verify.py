"""Output checks for the benchmark, computed apart from entrolab.

Every function here reads entrolab's outputs as plain data (report dicts as
serialized, numbers) and compares them with closed forms and counts derived
from the paper's statements.  Nothing here calls entrolab's numerics, so a
change to the program cannot silently change what it is checked against.

Each check returns a list of ``Op`` records: one operation, passed or
failed, with a message saying why it failed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

LN2 = math.log(2.0)
EULER_GAMMA = 0.5772156649015329
H_STD_NORMAL = 0.5 * math.log(2.0 * math.pi * math.e)

# (arity, variant params) of the 13 continuous families; plunnecke_ruzsa
# takes 1 + n inputs.  Entry counts follow from the suite's trial rule
# max(1, corpus_size // (arity * variants)) per variant.
FAMILIES = {
    "lower_bound": (2, [{}]),
    "ruzsa_triangle": (3, [{}]),
    "triangle_metric": (3, [{}]),
    "csumdiff": (3, [{}]),
    "c3122": (3, [{}]),
    "doubling_difference": (1, [{}]),
    "sigma_delta": (1, [{}]),
    "sum_difference": (2, [{}]),
    "sum_difference_mi": (2, [{"alpha": a} for a in (0.0, 0.25, 0.5, 0.75, 1.0)]),
    "plunnecke_ruzsa": (None, [{"n": n} for n in (1, 2, 3, 4)]),
    "four_variable": (4, [{}]),
    "iterated_sum": (2, [{"n": n} for n in (1, 2, 3)]),
    "epi_doubling": (1, [{}]),
}

# D(f || phi) for the moment-matched Gaussian phi; scale-free per family
DIVERGENCE = {
    "uniform": 0.5 * math.log(math.pi * math.e / 6.0),
    "exponential": H_STD_NORMAL - 1.0,
    "laplace": 0.5 * math.log(math.pi * math.e) - 1.0,
    "gaussian": 0.0,
}
# h(X+X') - h(X) and h(X-X') - h(X) for i.i.d. copies
DELTA_PLUS = {"gaussian": 0.5 * LN2, "uniform": 0.5, "exponential": EULER_GAMMA}
DELTA_MINUS = {"gaussian": 0.5 * LN2, "uniform": 0.5, "exponential": LN2}

POINCARE_REL_TOL = 0.005
COVERING_TOL = 1e-12
BSG_SLACK_FLOOR = -1e-9
LOG_K_TOL = 1e-12
KNN_FLOOR = 0.05

# golden kNN expressions: (label, [(sign, model spec)], exact entropy)
KNN_GOLDENS = (
    ("h(N(0,1))", [(1, {"kind": "gaussian", "mean": 0.0, "variance": 1.0})], H_STD_NORMAL),
    ("h(U+U')", [(1, {"kind": "uniform", "lower": 0.0, "upper": 1.0})] * 2, 0.5),
    ("h(E-E')", [(1, {"kind": "exponential", "rate": 1.0}),
                 (-1, {"kind": "exponential", "rate": 1.0})], 1.0 + LN2),
    ("h(E+E')", [(1, {"kind": "exponential", "rate": 1.0})] * 2, 1.0 + EULER_GAMMA),
)


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    why: str = ""


def _op(name: str, problems: list[str]) -> Op:
    return Op(name, not problems, "; ".join(problems))


def expected_verdict(kind: str, slack: float, err: float) -> str:
    """The verdict a report's slack and err imply, as entrolab's README defines it."""
    if kind == "identity":
        return "holds" if abs(slack) <= err else "violated"
    if slack < -err:
        return "violated"
    if abs(slack) <= err:
        return "inconclusive"
    return "holds"


def entry_problems(entry: dict) -> list[str]:
    """Faults of one serialized report entry, independent of its family."""
    verdict = entry["verdict"]
    if verdict in ("violated", "skipped"):
        return [f"verdict {verdict} ({entry.get('note')})"]
    lhs, rhs, slack, err = entry["lhs"], entry["rhs"], entry["slack"], entry["err"]
    if None in (lhs, rhs, slack, err):
        return ["non-finite lhs/rhs/slack/err"]
    out = []
    if slack != rhs - lhs:
        out.append(f"slack {slack!r} != rhs - lhs {rhs - lhs!r}")
    want = expected_verdict(entry["kind"], slack, err)
    degenerate = verdict == "inconclusive" and "degenerate" in (entry.get("note") or "")
    if verdict != want and not degenerate:
        out.append(f"verdict {verdict} but slack {slack:.3e} and err {err:.3e} give {want}")
    return out


# ---------------------------------------------------------------------------
# continuous suite


def _gauss_h(variance: float) -> float:
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


def gaussian_sides(entry: dict) -> tuple[float, float] | None:
    """Exact (lhs, rhs) of an entry whose inputs are all Gaussian, else None.

    A signed sum of independent Gaussians is Gaussian with the summed
    variance, so every entropy in every family has a closed form.  Two-sided
    families report the binding side in their note; the same side is
    recomputed here.
    """
    inputs = entry["inputs"]
    if not inputs or any(m.get("kind") != "gaussian" for m in inputs):
        return None
    v = [float(m["variance"]) for m in inputs]

    def h(*idx: int) -> float:
        return _gauss_h(sum(v[i] for i in idx))

    cid, params, note = entry["check_id"], entry["params"], entry.get("note") or ""
    side = re.search(r"side=(\w+)", note)
    side = side.group(1) if side else None
    if cid == "lower_bound":
        return max(h(0), h(1)), h(0, 1)
    if cid == "ruzsa_triangle":
        return h(0, 2), h(0, 1) + h(1, 2) - h(1)
    if cid == "triangle_metric":
        def dist(a, b):
            return h(a, b) - 0.5 * h(a) - 0.5 * h(b)
        return dist(0, 2), dist(0, 1) + dist(1, 2)
    if cid == "csumdiff":
        return h(0, 2) + h(1), h(0, 1) + h(1, 2)
    if cid == "c3122":
        return h(0, 1, 2) + h(1), h(0, 1) + h(1, 2)
    if cid in ("doubling_difference", "sigma_delta"):
        dp = dm = h(0, 0) - h(0)
        if side == "upper":
            return dp, 2.0 * dm
        if side == "lower":
            return 0.5 * dm, dp
        return None
    if cid == "sum_difference":
        return h(0, 1), 3.0 * h(0, 1) - h(0) - h(1)
    if cid == "sum_difference_mi":
        a = float(params["alpha"])
        i_x, i_y = h(0, 1) - h(1), h(0, 1) - h(0)  # same for X+Y and X-Y
        return a * i_x + (1.0 - a) * i_y, (1.0 + a) * i_x + (2.0 - a) * i_y
    if cid == "plunnecke_ruzsa":
        n = int(params["n"])
        rhs = h(0) + sum(h(0, i) - h(0) for i in range(1, n + 1))
        return h(*range(n + 1)), rhs
    if cid == "four_variable":
        return h(0, 1, 2, 3) + h(1) + h(2), h(0, 1) + h(1, 2) + h(2, 3)
    if cid == "iterated_sum":
        n = int(params["n"])
        lhs = _gauss_h((n + 1) * (v[0] + v[1]))
        return lhs, (2 * n + 1) * h(0, 1) - n * h(0) - n * h(1)
    if cid == "epi_doubling":
        d = h(0, 0) - h(0)
        if side in ("sum", "difference"):
            return 0.5 * LN2, d
        return None
    return None


def check_suite_entry(entry: dict) -> Op:
    problems = entry_problems(entry)
    if not problems:
        exact = gaussian_sides(entry)
        if exact is not None:
            for label, got, want in (("lhs", entry["lhs"], exact[0]),
                                     ("rhs", entry["rhs"], exact[1])):
                if abs(got - want) > entry["err"]:
                    problems.append(f"Gaussian {label} {got!r} vs closed form {want!r} "
                                    f"off by {abs(got - want):.3e} > err {entry['err']:.3e}")
    return _op(f"entry:{entry['check_id']}", problems)


def expected_counts(corpus_size: int) -> dict[tuple[str, str], int]:
    out = {}
    for cid, (arity, variants) in FAMILIES.items():
        for params in variants:
            k = 1 + params["n"] if cid == "plunnecke_ruzsa" else arity
            out[(cid, _params_key(params))] = max(1, corpus_size // (k * len(variants)))
    return out


def _params_key(params: dict) -> str:
    return ",".join(f"{k}={params[k]!r}" for k in sorted(params))


def check_suite_report(report: dict, corpus_size: int) -> list[Op]:
    """Per-entry checks, per-family counts and the 13-family roster."""
    entries = report["checks"]
    ops = [check_suite_entry(e) for e in entries]
    got: dict[tuple[str, str], int] = {}
    for e in entries:
        key = (e["check_id"], _params_key(e["params"]))
        got[key] = got.get(key, 0) + 1
    want = expected_counts(corpus_size)
    for cid in FAMILIES:
        problems = [f"{k[1] or 'default'}: {got.get(k, 0)} entries, expected {n}"
                    for k, n in want.items() if k[0] == cid and got.get(k, 0) != n]
        ops.append(_op(f"count:{cid}", problems))
    extra = sorted({k for k in got if k not in want})
    ops.append(_op("roster", [f"unexpected family/variant {k}" for k in extra]))
    return ops


def check_identical(name: str, text: str, references: dict[str, str]) -> Op:
    """Byte-identity of a serialized report with each named reference digest or text."""
    problems = []
    for label, ref in references.items():
        if ref != text:
            problems.append(f"differs from {label}")
    return _op(name, problems)


# ---------------------------------------------------------------------------
# inverse bundle


_POINCARE_NOTE = re.compile(r"poincare=([0-9.eE+-]+)")


def check_inverse_law(model: dict, reports: list[dict]) -> list[Op]:
    """Verdict checks plus closed forms for one law's inverse bundle."""
    kind = model["kind"]
    ops = [_op(f"inverse:{r['check_id']}", entry_problems(r) if r["verdict"] != "skipped"
               else []) for r in reports]
    by_id = {r["check_id"]: r for r in reports}

    def near(label: str, rep: dict, got_key: str, want: float) -> Op:
        got = rep[got_key]
        if got is None or abs(got - want) > rep["err"]:
            return Op(label, False, f"{kind}: {got!r} vs closed form {want!r} "
                      f"(err {rep['err']!r})")
        return Op(label, True)

    if kind in DIVERGENCE:
        ops.append(near("inverse:divergence", by_id["inverse_pinsker"], "rhs",
                        DIVERGENCE[kind]))
    if kind in DELTA_PLUS:
        ops.append(near("inverse:delta_plus", by_id["inverse_epi_sigma"], "rhs",
                        DELTA_PLUS[kind]))
        ops.append(near("inverse:delta_minus", by_id["inverse_epi_delta"], "rhs",
                        DELTA_MINUS[kind]))
    if kind == "laplace":
        want = 4.0 * float(model["scale"]) ** 2
        found = [float(m.group(1)) for r in reports
                 for m in [_POINCARE_NOTE.search(r.get("note") or "")] if m]
        problems = [] if found else ["no poincare= note"]
        problems += [f"Poincare constant {r!r} vs 4b^2 = {want!r}" for r in found
                     if abs(r - want) > POINCARE_REL_TOL * want]
        ops.append(_op("inverse:poincare", problems))
    return ops


# ---------------------------------------------------------------------------
# exact oracles


def check_discrete_report(report: dict, expected_entries: int) -> list[Op]:
    ops = []
    for e in report["checks"]:
        problems = entry_problems(e)
        if e["check_id"] == "covering_lemma" and not problems \
                and abs(e["slack"]) > COVERING_TOL:
            problems.append(f"covering identity slack {e['slack']:.3e} > {COVERING_TOL}")
        ops.append(_op(f"discrete:{e['check_id']}", problems))
    n = len(report["checks"])
    ops.append(_op("discrete:count", [] if n == expected_entries
                   else [f"{n} entries, expected {expected_entries}"]))
    return ops


def bsg_log_k(rho: float) -> float:
    """Smallest log K meeting both hypotheses for a unit-variance pair.

    I(X;Y) = -1/2 log(1 - rho^2) and h(X+Y) - h(X)/2 - h(Y)/2 = 1/2 log(2 + 2 rho).
    """
    return max(-0.5 * math.log1p(-rho * rho), 0.5 * math.log(2.0 + 2.0 * rho), 0.0)


def check_bsg(scenario: dict, weak: dict) -> list[Op]:
    rho = scenario["rho"]
    problems = [f"conclusion {c} slack {scenario[c][2]:.3e} < {BSG_SLACK_FLOOR}"
                for c in ("conclusion_a", "conclusion_b", "conclusion_c")
                if scenario[c][2] < BSG_SLACK_FLOOR]
    want = bsg_log_k(rho)
    if abs(scenario["log_k"] - want) > LOG_K_TOL:
        problems.append(f"log K {scenario['log_k']!r} vs closed form {want!r} at rho={rho}")
    return [_op("bsg:scenario", problems), _op("bsg:weak", entry_problems(weak))]


def check_knn(label: str, value: float, stderr: float, target: float) -> Op:
    tol = max(3.0 * stderr, KNN_FLOOR)
    if abs(value - target) > tol:
        return Op("knn:" + label, False,
                  f"{label}: estimate {value:.5f} vs exact {target:.5f}, off by "
                  f"{abs(value - target):.4f} > {tol:.4f}")
    return Op("knn:" + label, True)
