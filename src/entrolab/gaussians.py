"""Closed-form entropy algebra for jointly Gaussian vectors.

Joint, conditional and mutual informations come from log-determinants and
Schur complements, so every quantity here is exact up to linear-algebra
roundoff.  The scenario builders instantiate the conditional-independence
constructions (Markov-chain extensions, conditionally i.i.d. copies) used
by the network checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .report import InequalityReport, make_report

__all__ = [
    "DegenerateSubsetError",
    "GaussianVector",
    "BsgScenarioReport",
    "run_bsg_scenario",
    "run_weak_bsg_scenario",
    "run_conditional_copies_scenario",
]

LN_2PI_E = math.log(2.0 * math.pi * math.e)

# relative eigenvalue threshold below which a covariance block counts as
# singular; constructed chains stay orders of magnitude above this
_SINGULAR_RTOL = 1e-12

IDENTITY_TOL = 1e-9


class DegenerateSubsetError(ValueError):
    """Entropy query on a singular covariance block (entropy would be -inf)."""


def _nonsingular_eigs(mat: np.ndarray, what: str) -> np.ndarray:
    """Ascending eigenvalues of a covariance block; raises when the block is singular.

    The 0 x 0 block of an empty label set has no eigenvalues and is not
    singular: its log-determinant is 0, so h of nothing is 0 and
    conditioning on nothing leaves a law unchanged.
    """
    eigs = np.linalg.eigvalsh(mat)
    if len(eigs) and eigs[0] <= _SINGULAR_RTOL * max(1.0, eigs[-1]):
        raise DegenerateSubsetError(f"degenerate subset: {what} is singular")
    return eigs


@dataclass(frozen=True)
class GaussianVector:
    """Finite-dimensional Gaussian law with named coordinates."""

    names: tuple[str, ...]
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        k = len(names)
        if len(set(names)) != k:
            raise ValueError("variable names must be unique")
        if mean.shape != (k,) or cov.shape != (k, k):
            raise ValueError("mean/cov shapes must match the name list")
        asym = float(np.abs(cov - cov.T).max(initial=0.0))
        scale = float(np.abs(cov).max(initial=1.0))
        if asym > 1e-12 * max(1.0, scale):
            raise ValueError(f"covariance asymmetric by {asym:.3g}")
        cov = 0.5 * (cov + cov.T)
        if k:
            eigs = np.linalg.eigvalsh(cov)
            if eigs[0] < -1e-10 * max(1.0, scale):
                raise ValueError(f"covariance has negative eigenvalue {eigs[0]:.3g}")
            if eigs[0] < 0.0:
                # clamp roundoff-negative eigenvalues to zero
                w, v = np.linalg.eigh(cov)
                cov = (v * np.clip(w, 0.0, None)) @ v.T
                cov = 0.5 * (cov + cov.T)
        mean.flags.writeable = False
        cov.flags.writeable = False
        # label -> position, read by _idx
        object.__setattr__(self, "_pos", {lb: i for i, lb in enumerate(names)})
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    # -- helpers ---------------------------------------------------------

    def _idx(self, labels: Sequence[str]) -> np.ndarray:
        try:
            return np.array([self._pos[lb] for lb in labels], dtype=int)
        except KeyError:
            unknown = [lb for lb in labels if lb not in self._pos]
            raise KeyError(f"unknown labels {unknown}") from None

    def _block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.cov[rows[:, None], cols]

    @staticmethod
    def _logdet_pd(mat: np.ndarray, what: str) -> float:
        return float(np.log(_nonsingular_eigs(mat, what)).sum())

    def _bordered(self, name: str, mean: float, row: np.ndarray, var: float) -> "GaussianVector":
        """This vector with one more coordinate: its mean, covariance row and variance."""
        k = len(self.names)
        cov = np.empty((k + 1, k + 1))
        cov[:k, :k] = self.cov
        cov[:k, k] = cov[k, :k] = row
        cov[k, k] = var
        return GaussianVector(self.names + (name,), np.append(self.mean, mean), cov)

    # -- entropy queries --------------------------------------------------

    def joint_entropy(self, labels: Sequence[str]) -> float:
        """h of the selected coordinates, 0.5*log((2*pi*e)^k det Sigma)."""
        idx = self._idx(labels)
        block = self._block(idx, idx)
        logdet = self._logdet_pd(block, f"cov of {tuple(labels)}")
        return 0.5 * (len(idx) * LN_2PI_E + logdet)

    def conditional_entropy(self, a: Sequence[str], b: Sequence[str]) -> float:
        """h(A | B) via the Schur complement.

        A degenerate conditional law (A determined by B) is reported as
        -inf, which is its true differential entropy.
        """
        ia, ib = self._idx(a), self._idx(b)
        sbb = self._block(ib, ib)
        _nonsingular_eigs(sbb, "conditioning block")
        sab = self._block(ia, ib)
        schur = self._block(ia, ia) - sab @ np.linalg.solve(sbb, sab.T)
        schur = 0.5 * (schur + schur.T)
        try:
            logdet = self._logdet_pd(schur, "conditional covariance")
        except DegenerateSubsetError:
            return -math.inf
        return 0.5 * (len(ia) * LN_2PI_E + logdet)

    def mutual_information(self, a: Sequence[str], b: Sequence[str]) -> float:
        ha = self.joint_entropy(a)
        hab = self.conditional_entropy(a, b)
        return ha - hab

    def conditional_mutual_information(
        self, a: Sequence[str], b: Sequence[str], c: Sequence[str]
    ) -> float:
        return (self.conditional_entropy(a, c) + self.conditional_entropy(b, c)
                - self.conditional_entropy(tuple(a) + tuple(b), c))

    # -- construction -----------------------------------------------------

    def with_linear(self, name: str, coeffs: dict[str, float]) -> "GaussianVector":
        """Append the exact linear combination sum(coeffs[v] * v)."""
        c = np.zeros(len(self.names))
        c[self._idx(list(coeffs))] = list(coeffs.values())
        row = self.cov @ c
        return self._bordered(name, float(c @ self.mean), row, float(c @ row))

    def extend_markov(
        self,
        recipe: Sequence[tuple[str, Sequence[str], tuple[str, Sequence[str]]]],
    ) -> "GaussianVector":
        """Append variables that are conditionally independent of the past.

        Each recipe entry is (new_label, conditioning_labels, template)
        where template = (target_label, given_labels).  The new variable is
        conditionally independent of all earlier variables given its
        conditioning set, and its conditional law given that set copies the
        template's conditional law L(target | given).  Empty conditioning
        appends an independent variable with the template target's marginal.
        """
        out = self
        for new_label, cond, (t_target, t_given) in recipe:
            cond = tuple(cond)
            t_given = tuple(t_given)
            if len(cond) != len(t_given):
                raise ValueError(
                    f"conditioning set {cond} and template given-set {t_given} differ in size"
                )
            it = out._idx([t_target])
            var_t = float(out._block(it, it)[0, 0])
            mean_t = float(out.mean[it[0]])
            if cond:
                ic = out._idx(cond)
                ig = out._idx(t_given)
                sgg = out._block(ig, ig)
                _nonsingular_eigs(sgg, f"template conditioning block {t_given}")
                stg = out._block(it, ig)  # 1 x g
                beta = np.linalg.solve(sgg, stg.ravel())
                resid = var_t - float(beta @ stg.ravel())
                mean_given = out.mean[ig]
                new_mean_val = mean_t + float(beta @ (out.mean[ic] - mean_given))
                row = out.cov[:, ic] @ beta  # Cov(new, existing) = beta . Cov(C, existing)
                var_new = resid + float(beta @ out._block(ic, ic) @ beta)
            else:
                new_mean_val = mean_t
                row = np.zeros(len(out.names))
                var_new = var_t
            out = out._bordered(new_label, new_mean_val, row, var_new)
        return out


@dataclass(frozen=True)
class BsgScenarioReport:
    """Hypotheses and conclusions of the conditional-copies sum scenario.

    Every pair is (lhs, rhs) oriented so the statement is lhs <= rhs;
    conclusion triples carry slack = rhs - lhs.  All values in nats.
    """

    rho: float
    k: float
    log_k: float
    condition_mi: tuple[float, float]
    condition_sum: tuple[float, float]
    conclusion_a: tuple[float, float, float]
    conclusion_b: tuple[float, float, float]
    conclusion_c: tuple[float, float, float]
    mi_sum_bound: tuple[float, float, float]  # conditional-MI sum vs 16 log K

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "k": self.k,
            "log_k": self.log_k,
            "condition_mi": list(self.condition_mi),
            "condition_sum": list(self.condition_sum),
            "conclusion_a": list(self.conclusion_a),
            "conclusion_b": list(self.conclusion_b),
            "conclusion_c": list(self.conclusion_c),
            "mi_sum_bound": list(self.mi_sum_bound),
        }

    def min_slack(self) -> float:
        return min(self.conclusion_a[2], self.conclusion_b[2], self.conclusion_c[2],
                   self.mi_sum_bound[2])


def _correlated_pair(rho: float) -> GaussianVector:
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must lie in (-1, 1), got {rho}")
    cov = np.array([[1.0, rho], [rho, 1.0]])
    return GaussianVector(("X", "Y"), np.zeros(2), cov)


def _minimal_log_k(v: GaussianVector) -> tuple[float, tuple[float, float], tuple[float, float]]:
    """Smallest log K satisfying both scenario hypotheses, plus their sides."""
    h_x = v.joint_entropy(["X"])
    h_y = v.joint_entropy(["Y"])
    h_xy = v.joint_entropy(["X", "Y"])
    mi_gap = h_x + h_y - h_xy  # = I(X;Y)
    s = v.with_linear("S", {"X": 1.0, "Y": 1.0})
    h_sum = s.joint_entropy(["S"])
    sum_gap = h_sum - 0.5 * h_x - 0.5 * h_y
    log_k = max(mi_gap, sum_gap, 0.0)
    condition_mi = (h_x + h_y - log_k, h_xy)
    condition_sum = (h_sum, 0.5 * h_x + 0.5 * h_y + log_k)
    return log_k, condition_mi, condition_sum


# Markov chain X2 -- Y -- X1 -- Y' with all adjacent pairs distributed as
# (X, Y); its first two steps are two conditionally independent copies of X given Y
_BSG_RECIPE = (
    ("X1", ("Y",), ("X", ("Y",))),
    ("X2", ("Y",), ("X", ("Y",))),
    ("Yp", ("X1",), ("Y", ("X",))),
)


def run_bsg_scenario(rho: float) -> BsgScenarioReport:
    """Evaluate the conditional-copies sum scenario at correlation rho.

    K is the smallest constant satisfying both hypotheses (weak dependence
    and small sum entropy); the three conclusions and the 16 log K bound on
    the conditional-information sum are evaluated exactly.
    """
    v = _correlated_pair(rho)
    log_k, condition_mi, condition_sum = _minimal_log_k(v)
    chain = v.extend_markov(_BSG_RECIPE).with_linear("S2p", {"X2": 1.0, "Yp": 1.0})

    h_x = chain.joint_entropy(["X"])
    h_y = chain.joint_entropy(["Y"])

    # the five distinct h(. | X1, Y); the two conditional mutual informations
    # share three of them, each summed as conditional_mutual_information does
    given = ["X1", "Y"]
    h_x2 = chain.conditional_entropy(["X2"], given)
    h_yp = chain.conditional_entropy(["Yp"], given)
    h_s = chain.conditional_entropy(["S2p"], given)
    h_s_yp = chain.conditional_entropy(["S2p", "Yp"], given)
    h_s_x2 = chain.conditional_entropy(["S2p", "X2"], given)

    lhs_a = h_x - log_k
    lhs_b = h_y - log_k
    rhs_c = 0.5 * h_x + 0.5 * h_y + 7.0 * log_k
    mi_sum = (h_s + h_yp - h_s_yp) + (h_s + h_x2 - h_s_x2)
    rhs_mi = 16.0 * log_k

    return BsgScenarioReport(
        rho=rho,
        k=math.exp(log_k),
        log_k=log_k,
        condition_mi=condition_mi,
        condition_sum=condition_sum,
        conclusion_a=(lhs_a, h_x2, h_x2 - lhs_a),
        conclusion_b=(lhs_b, h_yp, h_yp - lhs_b),
        conclusion_c=(h_s, rhs_c, rhs_c - h_s),
        mi_sum_bound=(mi_sum, rhs_mi, rhs_mi - mi_sum),
    )


def run_weak_bsg_scenario(rho: float) -> InequalityReport:
    """Conditional difference-entropy bound h(X1 - X2 | Y) <= h(X) + 4 log K."""
    v = _correlated_pair(rho)
    log_k, _, _ = _minimal_log_k(v)
    chain = v.extend_markov(_BSG_RECIPE[:2]).with_linear("D", {"X1": 1.0, "X2": -1.0})
    lhs = chain.conditional_entropy(["D"], ["Y"])
    rhs = chain.joint_entropy(["X"]) + 4.0 * log_k
    return make_report("weak_bsg", lhs=lhs, rhs=rhs, err=IDENTITY_TOL,
                       params={"rho": rho})


def run_conditional_copies_scenario(var_x: float, var_y: float) -> tuple[InequalityReport, InequalityReport]:
    """Conditionally i.i.d. pairs given the difference: inequality plus identity.

    Builds independent X, Y, the difference Z = X - Y, two conditionally
    independent copies (X1, Y1), (X2, Y2) of (X, Y) given Z, and a fresh
    pair (X3, Y3).  Returns the three-sum inequality report and the exact
    entropy identity report h(Z,Y1,Y2) + h(Z) - h(Y1) - h(Y2) = h(X1) + h(X2).
    """
    if not (var_x > 0.0 and var_y > 0.0):
        raise ValueError("variances must be positive")
    base = GaussianVector(("X", "Y"), np.zeros(2), np.diag([var_x, var_y]))
    v = base.with_linear("Z", {"X": 1.0, "Y": -1.0})
    v = v.extend_markov([
        ("X1", ("Z",), ("X", ("Z",))),
        ("X2", ("Z",), ("X", ("Z",))),
        ("X3", (), ("X", ())),
        ("Y3", (), ("Y", ())),
    ])
    v = v.with_linear("Y1", {"X1": 1.0, "Z": -1.0})
    v = v.with_linear("Y2", {"X2": 1.0, "Z": -1.0})
    v = v.with_linear("S33", {"X3": 1.0, "Y3": 1.0})
    v = v.with_linear("D32", {"X3": 1.0, "Y2": -1.0})
    v = v.with_linear("D13", {"X1": 1.0, "Y3": -1.0})

    h = v.joint_entropy
    lhs = h(["S33"]) + h(["X1"]) + h(["Y2"])
    rhs = h(["D32"]) + h(["D13"]) + h(["Z"])
    ineq = make_report("conditional_copies_sum", lhs=lhs, rhs=rhs, err=IDENTITY_TOL,
                       params={"var_x": var_x, "var_y": var_y})

    lhs_id = h(["Z", "Y1", "Y2"]) + h(["Z"]) - h(["Y1"]) - h(["Y2"])
    rhs_id = h(["X1"]) + h(["X2"])
    ident = make_report("conditional_copies_identity", lhs=lhs_id, rhs=rhs_id, err=IDENTITY_TOL,
                        kind="identity", params={"var_x": var_x, "var_y": var_y})
    return ineq, ident
