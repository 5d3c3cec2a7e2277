"""Welfare effects of banning price discrimination (uniform pricing).

With zero costs, values not all equal, and a non-regular graph, the
direction of the consumer-surplus change under strong spillovers is
decided by a single network summary vector

    psi = (sum_{i>=2} s_i^2 / (1 - lambda_i/lambda_1)) * w_1
          - sum_{i>=2} s_i * s_1 / (1 - lambda_i/lambda_1) * w_i,
    s_i = <w_i, 1>,

computed from the cached spectrum: consumers gain for spillovers close to
the bound when ``corr(psi, a) > 0`` and lose when it is negative.  psi sums
to zero, correlates positively with the demeaned eigencentrality, and
vanishes exactly on regular graphs (where ``s_i = 0`` for ``i >= 2``).

For two-type networks (node set splits into two internally symmetric
classes, e.g. core-periphery or complete bipartite), psi and the
eigencentrality are two-valued and the welfare direction collapses to
comparing the average intrinsic value of the two classes.
``verify_two_type`` checks the spectral necessary conditions for a
user-supplied split (constancy per part and the level ratio
``-|V2|/|V1|``); it does not compute automorphism groups.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolatedError,
    BadPartitionError,
    NotRegularError,
    UnverifiedPartitionError,
)
from .market import MarketPrimitives, a_statistic, ratios, unrestricted_price
from .network import Network, corr, demean, eigencentrality, h_apply, is_regular
from .regulation import uniform_price

CONSTANCY_TOL = 1e-8
RATIO_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class PsiStatistic:
    psi: np.ndarray
    w1_demeaned: np.ndarray
    corr_psi_w1: float


class WelfareDirection(enum.Enum):
    CONSUMERS_GAIN = "consumers_gain"
    CONSUMERS_LOSE = "consumers_lose"
    INDETERMINATE = "indeterminate"


def psi(net: Network) -> PsiStatistic:
    """Network summary vector deciding the large-spillover welfare direction.

    The sums run over every non-leading eigenpair including repeated
    eigenvalues; only eigenspace projections of the all-ones vector enter,
    so the result does not depend on the basis chosen inside degenerate
    eigenspaces.
    """
    lam = net.spectrum.eigenvalues
    w = net.spectrum.eigenvectors
    w1 = w[:, 0]
    s = net.ones_hat
    if net.n == 1:
        vec = np.zeros(1)
    else:
        weights = s[1:] / (1.0 - lam[1:] / lam[0])
        vec = float(s[1:] @ weights) * w1 - w[:, 1:] @ (weights * s[0])
    w1_tilde = demean(w1)
    norm = float(np.linalg.norm(vec)) * float(np.linalg.norm(w1_tilde))
    corr_value = float(vec @ w1_tilde) / norm if norm > 0.0 else 0.0
    vec = vec.copy()
    vec.setflags(write=False)
    w1_tilde.setflags(write=False)
    return PsiStatistic(psi=vec, w1_demeaned=w1_tilde, corr_psi_w1=corr_value)


def psi_finite_delta(net: Network, delta: float) -> np.ndarray:
    """Finite-spillover form ``[w1 1' H - H 1 w1'] 1``; tends to psi at the bound."""
    ones = np.ones(net.n)
    w1 = eigencentrality(net)
    h_ones = h_apply(net, delta, ones)
    return w1 * float(ones @ h_ones) - h_ones * float(w1 @ ones)


def _require_ban_assumptions(net: Network, a: np.ndarray, c: np.ndarray | None):
    if c is not None and np.any(c != 0.0):
        raise AssumptionViolatedError("marginal costs must be zero for this analysis")
    if float(np.linalg.norm(demean(a))) <= 1e-12 * max(1.0, float(np.linalg.norm(a))):
        raise AssumptionViolatedError(
            "intrinsic values proportional to ones: banning discrimination is vacuous"
        )
    if is_regular(net):
        raise AssumptionViolatedError("graph is regular, so the summary vector vanishes")


def a_stat_uniform(prim: MarketPrimitives) -> tuple[float, float]:
    """Average-deviation statistic of the uniform price, exact and to first order.

    Returns ``(exact, coeff)`` where ``exact`` is the statistic at the given
    spillover and ``coeff = -lambda_1 <psi, a> / (<w1, a> <w1, 1>^2)`` is the
    slope of its expansion in ``(1/lambda_1 - delta)``; the statistic itself
    vanishes at the bound.  The lambda_1 placement follows from
    ``1/<1, H 1> = lambda_1 (1/lambda_1 - delta)/<w1, 1>^2 + O(.)^2`` and is
    pinned by the numerical order check in the tests.
    """
    _require_ban_assumptions(prim.net, prim.a, prim.c)
    net = prim.net
    w1 = eigencentrality(net)
    coeff = -net.lambda1 * float(psi(net).psi @ prim.a) / (
        float(w1 @ prim.a) * float(net.ones_hat[0]) ** 2
    )
    return a_statistic(prim, uniform_price(prim)), coeff


def welfare_direction_large_delta(net: Network, a) -> WelfareDirection:
    """Sign of ``corr(psi, a)``: who wins from a ban under strong spillovers."""
    a = np.asarray(a, dtype=float)
    _require_ban_assumptions(net, a, None)
    value = corr(psi(net).psi, a)
    if value > 1e-10:
        return WelfareDirection.CONSUMERS_GAIN
    if value < -1e-10:
        return WelfareDirection.CONSUMERS_LOSE
    return WelfareDirection.INDETERMINATE


@dataclass(frozen=True, eq=False)
class TwoTypePartition:
    part1: tuple
    part2: tuple
    w1_levels: tuple
    psi_levels: tuple
    verified: bool


def verify_two_type(net: Network, part1) -> TwoTypePartition:
    """Check the spectral necessary conditions for a two-type split.

    ``verified`` means: eigencentrality and psi are constant on each part
    and their demeaned level ratios equal ``-|V2|/|V1|``.  This is
    consistency with the two-type structure, not a full symmetry proof.
    """
    part1 = tuple(sorted(int(i) for i in part1))
    if len(set(part1)) != len(part1):
        raise BadPartitionError("part-1 indices repeat")
    if not part1 or any(i < 0 or i >= net.n for i in part1):
        raise BadPartitionError("part 1 must be a nonempty set of valid node indices")
    if len(part1) == net.n:
        raise BadPartitionError("part 1 must be a proper subset")
    part2 = tuple(i for i in range(net.n) if i not in set(part1))
    w1 = eigencentrality(net)
    vec = psi(net).psi
    idx1, idx2 = np.array(part1), np.array(part2)

    def constant_on(values, idx):
        block = values[idx]
        return float(np.max(block) - np.min(block)) <= CONSTANCY_TOL * max(
            1.0, float(np.abs(values).max())
        )

    w1_levels = (float(w1[idx1].mean()), float(w1[idx2].mean()))
    psi_levels = (float(vec[idx1].mean()), float(vec[idx2].mean()))
    verified = all(
        constant_on(values, idx) for values in (w1, vec) for idx in (idx1, idx2)
    )
    if verified:
        target = -len(part2) / len(part1)
        w1_tilde = demean(w1)
        lvl1, lvl2 = float(w1_tilde[idx1].mean()), float(w1_tilde[idx2].mean())
        for num, den in ((lvl1, lvl2), (psi_levels[0], psi_levels[1])):
            if abs(den) <= 1e-12:
                verified = False
                break
            if abs(num / den - target) > RATIO_TOL * max(1.0, abs(target)):
                verified = False
                break
    return TwoTypePartition(
        part1=part1,
        part2=part2,
        w1_levels=w1_levels,
        psi_levels=psi_levels,
        verified=verified,
    )


def two_type_welfare_direction(tt: TwoTypePartition, a) -> WelfareDirection:
    """Compare average intrinsic values across the two classes.

    The more central class (higher eigencentrality level) is put first, so
    consumers gain exactly when it also has the higher average value.
    """
    if not tt.verified:
        raise UnverifiedPartitionError("partition failed the two-type checks")
    a = np.asarray(a, dtype=float)
    idx1, idx2 = np.array(tt.part1), np.array(tt.part2)
    if tt.w1_levels[0] < tt.w1_levels[1]:
        idx1, idx2 = idx2, idx1
    mean1, mean2 = float(a[idx1].mean()), float(a[idx2].mean())
    scale = 1e-10 * max(1.0, abs(mean1), abs(mean2))
    if mean1 > mean2 + scale:
        return WelfareDirection.CONSUMERS_GAIN
    if mean1 < mean2 - scale:
        return WelfareDirection.CONSUMERS_LOSE
    return WelfareDirection.INDETERMINATE


def small_delta_gain(prim: MarketPrimitives) -> float:
    """Surplus gain from the ban at delta = 0, in squared-consumption units.

    Returns ``||a - p0||^2 - ||a - p_ur||^2`` (twice the surplus change),
    which equals ``3(n-1)/4`` times the sample variance of ``a``; always
    nonnegative, so the ban helps consumers when spillovers are weak.
    """
    if prim.delta != 0.0:
        raise AssumptionViolatedError("small-spillover gain is evaluated at delta = 0")
    if np.any(prim.c != 0.0):
        raise AssumptionViolatedError("marginal costs must be zero for this analysis")
    p0 = uniform_price(prim)
    pur = unrestricted_price(prim)
    x0 = prim.a - p0
    xur = prim.a - pur
    return float(x0 @ x0 - xur @ xur)


def regular_graph_rv_shift(prim: MarketPrimitives) -> tuple[float, float]:
    """Surplus-ratio change from the ban on a regular graph, plus a sign check.

    On a regular graph the optimal uniform price is the plain mean of the
    unrestricted price, independent of the network.  Returns
    ``(R_V(p0) - 1, spectral_expression)`` where the second value is
    ``sum_{i>=2} (1/(1-delta*lambda_i)^2) * (<w_i,a>^2 - <w_i,(a-c)/2>^2)``,
    proportional to the first with a positive factor.
    """
    if not is_regular(prim.net):
        raise NotRegularError("graph is not regular")
    pur = unrestricted_price(prim)
    p0 = float(pur.mean()) * np.ones(prim.n)
    r_v, _ = ratios(prim, p0)
    lam = prim.net.spectrum.eigenvalues
    w = prim.net.spectrum.eigenvectors
    proj_a = w[:, 1:].T @ prim.a
    proj_d = w[:, 1:].T @ (0.5 * (prim.a - prim.c))
    weights = 1.0 / (1.0 - prim.delta * lam[1:]) ** 2
    spectral = float(weights @ (proj_a**2 - proj_d**2))
    return r_v - 1.0, spectral
