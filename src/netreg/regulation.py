"""Convex price regulations and the firm's constrained pricing problem.

The firm's profit loss from deviating off the unrestricted price is the
squared H-norm of the deviation (``H = (I - delta*G)^-1``), so its optimal
regulated price is the H-norm projection of the unrestricted price onto
the feasible set.  Supported set kinds:

* ``Unrestricted``          -- all of R^n
* ``Box(lower, upper)``     -- floors and ceilings, +-inf admitted
* ``PriceDifference(D)``    -- |p_i - p_j| <= D_ij
* ``AveragePrice(theta, M)``-- <theta, p> <= M with theta in the simplex
* ``Uniform``               -- one common price level
* ``Halfspaces([...])``     -- explicit list of (normal, offset) pairs

Projection dispatch: Unrestricted and Uniform have closed forms (the
uniform level is ``<1, H p_ur> / <1, H 1>``, summed in the eigenbasis), as
do zero difference caps (the uniform line), a point box and AveragePrice (a
single halfspace).
Everything else is decomposed into halfspaces ``V p <= m``, one row per
face, built by array indexing (``halfspace_form``), and projected by the
Goldfarb-Idnani dual active-set method in the H metric, which needs only
``Hinv = I - delta*G`` explicitly.  It is finite: it adds the most
violated halfspace, drops faces whose multipliers reach zero, and stops
once no halfspace is violated by more than
``ACTIVE_SET_TOL * (1 + max|p_ur|) * ||v||_1``.  It keeps the active Gram
matrix itself, not its inverse, and solves it once per step.  An empty
feasible set raises ``InfeasibleError``.  ``project`` memoises its price
per ``(prim, k)`` on the primitives and returns it read-only, so the
outcome, the gap and the certificate of one set share one projection.

Efficiency analysis: an equilibrium sits on the Pareto frontier iff the
feasible set contains a frontier-family price and stays inside the
supporting halfspace at that price, whose normal is the positive weight
vector ``iota(eta) = H [I - 2*delta/(2-eta) G]^-1 (a - c)``: exactly when
the equilibrium price is itself a family price, which one test in
``pareto_certificate`` checks for every kind.  In the large-spillover limit
everything collapses onto the interval of the average-deviation statistic
over the set (``a_interval``), whose signed position decides the trichotomy
inefficient / neutral / efficient (``classify_limit``).
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from . import pareto as paretomod
from .errors import (
    DimensionMismatchError,
    EtaOutOfRangeError,
    InfeasibleError,
    InvariantError,
    NoConvergenceError,
    OutOfRangeError,
    UnsupportedRegulationError,
    ValidationError,
)
from .market import (
    MarketPrimitives,
    WelfareOutcome,
    half_gap,
    limit_ratios,
    ratios,
    spectral_ratios,
    unrestricted_price,
    welfare_outcome,
)
from .network import eigencentrality, h_apply

ACTIVE_SET_TOL = 1e-12
ACTIVE_SET_STEPS_PER_HALFSPACE = 10
MEMBERSHIP_TOL = 1e-9
PROPORTIONALITY_TOL = 1e-10


class RegulationSet:
    """Base tag for feasible price sets; concrete kinds are dataclasses."""

    kind = "abstract"


@dataclass(frozen=True)
class Unrestricted(RegulationSet):
    kind = "unrestricted"


@dataclass(frozen=True)
class Uniform(RegulationSet):
    kind = "uniform"


@dataclass(frozen=True, eq=False)
class Box(RegulationSet):
    """Price floors and ceilings; a -inf floor or +inf ceiling disables a side."""

    kind = "box"
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float).copy()
        upper = np.asarray(self.upper, dtype=float).copy()
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValidationError("box bounds must be equal-length vectors")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValidationError("box bounds must not be NaN")
        if np.any(np.isposinf(lower)) or np.any(np.isneginf(upper)):
            raise ValidationError("an absent floor is -inf and an absent ceiling +inf, not the reverse")
        if np.any(lower > upper):
            i = int(np.argmax(lower - upper))
            raise ValidationError(f"box is empty: lower[{i}]={lower[i]} > upper[{i}]={upper[i]}")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass(frozen=True, eq=False)
class PriceDifference(RegulationSet):
    """|p_i - p_j| <= delta_matrix[i, j]; the matrix is symmetric, >= 0,
    and +inf where a pair has no cap.  ``zero_caps`` is True when every cap
    is zero, so the set is the uniform-price line."""

    kind = "price_difference"
    delta_matrix: np.ndarray = None
    zero_caps: bool = field(init=False, repr=False)

    def __post_init__(self):
        d = np.asarray(self.delta_matrix, dtype=float).copy()
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValidationError("difference-cap matrix must be square")
        if np.any(np.isnan(d)):
            raise ValidationError("difference caps must not be NaN")
        if not np.allclose(d, d.T, rtol=1e-12, atol=1e-12):  # equal infinities count as equal
            raise ValidationError("difference-cap matrix must be symmetric")
        d = 0.5 * (d + d.T)
        if np.any(d < 0.0):
            raise ValidationError("difference caps must be nonnegative")
        if np.any(np.diag(d) != 0.0):
            raise ValidationError("difference-cap diagonal must be zero")
        d.setflags(write=False)
        object.__setattr__(self, "delta_matrix", d)
        object.__setattr__(self, "zero_caps", not np.any(d != 0.0))


@dataclass(frozen=True, eq=False)
class AveragePrice(RegulationSet):
    """<theta, p> <= cap with theta nonnegative and summing to one."""

    kind = "average_price"
    theta: np.ndarray = None
    cap: float = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).copy()
        if theta.ndim != 1:
            raise ValidationError("average-price weights must be a vector")
        if not np.all(np.isfinite(theta)):
            raise ValidationError("average-price weights must be finite")
        cap = float(self.cap)
        if not np.isfinite(cap):
            raise ValidationError(f"average-price cap must be finite, got {cap!r}")
        if np.any(theta < 0.0):
            raise ValidationError("average-price weights must be nonnegative")
        total = float(theta.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"average-price weights must sum to 1, got {total!r}")
        theta = theta / total
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "cap", cap)


@dataclass(frozen=True, eq=False)
class Halfspaces(RegulationSet):
    """Intersection of explicit halfspaces <normal, p> <= offset; an offset
    of +inf constrains nothing.  ``normals`` and ``offsets`` hold the same
    constraints as one row per halfspace."""

    kind = "halfspaces"
    constraints: tuple = None
    normals: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pairs = tuple(self.constraints)
        if not pairs:
            raise ValidationError("halfspace list must be nonempty")
        normals, offsets = zip(*pairs)
        try:
            vmat = np.array(normals, dtype=float)
        except ValueError as err:
            raise ValidationError("halfspace normals must be vectors of one length") from err
        if vmat.ndim != 2 or not np.all(np.any(vmat != 0.0, axis=1)):
            raise ValidationError("halfspace normal must be a nonzero vector")
        if not np.all(np.isfinite(vmat)):
            raise ValidationError("halfspace normal must be finite")
        offsets = np.array(offsets, dtype=float)
        bad = np.isnan(offsets) | np.isneginf(offsets)
        if np.any(bad):
            m = float(offsets[np.argmax(bad)])
            raise ValidationError(f"halfspace offset must be a number or +inf (no bound), got {m!r}")
        vmat.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "constraints", tuple(zip(vmat, offsets.tolist())))
        object.__setattr__(self, "normals", vmat)
        object.__setattr__(self, "offsets", offsets)


def halfspace_form(k: RegulationSet, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a set into halfspaces ``V p <= m``, one row of ``V`` each.

    Boxes give a ceiling and a floor row per market, difference caps one
    row per ordered pair ``(i, j)``, ``i != j``.  Rows with an infinite
    offset (an absent floor, ceiling or cap) constrain nothing and are
    dropped.
    """
    if isinstance(k, Box):
        _check_dim(k.lower.shape[0], n)
        rows = np.arange(2 * n)
        vmat = np.zeros((2 * n, n))
        vmat[rows, rows // 2] = np.tile([1.0, -1.0], n)  # ceiling then floor, market by market
        offsets = np.empty(2 * n)
        offsets[0::2], offsets[1::2] = k.upper, -k.lower
    elif isinstance(k, PriceDifference):
        _check_dim(k.delta_matrix.shape[0], n)
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        rows = np.arange(i.shape[0])
        vmat = np.zeros((i.shape[0], n))
        vmat[rows, i], vmat[rows, j] = 1.0, -1.0
        offsets = k.delta_matrix[i, j]
    elif isinstance(k, AveragePrice):
        _check_dim(k.theta.shape[0], n)
        vmat, offsets = k.theta[None, :], np.array([k.cap])
    elif isinstance(k, Halfspaces):
        _check_dim(k.normals.shape[1], n)
        vmat, offsets = k.normals, k.offsets
    else:
        raise UnsupportedRegulationError(f"no halfspace form for kind {k.kind!r}")
    keep = np.isfinite(offsets)
    return vmat[keep], offsets[keep]


def _check_dim(got, n):
    if got != n:
        raise DimensionMismatchError(f"regulation dimension {got} vs n={n}")


def contains(prim: MarketPrimitives, k: RegulationSet, p) -> bool:
    """Membership test with a ``MEMBERSHIP_TOL`` slack relative to ``1 + max|p|``."""
    p = np.asarray(p, dtype=float)
    scale = MEMBERSHIP_TOL * (1.0 + float(np.abs(p).max()))
    if isinstance(k, Unrestricted):
        return True
    if isinstance(k, Uniform):
        return float(p.max() - p.min()) <= scale
    vmat, offsets = halfspace_form(k, prim.n)
    return bool(np.all(vmat @ p <= offsets + scale * (1.0 + np.abs(vmat).sum(axis=1))))


def _active_set_projection(prim: MarketPrimitives, vmat, offsets, q):
    """Goldfarb-Idnani dual active-set projection of q in the H metric.

    Keeps ``H(q - x) = V_A' mu`` with ``mu >= 0`` and the active faces
    ``V_A x = b_A`` while it adds the most violated halfspace p: the
    primal step is ``-t z`` with ``z = Hinv (v_p - V_A' r)``, where ``r``
    solves the active Gram system ``V_A Hinv V_A' r = V_A Hinv v_p``, and
    the multipliers move by ``-t r`` (``+t`` for p).  The step stops where
    p becomes tight or where an active multiplier reaches zero, which drops
    that face.  Once the active normals span R^n no face is admitted, since
    v_p is then a combination of them.  If ``z = 0`` and no multiplier can
    reach zero, no point satisfies p together with the active faces, unless
    p's violation is drift off those faces: the set is empty if p is still
    violated after a step back onto them.

    The Gram matrix ``V_A Hinv V_A'`` is kept, not its inverse, and solved
    once per step, at O(k^3) for k active faces.  An add borders it with p's
    column ``V_A Hinv v_p``, which is the step's right-hand side anyway, and
    ``v_p' Hinv v_p``; a drop shifts its row and column out.  Its entries
    are formed from the rows and never updated, so nothing drifts.
    ``Hinv v`` is formed only for the row being added.  The step back onto
    the active faces at the end solves the same matrix; near the spectral
    bound it is ill-conditioned, so one step may leave a face violated, and
    a second one follows.  Its result is returned only if no other row is
    violated there, and otherwise the method goes on from it.
    """
    n = q.shape[0]
    bound = offsets + ACTIVE_SET_TOL * (1.0 + float(np.abs(q).max())) * np.abs(vmat).sum(axis=1)
    x = q.copy()
    active = []
    # the first k entries hold the k active faces: their multipliers, v and
    # Hinv v as rows, and the Gram matrix as the leading k-by-k block
    mu, face, hface, gram = np.empty(n), np.empty((n, n)), np.empty((n, n)), np.empty((n, n))

    def refined(x):
        # a step back onto the active faces, which the steps drift off when
        # the Gram system is ill-conditioned; a second one if the first
        # leaves a face violated
        k = len(active)
        if k == 0:
            return x
        rows, hrows, g = face[:k], hface[:k], gram[:k, :k]
        x = x - np.linalg.solve(g, rows @ x - offsets[active]) @ hrows
        if np.any(rows @ x > bound[active]):
            x = x - np.linalg.solve(g, rows @ x - offsets[active]) @ hrows
        return x

    def most_violated(x):
        violation = vmat @ x - bound
        violation[active] = -np.inf
        p = int(np.argmax(violation))
        return p, violation[p] > 0.0

    p = None
    for _ in range(ACTIVE_SET_STEPS_PER_HALFSPACE * offsets.shape[0]):
        if p is None:
            p, violated = most_violated(x)
            if not violated:
                x = refined(x)
                p, violated = most_violated(x)
                if not violated:
                    return x
            v_p = vmat[p]
            hv_p = v_p - prim.delta * (prim.net.adjacency @ v_p)
            curvature = float(v_p @ hv_p)  # v' Hinv v > 0
            mu_p = 0.0
        k = len(active)
        rows, hrows, mu_a = face[:k], hface[:k], mu[:k]
        g_p = rows @ hv_p  # V_A Hinv v_p: the right-hand side, and p's Gram column
        r = np.linalg.solve(gram[:k, :k], g_p)
        z = hv_p - r @ hrows
        along = float(v_p @ z)  # z' H z: zero when v_p is a combination of active normals
        full = np.inf
        if k < n and along > ACTIVE_SET_TOL * curvature:
            full = (float(v_p @ x) - offsets[p]) / along
        ratio = np.full(k, np.inf)
        with np.errstate(over="ignore"):  # a tiny r sets no limit: inf
            np.divide(mu_a, r, out=ratio, where=r > 0.0)
        step = min(full, ratio.min(initial=np.inf))
        if step == np.inf:
            # near the spectral bound the violation may be drift off the
            # active faces; the set is empty only if it outlasts refinement
            x = refined(x)
            if float(v_p @ x) - bound[p] > 0.0:
                raise InfeasibleError("feasible set is empty: a violated halfspace contradicts the binding ones")
            p = None
            continue
        if full < np.inf:
            x = x - step * z
        mu_a -= step * r
        mu_p += step
        if step == full:
            gram[:k, k] = gram[k, :k] = g_p
            gram[k, k] = curvature
            mu[k], face[k], hface[k] = mu_p, v_p, hv_p
            active.append(p)
            p = None
        else:
            # drop face j: shift the later faces, and the Gram block, up by one
            j = int(np.argmin(ratio))
            gram[j : k - 1, :k] = gram[j + 1 : k, :k]
            gram[: k - 1, j : k - 1] = gram[: k - 1, j + 1 : k]
            for buf in (mu, face, hface):
                buf[j : k - 1] = buf[j + 1 : k]
            del active[j]
    raise NoConvergenceError(
        f"active-set projection took more than {ACTIVE_SET_STEPS_PER_HALFSPACE} steps per halfspace "
        f"(cycling from rounding)"
    )


def uniform_price(prim: MarketPrimitives) -> np.ndarray:
    """Optimal single price level ``<1, H p_ur> / <1, H 1>`` on every market.

    The level is summed in the eigenbasis of G: with ``w = W'1``,
    ``q = W' p_ur`` and ``h = 1/(1 - delta*lambda)`` it is
    ``sum(w*h*q) / sum(w^2*h)``, a quotient of forms in the same ``h`` like
    the welfare ratios, so it keeps their accuracy near the spectral bound.
    ``w`` and ``q`` do not depend on delta, so it costs O(n) per spillover.
    """
    w_h = prim.net.ones_hat * prim.h_hat
    level = float(w_h @ prim.unrestricted_hat) / float(w_h @ prim.net.ones_hat)
    return np.full(prim.n, level)


def project(prim: MarketPrimitives, k: RegulationSet) -> np.ndarray:
    """Firm's optimal regulated price: H-norm projection of p_ur onto K.

    Closed forms handle the unrestricted, uniform, average-price,
    zero-cap-difference (which is the uniform line) and fixed-price (point
    box) cases exactly.  Everything else runs the finite dual active-set
    method over ``halfspace_form(k)``; it returns once no halfspace is
    violated by more than ``ACTIVE_SET_TOL * (1 + max|p_ur|) * ||v||_1``
    and raises ``InfeasibleError`` when the set is empty.

    The result is memoised per ``(prim, k)`` in ``prim.projections``, so the
    outcome, the gap and the certificate of one set share one projection;
    the returned array is read-only.
    """
    price = prim.projections.get(k)
    if price is None:
        price = _projected(prim, k)
        price.setflags(write=False)
        prim.projections[k] = price
    return price


def _projected(prim: MarketPrimitives, k: RegulationSet) -> np.ndarray:
    q = unrestricted_price(prim)
    if isinstance(k, Unrestricted):
        return q
    if isinstance(k, Uniform):
        return uniform_price(prim)
    if isinstance(k, PriceDifference) and k.zero_caps:
        # the set is exactly the uniform-price line
        _check_dim(k.delta_matrix.shape[0], prim.n)
        return uniform_price(prim)
    if isinstance(k, Box) and np.array_equal(k.lower, k.upper):
        # fixed prices in every market: the set is a single point
        _check_dim(k.lower.shape[0], prim.n)
        return k.lower.copy()
    if isinstance(k, AveragePrice):
        _check_dim(k.theta.shape[0], prim.n)
        g_theta = prim.adjacency_products.get(k)
        if g_theta is None:
            g_theta = prim.net.adjacency @ k.theta
            g_theta.setflags(write=False)
            prim.adjacency_products[k] = g_theta
        hinv_theta = k.theta - prim.delta * g_theta
        slack = float(k.theta @ q) - k.cap
        if slack <= 0.0:
            return q
        return q - (slack / float(k.theta @ hinv_theta)) * hinv_theta
    vmat, offsets = halfspace_form(k, prim.n)
    if offsets.shape[0] == 0:
        return q  # every bound infinite
    return _active_set_projection(prim, vmat, offsets, q)


def equilibrium_outcome(prim: MarketPrimitives, k: RegulationSet) -> WelfareOutcome:
    """Welfare evaluation at the firm's optimal regulated price."""
    return welfare_outcome(prim, project(prim, k))


def iota(prim: MarketPrimitives, eta_plus: float) -> np.ndarray:
    """Positive normal of the frontier's supporting halfspace at p(eta_plus):
    ``H [I - 2*delta/(2-eta) G]^-1 (a - c)``.  The inner factor is H at
    spillover ``2*delta/(2-eta)``, which is admissible exactly when
    ``eta < eta_max``."""
    if eta_plus < 0.0 or eta_plus >= paretomod.eta_max(prim):
        raise EtaOutOfRangeError(
            f"eta_plus={eta_plus!r} outside [0, {paretomod.eta_max(prim)!r})"
        )
    inner = h_apply(prim.net, 2.0 * prim.delta / (2.0 - eta_plus), prim.a - prim.c)
    return h_apply(prim.net, prim.delta, inner)


@dataclass(frozen=True)
class Certificate:
    """Outcome of the frontier-membership test for one regulation."""

    efficient: bool
    eta: float | None = None
    reason: str | None = None


def pareto_certificate(prim: MarketPrimitives, k: RegulationSet) -> Certificate:
    """Decide whether the equilibrium outcome lies on the Pareto frontier.

    One test serves every kind.  A non-binding regulation (unrestricted
    price feasible) is efficient with ``eta = 0``, the top frontier corner.
    A binding set that stays open along a nonnegative direction (all prices
    together, or one market's alone) is inefficient, since the supporting
    normal ``iota`` is positive.  Otherwise the equilibrium price p* must be
    the family price with the same first spectral coordinate
    ``t = rho_1 = -A(p*) >= 0``, at nonnegative profit; ``eta`` is that
    price's parameter.  Prices match within ``MEMBERSHIP_TOL`` widened by
    ``64*eps / (1 - delta*lambda_1)``, the accuracy of a raw H product that
    a knife-edge set built from ``iota`` inherits, times ``1 + max|p*|``.
    """
    pur = unrestricted_price(prim)
    if contains(prim, k, pur):
        return Certificate(True, eta=0.0)
    rises = isinstance(k, Uniform)  # no halfspace form; its level is free
    if not rises:
        vmat, _ = halfspace_form(k, prim.n)
        rises = bool(np.any(np.all(vmat <= 0.0, axis=0)) or np.all(vmat.sum(axis=1) <= 0.0))
    if rises:
        return Certificate(False, reason="prices rise freely, so the set leaves every supporting halfspace")
    p_star = project(prim, k)
    e = prim.net.spectrum.eigenvectors.T @ (p_star - pur)
    t = -float(e[0]) / float(prim.half_gap_hat[0])
    if t < 0.0:
        return Certificate(False, reason="equilibrium sits above the unrestricted price on average")
    if spectral_ratios(prim, e)[1] < -1e-12:
        return Certificate(False, reason="equilibrium profit is negative, past the frontier's end")
    tol = MEMBERSHIP_TOL + 64.0 * np.finfo(float).eps / (1.0 - prim.delta * prim.net.lambda1)
    miss = float(np.linalg.norm(e - paretomod.family_deviation(prim, t)))
    if miss > tol * (1.0 + float(np.abs(p_star).max())):
        return Certificate(False, reason=f"equilibrium price is {miss:.3g} from the frontier family")
    return Certificate(True, eta=paretomod.eta_of_rho1(prim, t))


@dataclass(frozen=True)
class AStatInterval:
    """Closed interval of the average-deviation statistic over a set.

    ``exact`` is False when two or more faces of a halfspace list are not
    parallel to the eigencentrality, so the bounds may be too wide.
    """

    lower: float
    upper: float
    exact: bool = True

    def __contains__(self, z):
        return self.lower <= z <= self.upper


def a_interval(prim: MarketPrimitives, k: RegulationSet) -> AStatInterval:
    """Range of the average-deviation statistic over the feasible set."""
    w1 = eigencentrality(prim.net)
    d1 = float(w1 @ half_gap(prim))
    pur_avg = float(w1 @ unrestricted_price(prim))

    def stat_of_avg(avg):
        return (avg - pur_avg) / d1

    if isinstance(k, (Unrestricted, Uniform, PriceDifference)):
        # the whole price level is free along 1, and <w1, 1> > 0
        if isinstance(k, PriceDifference):
            _check_dim(k.delta_matrix.shape[0], prim.n)
        return AStatInterval(-np.inf, np.inf)
    if isinstance(k, Box):
        _check_dim(k.lower.shape[0], prim.n)
        lo = -np.inf if np.any(np.isneginf(k.lower)) else stat_of_avg(float(w1 @ k.lower))
        hi = np.inf if np.any(np.isposinf(k.upper)) else stat_of_avg(float(w1 @ k.upper))
        return AStatInterval(lo, hi)
    if isinstance(k, (AveragePrice, Halfspaces)):
        vmat, offsets = halfspace_form(k, prim.n)
        norms = np.linalg.norm(vmat, axis=1)
        align = (vmat @ w1) / norms  # w1 is unit, so these are cosines
        upper = align >= 1.0 - PROPORTIONALITY_TOL
        lower = align <= -1.0 + PROPORTIONALITY_TOL
        hi = stat_of_avg(float(np.min(offsets[upper] / norms[upper], initial=np.inf)))
        lo = stat_of_avg(float(np.max(-offsets[lower] / norms[lower], initial=-np.inf)))
        # one other face leaves every level feasible on the hyperplane; two may bind it
        return AStatInterval(lo, hi, exact=bool(np.count_nonzero(~(upper | lower)) <= 1))
    raise UnsupportedRegulationError(f"no interval rule for kind {k.kind!r}")


class Classification(enum.Enum):
    PARETO_INEFFICIENT = "pareto_inefficient"
    NEUTRAL = "neutral"
    PARETO_EFFICIENT = "pareto_efficient"


@dataclass(frozen=True)
class LimitClassification:
    label: Classification
    a_star: float
    interval: AStatInterval
    limit_r_v: float
    limit_r_pi: float


def classify_limit(prim: MarketPrimitives, k: RegulationSet) -> LimitClassification:
    """Large-spillover trichotomy of a regulation.

    The equilibrium statistic converges to the interval point closest to
    zero; its sign decides the label and the limit ratios follow the
    one-dimensional formulas.  Interval endpoints within 1e-12 of zero
    count as touching (the trichotomy is a sign pattern, not a band).
    Raises ``UnsupportedRegulationError`` when the interval is not exact,
    since a label read from it may be wrong.
    """
    interval = a_interval(prim, k)
    if not interval.exact:
        raise UnsupportedRegulationError(f"no exact statistic interval for kind {k.kind!r}")
    if interval.lower > 1e-12:
        label, a_star = Classification.PARETO_INEFFICIENT, interval.lower
    elif interval.upper < -1e-12:
        label, a_star = Classification.PARETO_EFFICIENT, interval.upper
    else:
        label, a_star = Classification.NEUTRAL, 0.0
    if not np.isfinite(a_star):
        raise InvariantError("a nonempty set cannot have an infinite minimiser")
    limit_r_v, limit_r_pi = limit_ratios(a_star, allow_out_of_range=True)
    return LimitClassification(
        label=label,
        a_star=float(a_star),
        interval=interval,
        limit_r_v=limit_r_v,
        limit_r_pi=limit_r_pi,
    )


def gap_parts(prim: MarketPrimitives, k: RegulationSet) -> tuple[np.ndarray, float, float, float]:
    """``(p*, R_V(p*), tau*, R_V_plus(tau*))``: the equilibrium price, its
    welfare ratios and the frontier surplus ratio at its profit ratio.

    The profit ratio tau* is clamped to [0, 1] before the frontier solve; one
    below -1e-9 raises ``OutOfRangeError``, since the frontier is undefined
    there.
    """
    p_star = project(prim, k)
    r_v_star, tau_star = ratios(prim, p_star)
    if tau_star < -1e-9:
        raise OutOfRangeError(
            f"equilibrium profit ratio {tau_star!r} is negative; frontier undefined there"
        )
    r_v_plus = paretomod.rv_plus(prim, min(max(tau_star, 0.0), 1.0))
    return p_star, r_v_star, tau_star, r_v_plus


def gap(prim: MarketPrimitives, k: RegulationSet) -> float:
    """Vertical distance ``R_V_plus(tau*) - R_V(p*)`` from the equilibrium
    surplus ratio to the frontier (nonnegative up to root tolerance)."""
    _, r_v_star, _, r_v_plus = gap_parts(prim, k)
    return r_v_plus - r_v_star
