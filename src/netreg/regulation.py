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
single halfspace).  The closed forms are row-wise: given a market whose
``delta`` is a column (a sweep's block, one spillover per row), they price
every row at once.
Everything else is decomposed into halfspaces ``V p <= m``, one row per
face, built by array indexing (``halfspace_form``), and projected by the
Goldfarb-Idnani dual active-set method in the H metric, which needs only
``Hinv = I - delta*G`` explicitly.  It is finite: it adds the most
violated halfspace, drops faces whose multipliers reach zero, and stops
once no halfspace is violated by more than
``ACTIVE_SET_TOL * (1 + max|p_ur|) * ||v||_1``.  It keeps the active Gram
matrix itself, not its inverse, and solves it once per step.  An empty
feasible set raises ``InfeasibleError``.

A box or difference-cap set whose data respect the network's types is
projected by the same method on the equitable quotient: the partition of
the markets refined from ``p_ur`` and the set's bounds by colour refinement
against G, and against the caps D as a second graph
(``network.equitable_partition``).  The H-projection is then constant on
cells, so the method runs in k cell coordinates ``z = C^{1/2} y`` (C the
cell sizes) with ``g = Q_s = C^{-1/2} P'GP C^{-1/2}`` in place of G, and the
result is lifted as ``p_ur + (z - z_ur)/C^{1/2}`` on each cell's markets.
The checks are exact: the partition has fewer than n cells (``p_ur`` with n
distinct values needs one sort to rule it out), the bounds are
colours and so constant on cells, and D is constant on every pair of
distinct cells (pairs inside a cell need no check, since their price
differences are zero).  Otherwise, and for every ``Halfspaces`` set, the
method runs on all n markets.  The method's input does not depend on
delta and is memoised per regulation in ``prim.active_set_inputs``, which
``MarketPrimitives.at`` shares: the partition and the cell data always,
and a full-n set's halfspaces (n(n-1) x n doubles for difference caps)
only for the rows of a sweep block (``gap_parts``), so that a sweep forms
them once and a lone projection frees them with its result, not with the
market.

``project`` memoises its price per ``(prim, k)`` on the primitives and
returns it read-only, so the outcome, the gap and the certificate of one
set share one projection.

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
from typing import NamedTuple

import numpy as np

from . import pareto as paretomod
from .errors import (
    DimensionMismatchError,
    EtaOutOfRangeError,
    InfeasibleError,
    InvariantError,
    NetregError,
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
    profit_ratio,
    ratios,
    unrestricted_price,
    welfare_outcome,
)
from .network import eigencentrality, equitable_partition, h_apply

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


def _active_set_projection(delta, g, vmat, offsets, q):
    """Goldfarb-Idnani dual active-set projection of q onto ``V x <= m`` in
    the metric ``H = (I - delta*g)^-1``, for a symmetric ``g``: G itself, or
    the quotient matrix of an equitable partition (see :func:`_cell_form`).

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
            hv_p = v_p - delta * (g @ v_p)
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
    Row-wise: a market whose ``delta`` is a column gets one price per row,
    each level from one ``np.vecdot`` row at that row's spillover, so a
    row's bits do not depend on its block.
    """
    w_h = prim.net.ones_hat * prim.h_hat
    level = np.vecdot(w_h, prim.unrestricted_hat) / np.vecdot(w_h, prim.net.ones_hat)
    return _rows(prim, level[..., None])


def _rows(prim, price):
    """``price`` on every row of ``prim``: ``(n,)`` for one market,
    ``(m, n)`` for a block of m spillovers."""
    rows = np.empty((*np.shape(prim.delta)[:-1], prim.n))
    rows[...] = price
    return rows


def project(prim: MarketPrimitives, k: RegulationSet) -> np.ndarray:
    """Firm's optimal regulated price: H-norm projection of p_ur onto K.

    Closed forms handle the unrestricted, uniform, average-price,
    zero-cap-difference (which is the uniform line) and fixed-price (point
    box) cases exactly, at one spillover or, row-wise, at every row of a
    column ``delta`` at once.  Everything else runs the finite dual
    active-set method over ``halfspace_form(k)`` at one spillover; it
    returns once no halfspace is violated by more than
    ``ACTIVE_SET_TOL * (1 + max|p_ur|) * ||v||_1`` and raises
    ``InfeasibleError`` when the set is empty.  A box or difference caps
    that pass the exact cell-invariance checks of the module docstring run
    the same method on the cells of their equitable partition instead of
    the n markets, and a set that binds nowhere returns ``p_ur``'s bits.

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


def _closed_form(k: RegulationSet) -> bool:
    """Whether ``project`` prices ``k`` in closed form, a block of rows at
    once: unrestricted, uniform, zero difference caps (the uniform line), a
    point box and an average-price cap (a single halfspace)."""
    return (
        isinstance(k, (Unrestricted, Uniform, AveragePrice))
        or (isinstance(k, PriceDifference) and k.zero_caps)
        or (isinstance(k, Box) and np.array_equal(k.lower, k.upper))
    )


class _ActiveSetInput(NamedTuple):
    """The delta-free input of the active-set method for one set: its
    halfspaces on all n markets, or a cell-invariant set in the cell
    coordinates ``z = C^{1/2} y`` of its equitable partition, where a price
    constant on cells is ``p = y[labels]`` and C holds the cell sizes."""

    metric: np.ndarray  # G, or Q_s = C^{-1/2} P'GP C^{-1/2}
    start: np.ndarray  # the unrestricted price: p_ur, or C^{1/2} y_ur
    rows: np.ndarray
    offsets: np.ndarray
    lift: tuple | None  # for cells: the cell of each market, and C^{1/2}


def _cell_form(prim: MarketPrimitives, k: RegulationSet) -> _ActiveSetInput | None:
    """``k`` in the cell coordinates of the equitable partition of G
    coloured by ``p_ur`` and k's bounds (refined against the caps D as a
    second graph); None when ``k`` is not a box or difference caps, the
    partition has n cells, or a cap varies within a pair of distinct cells.

    The cell-averaging projector X of an equitable partition commutes with
    G, hence with H, and ``X p_ur = p_ur``.  A box whose bounds are constant
    on cells (they are colours), or caps D constant on every pair of
    distinct cells, has ``X K ⊆ K`` (an average of differences is within
    the cap; pairs inside a cell have none), so the H-projection is constant
    on cells.  On those prices the metric is ``(I - delta*Q_s)^-1``, and the
    set is k's halfspaces among the cells' first markets, each column scaled
    by ``C^{-1/2}``.  All of this is delta-free: ``_active_set_input``
    memoises it in ``prim.active_set_inputs``, which ``at`` shares.
    """
    if not isinstance(k, (Box, PriceDifference)):
        return None
    q, n = unrestricted_price(prim), prim.n
    ordered = np.sort(q)  # np.unique of floats would import numpy.ma
    if np.all(ordered[1:] != ordered[:-1]):
        return None  # every market its own cell already
    if isinstance(k, Box):
        _check_dim(k.lower.shape[0], n)
        labels = equitable_partition(prim.net, np.column_stack([q, k.lower, k.upper]))
    else:
        _check_dim(k.delta_matrix.shape[0], n)
        labels = equitable_partition(prim.net, q, k.delta_matrix)
    sizes = np.bincount(labels)
    count = sizes.shape[0]
    if count == n:
        return None
    order = np.argsort(labels, kind="stable")  # the markets cell by cell
    starts = np.cumsum(sizes) - sizes
    first = order[starts]
    if isinstance(k, Box):
        cells = Box(lower=k.lower[first], upper=k.upper[first])
    else:
        caps = k.delta_matrix[np.ix_(first, first)]
        apart = labels[:, None] != labels
        if not np.array_equal(k.delta_matrix[apart], caps[np.ix_(labels, labels)][apart]):
            return None
        cells = PriceDifference(delta_matrix=caps)
    root = np.sqrt(sizes)
    rows, offsets = halfspace_form(cells, count)
    # each market of cell I sends the weight s_IJ into cell J, and
    # Q_s[I, J] = s_IJ * sqrt(C_I / C_J), symmetric
    into = np.add.reduceat(prim.net.adjacency[first][:, order], starts, axis=1)
    quotient = into * root[:, None] / root
    return _ActiveSetInput(0.5 * (quotient + quotient.T), root * q[first], rows / root, offsets, (labels, root))


def _active_set_input(prim: MarketPrimitives, k: RegulationSet) -> _ActiveSetInput:
    """k's input to the active-set method: its cell form, memoised in
    ``prim.active_set_inputs`` (None there when it has none), or else its
    halfspaces on all n markets, read from the memo when ``gap_parts`` has
    put them there for a block's rows and formed afresh otherwise."""
    if k not in prim.active_set_inputs:
        prim.active_set_inputs[k] = _cell_form(prim, k)
    form = prim.active_set_inputs[k]
    if form is None:
        form = _ActiveSetInput(prim.net.adjacency, unrestricted_price(prim), *halfspace_form(k, prim.n), None)
    return form


def _projected(prim: MarketPrimitives, k: RegulationSet) -> np.ndarray:
    q = unrestricted_price(prim)
    if not _closed_form(k):
        if isinstance(prim.delta, np.ndarray):
            raise UnsupportedRegulationError(f"kind {k.kind!r} has no closed form: project one spillover at a time")
        form = _active_set_input(prim, k)
        if form.offsets.shape[0] == 0:
            return q  # every bound infinite
        x = _active_set_projection(prim.delta, form.metric, form.rows, form.offsets, form.start)
        if form.lift is None:
            return x
        labels, root = form.lift
        # lifted relative to p_ur, so that a slack set returns p_ur's bits
        return q + ((x - form.start) / root)[labels]
    if isinstance(k, Unrestricted):
        return _rows(prim, q)
    if isinstance(k, PriceDifference):
        _check_dim(k.delta_matrix.shape[0], prim.n)  # zero caps: the uniform-price line
    if isinstance(k, (Uniform, PriceDifference)):
        return uniform_price(prim)
    if isinstance(k, Box):
        # fixed prices in every market: the set is a single point
        _check_dim(k.lower.shape[0], prim.n)
        return _rows(prim, k.lower)
    _check_dim(k.theta.shape[0], prim.n)
    slack = float(k.theta @ q) - k.cap  # delta-free: one per block
    if slack <= 0.0:
        return _rows(prim, q)
    hinv_theta = k.theta - prim.delta * (prim.net.adjacency @ k.theta)
    return q - (slack / np.vecdot(k.theta, hinv_theta))[..., None] * hinv_theta


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
    if profit_ratio(prim, e) < -1e-12:
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


def gap_parts(block: MarketPrimitives, k: RegulationSet):
    """``(p*, R_V(p*), tau*, R_V_plus(tau*), failure)`` for the rows of
    ``block``: the equilibrium prices, their welfare ratios and the frontier
    surplus ratio at each equilibrium profit ratio tau*.

    ``block`` is one market at a column of spillovers, one row each (from
    :meth:`MarketPrimitives.at`), or at one spillover, its own block of one
    row, whose projection memo it then shares.  A closed-form regulation is
    projected once, for all rows; any other is projected row by row, cold at
    each row's spillover (``block.at``), until a projection fails; the rows
    share one delta-free input in ``block.active_set_inputs``, k's
    halfspaces on all n markets included.  The rest is evaluated for all
    projected rows at once.  ``failure`` is None, or
    ``(row, error)`` for the first row that fails, by its first failing
    check: its projection (a closed-form projection fails at every row or
    none), tau* below -1e-9 (``OutOfRangeError``: the frontier is undefined
    there), then the frontier solve at tau* clamped to [0, 1].  The arrays
    hold the rows before it.
    """
    per_row = isinstance(block.delta, np.ndarray) and not _closed_form(k)
    markets = (block.at(delta) for delta in block.delta[:, 0].tolist()) if per_row else [block]
    prices, failure = [], None
    try:
        if per_row:
            block.active_set_inputs[k] = _active_set_input(block, k)
        for market in markets:
            prices.append(project(market, k))
    except NetregError as err:
        failure = (len(prices), err)
        if not prices:
            return np.empty((0, block.n)), np.empty(0), np.empty(0), np.empty(0), failure
        block = block.at(block.delta[: len(prices)])
    p_star = np.reshape(prices, (-1, block.n))
    r_v_star, tau_star = ratios(block, p_star)
    _, _, r_v_plus, failures = paretomod.frontier_rows(block, np.minimum(np.maximum(tau_star, 0.0), 1.0), "plus")
    for i in (tau_star < -1e-9).nonzero()[0].tolist():
        failures[i] = OutOfRangeError(
            f"equilibrium profit ratio {float(tau_star[i])!r} is negative; frontier undefined there"
        )
    if failures:
        first = min(failures)
        failure = (first, failures[first])
        p_star, r_v_star, tau_star, r_v_plus = p_star[:first], r_v_star[:first], tau_star[:first], r_v_plus[:first]
    return p_star, r_v_star, tau_star, r_v_plus, failure


def gap(prim: MarketPrimitives, k: RegulationSet) -> float:
    """Vertical distance ``R_V_plus(tau*) - R_V(p*)`` from the equilibrium
    surplus ratio to the frontier (nonnegative up to root tolerance)."""
    _, r_v_star, _, r_v_plus, failure = gap_parts(prim, k)
    if failure:
        raise failure[1]
    return float(r_v_plus[0] - r_v_star[0])
