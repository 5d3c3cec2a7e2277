"""Demand system, profit, consumer surplus, and welfare ratios.

Model: consumer in market ``i`` has linear-quadratic utility with
cross-market spillovers of intensity ``delta`` along the network, so
interior consumption at price ``p`` is ``x = H (a - p)`` with
``H = (I - delta*G)^-1``.  Profit is ``(p - c)' H (a - p)`` and aggregate
consumer surplus ``V = 0.5 ||x||^2``.  The unrestricted profit maximiser is
``(a + c) / 2`` regardless of the network.

Welfare comparisons use ratios against the unrestricted benchmark:
``R_V = V(p)/V(p_ur)`` and ``R_Pi = 1 - ||p - p_ur||_H^2 / ||(a-c)/2||_H^2``.
In the large-spillover limit both ratios collapse to functions of a single
scalar, the eigencentrality-weighted average price deviation
``A(p) = <w1, p - p_ur> / <w1, (a-c)/2>``: profit tends to ``1 - A^2``,
surplus to ``(1 - A)^2``.

Both ratios are weighted sums in the cached eigenbasis of ``G``, computed in
one place, :func:`surplus_ratio` and :func:`profit_ratio` (together
:func:`spectral_ratios`).  With the spectral deviation
``e = W'(p - p_ur)``, the markup ``d_hat = W'(a-c)/2`` and
``h = 1/(1 - delta*lambda)``, ``R_V = ||(d_hat - e)*h||^2 / ||d_hat*h||^2``
and ``R_Pi = 1 - <h, e^2> / <h, d_hat^2>``; a frontier point is
``e = -rho*d_hat``.  Each ratio is a quotient of forms in the same ``h``,
so their rounding errors cancel: ratios stay within about 1e-15 relative as
``delta*lambda_1`` approaches 1, although a raw ``H z`` from
:func:`netreg.network.h_apply` is accurate only to about
``eps / (1 - delta*lambda_1)``.

A sweep evaluates one market ``(G, a, c)`` at many spillovers.
:class:`MarketPrimitives` therefore keeps two kinds of cache: data that
depends on ``delta`` (``h_hat``, the projection memo) and data that does not
(``half_gap_hat``, ``unrestricted_hat``, and ``active_set_inputs``, each
active-set regulation's halfspaces on its equitable quotient, or on all n
markets for a sweep).  :meth:`MarketPrimitives.at` gives the same market
at another spillover, or at a column of them, sharing the second kind and
starting the first empty.

The welfare routines are row-wise: given prices as rows, :func:`ratios` and
:func:`a_statistic` return one value per row.  A market whose ``delta`` is a
column (``prim.at(deltas[:, None])``) holds one row per spillover, and its
``h_hat`` has one row per spillover; every routine that reads ``delta`` or
``h_hat`` then evaluates each row at its own spillover.  That includes the
closed-form projections of :func:`netreg.regulation.project` (unrestricted,
uniform, zero caps, a point box, an average-price cap), which price a whole
column in one call; an active-set projection takes one spillover at a
time.  A row's bits do not depend on the other rows: products are
elementwise, sums run along a row, each dot product is one ``np.vecdot``
row (the same BLAS dot as ``x @ y``), and ``W'(p - p_ur)`` is one gemv per
row (a gemm over the rows would round differently).  A market at one
spillover is the block of one row, through the same code.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import network as netmod
from .errors import (
    DimensionMismatchError,
    InvariantError,
    OutOfRangeError,
    SpectralBoundError,
    ValidationError,
)
from .network import Network, eigencentrality, h_apply


@dataclass(frozen=True, eq=False)
class MarketPrimitives:
    """Intrinsic values, marginal costs, and spillover intensity on a network.

    Requires finite ``a`` and ``c`` with ``a_i > c_i`` everywhere, and
    ``0 <= delta`` with ``delta * lambda_1 < 1``.

    Cached on first use: ``h_hat`` and ``projections`` depend on ``delta``;
    ``half_gap_hat``, ``unrestricted_hat`` and ``active_set_inputs`` depend on
    ``(G, a, c)`` alone, and :meth:`at` hands them to the same market at
    other spillovers.  ``delta`` is one value; :meth:`at` takes a column.
    """

    net: Network
    a: np.ndarray
    c: np.ndarray
    delta: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).copy()
        c = np.asarray(self.c, dtype=float).copy()
        if a.shape != (self.net.n,) or c.shape != (self.net.n,):
            raise DimensionMismatchError(
                f"a {a.shape} and c {c.shape} must have shape ({self.net.n},)"
            )
        for name, v in (("a", a), ("c", c)):
            if not np.all(np.isfinite(v)):
                i = int(np.argmin(np.isfinite(v)))
                raise ValidationError(f"{name}[{i}]={float(v[i])!r} must be finite")
        if not np.all(a > c):
            i = int(np.argmin(a - c))
            raise ValidationError(f"need a > c everywhere; a[{i}]={a[i]} <= c[{i}]={c[i]}")
        if np.ndim(self.delta) != 0:
            raise DimensionMismatchError(
                f"delta must be one value, got shape {np.shape(self.delta)}; "
                f"MarketPrimitives.at takes a column of spillovers"
            )
        netmod.check_spillover(self.net, self.delta)
        a.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def n(self):
        return self.net.n

    def at(self, delta) -> "MarketPrimitives":
        """The same market at spillover ``delta``: one value, or an array
        column of them (shape ``(m, 1)``), whose row i the row-wise routines
        evaluate at ``delta[i, 0]``.

        Checks ``delta`` like the constructor, a column in one pass, and
        shares the validated, read-only ``a`` and ``c`` and every
        delta-independent cache with ``self`` (forming them on ``self``
        first if needed); the per-delta caches of the result start empty.
        """
        if isinstance(delta, np.ndarray):
            if delta.ndim != 2 or delta.shape[1] != 1:
                raise DimensionMismatchError(f"spillovers must be one value or a column, got shape {delta.shape}")
            delta = delta.astype(float)
            delta.setflags(write=False)
        netmod.check_spillover(self.net, delta)
        other = object.__new__(MarketPrimitives)
        vars(other).update(
            net=self.net,
            a=self.a,
            c=self.c,
            delta=delta if isinstance(delta, np.ndarray) else float(delta),
            **{name: getattr(self, name) for name in _DELTA_FREE},
        )
        return other

    @cached_property
    def half_gap_hat(self) -> np.ndarray:
        """``W' (a-c)/2``: the markup in the eigenbasis of G, formed once,
        since every frontier routine starts from it."""
        dhat = self.net.spectrum.eigenvectors.T @ (0.5 * (self.a - self.c))
        dhat.setflags(write=False)
        return dhat

    @cached_property
    def unrestricted_hat(self) -> np.ndarray:
        """``W' p_ur``: the unrestricted price in the eigenbasis of G."""
        qhat = self.net.spectrum.eigenvectors.T @ unrestricted_price(self)
        qhat.setflags(write=False)
        return qhat

    @cached_property
    def h_hat(self) -> np.ndarray:
        """``1/(1 - delta*lambda)``: H in the eigenbasis of G, a diagonal."""
        h = 1.0 / (1.0 - self.delta * self.net.spectrum.eigenvalues)
        h.setflags(write=False)
        return h

    @cached_property
    def active_set_inputs(self) -> dict:
        """Memo of each active-set regulation's projection input
        (``regulation._active_set_input``): its halfspaces in the cell
        coordinates of its equitable partition, or None when it has none.
        ``regulation.gap_parts`` replaces None with the halfspaces on all n
        markets for a block's rows, so a sweep forms them once and a lone
        projection does not keep them.  It does not depend on delta, so
        :meth:`at` shares it."""
        return {}

    @cached_property
    def projections(self) -> dict:
        """Memo of ``regulation.project``: the read-only regulated price of
        each regulation, keyed by the regulation object (by identity for the
        array-holding kinds, by value for ``Uniform`` and ``Unrestricted``).
        It lives and dies with these primitives."""
        return {}


# the caches that `MarketPrimitives.at` shares across spillovers
_DELTA_FREE = ("half_gap_hat", "unrestricted_hat", "active_set_inputs")


@dataclass(frozen=True, eq=False)
class WelfareOutcome:
    """Full welfare evaluation at one price vector."""

    price: np.ndarray
    quantity: np.ndarray
    profit: float
    surplus: float
    r_v: float
    r_pi: float
    a_stat: float


def _check_price(prim: MarketPrimitives, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (prim.n,):
        raise DimensionMismatchError(f"price shape {p.shape} vs n={prim.n}")
    return p


def _check_rows(prim: MarketPrimitives, p) -> np.ndarray:
    """A price, or prices as rows."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != prim.n:
        raise DimensionMismatchError(f"price shape {p.shape} vs n={prim.n}")
    return p


def _scalar_or_rows(p, value):
    return float(value) if p.ndim == 1 else value


def _h(prim, v):
    return h_apply(prim.net, prim.delta, v)


def quad_form_h(prim: MarketPrimitives, z) -> float:
    """z' H z (H is symmetric positive definite)."""
    z = np.asarray(z, dtype=float)
    return float(z @ _h(prim, z))


def demand(prim: MarketPrimitives, p) -> np.ndarray:
    """Equilibrium consumption ``x = H (a - p)``; entries may be negative."""
    p = _check_price(prim, p)
    return _h(prim, prim.a - p)


def profit(prim: MarketPrimitives, p) -> float:
    p = _check_price(prim, p)
    return float((p - prim.c) @ _h(prim, prim.a - p))


def consumer_surplus(prim: MarketPrimitives, p) -> float:
    """Aggregate surplus across the n market-level consumers: 0.5 ||x||^2."""
    x = demand(prim, p)
    return 0.5 * float(x @ x)


def consumer_surplus_av(prim: MarketPrimitives, p) -> float:
    """Surplus of a single representative consumer: 0.5 (a-p)' H (a-p)."""
    p = _check_price(prim, p)
    return 0.5 * quad_form_h(prim, prim.a - p)


def unrestricted_price(prim: MarketPrimitives) -> np.ndarray:
    """Profit-maximising price with no regulation: (a + c) / 2."""
    return 0.5 * (prim.a + prim.c)


def half_gap(prim: MarketPrimitives) -> np.ndarray:
    """(a - c) / 2, the markup of the unrestricted price over cost."""
    return 0.5 * (prim.a - prim.c)


def spectral_ratios(prim: MarketPrimitives, e):
    """(R_V, R_Pi) of each row of the spectral price deviation
    ``e = W'(p - p_ur)``: :func:`surplus_ratio` and :func:`profit_ratio`."""
    return surplus_ratio(prim, e), profit_ratio(prim, e)


def surplus_ratio(prim: MarketPrimitives, e):
    """``R_V = ||(d_hat - e)*h||^2 / ||d_hat*h||^2`` of each row of ``e``,
    with ``d_hat = half_gap_hat`` and ``h = h_hat``; each norm is one
    ``np.vecdot`` per row.  A frontier point has ``e = -rho*d_hat``."""
    dhat, h = prim.half_gap_hat, prim.h_hat
    x = (dhat - e) * h
    y = dhat * h
    return np.vecdot(x, x) / np.vecdot(y, y)


def profit_ratio(prim: MarketPrimitives, e):
    """``R_Pi = 1 - <h, e^2> / <h, d_hat^2>`` of each row of ``e``, the
    forms summed as in :func:`surplus_ratio`."""
    dhat, h = prim.half_gap_hat, prim.h_hat
    return 1.0 - np.vecdot(h, e * e) / np.vecdot(dhat, dhat * h)


def ratios(prim: MarketPrimitives, p):
    """(R_V, R_Pi) at price p, normalised by the unrestricted benchmark.

    Row-wise: prices as rows give one array of each ratio, row i at its own
    spillover when ``prim.delta`` is a column.
    ``W'(p - p_ur)`` is one gemv per row, as for a single price.
    """
    p = _check_rows(prim, p)
    d = p - unrestricted_price(prim)
    wt = prim.net.spectrum.eigenvectors.T
    e = np.empty_like(d)
    for row, out in zip(d.reshape(-1, prim.n), e.reshape(-1, prim.n)):
        np.matmul(wt, row, out=out)
    r_v, r_pi = spectral_ratios(prim, e)
    return _scalar_or_rows(p, r_v), _scalar_or_rows(p, r_pi)


def a_statistic(prim: MarketPrimitives, p):
    """Eigencentrality-weighted average price deviation, normalised.

    ``A(p) = <w1, p - p_ur> / <w1, (a-c)/2>``; the denominator is positive
    because ``w1 > 0`` and ``a > c``.  Row-wise: prices as rows give an
    array.
    """
    p = _check_rows(prim, p)
    w1 = eigencentrality(prim.net)
    denom = float(w1 @ half_gap(prim))
    if not denom > 0.0:
        raise InvariantError(f"centrality-weighted markup {denom!r} must be positive")
    return _scalar_or_rows(p, np.vecdot(w1, p - unrestricted_price(prim)) / denom)


def limit_ratios(a_stat: float, allow_out_of_range: bool = False) -> tuple[float, float]:
    """Large-spillover limits (R_V, R_Pi) = ((1-A)^2, 1-A^2) for a fixed price.

    ``|A| > 1`` means negative limiting profit; rejected unless the caller
    asks for the raw formula.
    """
    if abs(a_stat) > 1.0 and not allow_out_of_range:
        raise OutOfRangeError(f"|a_stat|={abs(a_stat)!r} > 1 (negative limiting profit)")
    return (1.0 - a_stat) ** 2, 1.0 - a_stat**2


def welfare_outcome(prim: MarketPrimitives, p) -> WelfareOutcome:
    p = _check_price(prim, p)
    x = demand(prim, p)
    r_v, r_pi = ratios(prim, p)
    out_p = p.copy()
    out_p.setflags(write=False)
    x = x.copy()
    x.setflags(write=False)
    return WelfareOutcome(
        price=out_p,
        quantity=x,
        profit=float((p - prim.c) @ x),
        surplus=0.5 * float(x @ x),
        r_v=r_v,
        r_pi=r_pi,
        a_stat=a_statistic(prim, p),
    )


def delta_near_bound(net: Network, epsilon: float) -> float:
    """The spillover value ``(1 - epsilon) / lambda_1``.

    Convenience for limit sweeps; raises if the graph has ``lambda_1 = 0``
    (single node) or if epsilon is not in (0, 1].
    """
    if not 0.0 < epsilon <= 1.0:
        raise OutOfRangeError(f"epsilon={epsilon!r} must lie in (0, 1]")
    lam1 = net.lambda1
    if lam1 <= 0.0:
        raise SpectralBoundError("lambda_1 = 0: any nonnegative delta is admissible")
    return (1.0 - epsilon) / lam1
