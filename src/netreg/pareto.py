"""Pareto-optimal price family and the surplus-profit frontier.

Holding the profit ratio at a floor ``tau``, the surplus-extremal prices
form a one-parameter family: the unrestricted price shifted by a multiple
of a Katz-Bonacich vector,

    p(eta) = (a+c)/2 - eta/(2-eta) * [I - 2*delta/(2-eta) * G]^-1 (a-c)/2 .

In the eigenbasis of ``G`` the shift acts coordinatewise,
``p_hat_i = p_ur_hat_i - rho_i(eta) * d_hat_i`` with
``rho_i(eta) = eta / (2 - 2*delta*lambda_i - eta)`` and ``d = (a-c)/2``,
which is how all routines here evaluate it: both welfare ratios of a
frontier price come from :func:`netreg.market.surplus_ratio` and
:func:`netreg.market.profit_ratio` at the spectral deviation
``e = -rho*d_hat``.  The surplus-maximising branch
runs over ``eta in [0, eta_hat_plus]`` where ``eta_hat_plus`` solves
``R_Pi = 0``; the surplus-minimising branch runs to ``eta = -inf`` and is
parametrised by ``u = -eta/(2-eta) in [0, 1]`` (``u = 1`` gives price
``a``), so root finding happens on a bounded interval.

Both branches are pinned to the floor by solving ``R_Pi(p(eta)) = tau`` in
the form ``||sqrt(b) * rho|| = sqrt(1 - tau)``, with weights
``b = h*d_hat^2 / sum(h*d_hat^2)`` and ``h = 1/(1 - delta*lambda)``, whose
relative accuracy does not decay as tau -> 1 (a test on ``|R_Pi - tau|``
alone leaves an error of order ``1e-12 / sqrt(1 - tau)`` in the surplus
ratio).  Both branches are solved in one coordinate, ``v = |rho_1|``, with
``rho_1 = t = eta/(s_1 - eta)`` and ``s = 2 - 2*delta*lambda``: ``t = v`` on
the maximising branch and ``t = -v`` on the minimising one.  Every
``|rho_i|`` rises strictly in v, so the root is unique, and the norm lies
within known multiples of v, which gives a tight starting bracket.  Newton
steps kept inside the shrinking bracket, with bisection whenever a step
would leave it, converge to machine precision, on the desk experiments in
under two evaluations per root on average.  A Ramsey cross-check recovers
the same prices from the weighted objective ``profit + eta * surplus``
through an independent dense solve.

The root is solved row-wise, in one routine, :func:`frontier_rows`: one row
per profit ratio, at one spillover (``frontier``, and a single point as the
block of one row) or at one spillover per row (a block of sweep rows: a
market whose ``delta`` is a column).  Every row takes its own Newton
steps with elementwise numpy and ``np.vecdot``, and leaves the evaluated
rows once it converges, so its bits do not depend on the other rows.  A row
that fails is reported by row, not raised, so that a sweep can name the
first failing spillover; the single-point functions raise it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EtaOutOfRangeError,
    NoConvergenceError,
    OutOfRangeError,
    SingularSystemError,
)
from .market import MarketPrimitives, half_gap, profit_ratio, surplus_ratio, unrestricted_price

RESIDUAL_TOL = 1e-12
ROOT_RTOL = 1e-13
MAX_ROOT_STEPS = 200


@dataclass(frozen=True, eq=False)
class ParetoPoint:
    """One frontier sample: both branch prices pinned at profit ratio tau.

    ``eta_minus_u`` stores the bounded parameter ``u = -eta/(2-eta)`` of the
    minimising branch, not eta itself (which is -inf at tau = 0).
    """

    tau: float
    eta_plus: float
    eta_minus_u: float
    price_plus: np.ndarray
    price_minus: np.ndarray
    r_v_plus: float
    r_v_minus: float


def eta_max(prim: MarketPrimitives) -> float:
    """Open upper end 2 - 2*delta*lambda_1 of the maximising branch."""
    return 2.0 - 2.0 * prim.delta * prim.net.lambda1


def _rho_plus(prim, eta):
    lam = prim.net.spectrum.eigenvalues
    return eta / (2.0 - 2.0 * prim.delta * lam - eta)


def _rho_minus_u(prim, u):
    k = prim.delta * prim.net.spectrum.eigenvalues
    return -u / ((1.0 - k) + k * u)  # no cancellation in 1 - k*(1-u) near the bound


def _price_of_rho(prim, rho):
    return unrestricted_price(prim) - prim.net.spectrum.eigenvectors @ (rho * prim.half_gap_hat)


def pareto_price(prim: MarketPrimitives, eta: float) -> np.ndarray:
    """Price of the family at parameter eta (finite; eta < 2 - 2*delta*lambda_1)."""
    if eta >= eta_max(prim):
        raise EtaOutOfRangeError(f"eta={eta!r} must be < {eta_max(prim)!r}")
    return _price_of_rho(prim, _rho_plus(prim, eta))


def pareto_price_minus(prim: MarketPrimitives, u: float) -> np.ndarray:
    """Minimising-branch price at bounded parameter u in [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise EtaOutOfRangeError(f"u={u!r} must lie in [0, 1]")
    return _price_of_rho(prim, _rho_minus_u(prim, u))


def _newton_root(g, lo, hi, x):
    """Row-wise roots of increasing functions on ``[lo, hi]`` by Newton steps
    from x.

    ``g(x, rows)`` returns the value and the slope of each row in ``rows``
    (indices, or a slice while every row is open) at its x.  Each evaluation
    shrinks a row's bracket to the side of x that still holds its root; a
    Newton step that would leave the bracket, as one with a zero or NaN
    slope does, is replaced by bisection.  A row ends at the next iterate
    once that moves x by at most ``ROOT_RTOL`` relative, or at x if its
    value is zero, and is not evaluated again; a row whose bracket is one
    point ends there unevaluated, as Newton would.  Returns the roots and
    the rows still open after ``MAX_ROOT_STEPS`` evaluations, whose roots
    are NaN.
    """
    root = x.copy()
    rows = (~(hi <= lo)).nonzero()[0]
    if rows.size < root.size:
        x, lo, hi = x[rows], lo[rows], hi[rows]
    for _ in range(MAX_ROOT_STEPS):
        if not rows.size:
            return root, rows
        value, slope = g(x, rows if rows.size < root.size else slice(None))  # a view while all are open
        above = value > 0.0
        lo, hi = np.where(above, lo, x), np.where(above, x, hi)
        step = x - value / slope
        inside = (lo < step) & (step < hi)
        if False in inside.tolist():  # a zero value leaves its step at x = lo, outside too
            step = np.where(inside, step, np.where(value == 0.0, x, 0.5 * (lo + hi)))
        done = np.abs(step - x) <= ROOT_RTOL * np.abs(step)
        flags = done.tolist()
        if all(flags):
            root[rows] = step
            return root, rows[:0]
        if any(flags):
            root[rows[done]] = step[done]
            open_ = ~done
            rows, step, lo, hi = rows[open_], step[open_], lo[open_], hi[open_]
        x = step
    root[rows] = np.nan
    return root, rows


def eta_of_rho1(prim: MarketPrimitives, t):
    """The eta at which ``rho_1 = t``: ``s_1 t / (1 + t)`` for ``t > -1``."""
    return eta_max(prim) * t / (1.0 + t)


def _rho1_coordinate(prim):
    """``(s_1, s - s_1, s / s_1)`` for the family in ``t = rho_1 = eta/(s_1 - eta)``.

    With ``s_i = 2 - 2*delta*lambda_i``, ``rho_i = t q_i(t)`` where
    ``q_i(t) = s_1 / (s_1 + (s_i - s_1)(1+t))`` for every ``t >= -1``
    (:func:`_q`); ``s_i - s_1 = 2*delta*(lambda_1 - lambda_i) >= 0``, so
    ``|rho_i| <= |t|`` and ``d rho_i / dt = q_i^2 s_i / s_1``.
    """
    lam = prim.net.spectrum.eigenvalues
    s1 = eta_max(prim)
    gaps = 2.0 * prim.delta * (lam[0] - lam)
    return s1, gaps, 1.0 + gaps / s1


def _q(s1, gaps, t):
    return s1 / (s1 + gaps * (1.0 + t))


def family_deviation(prim: MarketPrimitives, t: float) -> np.ndarray:
    """Spectral deviation ``e = -rho(t) * d_hat`` of the family price with
    ``rho_1 = t >= -1``, in the same coordinate as the frontier root."""
    s1, gaps, _ = _rho1_coordinate(prim)
    return -t * _q(s1, gaps, t) * prim.half_gap_hat


def _rho1_root(prim, tau, branch):
    """``v = |rho_1|`` at which ``||sqrt(b) * rho|| = sqrt(1 - tau)``, with
    ``t = v`` on the ``'plus'`` branch and ``t = -v`` on the ``'minus'`` one,
    for each row of ``tau``.

    ``|rho_i| = v q_i(+-v)`` and ``d|rho_i|/dv = q_i^2 s_i / s_1`` on both
    sides.  ``q_1 = 1`` and, over t, every other ``q_i`` falls from 1 at
    ``t = -1`` through ``q_i(0)`` towards 0, so the norm over v lies between
    ``kappa = ||sqrt(b) * q(0)||`` and ``sqrt(b_1)`` on the maximising branch
    and between ``kappa`` and 1 on the minimising one.  The root therefore
    lies in ``[sqrt(1-tau)/kappa, sqrt((1-tau)/b_1)]``, where Newton starts
    at the low end, or in ``[sqrt(1-tau), sqrt(1-tau)/kappa]``, where it
    starts at the high end.  Upper ends are padded by ``ROOT_RTOL`` against
    rounding.  The profit-ratio residual at the returned v is the guard: a
    bracket that missed the root would end Newton at one of its ends, where
    the residual check fails.  Returns v and ``{row: NoConvergenceError}``.
    """
    base = prim.h_hat * prim.half_gap_hat**2
    b = base / base.sum(axis=-1, keepdims=True)
    target = np.sqrt(1.0 - tau)
    pad = 1.0 + ROOT_RTOL
    s1, gaps, growth = _rho1_coordinate(prim)
    kappa = np.sqrt(np.vecdot(b, _q(s1, gaps, 0.0) ** 2))
    if branch == "plus":
        shift, what = np.add, "eta solve (plus branch)"  # 1 + t with t = v
        lo, hi = target / kappa, target / np.sqrt(b[..., 0]) * pad
        start = lo
    else:
        shift, what = np.subtract, "u solve (minus branch)"  # 1 + t with t = -v
        lo, hi = target, np.minimum(1.0, target / kappa * pad)
        start = hi
    per_row = (s1, gaps, growth, b)
    shared = not isinstance(s1, np.ndarray)  # one spillover for every row

    def rho_of(v, rows):  # |rho|, q, and the growth and weights b of the rows
        s1_, gaps_, growth_, b_ = per_row if shared else [a[rows] for a in per_row]
        v = v[:, None]
        q = s1_ / (s1_ + gaps_ * shift(1.0, v))
        return v * q, q, growth_, b_

    def g(v, rows):
        rho, q, growth_, b_ = rho_of(v, rows)
        norm = np.sqrt(np.vecdot(b_, rho * rho))
        return norm - target[rows], np.vecdot(b_, rho * (q * q * growth_)) / norm

    with np.errstate(divide="ignore", invalid="ignore"):  # a zero or NaN slope bisects
        v, open_rows = _newton_root(g, lo, hi, start)
    failures = {i: NoConvergenceError(f"{what}: no root after {MAX_ROOT_STEPS} steps") for i in open_rows.tolist()}
    residual = profit_ratio(prim, rho_of(v, slice(None))[0] * prim.half_gap_hat) - tau  # the sign of e cancels
    for i in (np.abs(residual) > RESIDUAL_TOL).nonzero()[0].tolist():
        failures.setdefault(i, NoConvergenceError(f"{what}: profit-ratio residual {float(residual[i])!r}"))
    return v, failures


def frontier_rows(prim: MarketPrimitives, tau: np.ndarray, branch: str):
    """The frontier point on one branch at each profit ratio in ``tau``.

    Row i is at the spillover of ``prim``, or at its own when ``prim.delta``
    is a column.  Returns
    ``(parameter, rho, R_V, failures)``: eta on the ``'plus'`` branch and
    the bounded parameter u on the ``'minus'`` one, the spectral weights and
    the surplus ratio of each point, and ``{row: error}`` for the rows that
    fail, each by its first failing check: tau outside [0, 1]
    (``OutOfRangeError``), then the root (``NoConvergenceError``).  The
    values of a failed row are meaningless.
    """
    if branch not in ("plus", "minus"):
        raise OutOfRangeError(f"branch must be 'plus' or 'minus', got {branch!r}")
    valid = (0.0 <= tau) & (tau <= 1.0)
    v, failures = _rho1_root(prim, np.where(valid, tau, 1.0), branch)
    for i in (~valid).nonzero()[0].tolist():
        failures[i] = OutOfRangeError(f"tau={float(tau[i])!r} must lie in [0, 1]")
    v = v[:, None]
    if branch == "plus":
        param = eta_of_rho1(prim, v)
        rho = _rho_plus(prim, param)
    else:
        s1 = eta_max(prim)
        param = s1 * v / (2.0 * (1.0 - v) + s1 * v)
        rho = _rho_minus_u(prim, param)
    return param[:, 0], rho, surplus_ratio(prim, -rho * prim.half_gap_hat), failures


def _point(prim, tau, branch):
    """(parameter, R_V) of the frontier point on one branch at tau, the
    block of one row; its failure raises."""
    param, _, r_v, failures = frontier_rows(prim, np.array([float(tau)]), branch)
    if failures:
        raise failures[0]
    return float(param[0]), float(r_v[0])


def solve_eta_for_tau(prim: MarketPrimitives, tau: float, branch: str) -> float:
    """Root of ``R_Pi(p(.)) = tau`` on one branch.

    Returns eta for ``branch='plus'`` and the bounded parameter u for
    ``branch='minus'``.

    Solves ``||sqrt(b) * rho|| = sqrt(1 - tau)`` with
    ``b = h*dhat^2 / sum(h*dhat^2)``, so that
    ``R_Pi = 1 - ||sqrt(b) * rho||^2``.  Unlike ``R_Pi = tau`` this form
    keeps its relative accuracy as tau -> 1.  Both branches are solved in
    ``v = |rho_1|``; the minimising branch maps the root to
    ``u = s_1 v / (2(1-v) + s_1 v)``.  At tau = 1 the root is v = 0, so
    eta and u are exactly 0.
    """
    return _point(prim, tau, branch)[0]


def eta_hat_plus(prim: MarketPrimitives) -> float:
    """Largest admissible eta on the maximising branch: R_Pi(p(eta)) = 0."""
    return solve_eta_for_tau(prim, 0.0, "plus")


def rv_plus(prim: MarketPrimitives, tau: float) -> float:
    """R_V_plus: the largest surplus ratio achievable at profit ratio tau."""
    return _point(prim, tau, "plus")[1]


def rv_bounds(prim: MarketPrimitives, tau: float) -> tuple[float, float]:
    """(R_V_minus, R_V_plus): the surplus ratios achievable at profit ratio tau.

    Every surplus ratio between the two is feasible at that profit level.
    """
    return _point(prim, tau, "minus")[1], rv_plus(prim, tau)


def ramsey_price(prim: MarketPrimitives, eta_plus: float) -> np.ndarray:
    """Maximiser of ``profit + eta_plus * surplus`` by an independent solve.

    Solves the stationarity system
    ``[eta*H^2 - 2H] p = [eta*H^2 - 2H] p_ur + eta*H^2 (a-c)/2`` with a
    dense explicit ``H``, deliberately not reusing the spectral form of the
    price family, so the two construction paths can cross-validate.
    """
    if eta_plus < 0.0 or eta_plus >= eta_max(prim):
        raise EtaOutOfRangeError(f"eta_plus={eta_plus!r} outside [0, {eta_max(prim)!r})")
    n = prim.n
    h = np.linalg.inv(np.eye(n) - prim.delta * prim.net.adjacency)
    h2 = h @ h
    m = eta_plus * h2 - 2.0 * h
    rhs = m @ unrestricted_price(prim) + eta_plus * (h2 @ half_gap(prim))
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(f"stationarity system singular: {err}") from err


def frontier(prim: MarketPrimitives, tau_grid=None) -> list[ParetoPoint]:
    """One ParetoPoint per grid value, both branches pinned at each tau.

    Defaults to 101 uniform points on [0, 1], enough for smooth plots at
    desk scale.  A grid that is not one-dimensional raises
    ``DimensionMismatchError``.
    """
    if tau_grid is None:
        tau_grid = np.linspace(0.0, 1.0, 101)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1:
        raise DimensionMismatchError(f"tau grid shape {tau_grid.shape} must be one-dimensional")
    if tau_grid.size == 0 or np.any(tau_grid < 0.0) or np.any(tau_grid > 1.0):
        raise OutOfRangeError("tau grid must be nonempty and lie within [0, 1]")
    eta, rho_p, r_v_plus, plus_failures = frontier_rows(prim, tau_grid, "plus")
    u, rho_m, r_v_minus, minus_failures = frontier_rows(prim, tau_grid, "minus")
    if plus_failures or minus_failures:  # the first tau's, the plus branch's first
        failures = [(i, 0, err) for i, err in plus_failures.items()]
        failures += [(i, 1, err) for i, err in minus_failures.items()]
        raise min(failures, key=lambda f: f[:2])[2]
    return [
        ParetoPoint(
            tau=t,
            eta_plus=e,
            eta_minus_u=m,
            price_plus=_price_of_rho(prim, rp),
            price_minus=_price_of_rho(prim, rm),
            r_v_plus=vp,
            r_v_minus=vm,
        )
        for t, e, m, rp, rm, vp, vm in zip(
            tau_grid.tolist(), eta.tolist(), u.tolist(), rho_p, rho_m, r_v_plus.tolist(), r_v_minus.tolist()
        )
    ]


def frontier_limit(tau: float) -> float:
    """Large-spillover limit of the frontier surplus ratio: (1+sqrt(1-tau))^2."""
    if not 0.0 <= tau <= 1.0:
        raise OutOfRangeError(f"tau={tau!r} must lie in [0, 1]")
    return (1.0 + np.sqrt(1.0 - tau)) ** 2


def av_pareto_price(prim: MarketPrimitives, tau: float, branch: str) -> np.ndarray:
    """Frontier price under the representative-consumer surplus definition.

    Closed form ``(a+c)/2 - gamma*sqrt(1-tau)*(a-c)/2``; induced quantities
    scale the unrestricted ones by ``1 - gamma*sqrt(1-tau)``.
    """
    if not 0.0 <= tau <= 1.0:
        raise OutOfRangeError(f"tau={tau!r} must lie in [0, 1]")
    if branch not in ("plus", "minus"):
        raise OutOfRangeError(f"branch must be 'plus' or 'minus', got {branch!r}")
    gamma = 1.0 if branch == "plus" else -1.0
    return unrestricted_price(prim) - gamma * np.sqrt(1.0 - tau) * half_gap(prim)


def av_rv_bounds(tau: float) -> tuple[float, float]:
    """Representative-consumer surplus-ratio range at profit ratio tau.

    ``((1-sqrt(1-tau))^2, (1+sqrt(1-tau))^2)``, independent of delta.
    """
    if not 0.0 <= tau <= 1.0:
        raise OutOfRangeError(f"tau={tau!r} must lie in [0, 1]")
    root = np.sqrt(1.0 - tau)
    return (1.0 - root) ** 2, (1.0 + root) ** 2
