"""Pareto-optimal price family and the surplus-profit frontier.

Holding the profit ratio at a floor ``tau``, the surplus-extremal prices
form a one-parameter family: the unrestricted price shifted by a multiple
of a Katz-Bonacich vector,

    p(eta) = (a+c)/2 - eta/(2-eta) * [I - 2*delta/(2-eta) * G]^-1 (a-c)/2 .

In the eigenbasis of ``G`` the shift acts coordinatewise,
``p_hat_i = p_ur_hat_i - rho_i(eta) * d_hat_i`` with
``rho_i(eta) = eta / (2 - 2*delta*lambda_i - eta)`` and ``d = (a-c)/2``,
which is how all routines here evaluate it: both welfare ratios of a
frontier price come from :func:`netreg.market.spectral_ratios` at the
spectral deviation ``e = -rho*d_hat``.  The surplus-maximising branch
runs over ``eta in [0, eta_hat_plus]`` where ``eta_hat_plus`` solves
``R_Pi = 0``; the surplus-minimising branch runs to ``eta = -inf`` and is
parametrised by ``u = -eta/(2-eta) in [0, 1]`` (``u = 1`` gives price
``a``), so root finding happens on a bounded interval.

Both branches are pinned to the floor by solving ``R_Pi(p(eta)) = tau`` in
the form ``||sqrt(b) * rho|| = sqrt(1 - tau)``, with weights
``b = h*d_hat^2 / sum(h*d_hat^2)`` and ``h = 1/(1 - delta*lambda)``, whose
relative accuracy does not decay as tau -> 1 (a test on ``|R_Pi - tau|``
alone leaves an error of order ``1e-12 / sqrt(1 - tau)`` in the surplus
ratio).  The maximising branch is solved in ``t = rho_1 = eta/(s_1 - eta)``
with ``s = 2 - 2*delta*lambda``, and the minimising branch in u.  The norm
is strictly increasing along each branch and lies within known multiples
of ``|rho_1|``, which gives a tight starting bracket.  Newton steps kept
inside the shrinking bracket, with bisection whenever a step would leave
it, converge to machine precision, on the desk experiments in under two
evaluations per root on average.  The same routine finds the frontier
price with a given weighted average (``eta_at_average``).  A Ramsey
cross-check recovers the same prices from the weighted objective
``profit + eta * surplus`` through an independent dense solve.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EtaOutOfRangeError,
    InvariantError,
    NoConvergenceError,
    OutOfRangeError,
    SingularSystemError,
)
from .market import MarketPrimitives, half_gap, spectral_ratios, unrestricted_price

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


def _ratios_of_rho(prim, rho):
    return spectral_ratios(prim, -rho * prim.half_gap_hat)


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


def _check_monotone(g, lo, hi):
    # the profit loss 1 - R_Pi rises strictly along each branch; spot-check the bracket
    probes = [lo + t * (hi - lo) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    vals = [g(t) for t in probes]
    for left, right in zip(vals, vals[1:]):
        if not right >= left - 1e-12:
            raise InvariantError("profit loss is not increasing on the bracket")


def _newton_root(g, lo, hi, x, what):
    """Root of an increasing function on ``[lo, hi]`` by Newton steps from x.

    ``g(x)`` returns the value and the slope.  Each evaluation shrinks the
    bracket to the side of x that still holds the root; a Newton step that
    would leave the bracket is replaced by bisection.  Returns the next
    iterate once it moves x by at most ``ROOT_RTOL`` relative.
    """
    for _ in range(MAX_ROOT_STEPS):
        value, slope = g(x)
        if value == 0.0:
            return x
        if value > 0.0:
            hi = x
        else:
            lo = x
        step = x - value / slope if slope > 0.0 else np.nan
        if not lo < step < hi:  # also true for nan
            step = 0.5 * (lo + hi)
        if abs(step - x) <= ROOT_RTOL * abs(step):
            return step
        x = step
    raise NoConvergenceError(f"{what}: no root after {MAX_ROOT_STEPS} steps")


def _plus_coordinate(prim):
    """``(s_1, s / s_1, q)`` for the maximising branch in ``t = rho_1 = eta/(s_1 - eta)``.

    With ``s_i = 2 - 2*delta*lambda_i``, ``eta = s_1 t/(1+t)`` and
    ``rho_i = t q_i(t)`` where ``q_i(t) = s_1 / (s_1 + (s_i - s_1)(1+t))``;
    ``s_i - s_1 = 2*delta*(lambda_1 - lambda_i) >= 0``, so ``rho_i <= t``
    and ``d rho_i / dt = q_i^2 s_i / s_1``.
    """
    lam = prim.net.spectrum.eigenvalues
    s1 = 2.0 - 2.0 * prim.delta * lam[0]
    gaps = 2.0 * prim.delta * (lam[0] - lam)

    def q_of(t):
        return s1 / (s1 + gaps * (1.0 + t))

    return s1, 1.0 + gaps / s1, q_of


def solve_eta_for_tau(prim: MarketPrimitives, tau: float, branch: str) -> float:
    """Root of ``R_Pi(p(.)) = tau`` on one branch.

    Returns eta for ``branch='plus'`` and the bounded parameter u for
    ``branch='minus'``.

    Solves ``||sqrt(b) * rho|| = sqrt(1 - tau)`` with
    ``b = h*dhat^2 / sum(h*dhat^2)``, so that
    ``R_Pi = 1 - ||sqrt(b) * rho||^2``.  Unlike ``R_Pi = tau`` this form
    keeps its relative accuracy as tau -> 1.

    The maximising branch is solved in ``t = rho_1``.  There every
    ``rho_i = t q_i(t)`` with ``q_1 = 1`` and ``q_i`` falling in t, so the
    norm over t falls from ``kappa = ||sqrt(b) * q(0)||`` towards
    ``sqrt(b_1)``: the root lies in ``[sqrt(1-tau)/kappa, sqrt((1-tau)/b_1)]``
    and Newton starts at the low end.  The minimising branch is solved in
    u; in ``v = |rho_1|`` its norm over v rises from ``kappa`` to 1, so
    ``v`` lies in ``[sqrt(1-tau), sqrt(1-tau)/kappa]``, mapped to u, and
    Newton starts at the high end.  Upper ends are padded by ``ROOT_RTOL``
    against rounding.
    """
    if not 0.0 <= tau <= 1.0:
        raise OutOfRangeError(f"tau={tau!r} must lie in [0, 1]")
    if branch not in ("plus", "minus"):
        raise OutOfRangeError(f"branch must be 'plus' or 'minus', got {branch!r}")
    if tau == 1.0:
        return 0.0
    base = prim.h_hat * prim.half_gap_hat**2
    b = base / base.sum()
    target = math.sqrt(1.0 - tau)
    pad = 1.0 + ROOT_RTOL

    if branch == "plus":
        s1, growth, q_of = _plus_coordinate(prim)

        def rho_of(t):
            q = q_of(t)
            return t * q, q * q * growth

        kappa = math.sqrt(float(b @ q_of(0.0) ** 2))
        lo, hi = target / kappa, target / math.sqrt(float(b[0])) * pad
        start, what = lo, "eta solve (plus branch)"
    else:
        k = prim.delta * prim.net.spectrum.eigenvalues
        stay = 1.0 - k

        def rho_of(u):
            # |rho_i| = u / (1 - delta*lambda_i*(1-u)) and its derivative
            den = stay + k * u
            return u / den, stay / (den * den)

        def u_of(v):  # the u at which |rho_1| = v
            return v * stay[0] / (stay[0] + k[0] * (1.0 - v))

        kappa = math.sqrt(float(b @ (stay[0] / stay) ** 2))
        lo, hi = u_of(target), u_of(min(1.0, target / kappa * pad))
        start, what = hi, "u solve (minus branch)"

    def g(x):
        rho, slope = rho_of(x)
        norm = math.sqrt(float(b @ (rho * rho)))
        return norm - target, float(b @ (rho * slope)) / norm

    _check_monotone(lambda x: float(b @ rho_of(x)[0] ** 2), lo, hi)
    x = _newton_root(g, lo, hi, start, what)
    residual = _ratios_of_rho(prim, rho_of(x)[0])[1] - tau  # |rho| suffices
    if abs(residual) > RESIDUAL_TOL:
        raise NoConvergenceError(f"{what}: profit-ratio residual {residual!r}")
    return s1 * x / (1.0 + x) if branch == "plus" else x


def eta_hat_plus(prim: MarketPrimitives) -> float:
    """Largest admissible eta on the maximising branch: R_Pi(p(eta)) = 0."""
    return solve_eta_for_tau(prim, 0.0, "plus")


def rv_plus(prim: MarketPrimitives, tau: float) -> float:
    """R_V_plus: the largest surplus ratio achievable at profit ratio tau."""
    eta = solve_eta_for_tau(prim, tau, "plus")
    return _ratios_of_rho(prim, _rho_plus(prim, eta))[0]


def rv_bounds(prim: MarketPrimitives, tau: float) -> tuple[float, float]:
    """(R_V_minus, R_V_plus): the surplus ratios achievable at profit ratio tau.

    Every surplus ratio between the two is feasible at that profit level.
    """
    u = solve_eta_for_tau(prim, tau, "minus")
    return _ratios_of_rho(prim, _rho_minus_u(prim, u))[0], rv_plus(prim, tau)


def eta_at_average(prim: MarketPrimitives, theta, level: float) -> float | None:
    """The eta in ``[0, eta_hat_plus]`` at which ``<theta, p(eta)> = level``.

    For nonnegative weights the average
    ``<theta, p_ur> - <W' theta, rho(eta) * dhat>`` falls strictly along
    the maximising branch.  Returns None when level lies outside its range
    on ``[0, eta_hat_plus]``.
    """
    theta = np.asarray(theta, dtype=float)
    weight = (prim.net.spectrum.eigenvectors.T @ theta) * prim.half_gap_hat
    drop = float(theta @ unrestricted_price(prim)) - level
    s1, growth, q_of = _plus_coordinate(prim)
    eta_cap = eta_hat_plus(prim)
    t_cap = eta_cap / (s1 - eta_cap)

    def g(t):
        q = q_of(t)
        return float(weight @ (t * q)) - drop, float(weight @ (q * q * growth))

    if drop < 0.0 or g(t_cap)[0] < 0.0:
        return None
    t = _newton_root(g, 0.0, t_cap, 0.0, "average-price solve")
    return s1 * t / (1.0 + t)


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
    desk scale.
    """
    if tau_grid is None:
        tau_grid = np.linspace(0.0, 1.0, 101)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size == 0 or np.any(tau_grid < 0.0) or np.any(tau_grid > 1.0):
        raise OutOfRangeError("tau grid must be nonempty and lie within [0, 1]")
    points = []
    for tau in tau_grid:
        eta = solve_eta_for_tau(prim, float(tau), "plus")
        u = solve_eta_for_tau(prim, float(tau), "minus")
        rho_p = _rho_plus(prim, eta)
        rho_m = _rho_minus_u(prim, u)
        points.append(
            ParetoPoint(
                tau=float(tau),
                eta_plus=eta,
                eta_minus_u=u,
                price_plus=_price_of_rho(prim, rho_p),
                price_minus=_price_of_rho(prim, rho_m),
                r_v_plus=_ratios_of_rho(prim, rho_p)[0],
                r_v_minus=_ratios_of_rho(prim, rho_m)[0],
            )
        )
    return points


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
