"""Pareto-optimal price family and the surplus-profit frontier.

Holding the profit ratio at a floor ``tau``, the surplus-extremal prices
form a one-parameter family: the unrestricted price shifted by a multiple
of a Katz-Bonacich vector,

    p(eta) = (a+c)/2 - eta/(2-eta) * [I - 2*delta/(2-eta) * G]^-1 (a-c)/2 .

In the eigenbasis of ``G`` the shift acts coordinatewise,
``p_hat_i = p_ur_hat_i - rho_i(eta) * d_hat_i`` with
``rho_i(eta) = eta / (2 - 2*delta*lambda_i - eta)`` and ``d = (a-c)/2``,
which is how all routines here evaluate it.  The surplus-maximising branch
runs over ``eta in [0, eta_hat_plus]`` where ``eta_hat_plus`` solves
``R_Pi = 0``; the surplus-minimising branch runs to ``eta = -inf`` and is
parametrised by ``u = -eta/(2-eta) in [0, 1]`` (``u = 1`` gives price
``a``), so root finding happens on a bounded interval.

Both branches are pinned to the floor by solving ``R_Pi(p(eta)) = tau``,
which is strictly decreasing along each branch, so bisection is guaranteed
to converge; a final Newton step polishes the root.  A Ramsey cross-check
recovers the same prices from the weighted objective
``profit + eta * surplus`` through an independent dense solve.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    EtaOutOfRangeError,
    InvariantError,
    NoConvergenceError,
    OutOfRangeError,
    SingularSystemError,
)
from .market import MarketPrimitives, half_gap, unrestricted_price

RESIDUAL_TOL = 1e-12
MAX_BISECTIONS = 200


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


def _spectral_parts(prim: MarketPrimitives):
    lam = prim.net.spectrum.eigenvalues
    w = prim.net.spectrum.eigenvectors
    dhat = w.T @ half_gap(prim)
    phi = (1.0 - prim.delta * lam[0]) / (1.0 - prim.delta * lam)
    return lam, w, dhat, phi


def eta_max(prim: MarketPrimitives) -> float:
    """Open upper end 2 - 2*delta*lambda_1 of the maximising branch."""
    return 2.0 - 2.0 * prim.delta * prim.net.lambda1


def _rho_plus(prim, eta):
    lam = prim.net.spectrum.eigenvalues
    return eta / (2.0 - 2.0 * prim.delta * lam - eta)


def _rho_minus_u(prim, u):
    lam = prim.net.spectrum.eigenvalues
    return -u / (1.0 - prim.delta * lam * (1.0 - u))


def _r_pi_of_rho(phi, dhat, rho):
    base = phi * dhat**2
    return 1.0 - float(base @ rho**2) / float(base.sum())


def _r_v_of_rho(phi, dhat, rho):
    base = (phi * dhat) ** 2
    return float(base @ (1.0 + rho) ** 2) / float(base.sum())


def _price_of_rho(prim, w, dhat, rho):
    return unrestricted_price(prim) - w @ (rho * dhat)


def pareto_price(prim: MarketPrimitives, eta: float) -> np.ndarray:
    """Price of the family at parameter eta (finite; eta < 2 - 2*delta*lambda_1)."""
    if eta >= eta_max(prim):
        raise EtaOutOfRangeError(f"eta={eta!r} must be < {eta_max(prim)!r}")
    _, w, dhat, _ = _spectral_parts(prim)
    return _price_of_rho(prim, w, dhat, _rho_plus(prim, eta))


def pareto_price_minus(prim: MarketPrimitives, u: float) -> np.ndarray:
    """Minimising-branch price at bounded parameter u in [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise EtaOutOfRangeError(f"u={u!r} must lie in [0, 1]")
    _, w, dhat, _ = _spectral_parts(prim)
    return _price_of_rho(prim, w, dhat, _rho_minus_u(prim, u))


def _check_monotone(g, lo, hi):
    # R_Pi is strictly decreasing along each branch; spot-check the bracket
    probes = [lo + t * (hi - lo) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    vals = [g(t) for t in probes]
    for left, right in zip(vals, vals[1:]):
        if not right <= left + 1e-12:
            raise InvariantError("profit ratio is not decreasing on the bracket")


def _bisect_newton(g, gprime, lo, hi, what):
    glo, ghi = g(lo), g(hi)
    if abs(glo) <= RESIDUAL_TOL:
        return lo
    if abs(ghi) <= RESIDUAL_TOL:
        return hi
    if glo < 0.0 or ghi > 0.0:
        raise NoConvergenceError(f"{what}: root not bracketed ({glo!r}, {ghi!r})")
    x = 0.5 * (lo + hi)
    for _ in range(MAX_BISECTIONS):
        gx = g(x)
        if abs(gx) <= RESIDUAL_TOL:
            return x
        if gx > 0.0:
            lo = x
        else:
            hi = x
        x = 0.5 * (lo + hi)
    # one Newton polish from the bisection estimate
    slope = gprime(x)
    if slope != 0.0:
        x_newton = x - g(x) / slope
        if lo <= x_newton <= hi:
            x = x_newton
    if abs(g(x)) > 1e-9:
        raise NoConvergenceError(f"{what}: residual {g(x)!r} after bisection")
    return x


def solve_eta_for_tau(prim: MarketPrimitives, tau: float, branch: str) -> float:
    """Root of ``R_Pi(p(.)) = tau`` on one branch.

    Returns eta for ``branch='plus'`` and the bounded parameter u for
    ``branch='minus'``.
    """
    if not 0.0 <= tau <= 1.0:
        raise OutOfRangeError(f"tau={tau!r} must lie in [0, 1]")
    if branch not in ("plus", "minus"):
        raise OutOfRangeError(f"branch must be 'plus' or 'minus', got {branch!r}")
    if tau == 1.0:
        return 0.0
    lam, _, dhat, phi = _spectral_parts(prim)
    delta = prim.delta

    if branch == "plus":
        hi = eta_max(prim) * (1.0 - 1e-13)

        def g(eta):
            return _r_pi_of_rho(phi, dhat, _rho_plus(prim, eta)) - tau

        def gprime(eta):
            rho = _rho_plus(prim, eta)
            drho = (2.0 - 2.0 * delta * lam) / (2.0 - 2.0 * delta * lam - eta) ** 2
            base = phi * dhat**2
            return -2.0 * float(base @ (rho * drho)) / float(base.sum())

        _check_monotone(g, 0.0, hi)
        return _bisect_newton(g, gprime, 0.0, hi, "eta solve (plus branch)")

    def g(u):
        return _r_pi_of_rho(phi, dhat, _rho_minus_u(prim, u)) - tau

    def gprime(u):
        rho = _rho_minus_u(prim, u)
        drho = -(1.0 - delta * lam) / (1.0 - delta * lam * (1.0 - u)) ** 2
        base = phi * dhat**2
        return -2.0 * float(base @ (rho * drho)) / float(base.sum())

    _check_monotone(g, 0.0, 1.0)
    return _bisect_newton(g, gprime, 0.0, 1.0, "u solve (minus branch)")


def eta_hat_plus(prim: MarketPrimitives) -> float:
    """Largest admissible eta on the maximising branch: R_Pi(p(eta)) = 0."""
    return solve_eta_for_tau(prim, 0.0, "plus")


def rv_plus(prim: MarketPrimitives, tau: float) -> float:
    """R_V_plus: the largest surplus ratio achievable at profit ratio tau."""
    _, _, dhat, phi = _spectral_parts(prim)
    eta = solve_eta_for_tau(prim, tau, "plus")
    return _r_v_of_rho(phi, dhat, _rho_plus(prim, eta))


def rv_bounds(prim: MarketPrimitives, tau: float) -> tuple[float, float]:
    """(R_V_minus, R_V_plus): the surplus ratios achievable at profit ratio tau.

    Every surplus ratio between the two is feasible at that profit level.
    """
    _, _, dhat, phi = _spectral_parts(prim)
    u = solve_eta_for_tau(prim, tau, "minus")
    return _r_v_of_rho(phi, dhat, _rho_minus_u(prim, u)), rv_plus(prim, tau)


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
    _, w, dhat, phi = _spectral_parts(prim)
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
                price_plus=_price_of_rho(prim, w, dhat, rho_p),
                price_minus=_price_of_rho(prim, w, dhat, rho_m),
                r_v_plus=_r_v_of_rho(phi, dhat, rho_p),
                r_v_minus=_r_v_of_rho(phi, dhat, rho_m),
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
