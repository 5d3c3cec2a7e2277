"""Accuracy of the spectral H operator and the frontier roots, against 50 digits.

``h_apply`` scales spectral coordinates by ``1/(1 - delta*lambda_i)``, so a
raw product ``H v`` carries a relative error of about
``eps / (1 - delta*lambda_1)``.  Prices and welfare ratios are quotients of
H-forms taken with that one operator, and their rounding errors cancel: they
stay near machine precision.  The frontier roots of ``R_Pi = tau`` on both
branches, and ``R_V_plus`` there, keep that precision as tau -> 1.  All of
this is pinned here against an mpmath solve of the same float inputs at 50
significant digits.
"""

import numpy as np
import pytest

import netreg
from netreg.pareto import rv_plus

from conftest import random_connected_network

mpmath = pytest.importorskip("mpmath")

RATIO_RTOL = 1e-12
# bound on a raw H v, in units of eps / (1 - delta*lambda_1), max-norm relative
RAW_ERROR_UNITS = 16.0

NETWORKS = {
    "core_periphery": lambda: netreg.gen_core_periphery(3, 2),
    "random_n30": lambda: random_connected_network(np.random.default_rng(30), 30),
}


def _mp_vector(values):
    return mpmath.matrix([mpmath.mpf(float(x)) for x in values])


def _dot(x, y):
    return mpmath.fsum(x[i] * y[i] for i in range(x.rows))


def _rel(got, exact):
    return float(abs(mpmath.mpf(float(got)) - exact) / abs(exact))


@pytest.fixture(params=sorted(NETWORKS))
def near_bound_inputs(request):
    net = NETWORKS[request.param]()
    rng = np.random.default_rng(7)
    a = rng.uniform(5.0, 15.0, net.n)
    c = rng.uniform(0.0, 3.0, net.n)
    return net, a, c


@pytest.mark.parametrize("epsilon", [1e-6, 1e-7])
def test_prices_and_ratios_at_machine_precision(near_bound_inputs, epsilon):
    net, a, c = near_bound_inputs
    with mpmath.workdps(50):
        delta = (1.0 - epsilon) / net.lambda1
        prim = netreg.MarketPrimitives(net=net, a=a, c=c, delta=delta)
        h = mpmath.inverse(mpmath.eye(net.n) - mpmath.mpf(delta) * mpmath.matrix(net.adjacency.tolist()))
        big_a, big_c, ones = _mp_vector(a), _mp_vector(c), _mp_vector(np.ones(net.n))
        d, p_ur = (big_a - big_c) / 2, (big_a + big_c) / 2
        hd = h * d
        h_ones = h * ones
        level = _dot(h_ones, p_ur) / _dot(h_ones, ones)

        p0 = netreg.uniform_price(prim)
        assert max(_rel(x, level) for x in p0) <= RATIO_RTOL

        # the uniform price, then a fixed interior price whose ratios sit well below 1
        fixed = c + np.random.default_rng(11).uniform(0.2, 0.9, net.n) * (a - c)
        for price, exact in ((p0, level * ones), (fixed, _mp_vector(fixed))):
            x = h * (big_a - exact)
            dev = exact - p_ur
            r_v = _dot(x, x) / _dot(hd, hd)
            r_pi = 1 - _dot(dev, h * dev) / _dot(d, hd)
            got_v, got_pi = netreg.ratios(prim, price)
            assert _rel(got_v, r_v) <= RATIO_RTOL
            assert _rel(got_pi, r_pi) <= RATIO_RTOL


@pytest.mark.parametrize("epsilon", [1e-6, 1e-7])
def test_raw_product_error_bound(near_bound_inputs, epsilon):
    net, a, _ = near_bound_inputs
    with mpmath.workdps(50):
        delta = (1.0 - epsilon) / net.lambda1
        h = mpmath.inverse(mpmath.eye(net.n) - mpmath.mpf(delta) * mpmath.matrix(net.adjacency.tolist()))
        exact = h * _mp_vector(a)
        got = netreg.h_apply(net, delta, a)
        err = max(abs(mpmath.mpf(float(got[i])) - exact[i]) for i in range(net.n))
        rel = float(err / max(abs(exact[i]) for i in range(net.n)))
    unit = np.finfo(float).eps / (1.0 - delta * net.lambda1)
    assert rel <= RAW_ERROR_UNITS * unit


def _mp_bisect(decreasing, lo, hi):
    for _ in range(200):
        mid = (lo + hi) / 2
        if decreasing(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _frontier_reference(delta_fraction):
    """A seeded graph at spillover ``delta_fraction / lambda_1``, with a
    50-digit frontier solver.

    The reference diagonalises the float adjacency at 50 digits and solves
    ``R_Pi(p) = tau`` by bisection, with ``p - p_ur = -W (rho * W'd)`` and
    ``rho_i = eta / (2 - eta - 2*delta*lambda_i)`` on the maximising branch,
    ``rho_i = -u / (1 - delta*lambda_i*(1-u))`` on the minimising one.  It
    returns eta, u and ``R_V`` on both branches.
    """
    net = random_connected_network(np.random.default_rng(8), 8)
    rng = np.random.default_rng(9)
    a = rng.uniform(5.0, 15.0, net.n)
    c = rng.uniform(0.0, 3.0, net.n)
    delta = delta_fraction / net.lambda1
    prim = netreg.MarketPrimitives(net=net, a=a, c=c, delta=delta)
    with mpmath.workdps(50):
        lam, vecs = mpmath.eigsy(mpmath.matrix(net.adjacency.tolist()))
        dhat = vecs.T * ((_mp_vector(a) - _mp_vector(c)) / 2)
        keep = [1 / (1 - mpmath.mpf(delta) * lam[i]) for i in range(net.n)]  # H in the eigenbasis
        profit_w = [dhat[i] ** 2 * keep[i] for i in range(net.n)]
        surplus_w = [(dhat[i] * keep[i]) ** 2 for i in range(net.n)]

    def reference(tau):
        with mpmath.workdps(50):
            tau = mpmath.mpf(tau)

            def r_pi(rho):
                return 1 - mpmath.fsum(w * r**2 for w, r in zip(profit_w, rho)) / mpmath.fsum(profit_w)

            def r_v(rho):
                return mpmath.fsum(w * (1 + r) ** 2 for w, r in zip(surplus_w, rho)) / mpmath.fsum(surplus_w)

            def rho_plus(eta):
                return [eta / (2 - eta - 2 * mpmath.mpf(delta) * lam[i]) for i in range(net.n)]

            def rho_minus(u):
                return [-u / (1 - mpmath.mpf(delta) * lam[i] * (1 - u)) for i in range(net.n)]

            eta_hi = 2 - 2 * mpmath.mpf(delta) * max(lam[i] for i in range(net.n))
            eta = _mp_bisect(lambda x: r_pi(rho_plus(x)) - tau, mpmath.mpf(0), eta_hi)
            u = _mp_bisect(lambda x: r_pi(rho_minus(x)) - tau, mpmath.mpf(0), mpmath.mpf(1))
            return eta, u, r_v(rho_plus(eta)), r_v(rho_minus(u))

    return prim, reference


@pytest.fixture(scope="module")
def frontier_case():
    return _frontier_reference(0.5)


@pytest.fixture(scope="module")
def near_bound_frontier_case():
    return _frontier_reference(1.0 - 1e-6)


@pytest.mark.parametrize("one_minus_tau", [0.5, 1e-8, 1e-10])
def test_frontier_roots_at_machine_precision(frontier_case, one_minus_tau):
    prim, reference = frontier_case
    tau = 1.0 - one_minus_tau
    eta, u, r_v_plus, r_v_minus = reference(tau)
    assert _rel(netreg.solve_eta_for_tau(prim, tau, "plus"), eta) <= RATIO_RTOL
    assert _rel(netreg.solve_eta_for_tau(prim, tau, "minus"), u) <= RATIO_RTOL
    assert _rel(rv_plus(prim, tau), r_v_plus) <= RATIO_RTOL
    assert _rel(netreg.rv_bounds(prim, tau)[0], r_v_minus) <= RATIO_RTOL


@pytest.mark.parametrize("one_minus_tau", [0.5, 1e-8, 1e-10])
def test_rv_bounds_near_the_spectral_bound(near_bound_frontier_case, one_minus_tau):
    # eta and u carry about eps / (1 - delta*lambda_1) relative error here,
    # from rounding in s_1 = 2 - 2*delta*lambda_1; the surplus ratios do not
    prim, reference = near_bound_frontier_case
    tau = 1.0 - one_minus_tau
    _, _, r_v_plus, r_v_minus = reference(tau)
    lo, hi = netreg.rv_bounds(prim, tau)
    assert _rel(lo, r_v_minus) <= RATIO_RTOL
    assert _rel(hi, r_v_plus) <= RATIO_RTOL
