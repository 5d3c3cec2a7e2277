"""Accuracy of the spectral H operator near the bound, against 50 digits.

``h_apply`` scales spectral coordinates by ``1/(1 - delta*lambda_i)``, so a
raw product ``H v`` carries a relative error of about
``eps / (1 - delta*lambda_1)``.  Prices and welfare ratios are quotients of
H-forms taken with that one operator, and their rounding errors cancel: they
stay near machine precision.  Both statements are pinned here against an
mpmath solve of the same float inputs at 50 significant digits.
"""

import numpy as np
import pytest

import netreg

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
