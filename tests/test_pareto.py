import re

import numpy as np
import pytest

import netreg
from netreg.market import delta_near_bound, half_gap, quad_form_h
from netreg.pareto import _rho_minus_u, _rho_plus, eta_max

from conftest import random_connected_network, random_primitives


def scalar_prim(a=2.0, c=0.0):
    net = netreg.build_network([[0.0]])
    return netreg.MarketPrimitives(net=net, a=np.array([a]), c=np.array([c]), delta=0.0)


class TestPriceFamily:
    def test_eta_zero_is_unrestricted(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 6))
        assert np.allclose(netreg.pareto_price(prim, 0.0), netreg.unrestricted_price(prim))

    def test_u_one_is_a(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 6))
        assert np.allclose(netreg.pareto_price_minus(prim, 1.0), prim.a, rtol=1e-12)

    def test_scalar_value(self):
        # n=1, delta=0, a=2, c=0: price(eta) = 1 - (eta/(2-eta)); eta=1 -> 0
        assert netreg.pareto_price(scalar_prim(), 1.0) == pytest.approx([0.0], abs=1e-12)

    def test_eta_domain(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 4))
        with pytest.raises(netreg.EtaOutOfRangeError):
            netreg.pareto_price(prim, eta_max(prim))
        with pytest.raises(netreg.EtaOutOfRangeError):
            netreg.pareto_price_minus(prim, 1.5)

    def test_branch_parametrisations_agree(self, rng):
        # u = -eta/(2-eta) reproduces the same price as the raw formula
        prim = random_primitives(rng, random_connected_network(rng, 5))
        for u in (0.1, 0.4, 0.9):
            eta = -2.0 * u / (1.0 - u)
            assert np.allclose(
                netreg.pareto_price(prim, eta), netreg.pareto_price_minus(prim, u), rtol=1e-12
            )

    def test_status_quo_weights_ordered(self, rng):
        # |rho_1| >= ... >= |rho_n| when eigenvalues are sorted descending
        prim = random_primitives(rng, random_connected_network(rng, 8))
        for eta in (0.3 * eta_max(prim), 0.9 * eta_max(prim)):
            rho = np.abs(_rho_plus(prim, eta))
            assert np.all(np.diff(rho) <= 1e-12)
        for u in (0.2, 0.8):
            rho = np.abs(_rho_minus_u(prim, u))
            assert np.all(np.diff(rho) <= 1e-12)


class TestEtaSolve:
    def test_tau_one(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        assert netreg.solve_eta_for_tau(prim, 1.0, "plus") == 0.0
        assert netreg.solve_eta_for_tau(prim, 1.0, "minus") == 0.0

    def test_tau_zero_minus_is_a(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        u = netreg.solve_eta_for_tau(prim, 0.0, "minus")
        assert u == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(netreg.pareto_price_minus(prim, u), prim.a, rtol=1e-10)

    def test_scalar_closed_form(self):
        # (eta/(2-eta))^2 = 0.25 -> eta = 2/3
        eta = netreg.solve_eta_for_tau(scalar_prim(), 0.75, "plus")
        assert eta == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_residuals(self, rng):
        from netreg.market import spectral_ratios

        for _ in range(10):
            net = random_connected_network(rng, rng.integers(2, 10))
            prim = random_primitives(rng, net)
            tau = rng.uniform(0.0, 1.0)
            eta = netreg.solve_eta_for_tau(prim, tau, "plus")
            u = netreg.solve_eta_for_tau(prim, tau, "minus")
            # the solver's own residual meets the tight tolerance ...
            dhat = prim.half_gap_hat
            assert abs(spectral_ratios(prim, -_rho_plus(prim, eta) * dhat)[1] - tau) <= 1e-12
            assert abs(spectral_ratios(prim, -_rho_minus_u(prim, u) * dhat)[1] - tau) <= 1e-12
            # ... and the direct evaluation path agrees
            _, r_pi_plus = netreg.ratios(prim, netreg.pareto_price(prim, eta))
            _, r_pi_minus = netreg.ratios(prim, netreg.pareto_price_minus(prim, u))
            assert r_pi_plus == pytest.approx(tau, abs=1e-9)
            assert r_pi_minus == pytest.approx(tau, abs=1e-9)

    def test_domain(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 4))
        with pytest.raises(netreg.OutOfRangeError):
            netreg.solve_eta_for_tau(prim, -0.1, "plus")
        with pytest.raises(netreg.OutOfRangeError):
            netreg.solve_eta_for_tau(prim, 0.5, "sideways")


class TestEtaHatPlus:
    def test_scalar(self):
        assert netreg.eta_hat_plus(scalar_prim()) == pytest.approx(1.0, abs=1e-12)

    def test_defining_property(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 7))
        eta_hat = netreg.eta_hat_plus(prim)
        _, r_pi = netreg.ratios(prim, netreg.pareto_price(prim, eta_hat))
        assert r_pi == pytest.approx(0.0, abs=1e-10)
        assert eta_hat < eta_max(prim)

    def test_grows_as_floor_drops(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 6))
        assert netreg.solve_eta_for_tau(prim, 0.5, "plus") < netreg.eta_hat_plus(prim)


class TestRvBounds:
    def test_tau_one(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        assert netreg.rv_bounds(prim, 1.0) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_tau_zero_minus(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        r_v_minus, _ = netreg.rv_bounds(prim, 0.0)
        assert r_v_minus == pytest.approx(0.0, abs=1e-10)

    def test_monotone_in_tau(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 6))
        taus = np.linspace(0.0, 1.0, 11)
        lows, highs = zip(*(netreg.rv_bounds(prim, t) for t in taus))
        assert all(b <= a + 1e-10 for a, b in zip(highs, highs[1:]))
        assert all(b >= a - 1e-10 for a, b in zip(lows, lows[1:]))
        assert all(lo <= 1.0 + 1e-12 <= hi + 1e-12 for lo, hi in zip(lows, highs))


class TestRamsey:
    def test_eta_zero(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        assert np.allclose(netreg.ramsey_price(prim, 0.0), netreg.unrestricted_price(prim))

    def test_scalar_first_order_condition(self):
        assert netreg.ramsey_price(scalar_prim(), 2.0 / 3.0) == pytest.approx([0.5], abs=1e-12)

    def test_matches_price_family(self, rng):
        # two independent construction paths must agree
        for _ in range(10):
            net = random_connected_network(rng, rng.integers(2, 17))
            prim = random_primitives(rng, net)
            eta_hat = netreg.eta_hat_plus(prim)
            pur_scale = np.abs(netreg.unrestricted_price(prim)).max()
            for frac in (0.1, 0.5, 0.9):
                eta = frac * eta_hat
                diff = netreg.ramsey_price(prim, eta) - netreg.pareto_price(prim, eta)
                assert np.abs(diff).max() <= 1e-8 * pur_scale


class TestFrontier:
    def test_single_point(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 4))
        pts = netreg.frontier(prim, [1.0])
        assert len(pts) == 1
        assert pts[0].r_v_plus == pytest.approx(1.0, abs=1e-12)
        assert pts[0].r_v_minus == pytest.approx(1.0, abs=1e-12)

    def test_bracketing_and_monotonicity(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        pts = netreg.frontier(prim, [0.0, 0.5, 1.0])
        r_plus = [p.r_v_plus for p in pts]
        r_minus = [p.r_v_minus for p in pts]
        assert r_plus[0] > r_plus[1] > r_plus[2] - 1e-12
        assert r_minus[0] < r_minus[1] < r_minus[2] + 1e-12
        for p in pts:
            assert p.r_v_minus <= 1.0 + 1e-12 <= p.r_v_plus + 1e-12
            _, r_pi_p = netreg.ratios(prim, p.price_plus)
            _, r_pi_m = netreg.ratios(prim, p.price_minus)
            assert r_pi_p == pytest.approx(p.tau, abs=1e-9)
            assert r_pi_m == pytest.approx(p.tau, abs=1e-9)

    def test_dominates_sampled_prices(self, rng):
        # scale random directions to hit R_Pi = tau exactly, then compare R_V
        net = random_connected_network(rng, 4)
        prim = random_primitives(rng, net)
        tau = 0.4
        _, r_v_plus = netreg.rv_bounds(prim, tau)
        pur = netreg.unrestricted_price(prim)
        d_norm = np.sqrt(quad_form_h(prim, half_gap(prim)))
        for _ in range(100):
            y = rng.normal(size=net.n)
            y *= np.sqrt(1.0 - tau) * d_norm / np.sqrt(quad_form_h(prim, y))
            r_v, r_pi = netreg.ratios(prim, pur + y)
            assert r_pi == pytest.approx(tau, abs=1e-9)
            assert r_v <= r_v_plus + 1e-8

    def test_grid_domain(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 4))
        with pytest.raises(netreg.OutOfRangeError):
            netreg.frontier(prim, [0.5, 1.2])

    @pytest.mark.parametrize("grid", [0.5, [[0.2, 0.5]]])
    def test_grid_must_be_one_dimensional(self, rng, grid):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        with pytest.raises(netreg.DimensionMismatchError, match=re.escape(f"shape {np.shape(grid)} ")):
            netreg.frontier(prim, grid)

    def test_default_grid(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 3))
        pts = netreg.frontier(prim)
        assert len(pts) == 101
        assert pts[0].tau == 0.0 and pts[-1].tau == 1.0

    def test_firm_side_problem(self, rng):
        # no price with R_V >= R_V_plus(tau) can beat profit ratio tau
        net = random_connected_network(rng, 4)
        prim = random_primitives(rng, net)
        tau = 0.6
        _, r_v_plus = netreg.rv_bounds(prim, tau)
        pur = netreg.unrestricted_price(prim)
        draws = rng.normal(0.0, 4.0, size=(10_000, net.n))
        prices = pur[None, :] + draws
        m = np.eye(net.n) - prim.delta * np.asarray(prim.net.adjacency)
        x = np.linalg.solve(m, (prim.a[None, :] - prices).T).T
        d = half_gap(prim)
        hd = np.linalg.solve(m, d)
        v_base = 0.5 * float(hd @ hd)
        r_v = 0.5 * np.einsum("kn,kn->k", x, x) / v_base
        y = prices - pur[None, :]
        hy = np.linalg.solve(m, y.T).T
        r_pi = 1.0 - np.einsum("kn,kn->k", y, hy) / float(d @ hd)
        beats = r_v >= r_v_plus
        assert not np.any(r_pi[beats] > tau + 1e-8)


class TestTangency:
    def test_gradients_parallel_on_frontier(self, rng):
        net = random_connected_network(rng, 5)
        prim = random_primitives(rng, net)
        eta = 0.5 * netreg.eta_hat_plus(prim)
        p = netreg.pareto_price(prim, eta)
        step = 1e-5

        def fd_grad(func):
            g = np.zeros(net.n)
            for i in range(net.n):
                bump = np.zeros(net.n)
                bump[i] = step
                g[i] = (func(p + bump) - func(p - bump)) / (2 * step)
            return g

        g_v = fd_grad(lambda q: netreg.ratios(prim, q)[0])
        g_pi = fd_grad(lambda q: netreg.ratios(prim, q)[1])
        u = g_v / np.linalg.norm(g_v)
        w = g_pi / np.linalg.norm(g_pi)
        assert min(np.linalg.norm(u - w), np.linalg.norm(u + w)) <= 1e-7


class TestFrontierLimit:
    def test_values(self):
        assert netreg.frontier_limit(1.0) == pytest.approx(1.0)
        assert netreg.frontier_limit(0.0) == pytest.approx(4.0)
        with pytest.raises(netreg.OutOfRangeError):
            netreg.frontier_limit(-0.2)

    def test_convergence_on_core_periphery(self, core_periphery):
        a = np.array([20.0] * 3 + [10.0] * 6)
        tau = 0.5
        gaps = []
        for k in range(2, 6):
            prim = netreg.MarketPrimitives(
                net=core_periphery, a=a, c=np.zeros(9),
                delta=delta_near_bound(core_periphery, 10.0**-k),
            )
            _, r_v_plus = netreg.rv_bounds(prim, tau)
            gaps.append(abs(r_v_plus - netreg.frontier_limit(tau)))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3


class TestRepresentativeConsumerFrontier:
    def test_anchors(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        assert np.allclose(netreg.av_pareto_price(prim, 1.0, "plus"), netreg.unrestricted_price(prim))
        assert np.allclose(netreg.av_pareto_price(prim, 0.0, "plus"), prim.c)
        assert np.allclose(netreg.av_pareto_price(prim, 0.0, "minus"), prim.a)

    def test_quantity_scaling(self, rng):
        # price p_ur - gamma*sqrt(1-tau)*d forces x = (1 + gamma*sqrt(1-tau)) x_ur:
        # the tau=0 anchors (p=c doubles quantities, p=a kills them) pin the sign
        prim = random_primitives(rng, random_connected_network(rng, 5))
        x_ur = netreg.demand(prim, netreg.unrestricted_price(prim))
        for tau, branch, gamma in ((0.3, "plus", 1.0), (0.7, "minus", -1.0)):
            x = netreg.demand(prim, netreg.av_pareto_price(prim, tau, branch))
            assert np.allclose(x, (1.0 + gamma * np.sqrt(1.0 - tau)) * x_ur, rtol=1e-10)

    def test_bounds_values(self):
        assert netreg.av_rv_bounds(1.0) == pytest.approx((1.0, 1.0))
        assert netreg.av_rv_bounds(0.0) == pytest.approx((0.0, 4.0))

    def test_bounds_match_direct_evaluation(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 6))
        base = netreg.consumer_surplus_av(prim, netreg.unrestricted_price(prim))
        for tau in (0.2, 0.6, 0.9):
            lo, hi = netreg.av_rv_bounds(tau)
            got_hi = netreg.consumer_surplus_av(prim, netreg.av_pareto_price(prim, tau, "plus")) / base
            got_lo = netreg.consumer_surplus_av(prim, netreg.av_pareto_price(prim, tau, "minus")) / base
            assert got_hi == pytest.approx(hi, rel=1e-12)
            assert got_lo == pytest.approx(lo, rel=1e-12)
