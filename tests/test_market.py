import numpy as np
import pytest

import netreg
from netreg.market import delta_near_bound, half_gap, quad_form_h, welfare_outcome

from conftest import random_connected_network, random_primitives


def dyad_prim(delta=0.5, a=(2.0, 2.0), c=(0.0, 0.0)):
    net = netreg.build_network([[0.0, 1.0], [1.0, 0.0]])
    return netreg.MarketPrimitives(net=net, a=np.array(a), c=np.array(c), delta=delta)


def scalar_prim(a=2.0, c=0.0):
    net = netreg.build_network([[0.0]])
    return netreg.MarketPrimitives(net=net, a=np.array([a]), c=np.array([c]), delta=0.0)


class TestPrimitivesValidation:
    def test_a_must_exceed_c(self, dyad):
        with pytest.raises(netreg.ValidationError):
            netreg.MarketPrimitives(net=dyad, a=np.array([1.0, 1.0]), c=np.array([1.0, 0.0]), delta=0.1)

    @pytest.mark.parametrize(
        "a, c, message",
        [
            ([1.0, 2.0, np.inf], [0.0, 0.0, 0.0], "a[2]=inf must be finite"),
            ([1.0, np.nan, 3.0], [0.0, 0.0, 0.0], "a[1]=nan must be finite"),
            ([1.0, 2.0, 3.0], [0.0, -np.inf, 0.0], "c[1]=-inf must be finite"),
            ([np.inf, 2.0, 3.0], [np.inf, 0.0, 0.0], "a[0]=inf must be finite"),
        ],
    )
    def test_non_finite_values_named(self, a, c, message):
        net = netreg.gen_complete(3)
        with pytest.raises(netreg.ValidationError) as err:
            netreg.MarketPrimitives(net=net, a=np.array(a), c=np.array(c), delta=0.1)
        assert str(err.value) == message

    def test_spectral_bound(self, dyad):
        with pytest.raises(netreg.SpectralBoundError):
            netreg.MarketPrimitives(net=dyad, a=np.array([2.0, 2.0]), c=np.zeros(2), delta=1.0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_delta(self, dyad, delta):
        with pytest.raises(netreg.SpectralBoundError, match="must be finite"):
            netreg.MarketPrimitives(net=dyad, a=np.array([2.0, 2.0]), c=np.zeros(2), delta=delta)

    def test_shape(self, dyad):
        with pytest.raises(netreg.DimensionMismatchError):
            netreg.MarketPrimitives(net=dyad, a=np.ones(3), c=np.zeros(3), delta=0.1)

    @pytest.mark.parametrize("delta", [np.array([[0.1], [0.2]]), np.array([0.1, 0.2])], ids=["column", "vector"])
    def test_spillover_array(self, dyad, delta):
        with pytest.raises(netreg.DimensionMismatchError, match=r"MarketPrimitives\.at"):
            netreg.MarketPrimitives(net=dyad, a=np.array([2.0, 2.0]), c=np.zeros(2), delta=delta)


class TestDemand:
    def test_zero_at_a(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        assert np.allclose(netreg.demand(prim, prim.a), 0.0, atol=1e-12)

    def test_no_spillover(self, rng):
        net = random_connected_network(rng, 4)
        prim = netreg.MarketPrimitives(net=net, a=np.full(4, 10.0), c=np.zeros(4), delta=0.0)
        p = rng.uniform(0.0, 5.0, 4)
        assert np.allclose(netreg.demand(prim, p), prim.a - p)

    def test_dyad_oracle(self):
        # (I - 0.5 G)^-1 (1,1) = (2,2) by direct 2x2 inversion
        prim = dyad_prim()
        assert np.allclose(netreg.demand(prim, [1.0, 1.0]), [2.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(netreg.DimensionMismatchError):
            netreg.demand(dyad_prim(), [1.0])


class TestProfit:
    def test_zero_at_cost_and_at_a(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 6))
        assert netreg.profit(prim, prim.c) == pytest.approx(0.0, abs=1e-10)
        assert netreg.profit(prim, prim.a) == pytest.approx(0.0, abs=1e-10)

    def test_scalar_peak(self):
        assert netreg.profit(scalar_prim(), [1.0]) == pytest.approx(1.0)

    def test_loss_identity_fuzz(self, rng):
        # profit(p) = profit(p_ur) - ||p - p_ur||_H^2
        for _ in range(25):
            net = random_connected_network(rng, rng.integers(2, 9))
            prim = random_primitives(rng, net)
            p = rng.normal(0.0, 5.0, net.n)
            pur = netreg.unrestricted_price(prim)
            lhs = netreg.profit(prim, p)
            rhs = netreg.profit(prim, pur) - quad_form_h(prim, p - pur)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    def test_gradient(self, rng):
        # grad profit = H (a + c - 2 p); zero at the unrestricted price
        net = random_connected_network(rng, 5)
        prim = random_primitives(rng, net)
        p = rng.uniform(0.0, 8.0, 5)
        grad = netreg.h_apply(net, prim.delta, prim.a + prim.c - 2.0 * p)
        step = 1e-6
        for i in range(5):
            bump = np.zeros(5)
            bump[i] = step
            fd = (netreg.profit(prim, p + bump) - netreg.profit(prim, p - bump)) / (2 * step)
            assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-7)
        pur = netreg.unrestricted_price(prim)
        grad_at_pur = netreg.h_apply(net, prim.delta, prim.a + prim.c - 2.0 * pur)
        assert np.allclose(grad_at_pur, 0.0, atol=1e-12)


class TestSurplus:
    def test_zero_at_a(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        assert netreg.consumer_surplus(prim, prim.a) == pytest.approx(0.0, abs=1e-12)

    def test_scalar(self):
        assert netreg.consumer_surplus(scalar_prim(), [1.0]) == pytest.approx(0.5)

    def test_half_sum_of_squares(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 7))
        p = rng.uniform(0.0, 10.0, 7)
        x = netreg.demand(prim, p)
        assert netreg.consumer_surplus(prim, p) == pytest.approx(0.5 * float(x @ x), rel=1e-12)


class TestRepresentativeSurplus:
    def test_zero_at_a(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        assert netreg.consumer_surplus_av(prim, prim.a) == pytest.approx(0.0, abs=1e-12)

    def test_equal_without_spillovers(self, rng):
        net = random_connected_network(rng, 4)
        prim = netreg.MarketPrimitives(net=net, a=np.full(4, 8.0), c=np.zeros(4), delta=0.0)
        p = rng.uniform(0.0, 4.0, 4)
        assert netreg.consumer_surplus_av(prim, p) == pytest.approx(netreg.consumer_surplus(prim, p))

    def test_below_market_level_surplus_with_spillovers(self):
        prim = dyad_prim(delta=0.5)
        p = np.array([1.0, 1.0])  # positive quantities
        assert netreg.consumer_surplus_av(prim, p) < netreg.consumer_surplus(prim, p)


class TestUnrestrictedPrice:
    def test_zero_cost_half_a(self, rng):
        net = random_connected_network(rng, 5)
        a = rng.uniform(5.0, 20.0, 5)
        prim = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(5), delta=0.2 / net.lambda1)
        assert np.allclose(netreg.unrestricted_price(prim), a / 2)

    def test_affine_case(self, rng):
        net = random_connected_network(rng, 5)
        c = rng.uniform(0.0, 3.0, 5)
        prim = netreg.MarketPrimitives(net=net, a=c + 2.0, c=c, delta=0.0)
        assert np.allclose(netreg.unrestricted_price(prim), c + 1.0)

    def test_independent_of_delta(self, rng):
        net = random_connected_network(rng, 6)
        a = rng.uniform(5.0, 15.0, 6)
        c = rng.uniform(0.0, 2.0, 6)
        prices = [
            netreg.unrestricted_price(
                netreg.MarketPrimitives(net=net, a=a, c=c, delta=f / net.lambda1)
            )
            for f in (0.0, 0.3, 0.9)
        ]
        assert np.array_equal(prices[0], prices[1])
        assert np.array_equal(prices[0], prices[2])


class TestRatios:
    def test_benchmark_point(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        r_v, r_pi = netreg.ratios(prim, netreg.unrestricted_price(prim))
        assert r_v == pytest.approx(1.0, abs=1e-12)
        assert r_pi == pytest.approx(1.0, abs=1e-12)

    def test_surplus_dies_at_a(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        r_v, _ = netreg.ratios(prim, prim.a)
        assert r_v == pytest.approx(0.0, abs=1e-12)

    def test_profit_dies_at_cost(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        _, r_pi = netreg.ratios(prim, prim.c)
        assert r_pi == pytest.approx(0.0, abs=1e-10)

    def test_profit_ratio_capped_fuzz(self, rng):
        for _ in range(50):
            net = random_connected_network(rng, rng.integers(2, 8))
            prim = random_primitives(rng, net)
            p = rng.normal(0.0, 10.0, net.n)
            _, r_pi = netreg.ratios(prim, p)
            assert r_pi <= 1.0 + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 100, 301, 1000])
    def test_vecdot_row_is_the_one_vector_dot(self, rng, n):
        # the row-wise ratios take each dot product as one np.vecdot row
        x, y = rng.normal(size=(2, 5, n))
        rows = np.vecdot(x, y).tolist()
        assert rows == [float(u @ v) for u, v in zip(x, y)]


class TestAStatistic:
    def test_anchor_points(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 6))
        assert netreg.a_statistic(prim, netreg.unrestricted_price(prim)) == pytest.approx(0.0, abs=1e-12)
        assert netreg.a_statistic(prim, prim.a) == pytest.approx(1.0, abs=1e-12)
        assert netreg.a_statistic(prim, prim.c) == pytest.approx(-1.0, abs=1e-12)


class TestLimitRatios:
    def test_values(self):
        assert netreg.limit_ratios(0.0) == (1.0, 1.0)
        assert netreg.limit_ratios(1.0) == (0.0, 0.0)
        assert netreg.limit_ratios(-1.0) == (4.0, 0.0)

    def test_out_of_range(self):
        with pytest.raises(netreg.OutOfRangeError):
            netreg.limit_ratios(1.5)
        r_v, r_pi = netreg.limit_ratios(1.5, allow_out_of_range=True)
        assert r_v == pytest.approx(0.25)
        assert r_pi == pytest.approx(-1.25)


class TestLargeSpilloverConvergence:
    def test_fixed_price_ratios_converge(self, rng):
        net = random_connected_network(rng, 7)
        a = rng.uniform(5.0, 15.0, 7)
        c = rng.uniform(0.0, 2.0, 7)
        p = rng.uniform(2.0, 9.0, 7)
        gaps_v, gaps_pi = [], []
        for k in range(2, 6):
            prim = netreg.MarketPrimitives(net=net, a=a, c=c, delta=delta_near_bound(net, 10.0**-k))
            r_v, r_pi = netreg.ratios(prim, p)
            stat = netreg.a_statistic(prim, p)
            lim_v, lim_pi = netreg.limit_ratios(stat, allow_out_of_range=True)
            gaps_v.append(abs(r_v - lim_v))
            gaps_pi.append(abs(r_pi - lim_pi))
        assert all(b < a for a, b in zip(gaps_v, gaps_v[1:]))
        assert all(b < a for a, b in zip(gaps_pi, gaps_pi[1:]))

    def test_divergence_orders(self, rng):
        # profit blows up like (1/lam1 - delta)^-1, surplus like the square
        net = random_connected_network(rng, 6)
        a = rng.uniform(5.0, 15.0, 6)
        c = rng.uniform(0.0, 2.0, 6)
        scaled_profit, scaled_surplus = [], []
        for k in range(2, 6):
            eps = 10.0**-k
            prim = netreg.MarketPrimitives(net=net, a=a, c=c, delta=delta_near_bound(net, eps))
            gap = 1.0 / net.lambda1 - prim.delta
            pur = netreg.unrestricted_price(prim)
            scaled_profit.append(gap * netreg.profit(prim, pur))
            scaled_surplus.append(gap**2 * netreg.consumer_surplus(prim, pur))
        for seq in (scaled_profit, scaled_surplus):
            assert all(v > 0.0 for v in seq)
            steps = [abs(b - a) for a, b in zip(seq, seq[1:])]
            assert all(b < a for a, b in zip(steps, steps[1:]))


class TestWelfareOutcome:
    def test_consistency(self, rng):
        net = random_connected_network(rng, 6)
        prim = random_primitives(rng, net)
        p = rng.uniform(0.0, 8.0, 6)
        out = welfare_outcome(prim, p)
        assert np.allclose(out.quantity, netreg.demand(prim, p))
        assert out.surplus == pytest.approx(netreg.consumer_surplus(prim, p))
        assert out.profit == pytest.approx(netreg.profit(prim, p))
        assert (out.r_v, out.r_pi) == pytest.approx(netreg.ratios(prim, p))
        assert out.r_pi <= 1.0 + 1e-12
        assert out.a_stat == pytest.approx(netreg.a_statistic(prim, p))

    def test_one_h_product(self, rng, monkeypatch):
        # demand and profit share the one H (a - p)
        net = random_connected_network(rng, 5)
        prim = random_primitives(rng, net)
        calls = []

        def counting(*args):
            calls.append(args)
            return netreg.network.h_apply(*args)

        monkeypatch.setattr(netreg.market, "h_apply", counting)
        welfare_outcome(prim, rng.uniform(0.0, 8.0, 5))
        assert len(calls) == 1


class TestAt:
    def test_shares_delta_free_caches(self, rng):
        net = random_connected_network(rng, 5)
        prim = random_primitives(rng, net)
        netreg.project(prim, netreg.Uniform())
        delta = 0.5 / net.lambda1
        other = prim.at(delta)
        assert other.delta == delta
        assert other.a is prim.a and other.c is prim.c and other.net is prim.net
        assert other.half_gap_hat is prim.half_gap_hat
        assert other.unrestricted_hat is prim.unrestricted_hat
        assert prim.projections and other.projections == {}
        assert np.array_equal(other.h_hat, 1.0 / (1.0 - delta * net.spectrum.eigenvalues))

    def test_column(self, rng):
        net = random_connected_network(rng, 5)
        prim = random_primitives(rng, net)
        deltas = np.array([0.0, 0.5, 0.9]) / net.lambda1
        block = prim.at(deltas[:, None])
        deltas[0] = 1.0  # the block holds its own read-only copy
        assert block.delta[0, 0] == 0.0 and not block.delta.flags.writeable
        assert block.half_gap_hat is prim.half_gap_hat
        assert block.h_hat.shape == (3, 5)
        with pytest.raises(netreg.DimensionMismatchError):
            prim.at(deltas)

    @pytest.mark.parametrize("fraction", [1.0, 1.5])
    def test_spectral_bound(self, rng, fraction):
        net = random_connected_network(rng, 4)
        prim = random_primitives(rng, net)
        with pytest.raises(netreg.SpectralBoundError):
            prim.at(fraction / net.lambda1)


def test_half_gap(rng):
    net = random_connected_network(rng, 4)
    prim = random_primitives(rng, net)
    assert np.allclose(half_gap(prim), (prim.a - prim.c) / 2)
