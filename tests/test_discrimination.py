import numpy as np
import pytest

import netreg
from netreg.discrimination import WelfareDirection, psi_finite_delta
from netreg.market import delta_near_bound

from conftest import random_connected_network, random_nonregular_network, theta_values


def cp_prim(delta_fraction, theta=(20.0, 10.0)):
    net = netreg.gen_core_periphery(3, 2)
    a = theta_values(net, (0, 1, 2), *theta)
    return netreg.MarketPrimitives(net=net, a=a, c=np.zeros(9), delta=delta_fraction / net.lambda1)


class TestUniformPrice:
    def test_no_spillover_mean(self, rng):
        net = random_connected_network(rng, 6)
        a = rng.uniform(5.0, 15.0, 6)
        prim = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(6), delta=0.0)
        assert np.allclose(netreg.uniform_price(prim), a.mean() / 2.0)

    def test_uniform_values_already_optimal(self, rng):
        net = random_connected_network(rng, 5)
        prim = netreg.MarketPrimitives(net=net, a=np.full(5, 9.0), c=np.zeros(5), delta=0.3 / net.lambda1)
        assert np.allclose(netreg.uniform_price(prim), netreg.unrestricted_price(prim))

    def test_matches_projection_path(self, rng):
        for _ in range(5):
            net = random_connected_network(rng, int(rng.integers(2, 9)))
            a = rng.uniform(5.0, 15.0, net.n)
            prim = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(net.n), delta=0.6 / net.lambda1)
            direct = netreg.uniform_price(prim)
            projected = netreg.project(prim, netreg.Uniform())
            assert np.abs(direct - projected).max() <= 1e-10


class TestPsi:
    def test_regular_graph_vanishes(self):
        stat = netreg.psi(netreg.gen_complete(9))
        assert np.abs(stat.psi).max() <= 1e-10

    def test_core_periphery_levels(self, core_periphery):
        stat = netreg.psi(core_periphery)
        assert abs(float(stat.psi.sum())) <= 1e-10
        assert stat.psi[0] / stat.psi[4] == pytest.approx(-2.0, rel=1e-9)

    def test_sums_to_zero_random(self, rng):
        for _ in range(10):
            net = random_nonregular_network(rng, int(rng.integers(3, 20)))
            stat = netreg.psi(net)
            assert abs(float(stat.psi.sum())) <= 1e-10 * max(1.0, float(np.abs(stat.psi).max()))

    def test_positive_correlation_with_centrality(self, rng):
        for _ in range(10):
            net = random_nonregular_network(rng, int(rng.integers(3, 20)))
            assert netreg.psi(net).corr_psi_w1 > 0.0

    def test_finite_delta_cross_check(self, rng):
        for _ in range(8):
            net = random_nonregular_network(rng, int(rng.integers(3, 33)))
            stat = netreg.psi(net)
            near = psi_finite_delta(net, (1.0 - 1e-6) / net.lambda1)
            assert np.abs(near - stat.psi).max() <= 1e-4 * max(1.0, float(np.abs(stat.psi).max()))

    def test_automorphism_invariance(self):
        # explicit symmetries of the generated families must fix psi and w1
        cp = netreg.gen_core_periphery(3, 2)
        perms = [
            [1, 0, 2, 5, 6, 3, 4, 7, 8],  # swap cores 0 and 1 with their leaf blocks
            [0, 1, 2, 4, 3, 5, 6, 7, 8],  # swap the two leaves of core 0
        ]
        bip = netreg.gen_complete_bipartite(2, 10)
        bip_perm = [1, 0] + list(range(2, 12))
        swap_tail = [0, 1, 3, 2] + list(range(4, 12))
        for net, perm in ((cp, perms[0]), (cp, perms[1]), (bip, bip_perm), (bip, swap_tail)):
            p = np.eye(net.n)[list(perm)]
            g = np.asarray(net.adjacency)
            assert np.array_equal(p @ g @ p.T, g), "permutation must be an automorphism"
            stat = netreg.psi(net)
            w1 = netreg.eigencentrality(net)
            assert np.abs(p @ stat.psi - stat.psi).max() <= 1e-10
            assert np.abs(p @ w1 - w1).max() <= 1e-10

    def test_aligned_values_inherit_sign(self, rng):
        # values nearly parallel to demeaned centrality decide the sign
        for _ in range(100):
            net = random_nonregular_network(rng, int(rng.integers(3, 16)))
            w1_tilde = netreg.demean(netreg.eigencentrality(net))
            noise = rng.normal(0.0, 1.0, net.n)
            noise -= noise.mean()
            bump = 1e-4 * np.linalg.norm(w1_tilde) * noise / max(np.linalg.norm(noise), 1e-12)
            base = 10.0 + w1_tilde + bump
            assert netreg.corr(netreg.demean(base), w1_tilde) > 0.999
            stat = netreg.psi(net)
            assert float(stat.psi @ base) > 0.0
            flipped = 10.0 - w1_tilde - bump
            assert float(stat.psi @ flipped) < 0.0


class TestAStatUniform:
    def test_assumption_gate(self, rng):
        net = random_nonregular_network(rng, 6)
        a = rng.uniform(5.0, 15.0, 6)
        with_cost = netreg.MarketPrimitives(net=net, a=a, c=np.full(6, 0.5), delta=0.1)
        with pytest.raises(netreg.AssumptionViolatedError):
            netreg.a_stat_uniform(with_cost)
        flat = netreg.MarketPrimitives(net=net, a=np.full(6, 9.0), c=np.zeros(6), delta=0.1)
        with pytest.raises(netreg.AssumptionViolatedError):
            netreg.a_stat_uniform(flat)
        regular = netreg.MarketPrimitives(
            net=netreg.gen_complete(5), a=rng.uniform(5.0, 9.0, 5), c=np.zeros(5), delta=0.1
        )
        with pytest.raises(netreg.AssumptionViolatedError):
            netreg.a_stat_uniform(regular)

    def test_matches_direct_statistic(self, rng):
        net = random_nonregular_network(rng, 8)
        a = rng.uniform(5.0, 15.0, 8)
        prim = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(8), delta=0.6 / net.lambda1)
        exact, _ = netreg.a_stat_uniform(prim)
        direct = netreg.a_statistic(prim, netreg.uniform_price(prim))
        assert exact == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_vanishes_at_bound(self):
        values = []
        for k in range(2, 6):
            prim = cp_prim(1.0 - 10.0**-k)
            exact, _ = netreg.a_stat_uniform(prim)
            values.append(abs(exact))
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4

    def test_first_order_coefficient(self):
        # residual after removing the linear term shrinks quadratically: the
        # ratio to gap^2 stays O(1), while a wrong slope would push it past
        # 1e4 by the last grid point
        net = netreg.gen_core_periphery(3, 2)
        ratios = []
        for k in range(2, 6):
            prim = cp_prim(1.0 - 10.0**-k)
            exact, coeff = netreg.a_stat_uniform(prim)
            gap = 1.0 / net.lambda1 - prim.delta
            ratios.append(abs(exact - coeff * gap) / gap**2)
        assert max(ratios) < 1.0


class TestWelfareDirection:
    def test_centrality_aligned_values_gain(self, rng):
        net = random_nonregular_network(rng, 9)
        a = 3.0 * netreg.eigencentrality(net)
        assert netreg.welfare_direction_large_delta(net, a) is WelfareDirection.CONSUMERS_GAIN

    def test_anti_aligned_values_lose(self, rng):
        net = random_nonregular_network(rng, 9)
        w1 = netreg.eigencentrality(net)
        a = 5.0 - (w1 - w1.mean())
        assert netreg.welfare_direction_large_delta(net, a) is WelfareDirection.CONSUMERS_LOSE

    def test_orthogonal_values_indeterminate(self, rng):
        net = random_nonregular_network(rng, 8)
        vec = netreg.psi(net).psi
        probe = rng.uniform(5.0, 15.0, 8)
        a = probe - (float(vec @ probe) / float(vec @ vec)) * vec  # exactly psi-orthogonal
        if np.linalg.norm(netreg.demean(a)) < 1e-9:
            a = a + 1e-3  # keep values non-flat without touching <psi, a>
        direction = netreg.welfare_direction_large_delta(net, a)
        assert direction is WelfareDirection.INDETERMINATE

    def test_complementary_pair_flips(self, rng):
        net = random_nonregular_network(rng, 7)
        a = rng.uniform(5.0, 15.0, 7)
        if netreg.welfare_direction_large_delta(net, a) is WelfareDirection.INDETERMINATE:
            a = a + netreg.eigencentrality(net)
        mirror = (a.max() + a.min()) - a  # a + mirror is proportional to ones
        first = netreg.welfare_direction_large_delta(net, a)
        second = netreg.welfare_direction_large_delta(net, mirror)
        assert {first, second} == {WelfareDirection.CONSUMERS_GAIN, WelfareDirection.CONSUMERS_LOSE}

    def test_wrong_length_values(self, core_periphery):
        for n in (8, 10):
            with pytest.raises(netreg.DimensionMismatchError):
                netreg.welfare_direction_large_delta(core_periphery, np.linspace(5.0, 15.0, n))

    def test_end_to_end_surplus_movement(self, rng):
        # the predicted direction must show up in measured ratios near the bound
        for _ in range(6):
            net = random_nonregular_network(rng, int(rng.integers(3, 12)))
            a = rng.uniform(5.0, 15.0, net.n)
            direction = netreg.welfare_direction_large_delta(net, a)
            stat = netreg.psi(net)
            if direction is WelfareDirection.INDETERMINATE or abs(netreg.corr(stat.psi, a)) < 1e-3:
                continue  # knife-edge draws say nothing measurable
            prim = netreg.MarketPrimitives(
                net=net, a=a, c=np.zeros(net.n), delta=delta_near_bound(net, 1e-4)
            )
            r_v, r_pi = netreg.ratios(prim, netreg.project(prim, netreg.Uniform()))
            if direction is WelfareDirection.CONSUMERS_GAIN:
                assert r_v > 1.0
            else:
                assert r_v < 1.0
            p0 = netreg.uniform_price(prim)
            if np.abs(p0 - netreg.unrestricted_price(prim)).max() > 1e-9:
                assert r_pi < 1.0

    def test_surplus_ratio_expansion_order(self):
        # |R_V - (1 - stat)^2| shrinks like the squared distance to the bound
        net = netreg.gen_core_periphery(3, 2)
        ratios_seq = []
        for k in range(2, 6):
            prim = cp_prim(1.0 - 10.0**-k)
            r_v, _ = netreg.ratios(prim, netreg.project(prim, netreg.Uniform()))
            stat = netreg.a_statistic(prim, netreg.uniform_price(prim))
            gap = 1.0 / net.lambda1 - prim.delta
            ratios_seq.append(abs(r_v - (1.0 - stat) ** 2) / gap**2)
        assert max(ratios_seq) <= 2.0 * min(ratios_seq) + 1e-6


def _relabelled(net, perm):
    """``net`` with its node i renamed ``perm[i]``."""
    g = np.empty_like(net.adjacency)
    g[np.ix_(perm, perm)] = net.adjacency
    return netreg.build_network(g)


class TestTwoType:
    def test_core_periphery(self, core_periphery):
        # psi is constant on the detected types, at levels -|V2|/|V1| apart
        cells = netreg.equitable_partition(core_periphery)
        assert cells[0] != cells[3]
        stat = netreg.psi(core_periphery)
        for values in (stat.psi, netreg.eigencentrality(core_periphery)):
            for j in (0, 1):
                assert np.ptp(values[cells == j]) <= 1e-12
        assert stat.psi[0] / stat.psi[3] == pytest.approx(-2.0, rel=1e-9)

    def test_bipartite(self):
        net = netreg.gen_complete_bipartite(2, 10)
        stat = netreg.psi(net)
        assert stat.psi[0] / stat.psi[2] == pytest.approx(-5.0, rel=1e-9)  # -|V2|/|V1|
        for theta, expected in (
            ((20.0, 10.0), WelfareDirection.CONSUMERS_GAIN),
            ((10.0, 20.0), WelfareDirection.CONSUMERS_LOSE),
            ((15.0, 15.0), WelfareDirection.INDETERMINATE),
        ):
            assert netreg.two_type_welfare_direction(net, theta_values(net, (0, 1), *theta)) is expected

    def test_direction_by_part_averages(self, core_periphery):
        gain = theta_values(core_periphery, (0, 1, 2), 20.0, 10.0)
        lose = theta_values(core_periphery, (0, 1, 2), 10.0, 20.0)
        flat = theta_values(core_periphery, (0, 1, 2), 15.0, 15.0)
        assert netreg.two_type_welfare_direction(core_periphery, gain) is WelfareDirection.CONSUMERS_GAIN
        assert netreg.two_type_welfare_direction(core_periphery, lose) is WelfareDirection.CONSUMERS_LOSE
        assert netreg.two_type_welfare_direction(core_periphery, flat) is WelfareDirection.INDETERMINATE
        # only the averages count: moving value within a type changes nothing
        spread = gain + np.array([4.0, -4.0, 0.0, 9.0, -3.0, -6.0, 1.0, -1.0, 0.0])
        assert netreg.two_type_welfare_direction(core_periphery, spread) is WelfareDirection.CONSUMERS_GAIN

    def test_orientation_independent_of_part_order(self):
        # listing the periphery first must not flip the comparison
        perm = np.array([6, 7, 8, 0, 1, 2, 3, 4, 5])  # core i becomes node 6 + i
        net = _relabelled(netreg.gen_core_periphery(3, 2), perm)
        gain = theta_values(net, (6, 7, 8), 20.0, 10.0)
        assert netreg.two_type_welfare_direction(net, gain) is WelfareDirection.CONSUMERS_GAIN

    def test_regular_graphs_have_one_type(self):
        for net in (netreg.gen_complete(9), netreg.gen_complete_bipartite(4, 4), netreg.gen_complete(2)):
            a = np.linspace(5.0, 15.0, net.n)
            with pytest.raises(netreg.AssumptionViolatedError, match="found 1"):
                netreg.two_type_welfare_direction(net, a)

    def test_three_types_rejected(self):
        labels = np.repeat(np.arange(3), (1, 2, 3))
        net = netreg.build_network((labels[:, None] != labels).astype(float))
        with pytest.raises(netreg.AssumptionViolatedError, match="found 3"):
            netreg.two_type_welfare_direction(net, np.linspace(5.0, 15.0, 6))

    def test_types_are_exact(self):
        # one edge heavier by 1e-12 splits the types, whose weight sums then
        # differ in binary, though w1 moves by far less than 1e-8
        g = netreg.gen_complete_bipartite(2, 10).adjacency.copy()
        g[0, 2] = g[2, 0] = 1.0 + 1e-12
        net = netreg.build_network(g)
        with pytest.raises(netreg.AssumptionViolatedError, match="found 4"):
            netreg.two_type_welfare_direction(net, theta_values(net, (0, 1), 20.0, 10.0))

    def test_wrong_length_values(self, core_periphery):
        for n in (5, 12):
            with pytest.raises(netreg.DimensionMismatchError):
                netreg.two_type_welfare_direction(core_periphery, np.linspace(5.0, 15.0, n))

    def test_matches_the_psi_rule(self, rng):
        # on random relabelled two-type graphs and values, the type averages
        # decide exactly as corr(psi, a) does
        checked = 0
        for _ in range(60):
            if rng.uniform() < 0.5:
                net = netreg.gen_core_periphery(int(rng.integers(2, 6)), int(rng.integers(1, 5)))
            else:
                m, k = rng.choice(np.arange(1, 9), size=2, replace=False)
                net = netreg.gen_complete_bipartite(int(m), int(k))
            net = _relabelled(net, rng.permutation(net.n))
            a = rng.uniform(5.0, 15.0, net.n)
            if abs(netreg.corr(netreg.psi(net).psi, a)) < 1e-6:
                continue  # inside the 1e-10 band, either rule may say indeterminate
            expected = netreg.welfare_direction_large_delta(net, a)
            assert netreg.two_type_welfare_direction(net, a) is expected
            checked += 1
        assert checked >= 50


class TestSmallDeltaGain:
    def test_uniform_values_no_gain(self, rng):
        net = random_connected_network(rng, 5)
        prim = netreg.MarketPrimitives(net=net, a=np.full(5, 8.0), c=np.zeros(5), delta=0.0)
        assert netreg.small_delta_gain(prim) == pytest.approx(0.0, abs=1e-12)

    def test_two_market_value(self):
        net = netreg.build_network([[0.0, 1.0], [1.0, 0.0]])
        prim = netreg.MarketPrimitives(net=net, a=np.array([2.0, 4.0]), c=np.zeros(2), delta=0.0)
        assert netreg.small_delta_gain(prim) == pytest.approx(1.5, rel=1e-12)

    def test_variance_identity(self, rng):
        for _ in range(10):
            net = random_connected_network(rng, int(rng.integers(2, 17)))
            a = rng.uniform(5.0, 15.0, net.n)
            prim = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(net.n), delta=0.0)
            expect = 0.75 * (net.n - 1) * float(np.var(a, ddof=1))
            assert netreg.small_delta_gain(prim) == pytest.approx(expect, rel=1e-10)

    def test_positive_for_example_case(self):
        assert netreg.small_delta_gain(cp_prim(0.0)) > 0.0

    def test_requires_zero_delta_and_costs(self, rng):
        net = random_connected_network(rng, 4)
        a = rng.uniform(5.0, 9.0, 4)
        with pytest.raises(netreg.AssumptionViolatedError):
            netreg.small_delta_gain(netreg.MarketPrimitives(net=net, a=a, c=np.zeros(4), delta=0.1))
        with pytest.raises(netreg.AssumptionViolatedError):
            netreg.small_delta_gain(netreg.MarketPrimitives(net=net, a=a, c=np.full(4, 0.5), delta=0.0))


class TestRegularGraphShift:
    def test_positive_with_zero_costs(self, rng):
        net = netreg.gen_complete(9)
        a = theta_values(net, (0, 1, 2), 20.0, 10.0)
        prim = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(9), delta=0.5 / net.lambda1)
        shift, spectral = netreg.regular_graph_rv_shift(prim)
        assert shift > 0.0
        assert spectral > 0.0

    def test_positive_with_costs_near_a(self, rng):
        net = netreg.gen_complete(6)
        a = rng.uniform(8.0, 16.0, 6)
        prim = netreg.MarketPrimitives(net=net, a=a, c=a - 0.05, delta=0.4 / net.lambda1)
        shift, spectral = netreg.regular_graph_rv_shift(prim)
        assert shift > 0.0
        assert spectral > 0.0

    def test_sign_agreement(self, rng):
        for _ in range(10):
            net = netreg.gen_complete(int(rng.integers(3, 9)))
            a = rng.uniform(5.0, 15.0, net.n)
            c = rng.uniform(0.0, 4.0, net.n)
            if not np.all(a > c):
                c = np.minimum(c, a - 0.5)
            prim = netreg.MarketPrimitives(net=net, a=a, c=c, delta=rng.uniform(0.1, 0.9) / net.lambda1)
            shift, spectral = netreg.regular_graph_rv_shift(prim)
            if abs(shift) > 1e-12:
                assert np.sign(shift) == np.sign(spectral)

    def test_quadratic_order_near_bound(self):
        net = netreg.gen_complete(9)
        a = theta_values(net, (0, 1, 2), 20.0, 10.0)
        ratios_seq = []
        for k in range(2, 6):
            prim = netreg.MarketPrimitives(
                net=net, a=a, c=np.zeros(9), delta=delta_near_bound(net, 10.0**-k)
            )
            shift, _ = netreg.regular_graph_rv_shift(prim)
            gap = 1.0 / net.lambda1 - prim.delta
            ratios_seq.append(shift / gap**2)
        assert max(ratios_seq) <= 2.0 * min(ratios_seq) + 1e-6

    def test_rejects_irregular(self, core_periphery):
        a = theta_values(core_periphery, (0, 1, 2), 20.0, 10.0)
        prim = netreg.MarketPrimitives(net=core_periphery, a=a, c=np.zeros(9), delta=0.1)
        with pytest.raises(netreg.NotRegularError):
            netreg.regular_graph_rv_shift(prim)
