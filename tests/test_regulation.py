import dataclasses
import time

import numpy as np
import pytest

import netreg
from netreg.market import delta_near_bound, half_gap, quad_form_h
from netreg.regulation import Classification, halfspace_form

from conftest import active_set_columns, random_connected_network, random_primitives
from qp_oracle import project_oracle


def cp_prim(delta_fraction=0.5, theta=(20.0, 10.0)):
    net = netreg.gen_core_periphery(3, 2)
    a = np.array([theta[0]] * 3 + [theta[1]] * 6)
    return netreg.MarketPrimitives(net=net, a=a, c=np.zeros(9), delta=delta_fraction / net.lambda1)


def random_box(rng, prim, binding=True):
    pur = netreg.unrestricted_price(prim)
    lower = pur - rng.uniform(0.2, 2.0, prim.n)
    upper = pur + rng.uniform(0.2, 2.0, prim.n)
    if binding:
        squeeze = rng.choice(prim.n, size=max(1, prim.n // 2), replace=False)
        upper[squeeze] = pur[squeeze] - rng.uniform(0.1, 1.0, squeeze.size)
        lower[squeeze] = np.minimum(lower[squeeze], upper[squeeze] - 0.5)
    return netreg.Box(lower=lower, upper=upper)


def cut_halfspaces(seed, delta_fraction=0.5):
    """Random halfspaces, each cut through or just past half the values on a
    core-periphery graph; about one list in five has an empty intersection."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 30))
    m = int(rng.integers(n, 2 * n))
    net = netreg.gen_core_periphery(3, (n - 3) // 3)
    a = rng.uniform(5.0, 25.0, net.n)
    prim = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(net.n), delta=delta_fraction / net.lambda1)
    vmat = rng.normal(size=(m, net.n))
    offsets = vmat @ (0.5 * a) - rng.uniform(0.0, 2.0, m) * np.linalg.norm(vmat, axis=1)
    return prim, netreg.Halfspaces(constraints=tuple(zip(vmat, offsets)))


def random_difference_caps(rng, n, low=0.0, high=1.0):
    mat = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    mat[iu] = rng.uniform(low, high, len(iu[0]))
    return netreg.PriceDifference(delta_matrix=mat + mat.T)


class TestSetValidation:
    def test_empty_box(self):
        with pytest.raises(netreg.ValidationError):
            netreg.Box(lower=np.array([1.0, 2.0]), upper=np.array([0.5, 3.0]))

    def test_asymmetric_difference(self):
        with pytest.raises(netreg.ValidationError):
            netreg.PriceDifference(delta_matrix=np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_bad_weights(self):
        with pytest.raises(netreg.ValidationError):
            netreg.AveragePrice(theta=np.array([0.6, 0.6]), cap=1.0)
        with pytest.raises(netreg.ValidationError):
            netreg.AveragePrice(theta=np.array([-0.5, 1.5]), cap=1.0)

    def test_zero_normal(self):
        with pytest.raises(netreg.ValidationError):
            netreg.Halfspaces(constraints=((np.zeros(2), 1.0),))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: netreg.Box(lower=np.array([np.nan, 0.0]), upper=np.array([1.0, 1.0])),
            lambda: netreg.Box(lower=np.array([0.0, 0.0]), upper=np.array([1.0, np.nan])),
            lambda: netreg.Box(lower=np.array([np.inf, 0.0]), upper=np.array([np.inf, 1.0])),
            lambda: netreg.Box(lower=np.array([-np.inf, 0.0]), upper=np.array([-np.inf, 1.0])),
            lambda: netreg.PriceDifference(delta_matrix=np.array([[0.0, np.nan], [np.nan, 0.0]])),
            lambda: netreg.AveragePrice(theta=np.array([np.nan, 1.0]), cap=1.0),
            lambda: netreg.AveragePrice(theta=np.array([0.5, 0.5]), cap=np.nan),
            lambda: netreg.AveragePrice(theta=np.array([0.5, 0.5]), cap=np.inf),
            lambda: netreg.Halfspaces(constraints=((np.array([np.nan, 1.0]), 1.0),)),
            lambda: netreg.Halfspaces(constraints=((np.array([np.inf, 1.0]), 1.0),)),
            lambda: netreg.Halfspaces(constraints=((np.array([1.0, 0.0]), np.nan),)),
            lambda: netreg.Halfspaces(constraints=((np.array([1.0, 0.0]), -np.inf),)),
        ],
        ids=[
            "box-nan-floor",
            "box-nan-ceiling",
            "box-inf-floor",
            "box-minus-inf-ceiling",
            "difference-nan-cap",
            "average-nan-weight",
            "average-nan-cap",
            "average-inf-cap",
            "halfspace-nan-normal",
            "halfspace-inf-normal",
            "halfspace-nan-offset",
            "halfspace-minus-inf-offset",
        ],
    )
    def test_non_finite_rejected(self, make):
        with pytest.raises(netreg.ValidationError):
            make()

    def test_halfspace_decomposition_counts(self):
        box = netreg.Box(lower=np.array([0.0, -np.inf]), upper=np.array([1.0, 2.0]))
        assert halfspace_form(box, 2)[0].shape[0] == 3  # skips the infinite floor
        diff = random_difference_caps(np.random.default_rng(0), 4)
        assert halfspace_form(diff, 4)[0].shape[0] == 12  # n(n-1) one-sided constraints
        open_pair = np.array(diff.delta_matrix)
        open_pair[0, 1] = open_pair[1, 0] = np.inf
        assert halfspace_form(netreg.PriceDifference(delta_matrix=open_pair), 4)[0].shape[0] == 10
        v = np.array([1.0, 0.0])
        assert halfspace_form(netreg.Halfspaces(constraints=((v, 1.0), (-v, np.inf))), 2)[0].shape[0] == 1

    def test_halfspace_form_matches_row_loop(self):
        # reference: one row per ceiling and floor, market by market, and one
        # per ordered pair of markets; infinite offsets dropped
        def reference(k, n):
            rows = []
            if isinstance(k, netreg.Box):
                for i in range(n):
                    rows += [(np.eye(n)[i], k.upper[i]), (-np.eye(n)[i], -k.lower[i])]
            else:
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            rows.append((np.eye(n)[i] - np.eye(n)[j], k.delta_matrix[i, j]))
            rows = [(v, m) for v, m in rows if np.isfinite(m)]
            return np.array([v for v, _ in rows]), np.array([m for _, m in rows])

        rng = np.random.default_rng(1)
        caps = np.array(random_difference_caps(rng, 5).delta_matrix)
        caps[1, 3] = caps[3, 1] = np.inf
        sets = [
            netreg.Box(lower=np.array([0.0, -np.inf, 1.0]), upper=np.array([1.0, 2.0, np.inf])),
            netreg.PriceDifference(delta_matrix=caps),
        ]
        for k, n in zip(sets, (3, 5)):
            for got, expected in zip(halfspace_form(k, n), reference(k, n)):
                assert np.array_equal(got, expected)


class TestProjectionClosedForms:
    def test_unrestricted(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        assert np.allclose(netreg.project(prim, netreg.Unrestricted()), netreg.unrestricted_price(prim))

    def test_box_containing_optimum(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        pur = netreg.unrestricted_price(prim)
        box = netreg.Box(lower=pur - 1.0, upper=pur + 1.0)
        assert np.allclose(netreg.project(prim, box), pur)

    def test_uniform_no_spillover(self, rng):
        net = random_connected_network(rng, 6)
        a = rng.uniform(5.0, 15.0, 6)
        prim = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(6), delta=0.0)
        p = netreg.project(prim, netreg.Uniform())
        assert np.allclose(p, a.mean() / 2.0)

    def test_zero_caps_equal_uniform(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        caps = netreg.PriceDifference(delta_matrix=np.zeros((5, 5)))
        assert np.allclose(netreg.project(prim, caps), netreg.project(prim, netreg.Uniform()))

    def test_point_box(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        target = rng.uniform(0.0, 9.0, 5)
        box = netreg.Box(lower=target, upper=target)
        assert np.array_equal(netreg.project(prim, box), target)

    def test_average_price_binding(self, rng):
        net = random_connected_network(rng, 5)
        prim = random_primitives(rng, net)
        theta = rng.uniform(0.1, 1.0, 5)
        theta /= theta.sum()
        pur = netreg.unrestricted_price(prim)
        reg = netreg.AveragePrice(theta=theta, cap=float(theta @ pur) - 1.0)
        p = netreg.project(prim, reg)
        assert float(theta @ p) == pytest.approx(reg.cap, abs=1e-10)
        oracle = project_oracle(prim, *halfspace_form(reg, 5))
        assert np.abs(p - oracle).max() <= 1e-6

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: netreg.Box(lower=np.full(n, -np.inf), upper=np.full(n, np.inf)),
            lambda n: netreg.PriceDifference(delta_matrix=np.where(np.eye(n, dtype=bool), 0.0, np.inf)),
        ],
        ids=["box", "difference-caps"],
    )
    def test_every_bound_infinite(self, rng, make):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        assert np.array_equal(netreg.project(prim, make(5)), netreg.unrestricted_price(prim))

    def test_average_price_slack(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        theta = np.full(5, 0.2)
        pur = netreg.unrestricted_price(prim)
        reg = netreg.AveragePrice(theta=theta, cap=float(theta @ pur) + 1.0)
        assert np.allclose(netreg.project(prim, reg), pur)

    def test_block_rows_are_single_markets(self, rng):
        # a market at a column of spillovers gets one closed-form price per
        # row, each the bits of its row's own market; an active-set kind
        # takes one spillover at a time
        prim = random_primitives(rng, random_connected_network(rng, 5))
        pur = netreg.unrestricted_price(prim)
        theta = np.full(5, 0.2)
        deltas = [f / prim.net.lambda1 for f in (0.0, 0.3, 0.9, 1.0 - 1e-6)]
        markets = [prim.at(d) for d in deltas]
        block = prim.at(np.array(deltas)[:, None])
        for k in (
            netreg.Unrestricted(),
            netreg.Uniform(),
            netreg.PriceDifference(delta_matrix=np.zeros((5, 5))),
            netreg.Box(lower=pur, upper=pur),
            netreg.AveragePrice(theta=theta, cap=float(theta @ pur) - 1.0),
            netreg.AveragePrice(theta=theta, cap=float(theta @ pur) + 1.0),
        ):
            rows = netreg.project(block, k)
            assert rows.shape == (4, 5)
            assert rows.tobytes() == np.array([netreg.project(m, k) for m in markets]).tobytes()
        with pytest.raises(netreg.UnsupportedRegulationError):
            netreg.project(block, netreg.Box(lower=pur - 1.0, upper=pur))

    @pytest.mark.parametrize("kind", ["uniform", "box"])
    def test_empty_column_has_no_rows(self, rng, kind):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        k = netreg.Uniform() if kind == "uniform" else netreg.Box(lower=np.full(5, -np.inf), upper=np.full(5, 1.0))
        p_star, *ratios, failure = netreg.regulation.gap_parts(prim.at(np.empty((0, 1))), k)
        assert p_star.shape == (0, 5) and all(r.shape == (0,) for r in ratios) and failure is None


class TestProjectionOracle:
    def test_box_and_difference_match_bruteforce(self, rng):
        for _ in range(12):
            n = int(rng.integers(2, 7))
            net = random_connected_network(rng, n)
            prim = random_primitives(rng, net)
            for reg in (random_box(rng, prim), random_difference_caps(rng, n, 0.1, 1.2)):
                got = netreg.project(prim, reg)
                oracle = project_oracle(prim, *halfspace_form(reg, n))
                assert np.abs(got - oracle).max() <= 1e-6

    def test_kkt_normal_cone_box(self, rng):
        # H(p_ur - p*) must not point into the set: <H(p_ur - p*), p - p*> <= 0
        n = 5
        net = random_connected_network(rng, n)
        prim = random_primitives(rng, net)
        reg = random_box(rng, prim)
        p_star = netreg.project(prim, reg)
        pur = netreg.unrestricted_price(prim)
        grad_dir = netreg.h_apply(net, prim.delta, pur - p_star)
        lo = np.where(np.isfinite(reg.lower), reg.lower, p_star - 5.0)
        hi = np.where(np.isfinite(reg.upper), reg.upper, p_star + 5.0)
        scale = 1e-7 * (1.0 + np.abs(pur).max()) * (1.0 + np.abs(grad_dir).max())
        for _ in range(100):
            p = rng.uniform(lo, hi)
            assert float(grad_dir @ (p - p_star)) <= scale

    def test_kkt_normal_cone_difference_caps(self, rng):
        n = 5
        net = random_connected_network(rng, n)
        prim = random_primitives(rng, net)
        reg = random_difference_caps(rng, n, 0.2, 1.0)
        p_star = netreg.project(prim, reg)
        pur = netreg.unrestricted_price(prim)
        grad_dir = netreg.h_apply(net, prim.delta, pur - p_star)
        scale = 1e-7 * (1.0 + np.abs(pur).max()) * (1.0 + np.abs(grad_dir).max())
        radius = 0.5 * float(reg.delta_matrix[np.triu_indices(n, 1)].min())
        for _ in range(100):
            # level shifts plus a small spread stay feasible by construction
            p = rng.uniform(-5.0, 15.0) + rng.uniform(-radius, radius, n)
            assert float(grad_dir @ (p - p_star)) <= scale

    def test_nonexpansive_in_h_norm(self, rng):
        n = 5
        net = random_connected_network(rng, n)
        reg = random_difference_caps(rng, n, 0.1, 0.8)
        delta = 0.5 / net.lambda1
        c = np.zeros(n)
        a1 = rng.uniform(5.0, 15.0, n)
        a2 = a1 + rng.normal(0.0, 1.0, n)
        a2 = np.maximum(a2, 0.5)
        prim1 = netreg.MarketPrimitives(net=net, a=a1, c=c, delta=delta)
        prim2 = netreg.MarketPrimitives(net=net, a=a2, c=c, delta=delta)
        p1 = netreg.project(prim1, reg)
        p2 = netreg.project(prim2, reg)
        pur_gap = netreg.unrestricted_price(prim1) - netreg.unrestricted_price(prim2)
        assert np.sqrt(quad_form_h(prim1, p1 - p2)) <= np.sqrt(quad_form_h(prim1, pur_gap)) + 1e-8

    def test_infeasible_halfspaces(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 3))
        v = np.array([1.0, 0.0, 0.0])
        empty = netreg.Halfspaces(constraints=((v, -1e4), (-v, -1e4)))
        with pytest.raises(netreg.InfeasibleError):
            netreg.project(prim, empty)

    @pytest.mark.parametrize(
        "constraints",
        [
            ((np.eye(9)[0], 1.0), (-np.eye(9)[0], -2.0)),
            tuple((np.eye(9)[i] - np.eye(9)[(i + 1) % 3], -1.0) for i in range(3)),
        ],
        ids=["empty-box", "contradictory-3-cycle"],
    )
    def test_empty_set_detected_fast(self, constraints):
        empty = netreg.Halfspaces(constraints=constraints)
        for fraction in (0.05, 0.5, 0.999):
            prim = cp_prim(fraction)
            start = time.perf_counter()
            with pytest.raises(netreg.InfeasibleError):
                netreg.project(prim, empty)
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("width", [0.0, 1e-13, 1e-12, 1e-10])
    def test_thin_box_near_bound_is_not_empty(self, width):
        # near the bound the steps drift off the binding faces by more than
        # the width; the set is decided empty only after refinement
        net = netreg.gen_core_periphery(3, 2)
        prim = netreg.MarketPrimitives(net=net, a=np.linspace(10.0, 20.0, 9), c=np.zeros(9), delta=(1 - 1e-6) / net.lambda1)
        pur = netreg.unrestricted_price(prim)
        box = netreg.Box(lower=pur - 1.0 - width, upper=pur - 1.0)
        vmat, offsets = halfspace_form(box, 9)
        for reg in (box, netreg.Halfspaces(constraints=tuple(zip(vmat, offsets)))):
            assert netreg.regulation.contains(prim, reg, netreg.project(prim, reg))


    def test_no_face_past_the_dimension(self):
        # on 9 markets rounding used to admit a 10th face; the singular
        # refinement then returned a price 22.3 outside this empty set
        prim, reg = cut_halfspaces(295)
        with pytest.raises(netreg.InfeasibleError):
            netreg.project(prim, reg)

    def test_refinement_takes_a_second_step(self):
        # one step back onto the binding faces left this price outside its set
        prim, reg = cut_halfspaces(477, 1 - 1e-7)
        assert netreg.regulation.contains(prim, reg, netreg.project(prim, reg))

    @pytest.mark.xfail(
        strict=True,
        raises=netreg.InfeasibleError,
        reason="ROADMAP item 10: near the bound a nonempty set is called empty",
    )
    @pytest.mark.parametrize("seed, delta_fraction", [(3598, 1 - 1e-6), (6660, 1 - 1e-6), (603, 1 - 1e-7)])
    def test_nonempty_near_the_bound(self, seed, delta_fraction):
        prim, reg = cut_halfspaces(seed, delta_fraction)
        assert netreg.regulation.contains(prim, reg, netreg.project(prim, reg))

    @pytest.mark.parametrize("delta_fraction", [0.5, 1 - 1e-6, 1 - 1e-7])
    def test_cut_halfspaces_against_linprog(self, delta_fraction):
        # every price is in its set, and every set called empty is empty
        linprog = pytest.importorskip("scipy.optimize").linprog
        outside, called_empty, held = [], [], set()
        for seed in range(400):
            prim, reg = cut_halfspaces(seed, delta_fraction)
            held.add(prim.net)  # so that the seeds on one graph share its build
            try:
                price = netreg.project(prim, reg)
            except netreg.InfeasibleError:
                free = [(None, None)] * prim.n
                lp = linprog(np.zeros(prim.n), A_ub=reg.normals, b_ub=reg.offsets, bounds=free, method="highs")
                if lp.status != 2:
                    called_empty.append(seed)
            else:
                if not netreg.regulation.contains(prim, reg, price):
                    outside.append(seed)
        assert outside == [] and called_empty == []


class TestProjectionMemo:
    def test_one_projection_per_request(self, monkeypatch):
        prim = cp_prim()
        ceilings = netreg.unrestricted_price(prim) - np.linspace(0.5, 2.0, 9)
        reg = netreg.Halfspaces(constraints=tuple(zip(np.eye(9), ceilings)))
        solver = netreg.regulation._active_set_projection
        calls = []

        def counting(*args):
            calls.append(args)
            return solver(*args)

        monkeypatch.setattr(netreg.regulation, "_active_set_projection", counting)
        netreg.equilibrium_outcome(prim, reg)
        netreg.gap(prim, reg)
        netreg.pareto_certificate(prim, reg)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "reg",
        [
            netreg.Unrestricted(),
            netreg.Uniform(),
            netreg.Box(lower=np.full(9, 5.0), upper=np.full(9, 8.0)),
            netreg.PriceDifference(delta_matrix=1.0 - np.eye(9)),
            netreg.AveragePrice(theta=np.full(9, 1.0 / 9.0), cap=6.0),
        ],
        ids=lambda reg: reg.kind,
    )
    def test_price_is_read_only(self, reg):
        price = netreg.project(cp_prim(), reg)
        with pytest.raises(ValueError):
            price[0] = 0.0

    def test_uniform_and_unrestricted_kept_apart(self):
        prim = cp_prim()
        uniform = netreg.project(prim, netreg.Uniform())
        assert np.array_equal(netreg.project(prim, netreg.Unrestricted()), netreg.unrestricted_price(prim))
        assert np.ptp(uniform) == 0.0
        assert netreg.project(prim, netreg.Uniform()) is uniform

    def test_equal_boxes_give_equal_prices(self):
        prim = cp_prim()
        bounds = dict(lower=np.full(9, 5.0), upper=np.full(9, 8.0))
        first = netreg.project(prim, netreg.Box(**bounds))
        assert np.array_equal(netreg.project(prim, netreg.Box(**bounds)), first)


class TestEquilibriumOutcome:
    def test_unrestricted(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 5))
        out = netreg.equilibrium_outcome(prim, netreg.Unrestricted())
        assert out.r_v == pytest.approx(1.0, abs=1e-12)
        assert out.r_pi == pytest.approx(1.0, abs=1e-12)

    def test_within_feasible_band(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 7))
            net = random_connected_network(rng, n)
            prim = random_primitives(rng, net)
            for reg in (random_difference_caps(rng, n, 0.1, 1.0), random_box(rng, prim)):
                out = netreg.equilibrium_outcome(prim, reg)
                lo, hi = netreg.rv_bounds(prim, min(max(out.r_pi, 0.0), 1.0))
                assert lo - 1e-8 <= out.r_v <= hi + 1e-8

    def test_uniform_ban_helps_at_zero_spillover(self):
        prim = cp_prim(delta_fraction=0.0)
        out = netreg.equilibrium_outcome(prim, netreg.Uniform())
        assert out.r_v > 1.0


class TestIota:
    def test_reduces_to_gap_without_spillovers(self, rng):
        net = random_connected_network(rng, 5)
        a = rng.uniform(5.0, 15.0, 5)
        c = rng.uniform(0.0, 2.0, 5)
        prim = netreg.MarketPrimitives(net=net, a=a, c=c, delta=0.0)
        for eta in (0.0, 0.5, 1.2):
            assert np.allclose(netreg.iota(prim, eta), a - c)

    def test_positive(self, rng):
        for _ in range(5):
            prim = random_primitives(rng, random_connected_network(rng, 6))
            eta = 0.7 * netreg.eta_hat_plus(prim)
            assert netreg.iota(prim, eta).min() > 0.0

    def test_domain(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 4))
        with pytest.raises(netreg.OutOfRangeError):
            netreg.iota(prim, -0.1)


class TestCertificates:
    def test_unrestricted_efficient(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 4))
        cert = netreg.pareto_certificate(prim, netreg.Unrestricted())
        assert cert.efficient and cert.eta == 0.0

    def test_uniform_inefficient(self):
        cert = netreg.pareto_certificate(cp_prim(), netreg.Uniform())
        assert not cert.efficient

    def test_difference_caps_inefficient(self, rng):
        prim = cp_prim()
        reg = random_difference_caps(rng, 9, 0.1, 1.0)
        assert not netreg.pareto_certificate(prim, reg).efficient

    def test_vacuous_difference_caps_efficient(self):
        # caps as wide as the unrestricted spread leave the optimum feasible
        prim = cp_prim()
        spread = 5.0
        reg = netreg.PriceDifference(delta_matrix=np.full((9, 9), spread) - spread * np.eye(9))
        cert = netreg.pareto_certificate(prim, reg)
        assert cert.efficient and cert.eta == 0.0

    @pytest.mark.parametrize("delta_fraction", [None, 1.0 - 1e-6], ids=["random", "near_bound"])
    def test_box_round_trip(self, rng, delta_fraction):
        for _ in range(5):
            net = random_connected_network(rng, int(rng.integers(2, 8)))
            prim = random_primitives(rng, net, delta_fraction=delta_fraction)
            eta = 0.5 * netreg.eta_hat_plus(prim)
            ceiling = netreg.pareto_price(prim, eta)
            reg = netreg.Box(lower=np.full(net.n, -np.inf), upper=ceiling)
            cert = netreg.pareto_certificate(prim, reg)
            assert cert.efficient
            assert cert.eta == pytest.approx(eta, rel=1e-9)

    def test_box_generic_inefficient(self, rng):
        net = random_connected_network(rng, 5)
        prim = random_primitives(rng, net)
        pur = netreg.unrestricted_price(prim)
        reg = netreg.Box(lower=np.full(5, -np.inf), upper=pur - rng.uniform(0.1, 1.0, 5))
        assert not netreg.pareto_certificate(prim, reg).efficient

    @pytest.mark.parametrize("delta_fraction", [None, 1.0 - 1e-6], ids=["random", "near_bound"])
    def test_average_price_round_trip(self, rng, delta_fraction):
        for _ in range(5):
            net = random_connected_network(rng, int(rng.integers(2, 8)))
            prim = random_primitives(rng, net, delta_fraction=delta_fraction)
            eta = 0.4 * netreg.eta_hat_plus(prim)
            weight = netreg.iota(prim, eta)
            theta = weight / weight.sum()
            cap = float(theta @ netreg.pareto_price(prim, eta))
            reg = netreg.AveragePrice(theta=theta, cap=cap)
            cert = netreg.pareto_certificate(prim, reg)
            assert cert.efficient
            assert cert.eta == pytest.approx(eta, rel=1e-9)

    def test_average_price_generic_inefficient(self, rng):
        net = random_connected_network(rng, 6)
        prim = random_primitives(rng, net)
        theta = rng.uniform(0.1, 1.0, 6)
        theta /= theta.sum()
        cap = float(theta @ netreg.unrestricted_price(prim)) - 0.7
        assert not netreg.pareto_certificate(prim, netreg.AveragePrice(theta=theta, cap=cap)).efficient

    def test_halfspaces_falsification_only(self, rng):
        net = random_connected_network(rng, 4)
        prim = random_primitives(rng, net)
        pur = netreg.unrestricted_price(prim)
        v = rng.uniform(0.5, 1.0, 4)
        binding = netreg.Halfspaces(constraints=((v, float(v @ pur) - 1.0),))
        cert = netreg.pareto_certificate(prim, binding)
        assert not cert.efficient

    def test_halfspaces_cannot_certify_supporting_plane(self, rng):
        # the supporting halfspace itself projects the unrestricted price
        # onto the frontier price it supports, so it is certified efficient
        net = random_connected_network(rng, 5)
        prim = random_primitives(rng, net)
        eta = 0.5 * netreg.eta_hat_plus(prim)
        weight = netreg.iota(prim, eta)
        offset = float(weight @ netreg.pareto_price(prim, eta))
        supporting = netreg.Halfspaces(constraints=((weight, offset),))
        cert = netreg.pareto_certificate(prim, supporting)
        assert cert.efficient
        assert cert.eta == pytest.approx(eta, rel=1e-9)

    def test_box_and_its_halfspaces_agree(self, rng):
        net = random_connected_network(rng, 5)
        prim = random_primitives(rng, net)
        knife_edge = netreg.Box(
            lower=np.full(5, -np.inf), upper=netreg.pareto_price(prim, 0.5 * netreg.eta_hat_plus(prim))
        )
        pair = netreg.gen_complete(2)
        ceiling = netreg.MarketPrimitives(net=pair, a=np.full(2, 10.0), c=np.zeros(2), delta=0.5)
        cases = (
            (prim, knife_edge),
            (prim, random_box(rng, prim)),
            (ceiling, netreg.Box(lower=np.full(2, -np.inf), upper=np.ones(2))),
        )
        verdicts = []
        for case, box in cases:
            vmat, offsets = halfspace_form(box, case.n)
            as_box = netreg.pareto_certificate(case, box)
            as_rows = netreg.pareto_certificate(case, netreg.Halfspaces(constraints=tuple(zip(vmat, offsets))))
            assert as_rows.efficient == as_box.efficient
            if as_box.efficient:
                assert as_rows.eta == pytest.approx(as_box.eta, rel=1e-12)
            verdicts.append(as_box.efficient)
        assert verdicts == [True, False, True]
        assert netreg.pareto_certificate(*cases[2]).eta == pytest.approx(4.0 / 9.0, rel=1e-12)


class TestAInterval:
    def test_difference_caps_contain_zero(self, rng):
        prim = cp_prim()
        interval = netreg.a_interval(prim, random_difference_caps(rng, 9, 0.0, 1.0))
        assert 0.0 in interval
        assert interval.lower == -np.inf and interval.upper == np.inf

    def test_box_straddles(self, rng):
        net = random_connected_network(rng, 5)
        prim = random_primitives(rng, net)
        pur = netreg.unrestricted_price(prim)
        box = netreg.Box(lower=pur - 1.0, upper=pur + 1.0)
        interval = netreg.a_interval(prim, box)
        assert interval.lower < 0.0 < interval.upper

    def test_unrestricted(self, rng):
        prim = random_primitives(rng, random_connected_network(rng, 4))
        interval = netreg.a_interval(prim, netreg.Unrestricted())
        assert interval.lower == -np.inf and interval.upper == np.inf

    def test_box_matches_direct_statistic(self, rng):
        net = random_connected_network(rng, 5)
        prim = random_primitives(rng, net)
        lower = netreg.unrestricted_price(prim) + rng.uniform(0.1, 0.5, 5)
        upper = lower + rng.uniform(0.1, 2.0, 5)
        interval = netreg.a_interval(prim, netreg.Box(lower=lower, upper=upper))
        assert interval.lower == pytest.approx(netreg.a_statistic(prim, lower), rel=1e-12)
        assert interval.upper == pytest.approx(netreg.a_statistic(prim, upper), rel=1e-12)

    def test_average_price_parallel_weights(self, rng):
        net = random_connected_network(rng, 6)
        prim = random_primitives(rng, net)
        w1 = netreg.eigencentrality(net)
        theta = w1 / w1.sum()
        cap = float(theta @ netreg.unrestricted_price(prim)) - 0.5
        interval = netreg.a_interval(prim, netreg.AveragePrice(theta=theta, cap=cap))
        assert interval.lower == -np.inf
        assert interval.upper < 0.0

    def test_halfspaces_resolvable(self, rng):
        net = random_connected_network(rng, 4)
        prim = random_primitives(rng, net)
        w1 = netreg.eigencentrality(net)
        pur_avg = float(w1 @ netreg.unrestricted_price(prim))
        reg = netreg.Halfspaces(constraints=((2.0 * w1, 2.0 * (pur_avg + 1.0)),))
        interval = netreg.a_interval(prim, reg)
        assert interval.exact
        assert interval.upper == pytest.approx(1.0 / float(w1 @ half_gap(prim)), rel=1e-9)
        with_open_face = netreg.Halfspaces(constraints=reg.constraints + ((np.eye(4)[0], np.inf),))
        assert netreg.a_interval(prim, with_open_face) == interval
        # one face not parallel to w1 leaves every level of the statistic feasible
        one_generic = netreg.a_interval(prim, netreg.Halfspaces(constraints=((np.eye(4)[0], 3.0),)))
        assert one_generic.exact
        assert (one_generic.lower, one_generic.upper) == (-np.inf, np.inf)
        ceilings = netreg.Halfspaces(constraints=((np.eye(4)[0], 3.0), (np.eye(4)[1], 3.0)))
        assert not netreg.a_interval(prim, ceilings).exact


class TestClassifyLimit:
    def test_uniform_neutral(self):
        prim = cp_prim()
        lc = netreg.classify_limit(prim, netreg.Uniform())
        assert lc.label is Classification.NEUTRAL
        assert lc.a_star == 0.0
        assert (lc.limit_r_v, lc.limit_r_pi) == (1.0, 1.0)

    def test_box_above_inefficient(self, rng):
        net = random_connected_network(rng, 5)
        prim = random_primitives(rng, net)
        pur = netreg.unrestricted_price(prim)
        box = netreg.Box(lower=pur + 0.5, upper=pur + 2.0)
        lc = netreg.classify_limit(prim, box)
        assert lc.label is Classification.PARETO_INEFFICIENT
        assert lc.a_star > 0.0
        assert lc.limit_r_v < 1.0 and lc.limit_r_pi < 1.0

    def test_parallel_cap_efficient(self, rng):
        net = random_connected_network(rng, 6)
        prim = random_primitives(rng, net)
        w1 = netreg.eigencentrality(net)
        theta = w1 / w1.sum()
        cap = float(theta @ netreg.unrestricted_price(prim)) - 0.5
        lc = netreg.classify_limit(prim, netreg.AveragePrice(theta=theta, cap=cap))
        assert lc.label is Classification.PARETO_EFFICIENT
        assert lc.a_star < 0.0
        assert lc.limit_r_v > 1.0 and lc.limit_r_pi < 1.0

    def test_aligned_cap_with_one_generic_face_is_labelled(self):
        # <w1, p> <= sqrt(2) plus a ceiling on market 0; the ceiling cannot
        # bind the statistic, so the cap alone decides it, as for the box below
        prim = netreg.MarketPrimitives(net=netreg.gen_complete(2), a=np.full(2, 10.0), c=np.zeros(2), delta=0.5)
        rows = netreg.Halfspaces(constraints=((np.ones(2), 2.0), (np.eye(2)[0], 1.0)))
        lc = netreg.classify_limit(prim, rows)
        assert lc.label is Classification.PARETO_EFFICIENT
        assert lc.interval.lower == -np.inf
        assert lc.a_star == pytest.approx(-0.8, rel=1e-12)
        capped = netreg.classify_limit(prim, netreg.AveragePrice(theta=np.full(2, 0.5), cap=1.0))
        assert capped.a_star == pytest.approx(lc.a_star, rel=1e-12)

    def test_inexact_interval_is_not_labelled(self):
        # a ceiling on each of two markets: exact as a box, but its
        # halfspace faces are not parallel to w1
        prim = netreg.MarketPrimitives(net=netreg.gen_complete(2), a=np.full(2, 10.0), c=np.zeros(2), delta=0.5)
        box = netreg.Box(lower=np.full(2, -np.inf), upper=np.ones(2))
        lc = netreg.classify_limit(prim, box)
        assert lc.label is Classification.PARETO_EFFICIENT
        assert lc.a_star == pytest.approx(-0.8, rel=1e-12)
        rows = netreg.Halfspaces(constraints=((np.eye(2)[0], 1.0), (np.eye(2)[1], 1.0)))
        with pytest.raises(netreg.UnsupportedRegulationError, match="halfspaces"):
            netreg.classify_limit(prim, rows)

    def test_equilibrium_statistic_converges(self, rng):
        # the equilibrium statistic approaches the interval point closest to zero
        net = netreg.gen_core_periphery(3, 2)
        a = np.array([20.0] * 3 + [10.0] * 6)
        c = np.zeros(9)
        pur = a / 2
        floor = np.full(9, -np.inf)
        floor[0] = pur[0] + 2.0  # one binding floor; the rest of the box is open
        box = netreg.Box(lower=floor, upper=np.full(9, np.inf))
        for reg in (netreg.Uniform(), box):
            errors = []
            for k in range(2, 6):
                prim = netreg.MarketPrimitives(net=net, a=a, c=c, delta=delta_near_bound(net, 10.0**-k))
                a_star = netreg.classify_limit(prim, reg).a_star
                stat = netreg.a_statistic(prim, netreg.project(prim, reg))
                errors.append(abs(stat - a_star))
            assert errors[-1] < 5e-4
            assert errors[-1] < errors[0]


class TestGap:
    def test_unrestricted_zero(self, rng):
        net = random_connected_network(rng, 5)
        for frac in (0.0, 0.4, 0.9):
            prim = random_primitives(rng, net, delta_fraction=max(frac, 1e-9))
            assert netreg.gap(prim, netreg.Unrestricted()) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_positive_then_collapses(self):
        g_half = netreg.gap(cp_prim(0.5), netreg.Uniform())
        assert g_half > 1e-3
        g_near = netreg.gap(cp_prim(1.0 - 1e-4), netreg.Uniform())
        assert g_near < g_half
        assert g_near < 1e-2


def tripartite_prim(delta_fraction, sizes=(2, 3, 4), a=(21.0, 15.0, 9.0), c=(1.0, 2.5, 0.5)):
    """Complete tripartite markets with values and costs constant on parts."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    net = netreg.build_network((labels[:, None] != labels).astype(float))
    return netreg.MarketPrimitives(
        net=net, a=np.array(a)[labels], c=np.array(c)[labels], delta=delta_fraction / net.lambda1
    ), labels


class TestCellQuotient:
    def test_slack_caps_return_the_unrestricted_bits(self):
        # p_ur = (6, 14.2) on cells of 3 and 6, whose cell coordinates
        # z = C^{1/2} y do not round-trip: (z / C^{1/2}) and z * C^{-1/2} miss y
        prim = cp_prim(1.0 - 1e-6, theta=(12.0, 28.4))
        with active_set_columns() as columns:
            price = netreg.project(prim, netreg.PriceDifference(delta_matrix=100.0 * (1.0 - np.eye(9))))
        assert columns == [2]
        assert price.tobytes() == netreg.unrestricted_price(prim).tobytes()

    @pytest.mark.parametrize("fraction", [0.5, 1.0 - 1e-6])
    def test_binding_sets_match_full_n(self, fraction):
        prim, labels = tripartite_prim(fraction)
        pur = netreg.unrestricted_price(prim)
        caps = np.array([[0.0, 2.0, 4.0], [2.0, 0.0, 1.0], [4.0, 1.0, 0.0]])[np.ix_(labels, labels)]
        for reg in (
            netreg.Box(lower=np.full(9, -np.inf), upper=pur - np.array([1.0, 0.0, 3.0])[labels]),
            netreg.PriceDifference(delta_matrix=caps),
        ):
            with active_set_columns() as columns:
                got = netreg.project(prim, reg)
            assert columns == [3]
            full = netreg.regulation._active_set_projection(prim.delta, prim.net.adjacency, *halfspace_form(reg, 9), pur)
            assert np.abs(got - full).max() <= 1e-12 * np.abs(full).max()
            assert netreg.regulation.contains(prim, reg, got)

    def test_partition_formed_once_per_sweep(self, monkeypatch):
        partition = netreg.regulation.equitable_partition
        calls = []

        def counting(*args):
            calls.append(args)
            return partition(*args)

        monkeypatch.setattr(netreg.regulation, "equitable_partition", counting)
        (scenario,) = [s for stem, s in netreg.sweeps.experiment_scenarios("figB4a", 12).items() if stem.endswith("cap2.5")]
        rows = netreg.run_sweep(scenario)
        assert len(calls) == 1 and len(rows) == 12
        assert all(row.r_pi_star < 1.0 for row in rows)  # every row binds

    def test_full_n_halfspaces_formed_once_per_sweep(self, rng, monkeypatch):
        form = netreg.regulation.halfspace_form
        calls = []

        def counting(*args):
            calls.append(args)
            return form(*args)

        monkeypatch.setattr(netreg.regulation, "halfspace_form", counting)
        monkeypatch.setattr(netreg.sweeps, "BLOCK_ELEMENTS", 9 * 5)  # blocks of 5 rows
        (scenario,) = [s for stem, s in netreg.sweeps.experiment_scenarios("figB2a", 12).items() if stem.endswith("cap2.5")]
        scenario = dataclasses.replace(scenario, a=rng.uniform(15.0, 25.0, 9))  # distinct values: all n markets
        with active_set_columns() as columns:
            rows = netreg.run_sweep(scenario)
        assert columns == [9] * 12 and len(rows) == 12
        assert len(calls) == 1

    def test_lone_projection_keeps_no_full_n_rows(self, rng):
        # n(n-1) x n rows held by the market would outlive the projection
        prim = random_primitives(rng, netreg.gen_core_periphery(3, 2), delta_fraction=0.9)
        reg = netreg.PriceDifference(delta_matrix=1.0 - np.eye(9))
        netreg.gap(prim, reg)
        assert netreg.regulation.contains(prim, reg, netreg.project(prim, reg))
        assert prim.active_set_inputs == {reg: None}

    def test_distinct_values_skip_the_partition(self, rng, monkeypatch):
        monkeypatch.setattr(netreg.regulation, "equitable_partition", None)  # must not be called
        prim = random_primitives(rng, netreg.gen_core_periphery(3, 2), delta_fraction=0.9)
        with active_set_columns() as columns:
            netreg.project(prim, random_box(rng, prim))
        assert columns == [9]

    def test_caps_that_vary_within_a_pair_go_full_n(self):
        # equal row sums keep the cells of the refinement; the cap check rejects them
        prim, labels = tripartite_prim(0.9, sizes=(3, 3, 2))
        caps = np.where(labels[:, None] == labels, 0.5, 2.0)
        caps[np.arange(3), np.arange(3, 6)] = caps[np.arange(3, 6), np.arange(3)] = 1.0
        np.fill_diagonal(caps, 0.0)
        reg = netreg.PriceDifference(delta_matrix=caps)
        assert len(set(netreg.network.equitable_partition(prim.net, netreg.unrestricted_price(prim), caps))) == 3
        with active_set_columns() as columns:
            price = netreg.project(prim, reg)
        assert columns == [8]
        assert netreg.regulation.contains(prim, reg, price)


def _kkt_reference(prim, reg, price):
    """The 50-digit H-projection x of p_ur onto the faces of
    ``halfspace_form`` tight at ``price``, checked to be the projection onto
    the whole set: x meets every face, and the faces' multipliers are
    nonnegative.

    The faces may be dependent (caps between two cells of several markets),
    so x is solved on the first independent ones, which span the same
    normals; the multipliers are the minimum-norm solution of
    ``V_A' mu = H (p_ur - x)``, found in the row space of ``V_A``.
    """
    mpmath = pytest.importorskip("mpmath")
    vmat, offsets = halfspace_form(reg, prim.n)
    tight = np.flatnonzero(vmat @ price >= offsets - 1e-9 * (1.0 + np.abs(price).max()))
    basis = []
    for i in tight:
        if np.linalg.matrix_rank(vmat[basis + [i]]) == len(basis) + 1:
            basis.append(i)
    with mpmath.workdps(50):
        hinv = mpmath.eye(prim.n) - mpmath.mpf(prim.delta) * mpmath.matrix(prim.net.adjacency.tolist())
        pur = mpmath.matrix(netreg.unrestricted_price(prim).tolist())
        v_all, b_all = mpmath.matrix(vmat.tolist()), mpmath.matrix(offsets.tolist())
        v_a, v_s = mpmath.matrix(vmat[tight].tolist()), mpmath.matrix(vmat[basis].tolist())
        nu = mpmath.lu_solve(v_s * hinv * v_s.T, v_s * pur - mpmath.matrix(offsets[basis].tolist()))
        x = pur - hinv * v_s.T * nu
        t = mpmath.lu_solve(v_s * v_a.T * v_a * v_s.T, v_s * v_s.T * nu)
        mu = v_a * v_s.T * t
        slack = v_all * x - b_all
        assert max(slack[i] for i in range(slack.rows)) <= mpmath.mpf(10) ** -40  # x is feasible
        assert min(mu[i] for i in range(mu.rows)) >= -mpmath.mpf(10) ** -40  # and optimal
        return [x[i] for i in range(prim.n)]


class TestCellQuotientReference:
    @pytest.mark.parametrize("kind", ["box", "caps"])
    def test_near_bound_against_50_digits(self, kind):
        mpmath = pytest.importorskip("mpmath")
        prim, labels = tripartite_prim(1.0 - 1e-6)
        pur = netreg.unrestricted_price(prim)
        if kind == "box":
            # ceilings under two parts' prices, one within 1e-3 of p_ur; the third free
            reg = netreg.Box(lower=pur - 5.0, upper=pur - np.array([1e-3, 2.0, -np.inf])[labels])
        else:
            gaps = np.array([[0.0, 3.0, 6.5], [3.0, 0.0, 2.0], [6.5, 2.0, 0.0]])
            reg = netreg.PriceDifference(delta_matrix=gaps[np.ix_(labels, labels)])
        with active_set_columns() as columns:
            price = netreg.project(prim, reg)
        assert columns == [3]
        with mpmath.workdps(50):
            exact = _kkt_reference(prim, reg, price)
            scale = max(abs(e) for e in exact)
            err = max(abs(mpmath.mpf(float(p)) - e) for p, e in zip(price, exact)) / scale
        assert float(err) <= 1e-15
