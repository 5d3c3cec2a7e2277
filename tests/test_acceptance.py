"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and runtime budget is pinned here; run with ``pytest -s``
to see the per-criterion lines as they complete.
"""

import time

import numpy as np
import pytest

import netreg
from netreg.market import delta_near_bound
from netreg.regulation import Classification, halfspace_form

from conftest import random_connected_network, random_nonregular_network, theta_values
from qp_oracle import project_oracle


def _report(num, description, ok, elapsed, budget):
    ok = bool(ok) and elapsed < budget
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description} ({elapsed:.2f}s < {budget}s)")
    assert ok, f"criterion {num}: {description} (elapsed {elapsed:.2f}s, budget {budget}s)"


def test_criterion_01_eigencentrality_golden():
    start = time.perf_counter()
    net = netreg.gen_core_periphery(3, 2)
    w1 = netreg.eigencentrality(net)
    ok = (
        abs(net.lambda1 - (1.0 + np.sqrt(3.0))) <= 1e-10
        and np.abs(w1[:3] - 0.513).max() <= 1e-3
        and np.abs(w1[3:] - 0.188).max() <= 1e-3
    )
    _report(1, "core-periphery eigencentrality and leading eigenvalue", ok, time.perf_counter() - start, 0.1)


def test_criterion_02_small_delta_surplus_gain():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 17))
        net = random_connected_network(rng, n)
        a = rng.uniform(5.0, 15.0, n)
        prim = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(n), delta=0.0)
        gain = netreg.small_delta_gain(prim)
        expect = 0.75 * (n - 1) * float(np.var(a, ddof=1))
        ok = ok and abs(gain - expect) <= 1e-10 * max(1.0, abs(expect))
    _report(2, "uniform-price surplus gain equals 3(n-1)/4 * Var[a] at delta=0", ok, time.perf_counter() - start, 0.1)


def test_criterion_03_ramsey_pareto_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 17))
        net = random_connected_network(rng, n)
        a = rng.uniform(5.0, 15.0, n)
        c = rng.uniform(0.0, 3.0, n)
        delta = rng.uniform(0.05, 0.9) / net.lambda1
        prim = netreg.MarketPrimitives(net=net, a=a, c=c, delta=delta)
        eta_hat = netreg.eta_hat_plus(prim)
        pur_scale = float(np.abs(netreg.unrestricted_price(prim)).max())
        for frac in (0.05, 0.25, 0.5, 0.75, 0.95):
            eta = frac * eta_hat
            diff = netreg.ramsey_price(prim, eta) - netreg.pareto_price(prim, eta)
            ok = ok and float(np.abs(diff).max()) <= 1e-8 * pur_scale
    _report(3, "weighted-objective price matches the frontier family", ok, time.perf_counter() - start, 10.0)


def test_criterion_04_projection_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 7))
        net = random_connected_network(rng, n)
        a = rng.uniform(5.0, 15.0, n)
        c = rng.uniform(0.0, 3.0, n)
        prim = netreg.MarketPrimitives(net=net, a=a, c=c, delta=rng.uniform(0.05, 0.9) / net.lambda1)
        pur = netreg.unrestricted_price(prim)
        lower = pur - rng.uniform(0.2, 2.0, n)
        upper = pur + rng.uniform(-0.8, 1.5, n)
        box = netreg.Box(lower=np.minimum(lower, upper), upper=upper)
        mat = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        mat[iu] = rng.uniform(0.05, 1.2, len(iu[0]))
        caps = netreg.PriceDifference(delta_matrix=mat + mat.T)
        for reg in (box, caps):
            got = netreg.project(prim, reg)
            oracle = project_oracle(prim, *halfspace_form(reg, n))
            ok = ok and float(np.abs(got - oracle).max()) <= 1e-6
    _report(4, "projection matches the active-set enumeration oracle", ok, time.perf_counter() - start, 30.0)


def test_criterion_05_frontier_limit():
    start = time.perf_counter()
    net = netreg.gen_core_periphery(3, 2)
    a = theta_values(net, (0, 1, 2), 20.0, 10.0)
    ok = True
    for tau in (0.0, 0.25, 0.5, 0.75):
        errors = []
        for k in range(2, 6):
            prim = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(9), delta=delta_near_bound(net, 10.0**-k))
            _, r_v_plus = netreg.rv_bounds(prim, tau)
            errors.append(abs(r_v_plus - netreg.frontier_limit(tau)))
        ok = ok and all(b < a_ for a_, b in zip(errors, errors[1:])) and errors[-1] < 0.01
    _report(5, "frontier surplus ratio approaches (1+sqrt(1-tau))^2", ok, time.perf_counter() - start, 5.0)


def test_criterion_06_neutrality_and_gap_collapse():
    start = time.perf_counter()
    net = netreg.gen_core_periphery(3, 2)
    ok = True
    for theta in ((20.0, 10.0), (10.0, 20.0)):
        a = theta_values(net, (0, 1, 2), *theta)
        prim = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(9), delta=delta_near_bound(net, 1e-5))
        out = netreg.equilibrium_outcome(prim, netreg.Uniform())
        ok = ok and abs(out.r_v - 1.0) < 0.01 and abs(out.r_pi - 1.0) < 0.01
        gaps = []
        for k in range(2, 6):
            prim_k = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(9), delta=delta_near_bound(net, 10.0**-k))
            gaps.append(netreg.gap(prim_k, netreg.Uniform()))
        ok = ok and all(b < a_ for a_, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.01
    _report(6, "uniform pricing turns neutral and the frontier gap collapses", ok, time.perf_counter() - start, 5.0)


def test_criterion_07_welfare_direction_cases():
    start = time.perf_counter()
    net = netreg.gen_core_periphery(3, 2)
    delta = delta_near_bound(net, 1e-4)
    gain_a = theta_values(net, (0, 1, 2), 20.0, 10.0)
    lose_a = theta_values(net, (0, 1, 2), 10.0, 20.0)
    dir_gain = netreg.welfare_direction_large_delta(net, gain_a)
    dir_lose = netreg.welfare_direction_large_delta(net, lose_a)
    prim_gain = netreg.MarketPrimitives(net=net, a=gain_a, c=np.zeros(9), delta=delta)
    prim_lose = netreg.MarketPrimitives(net=net, a=lose_a, c=np.zeros(9), delta=delta)
    r_v_gain, _ = netreg.ratios(prim_gain, netreg.uniform_price(prim_gain))
    r_v_lose, _ = netreg.ratios(prim_lose, netreg.uniform_price(prim_lose))
    ok = (
        dir_gain is netreg.WelfareDirection.CONSUMERS_GAIN
        and dir_lose is netreg.WelfareDirection.CONSUMERS_LOSE
        and r_v_gain > 1.0
        and r_v_lose < 1.0
    )
    _report(7, "ban direction matches measured surplus in both value cases", ok, time.perf_counter() - start, 1.0)


def test_criterion_08_limit_trichotomy():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    net = random_nonregular_network(rng, 6)
    a = rng.uniform(8.0, 16.0, 6)
    near = netreg.MarketPrimitives(net=net, a=a, c=np.zeros(6), delta=delta_near_bound(net, 1e-5))
    pur = netreg.unrestricted_price(near)
    w1 = netreg.eigencentrality(net)

    fixed_high = pur + 0.6  # statistic interval is one positive point
    fixed_low = pur - 0.8 * (w1 / w1.max())  # one negative point
    floor = np.full(6, -np.inf)
    floor[0] = pur[0] + 1.0  # single binding floor: interval spans zero
    cases = (
        (netreg.Box(lower=fixed_high, upper=fixed_high), Classification.PARETO_INEFFICIENT),
        (netreg.Box(lower=floor, upper=np.full(6, np.inf)), Classification.NEUTRAL),
        (netreg.Box(lower=fixed_low, upper=fixed_low), Classification.PARETO_EFFICIENT),
    )
    ok = True
    for reg, label in cases:
        lc = netreg.classify_limit(near, reg)
        ok = ok and lc.label is label
        out = netreg.equilibrium_outcome(near, reg)
        ok = ok and abs(out.r_v - lc.limit_r_v) < 0.02 and abs(out.r_pi - lc.limit_r_pi) < 0.02
    _report(8, "limit trichotomy labels and ratio formulas verified in place", ok, time.perf_counter() - start, 5.0)


def test_criterion_09_inefficiency_falsification():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(50):
        n = int(rng.integers(3, 9))
        net = random_connected_network(rng, n)
        a = rng.uniform(6.0, 16.0, n)
        c = rng.uniform(0.0, 2.0, n)
        prim = netreg.MarketPrimitives(net=net, a=a, c=c, delta=0.5 / net.lambda1)
        pur = netreg.unrestricted_price(prim)
        spread = float(pur.max() - pur.min())
        mat = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        mat[iu] = rng.uniform(0.05, max(0.4 * spread, 0.1), len(iu[0]))
        caps = netreg.PriceDifference(delta_matrix=mat + mat.T)
        theta = rng.uniform(0.1, 1.0, n)
        theta /= theta.sum()
        avg = netreg.AveragePrice(theta=theta, cap=float(theta @ pur) - rng.uniform(0.3, 1.0))
        for reg in (caps, avg):
            cert = netreg.pareto_certificate(prim, reg)
            ok = ok and not cert.efficient
            ok = ok and netreg.gap(prim, reg) > 1e-6
    _report(9, "random difference and average-price caps are off the frontier", ok, time.perf_counter() - start, 30.0)


def test_criterion_10_psi_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 33))
        net = random_nonregular_network(rng, n)
        stat = netreg.psi(net)
        norm = float(np.linalg.norm(stat.psi))
        ok = ok and abs(float(stat.psi.sum())) <= 1e-10 * max(norm, 1e-30)
        ok = ok and stat.corr_psi_w1 > 0.0

    def ring(n):
        g = np.zeros((n, n))
        for i in range(n):
            g[i, (i + 1) % n] = g[(i + 1) % n, i] = 1.0
        return netreg.build_network(g)

    regulars = [netreg.gen_complete(5), netreg.gen_complete(9), ring(8), ring(13), netreg.gen_complete_bipartite(4, 4)]
    for net in regulars:
        ok = ok and float(np.abs(netreg.psi(net).psi).max()) <= 1e-10
    _report(10, "network summary vector: zero sum, centrality-aligned, regular-null", ok, time.perf_counter() - start, 30.0)
