import contextlib

import numpy as np
import pytest

import netreg


def random_connected_network(rng, n, weighted=False, edge_prob=None):
    """Random connected undirected graph; retries until connected."""
    if n == 1:
        return netreg.build_network(np.zeros((1, 1)))
    p = edge_prob if edge_prob is not None else min(1.0, 1.5 * np.log(max(n, 2)) / n + 0.2)
    while True:
        g = (rng.random((n, n)) < p).astype(float)
        if weighted:
            g = g * rng.uniform(0.5, 1.5, (n, n))
        g = np.triu(g, 1)
        g = g + g.T
        try:
            return netreg.build_network(g)
        except netreg.NetregError:
            continue


def random_nonregular_network(rng, n, weighted=False):
    while True:
        net = random_connected_network(rng, n, weighted=weighted)
        if not netreg.is_regular(net):
            return net


def random_primitives(rng, net, delta_fraction=None, zero_cost=False):
    n = net.n
    a = rng.uniform(5.0, 15.0, n)
    c = np.zeros(n) if zero_cost else rng.uniform(0.0, 3.0, n)
    if delta_fraction is None:
        delta_fraction = rng.uniform(0.1, 0.8)
    lam1 = net.lambda1
    delta = delta_fraction / lam1 if lam1 > 0 else 0.0
    return netreg.MarketPrimitives(net=net, a=a, c=c, delta=delta)


@contextlib.contextmanager
def active_set_columns():
    """The number of coordinates of each active-set projection run inside
    the block: n for a full projection, the cell count on a quotient."""
    solver = netreg.regulation._active_set_projection
    columns = []

    def spy(delta, g, vmat, offsets, q):
        columns.append(vmat.shape[1])
        return solver(delta, g, vmat, offsets, q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(netreg.regulation, "_active_set_projection", spy)
        yield columns


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shape of every matrix passed to np.linalg.eigh during the test."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.fixture
def dyad():
    return netreg.build_network([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def core_periphery():
    return netreg.gen_core_periphery(3, 2)


@pytest.fixture
def case_thetas():
    # the two intrinsic-value cases used throughout the desk experiments
    return {"gain": (20.0, 10.0), "lose": (10.0, 20.0)}


def theta_values(net, part1, theta1, theta2):
    a = np.full(net.n, float(theta2))
    a[list(part1)] = float(theta1)
    return a
