"""Derandomised property tests of the projection (hypothesis).

Over random connected graphs of at most 12 markets and spillovers up to
``(1 - 1e-6) / lambda_1``, every box, difference-cap and halfspace
projection is a price in its set, or raises ``InfeasibleError`` exactly
when ``scipy.optimize.linprog`` finds the set empty; a box and the same
floors and ceilings written as halfspaces give one price.
"""

import numpy as np
import pytest

import netreg

pytest.importorskip("hypothesis")
linprog = pytest.importorskip("scipy.optimize").linprog

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def _vector(n, low, high):
    return arrays(float, n, elements=st.floats(low, high))


@st.composite
def markets(draw):
    """Primitives on a random connected graph: a random spanning tree plus
    extra edges, values in [5, 25], costs in [0, 3]."""
    n = draw(st.integers(2, 12))
    g = np.zeros((n, n))
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        g[i, j] = g[j, i] = 1.0
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)):
        if i != j:
            g[i, j] = g[j, i] = 1.0
    net = netreg.build_network(g)
    fraction = draw(st.floats(0.0, 1.0 - 1e-6))
    return netreg.MarketPrimitives(
        net=net, a=draw(_vector(n, 5.0, 25.0)), c=draw(_vector(n, 0.0, 3.0)), delta=fraction / net.lambda1
    )


@st.composite
def boxes(draw, n):
    """Floors and ceilings in [0, 30], each absent (infinite) at random."""
    ends = np.sort(np.stack([draw(_vector(n, 0.0, 30.0)), draw(_vector(n, 0.0, 30.0))]), axis=0)
    lower = np.where(draw(arrays(bool, n)), -np.inf, ends[0])
    upper = np.where(draw(arrays(bool, n)), np.inf, ends[1])
    return netreg.Box(lower=lower, upper=upper)


@st.composite
def difference_caps(draw, n):
    """Symmetric caps in [0, 5], each pair uncapped (infinite) at random."""
    caps = np.where(draw(arrays(bool, (n, n))), np.inf, draw(arrays(float, (n, n), elements=st.floats(0.0, 5.0))))
    caps = np.triu(caps, 1)
    return netreg.PriceDifference(delta_matrix=caps + caps.T)


@st.composite
def halfspaces(draw, prim):
    """1 to 2n halfspaces with small-integer normals (so faces are often
    parallel or repeated), each at a signed distance in [-2, 2] from p_ur."""
    n = prim.n
    m = draw(st.integers(1, 2 * n))
    vmat = draw(arrays(float, (m, n), elements=st.integers(-3, 3)))
    vmat[~np.any(vmat != 0.0, axis=1), 0] = 1.0
    shift = draw(_vector(m, -2.0, 2.0)) * np.linalg.norm(vmat, axis=1)
    offsets = vmat @ netreg.unrestricted_price(prim) - shift
    return netreg.Halfspaces(constraints=tuple(zip(vmat, offsets)))


def _is_empty(prim, reg):
    free = [(None, None)] * prim.n
    lp = linprog(np.zeros(prim.n), A_ub=reg.normals, b_ub=reg.offsets, bounds=free, method="highs")
    assert lp.status in (0, 2)
    return lp.status == 2


def _as_halfspaces(box):
    """The box's ceilings and floors, market by market; an absent one is an
    infinite offset."""
    n = box.lower.shape[0]
    normals = np.repeat(np.eye(n), 2, axis=0) * np.tile([1.0, -1.0], n)[:, None]
    offsets = np.empty(2 * n)
    offsets[0::2], offsets[1::2] = box.upper, -box.lower
    return netreg.Halfspaces(constraints=tuple(zip(normals, offsets)))


@PROPERTY_SETTINGS
@given(st.data())
def test_projection_is_feasible_or_the_set_is_empty(data):
    prim = data.draw(markets())
    box = data.draw(boxes(prim.n))
    for reg in (box, data.draw(difference_caps(prim.n))):
        # boxes and difference caps are never empty
        assert netreg.regulation.contains(prim, reg, netreg.project(prim, reg))
    reg = data.draw(halfspaces(prim))
    try:
        price = netreg.project(prim, reg)
    except netreg.InfeasibleError:
        assert _is_empty(prim, reg)
    else:
        assert netreg.regulation.contains(prim, reg, price)
        assert not _is_empty(prim, reg)


@PROPERTY_SETTINGS
@given(st.data())
def test_box_and_its_halfspaces_give_one_price(data):
    prim = data.draw(markets())
    box = data.draw(boxes(prim.n))
    expected = netreg.project(prim, box)
    got = netreg.project(prim, _as_halfspaces(box))
    assert np.abs(got - expected).max() <= 1e-12 * max(1.0, float(np.abs(expected).max()))
