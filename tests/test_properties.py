"""Derandomised property tests of the projection and the sweep (hypothesis).

Over random connected graphs of at most 12 markets and spillovers up to
``(1 - 1e-6) / lambda_1``, every box, difference-cap and halfspace
projection is a price in its set, or raises ``InfeasibleError`` exactly
when ``scipy.optimize.linprog`` finds the set empty; a box and the same
floors and ceilings written as halfspaces give one price.  Under every
regulation kind, a sweep row has the same bits whether its grid is swept
whole, shuffled, cut into pieces or evaluated one point at a time, and a
row that fails fails with the single point's error.  On complete
multipartite and core-periphery graphs with data constant on their parts, a
box or cap set is projected on its equitable quotient and matches the
method on all n markets; a set that varies inside a part leaves it.
"""

import numpy as np
import pytest

import netreg
from netreg.regulation import gap_parts
from netreg.scenario import Scenario

from conftest import active_set_columns

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


REGULATION_KINDS = ("unrestricted", "uniform", "box", "zero_caps", "difference", "average", "halfspaces")


@st.composite
def regulations(draw, prim, kind):
    """A regulation of the kind, binding or not, feasible or (for
    halfspaces) possibly empty."""
    n = prim.n
    if kind == "unrestricted":
        return netreg.Unrestricted()
    if kind == "uniform":
        return netreg.Uniform()
    if kind == "box":
        return draw(boxes(n))
    if kind == "zero_caps":
        return netreg.PriceDifference(delta_matrix=np.zeros((n, n)))
    if kind == "difference":
        return draw(difference_caps(n))
    if kind == "average":
        theta = draw(_vector(n, 0.0, 1.0)) + 1e-3
        theta /= theta.sum()
        cap = draw(st.floats(-1.0, 1.2)) * float(theta @ netreg.unrestricted_price(prim))  # below 0.3 profit often turns negative
        return netreg.AveragePrice(theta=theta, cap=cap)
    return draw(halfspaces(prim))


def _point(prim, k):
    """A single point's (p*, R_V, R_Pi, A, gap) as bytes, or its error's
    class and message."""
    try:
        p_star = netreg.project(prim, k)
        gap = netreg.gap(prim, k)
    except netreg.NetregError as err:
        return type(err), str(err)
    return np.array([*p_star, *netreg.ratios(prim, p_star), netreg.a_statistic(prim, p_star), gap]).tobytes()


def _block(market, deltas, k):
    """The rows of one ``gap_parts`` block over ``deltas`` in the single
    point's form, up to and including the first failure."""
    p_star, r_v, r_pi, r_v_plus, failure = gap_parts(market.at(np.array(deltas)[:, None]), k)
    a_stat = netreg.a_statistic(market, p_star) if len(p_star) else []
    columns = np.column_stack([p_star, r_v, r_pi, a_stat, r_v_plus - r_v]) if len(p_star) else []
    rows = [row.tobytes() for row in columns]
    if failure:
        rows.append((type(failure[1]), str(failure[1])))
    return rows


def _up_to_first_failure(rows):
    return next((rows[: i + 1] for i, row in enumerate(rows) if isinstance(row, tuple)), rows)


@pytest.mark.parametrize("kind", REGULATION_KINDS)
@settings(PROPERTY_SETTINGS, max_examples=12)
@given(st.data())
def test_sweep_rows_do_not_depend_on_their_block(kind, data):
    prim = data.draw(markets())
    market = prim.at(0.0)
    k = data.draw(regulations(prim, kind))
    fractions = data.draw(st.lists(st.floats(0.0, 1.0 - 1e-6), min_size=1, max_size=8))
    deltas = list(dict.fromkeys(f / prim.net.lambda1 for f in fractions))
    single = {d: _point(market.at(d), k) for d in deltas}
    for d, row in single.items():
        if not isinstance(row, tuple):
            values = np.frombuffer(row)
            assert values[-1] >= -1e-9  # gap
            assert values[-3] <= 1.0 + 1e-12  # R_Pi
    order = data.draw(st.permutations(deltas))
    cuts = sorted(set(data.draw(st.lists(st.integers(1, len(order) - 1), max_size=3)))) if len(order) > 1 else []
    pieces = [order[i:j] for i, j in zip([0, *cuts], [*cuts, len(order)])]
    for block in [deltas, order, *pieces]:
        assert _block(market, block, k) == _up_to_first_failure([single[d] for d in block])
    # a sweep of an ascending grid names its first failing point
    count = data.draw(st.integers(1, 8))
    top = data.draw(st.floats(0.0, 1.0 - 1e-6))
    scenario = Scenario(
        network=prim.net, part1=None, a=prim.a, c=prim.c, regulation=k, grid_count=count, grid_max_fraction=top, raw={}
    )
    expected = _up_to_first_failure([_point(market.at(d), k) for d in netreg.delta_grid(scenario).tolist()])
    try:
        rows = netreg.run_sweep(scenario)
    except netreg.SweepError as err:
        assert isinstance(expected[-1], tuple)
        assert (type(err.__cause__), str(err.__cause__)) == expected[-1]
        assert err.delta == netreg.delta_grid(scenario)[len(expected) - 1]
    else:
        got = [np.array([*netreg.project(market.at(r.delta), k), r.r_v_star, r.r_pi_star, r.a_stat, r.gap]).tobytes() for r in rows]
        assert got == expected


@st.composite
def cell_markets(draw):
    """A complete multipartite or core-periphery graph whose values and
    costs are constant on its parts, or on its core and its periphery, at a
    spillover from 0.3 to 1 - 1e-6 of the bound; with the part of each
    market."""
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
        parts = np.repeat(np.arange(len(sizes)), sizes)
        net = netreg.build_network((parts[:, None] != parts).astype(float))
    else:
        core, leaves = draw(st.integers(2, 4)), draw(st.integers(1, 3))
        parts = np.repeat([0, 1], [core, core * leaves])
        net = netreg.gen_core_periphery(core, leaves)
    k = int(parts.max()) + 1
    fraction = draw(st.floats(0.3, 1.0 - 1e-6))
    prim = netreg.MarketPrimitives(
        net=net, a=draw(_vector(k, 5.0, 25.0))[parts], c=draw(_vector(k, 0.0, 3.0))[parts], delta=fraction / net.lambda1
    )
    return prim, parts


@st.composite
def cell_sets(draw, prim, parts):
    """A box with bounds constant on parts, or caps constant on each pair
    of parts (and inside each part), each absent at random."""
    k = int(parts.max()) + 1
    if draw(st.booleans()):
        bounds = {side: draw(_vector(k, 0.0, 30.0)) for side in ("lower", "upper")}
        lower, upper = np.minimum(*bounds.values()), np.maximum(*bounds.values())
        lower = np.where(draw(arrays(bool, k)), -np.inf, lower)
        upper = np.where(draw(arrays(bool, k)), np.inf, upper)
        return netreg.Box(lower=lower[parts], upper=upper[parts])
    caps = np.where(draw(arrays(bool, (k, k))), np.inf, draw(arrays(float, (k, k), elements=st.floats(0.1, 5.0))))
    caps = np.triu(caps) + np.triu(caps, 1).T
    full = caps[np.ix_(parts, parts)]
    np.fill_diagonal(full, 0.0)
    return netreg.PriceDifference(delta_matrix=full)


def _projected_columns(prim, reg):
    """``project``'s price and the number of coordinates of each
    active-set projection it ran."""
    with active_set_columns() as columns:
        return netreg.project(prim, reg), columns


def _full_n(prim, reg):
    """The same method on all n coordinates of the set."""
    vmat, offsets = netreg.regulation.halfspace_form(reg, prim.n)
    pur = netreg.unrestricted_price(prim)
    if offsets.shape[0] == 0:
        return pur
    return netreg.regulation._active_set_projection(prim.delta, prim.net.adjacency, vmat, offsets, pur)


def _assert_matches_full_n(prim, reg, price):
    full = _full_n(prim, reg)
    assert np.abs(price - full).max() <= 1e-12 * max(1.0, float(np.abs(full).max()))
    assert netreg.regulation.contains(prim, reg, price)


@PROPERTY_SETTINGS
@given(st.data())
def test_cell_invariant_sets_project_on_the_quotient(data):
    prim, parts = data.draw(cell_markets())
    reg = data.draw(cell_sets(prim, parts))
    price, columns = _projected_columns(prim, reg)
    _assert_matches_full_n(prim, reg, price)
    assert all(column <= parts.max() + 1 for column in columns)


@PROPERTY_SETTINGS
@given(st.data())
def test_sets_that_vary_within_a_cell_leave_it(data):
    """Caps that vary within one pair of parts, with the row sums the
    refinement sees unchanged, are projected on all n markets.  A ceiling
    that moves at one market by one ulp makes that market a colour of its
    own: the projection runs on the finer equitable partition, which has n
    cells when nothing else is alike."""
    prim, parts = data.draw(cell_markets())
    k = int(parts.max()) + 1
    pur = netreg.unrestricted_price(prim)
    sizes = np.bincount(parts)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if sizes[i] == sizes[j] >= 2]
    if pairs and pur[parts == pairs[0][0]][0] != pur[parts == pairs[0][1]][0]:
        i, j = pairs[0]
        caps = data.draw(arrays(float, (k, k), elements=st.floats(0.1, 5.0)))
        caps = np.triu(caps) + np.triu(caps, 1).T
        full = caps[np.ix_(parts, parts)]
        rows, cols = np.flatnonzero(parts == i), np.flatnonzero(parts == j)
        full[rows, cols] = full[cols, rows] = caps[i, j] + data.draw(st.floats(0.1, 1.0))  # a matching
        np.fill_diagonal(full, 0.0)
        reg = netreg.PriceDifference(delta_matrix=full)
        price, columns = _projected_columns(prim, reg)
        assert columns == [prim.n]
        _assert_matches_full_n(prim, reg, price)
    box = data.draw(cell_sets(prim, parts).filter(lambda reg: isinstance(reg, netreg.Box)))
    market = data.draw(st.integers(0, prim.n - 1))
    upper = box.upper.copy()
    upper[market] = np.nextafter(upper[market], np.inf)
    reg = netreg.Box(lower=box.lower, upper=upper)

    def partition(k):
        return netreg.network.equitable_partition(prim.net, np.column_stack([pur, k.lower, k.upper]))

    before, after = partition(box), partition(reg)
    if np.isfinite(upper[market]) and np.count_nonzero(before == before[market]) > 1:
        assert np.count_nonzero(after == after[market]) < np.count_nonzero(before == before[market])
    price, columns = _projected_columns(prim, reg)
    assert columns in ([], [int(after.max()) + 1])
    _assert_matches_full_n(prim, reg, price)
