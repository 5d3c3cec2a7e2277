import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import netreg
from netreg import network
from netreg.network import DEGREE_TOL, SYMMETRY_TOL, _column_signs, _connected
from netreg.scenario import parse_scenario

from conftest import random_connected_network


def power_iteration_lambda1(g, iterations=2000):
    # independent check on the leading eigenvalue; the diagonal shift keeps
    # the iteration from oscillating on bipartite spectra (lambda_n = -lambda_1)
    rng = np.random.default_rng(7)
    shift = float(g.sum(axis=1).max()) + 1.0
    m = g + shift * np.eye(g.shape[0])
    v = rng.uniform(0.5, 1.0, g.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iterations):
        w = m @ v
        lam = float(v @ w)
        v = w / np.linalg.norm(w)
    return lam - shift


class TestBuildNetwork:
    def test_single_node(self):
        net = netreg.build_network([[0.0]])
        assert net.n == 1
        assert net.lambda1 == 0.0

    def test_dyad_spectrum(self, dyad):
        assert np.allclose(dyad.spectrum.eigenvalues, [1.0, -1.0])
        assert np.allclose(dyad.spectrum.eigenvectors[:, 0], np.full(2, 1 / np.sqrt(2)))

    def test_core_periphery_lambda1(self, core_periphery):
        assert core_periphery.lambda1 == pytest.approx(1 + np.sqrt(3), abs=1e-10)

    def test_symmetrizes_within_tolerance(self):
        g = np.array([[0.0, 1.0 + 5e-14], [1.0, 0.0]])
        net = netreg.build_network(g)
        assert net.adjacency[0, 1] == net.adjacency[1, 0]

    @pytest.mark.parametrize("weight", [np.inf, np.nan])
    def test_non_finite_entry(self, weight):
        g = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, weight], [0.0, weight, 0.0]])
        with pytest.raises(netreg.ValidationError, match=r"g\[1,2\]=(inf|nan) must be finite"):
            netreg.build_network(g)

    def test_not_symmetric(self):
        with pytest.raises(netreg.NotSymmetricError) as err:
            netreg.build_network([[0.0, 1.0], [2.0, 0.0]])
        assert str(err.value) == "g[0,1]=1.0 != g[1,0]=2.0"

    def test_negative_weight(self):
        with pytest.raises(netreg.NegativeWeightError):
            netreg.build_network([[0.0, -1.0], [-1.0, 0.0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(netreg.NonzeroDiagonalError):
            netreg.build_network([[1.0, 1.0], [1.0, 0.0]])

    def test_disconnected(self):
        g = np.zeros((4, 4))
        g[0, 1] = g[1, 0] = 1.0
        g[2, 3] = g[3, 2] = 1.0
        with pytest.raises(netreg.DisconnectedError):
            netreg.build_network(g)

    def test_non_square(self):
        with pytest.raises(netreg.NotSymmetricError):
            netreg.build_network(np.zeros((2, 3)))

    def test_averaging_past_the_largest_double(self):
        # warnings are errors, so an overflow in the sum or the difference fails here
        big = 1.7e308
        net = netreg.build_network([[0, big, 1], [big * (1 + 1e-15), 0, 1], [1, 1, 0]])
        assert np.all(np.isfinite(net.adjacency))
        assert np.array_equal(net.adjacency, net.adjacency.T)
        assert net.adjacency[0, 1] == 0.5 * big + 0.5 * (big * (1 + 1e-15))
        with pytest.raises(netreg.NotSymmetricError) as err:
            netreg.build_network([[0, big, 1], [-big, 0, 1], [1, 1, 0]])
        assert str(err.value) == "g[0,1]=1.7e+308 != g[1,0]=-1.7e+308"

    def test_infinite_spectrum_rejected(self):
        # finite weights whose largest eigenvalue overflows; at delta = 0 the
        # uniform price on this network used to be NaN
        g = np.full((3, 3), 1e308)
        np.fill_diagonal(g, 0.0)
        with pytest.raises(netreg.ValidationError) as err:
            netreg.build_network(g)
        assert str(err.value) == "eigenvalue lambda_1=inf must be finite"

    def test_adjacency_is_immutable(self, dyad):
        with pytest.raises(ValueError):
            dyad.adjacency[0, 1] = 5.0


def reference_build(adjacency):
    """build_network's validation as it read every check off the averaged
    matrix, with columns oriented by a strided argmax of |W|: the adjacency,
    eigenvalues and eigenvectors it returns, or the error it raises."""
    g = np.asarray(adjacency, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise netreg.NotSymmetricError(f"adjacency must be square, got shape {g.shape}")
    if g.shape[0] == 0:
        raise netreg.InvalidSizeError("adjacency must have at least one node")
    if not np.all(np.isfinite(g)):
        i, j = np.argwhere(~np.isfinite(g))[0]
        raise netreg.ValidationError(f"g[{i},{j}]={float(g[i, j])!r} must be finite")
    scale = np.maximum(1.0, np.maximum(np.abs(g), np.abs(g.T)))
    if np.any(np.abs(g - g.T) > SYMMETRY_TOL * scale):
        i, j = np.unravel_index(np.argmax(np.abs(g - g.T)), g.shape)
        raise netreg.NotSymmetricError(f"g[{i},{j}]={float(g[i, j])!r} != g[{j},{i}]={float(g[j, i])!r}")
    g = 0.5 * (g + g.T)
    diag_tol = SYMMETRY_TOL * max(1.0, float(np.abs(g).max()))
    if np.any(np.abs(np.diag(g)) > diag_tol):
        i = int(np.argmax(np.abs(np.diag(g))))
        raise netreg.NonzeroDiagonalError(f"g[{i},{i}]={float(g[i, i])!r} must be zero")
    np.fill_diagonal(g, 0.0)
    if np.any(g < -diag_tol):
        i, j = np.unravel_index(int(np.argmin(g)), g.shape)
        raise netreg.NegativeWeightError(f"g[{i},{j}]={float(g[i, j])!r} is negative")
    g = np.where(g < 0.0, 0.0, g)
    if not _connected(g):
        raise netreg.DisconnectedError("graph is not connected")
    vals, vecs = np.linalg.eigh(g)
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    sign = np.where(peak < 0.0, -1.0, 1.0)
    sign[0] = -1.0 if vecs[:, 0].sum() < 0 else 1.0
    return g, vals, vecs * sign


def ring_with_chords(rng, n, chords):
    g = np.zeros((n, n))
    idx = np.arange(n)
    g[idx, (idx + 1) % n] = g[(idx + 1) % n, idx] = 1.0
    i, j = rng.integers(n, size=(2, chords))
    keep = i != j
    g[i[keep], j[keep]] = g[j[keep], i[keep]] = 1.0
    return g


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


class TestBuildMatchesReference:
    def test_bit_identical_network(self, rng):
        near = ring_with_chords(rng, 40, 60) * rng.uniform(0.5, 1.5, (40, 40))
        near = np.triu(near, 1) + np.triu(near, 1).T
        near[0, 1] *= 1.0 + 5e-13  # asymmetric within SYMMETRY_TOL
        near[5, 5] = 1e-13  # diagonal dust
        near[7, 30] = near[30, 7] = -1e-13  # negative dust
        signed_zeros = ring_with_chords(rng, 12, 10)
        signed_zeros[0, 6], signed_zeros[6, 0] = -0.0, 0.0  # averaged to 0.0
        signed_zeros[1, 7] = signed_zeros[7, 1] = -0.0  # kept as -0.0
        inputs = [
            np.array(netreg.gen_core_periphery(3, 2).adjacency),
            np.array(netreg.gen_complete_bipartite(2, 10).adjacency),
            np.array(netreg.gen_complete(9).adjacency),
            ring_with_chords(np.random.default_rng(300), 300, 600),
            near,
            signed_zeros,
            np.asfortranarray(ring_with_chords(rng, 30, 40)),
            [[0.0]],
        ]
        for adjacency in inputs:
            before = np.array(adjacency, dtype=float)
            net = netreg.build_network(adjacency)
            g, vals, vecs = reference_build(adjacency)
            assert np.array_equal(_bits(net.adjacency), _bits(g))
            assert np.array_equal(_bits(net.spectrum.eigenvalues), _bits(vals))
            assert np.array_equal(_bits(net.spectrum.eigenvectors), _bits(vecs))
            # one memory layout too, so products with W round alike
            assert net.spectrum.eigenvectors.flags.f_contiguous == vecs.flags.f_contiguous
            # the caller's matrix is neither changed nor frozen
            assert np.array_equal(_bits(np.asarray(adjacency, dtype=float)), _bits(before))
            assert not isinstance(adjacency, np.ndarray) or adjacency.flags.writeable

    def test_same_error_names_same_entry(self):
        ring = ring_with_chords(np.random.default_rng(5), 6, 4)

        def edit(*entries):
            g = ring.copy()
            for i, j, value in entries:
                g[i, j] = value
            return g

        disconnected = ring.copy()
        disconnected[:3, 3:] = disconnected[3:, :3] = 0.0
        inputs = [
            edit((1, 2, np.inf), (2, 1, np.inf)),
            edit((3, 4, np.nan), (0, 5, -np.inf)),
            edit((0, 1, 2.0)),
            edit((2, 3, 3.0), (3, 2, 2.5), (4, 5, 1.0 + 1e-9)),
            edit((1, 1, 0.5)),
            edit((2, 2, -1e-9), (4, 4, 2e-9)),
            edit((1, 3, -1.0), (3, 1, -1.0)),
            edit((2, 4, -2.0), (4, 2, -2.0), (0, 5, -3.0), (5, 0, -3.0)),
            disconnected,
            np.zeros((2, 3)),
            np.zeros((0, 0)),
        ]
        for adjacency in inputs:
            with pytest.raises(netreg.ValidationError) as want:
                reference_build(adjacency)
            with pytest.raises(netreg.ValidationError) as got:
                netreg.build_network(adjacency)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)


INLINE_TRIANGLE = """\
[network]
kind = inline
adjacency = 0 1.25 3; 1.25 0 0.5; 3 0.5 0

[values]
a = 6 8 7

[regulation]
kind = uniform

[delta_grid]
count = 3
max_fraction = 0.5
"""


class TestSharedNetworks:
    @staticmethod
    def assert_fresh(net, adjacency):
        g, vals, vecs = reference_build(adjacency)
        assert np.array_equal(_bits(net.adjacency), _bits(g))
        assert np.array_equal(_bits(net.spectrum.eigenvalues), _bits(vals))
        assert np.array_equal(_bits(net.spectrum.eigenvectors), _bits(vecs))

    def test_one_inline_text_decomposes_once(self, eigh_calls):
        first, second, third = (parse_scenario(INLINE_TRIANGLE) for _ in range(3))
        assert first.network is second.network is third.network
        assert eigh_calls == [(3, 3)]

    def test_one_bit_apart_builds_apart(self, eigh_calls):
        g = ring_with_chords(np.random.default_rng(11), 8, 4)
        h = g.copy()
        h[0, 1] = h[1, 0] = np.nextafter(1.0, 2.0)
        a, b = netreg.build_network(g), netreg.build_network(h)
        assert a is not b
        assert len(eigh_calls) == 2
        self.assert_fresh(a, g)
        self.assert_fresh(b, h)

    def test_equal_bit_sums_are_a_miss(self, eigh_calls):
        # a 4-cycle whose weights move one ulp up and down in turn keeps the
        # integer sum of each row's bits, so both share a table key
        def cycle(weights):
            g = np.zeros((4, 4))
            for (i, j), w in zip(((0, 1), (1, 2), (2, 3), (3, 0)), weights):
                g[i, j] = g[j, i] = w
            return g

        up, down = np.nextafter(0.75, 1.0), np.nextafter(0.75, 0.0)
        g, h = cycle([0.75] * 4), cycle([up, down, up, down])
        assert np.array_equal(_bits(g).sum(axis=1), _bits(h).sum(axis=1))
        a, b = netreg.build_network(g), netreg.build_network(h)
        assert a is not b
        assert len(eigh_calls) == 2
        self.assert_fresh(a, g)
        self.assert_fresh(b, h)
        assert netreg.build_network(h) is b

    def test_dropped_network_leaves_the_table(self, eigh_calls):
        g = ring_with_chords(np.random.default_rng(13), 7, 3) * 1.5
        net = netreg.build_network(g)
        gone = weakref.ref(net)
        del net
        gc.collect()
        assert gone() is None
        assert len(network._live_networks) == 0
        netreg.build_network(g)
        assert len(eigh_calls) == 2

    def test_rejected_input_ignores_a_live_twin(self):
        g = ring_with_chords(np.random.default_rng(12), 6, 3)
        live = netreg.build_network(g)
        nan, lopsided, cut = g.copy(), g.copy(), g.copy()
        nan[1, 2] = nan[2, 1] = np.nan
        lopsided[0, 1] = 2.0
        cut[:3, 3:] = cut[3:, :3] = 0.0
        for adjacency in (nan, lopsided, cut):
            with pytest.raises(netreg.ValidationError) as want:
                reference_build(adjacency)
            with pytest.raises(netreg.ValidationError) as got:
                netreg.build_network(adjacency)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
        assert netreg.build_network(g) is live


class TestGenerators:
    def test_core_periphery_shape(self, core_periphery):
        deg = core_periphery.adjacency.sum(axis=1)
        assert core_periphery.n == 9
        assert np.allclose(deg[:3], 4.0)
        assert np.allclose(deg[3:], 1.0)
        # each leaf hangs off exactly one core node
        assert np.allclose(core_periphery.adjacency[3:, 3:], 0.0)

    def test_core_periphery_invalid(self):
        with pytest.raises(netreg.InvalidSizeError):
            netreg.gen_core_periphery(2, 0)
        with pytest.raises(netreg.InvalidSizeError):
            netreg.gen_core_periphery(1, 2)

    def test_bipartite_lambda1_vs_power_iteration(self):
        net = netreg.gen_complete_bipartite(2, 10)
        oracle = power_iteration_lambda1(np.asarray(net.adjacency))
        assert net.lambda1 == pytest.approx(oracle, rel=1e-9)
        assert net.lambda1 == pytest.approx(np.sqrt(20.0), abs=1e-10)

    def test_bipartite_single_edge(self):
        assert netreg.gen_complete_bipartite(1, 1).lambda1 == pytest.approx(1.0, abs=1e-12)

    def test_bipartite_w1_constant_within_parts(self):
        net = netreg.gen_complete_bipartite(2, 3)
        w1 = netreg.eigencentrality(net)
        assert np.ptp(w1[:2]) < 1e-12
        assert np.ptp(w1[2:]) < 1e-12

    def test_bipartite_invalid(self):
        with pytest.raises(netreg.InvalidSizeError):
            netreg.gen_complete_bipartite(0, 3)

    def test_complete(self):
        net = netreg.gen_complete(9)
        assert net.lambda1 == pytest.approx(8.0, abs=1e-10)
        assert np.allclose(netreg.eigencentrality(net), 1.0 / 3.0)
        assert netreg.is_regular(net)

    def test_complete_small(self):
        assert netreg.gen_complete(2).lambda1 == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(netreg.InvalidSizeError):
            netreg.gen_complete(1)


class TestSpectrumInvariants:
    @pytest.mark.parametrize("n", [3, 8, 17, 33, 64])
    def test_reconstruction_and_orthonormality(self, rng, n):
        net = random_connected_network(rng, n, weighted=True)
        g = np.asarray(net.adjacency)
        lam = net.spectrum.eigenvalues
        w = net.spectrum.eigenvectors
        recon = w @ np.diag(lam) @ w.T
        assert np.abs(recon - g).max() <= 1e-9 * max(1.0, np.abs(g).max())
        assert np.abs(w.T @ w - np.eye(n)).max() <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 12, 30])
    def test_perron_gap_and_positivity(self, rng, n):
        net = random_connected_network(rng, n)
        lam = net.spectrum.eigenvalues
        assert lam[0] > lam[1]
        assert netreg.eigencentrality(net).min() > 0.0

    def test_eigenvalues_sorted(self, rng):
        net = random_connected_network(rng, 20)
        lam = net.spectrum.eigenvalues
        assert np.all(np.diff(lam) <= 1e-12)

    def test_orientation_matches_column_loop(self, rng):
        # reference: the Perron column by the sign of its sum, every other
        # column by its first largest-magnitude entry
        def reference(vecs):
            vecs = vecs.copy()
            if vecs[:, 0].sum() < 0:
                vecs[:, 0] = -vecs[:, 0]
            for i in range(1, vecs.shape[1]):
                col = vecs[:, i]
                if col[np.argmax(np.abs(col))] < 0:
                    vecs[:, i] = -col
            return vecs

        ties = np.array([[0.5, -0.5, 0.5], [-0.5, 0.5, -0.5], [0.1, 0.0, -0.5]])
        for vecs in [ties] + [rng.normal(size=(n, n)) for n in (1, 2, 7, 20)]:
            assert np.array_equal(vecs * _column_signs(vecs), reference(vecs))


class TestConnectivity:
    def test_matches_depth_first_search(self, rng):
        def reference(g):
            seen, stack = {0}, [0]
            while stack:
                i = stack.pop()
                for j in np.nonzero(g[i] > 0)[0]:
                    if int(j) not in seen:
                        seen.add(int(j))
                        stack.append(int(j))
            return len(seen) == g.shape[0]

        for n in (1, 2, 5, 12, 40):
            for p in (0.02, 0.1, 0.3):
                g = np.triu((rng.random((n, n)) < p).astype(float), 1)
                g = g + g.T
                assert _connected(g) == reference(g)


class TestLeontiefOperator:
    def test_identity_at_zero(self, dyad, rng):
        v = rng.normal(size=2)
        assert np.allclose(netreg.h_apply(dyad, 0.0, v), v)

    def test_dyad_direct_inverse(self, dyad):
        # oracle: [[1,-0.5],[-0.5,1]]^-1 (1,1) = (2,2)
        assert np.allclose(netreg.h_apply(dyad, 0.5, [1.0, 1.0]), [2.0, 2.0])

    def test_eigenvector_of_h(self, core_periphery):
        w1 = netreg.eigencentrality(core_periphery)
        delta = 0.3 / core_periphery.lambda1
        expect = w1 / (1 - delta * core_periphery.lambda1)
        assert np.allclose(netreg.h_apply(core_periphery, delta, w1), expect, rtol=1e-10)

    def test_residual(self, rng):
        for n in (4, 16, 48):
            net = random_connected_network(rng, n, weighted=True)
            delta = rng.uniform(0.05, 0.95) / net.lambda1
            v = rng.normal(size=n)
            x = netreg.h_apply(net, delta, v)
            residual = (np.eye(n) - delta * np.asarray(net.adjacency)) @ x - v
            assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(v)

    def test_spectral_bound_rejected(self, dyad):
        with pytest.raises(netreg.SpectralBoundError) as err:
            netreg.h_apply(dyad, np.float64(1.0), [1.0, 0.0])
        assert str(err.value) == "delta*lambda1 = 1.0 >= 1; require delta < 1.0"
        with pytest.raises(netreg.SpectralBoundError):
            netreg.h_apply(dyad, -0.1, [1.0, 0.0])

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
    def test_non_finite_delta_rejected(self, dyad, delta):
        with pytest.raises(netreg.SpectralBoundError, match="must be finite"):
            netreg.h_apply(dyad, delta, [1.0, 0.0])

    def test_infinite_delta_rejected_without_edges(self):
        # lambda_1 = 0, so delta * lambda_1 is nan and the bound check alone passes it
        with pytest.raises(netreg.SpectralBoundError, match="must be finite"):
            netreg.h_apply(netreg.build_network([[0.0]]), np.inf, [1.0])

    def test_dimension_mismatch(self, dyad):
        with pytest.raises(netreg.DimensionMismatchError):
            netreg.h_apply(dyad, 0.1, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n", [1, 2])
    def test_column_fails_as_its_first_failing_entry(self, n):
        # lambda_1 = 0 on one node, where inf * lambda_1 is NaN
        net = netreg.build_network(np.ones((n, n)) - np.eye(n))
        bound = [1.0 / net.lambda1] if net.lambda1 > 0 else []
        bad = [np.nan, -1.0, *bound, np.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            network.check_spillover(net, np.array([[0.0], [0.5]]) / max(net.lambda1, 1.0))
            for i in range(len(bad)):
                first, *rest = bad[i:] + bad[:i]
                with pytest.raises(netreg.SpectralBoundError) as alone:
                    network.check_spillover(net, first)
                with pytest.raises(netreg.SpectralBoundError) as column:
                    network.check_spillover(net, np.array([0.0, 0.25, first, 0.5, *rest])[:, None])
                assert str(column.value) == str(alone.value)

    def test_matrix_right_hand_side(self, rng):
        net = random_connected_network(rng, 6)
        delta = 0.4 / net.lambda1
        block = rng.normal(size=(6, 3))
        solved = netreg.h_apply(net, delta, block)
        for col in range(3):
            assert np.allclose(solved[:, col], netreg.h_apply(net, delta, block[:, col]))


class TestKatzBonacich:
    def test_zero_weight(self, dyad):
        assert np.allclose(netreg.katz_bonacich(dyad, 0.5, np.zeros(2)), 0.0)

    def test_zero_delta(self, dyad, rng):
        z = rng.normal(size=2)
        assert np.allclose(netreg.katz_bonacich(dyad, 0.0, z), z)

    def test_dyad_value(self, dyad):
        assert np.allclose(netreg.katz_bonacich(dyad, 0.5, [1.0, 0.0]), [4.0 / 3.0, 2.0 / 3.0])

    def test_neumann_tail_bound(self, rng):
        net = random_connected_network(rng, 10)
        g = np.asarray(net.adjacency)
        lam1 = net.lambda1
        delta = 0.3 / lam1
        z = rng.normal(size=10)
        partial = np.zeros(10)
        term = z.copy()
        for _ in range(21):  # walks of length 0..20
            partial += term
            term = delta * (g @ term)
        tail = (delta * lam1) ** 21 / (1 - delta * lam1) * np.linalg.norm(z)
        kb = netreg.katz_bonacich(net, delta, z)
        assert np.linalg.norm(kb - partial) <= tail + 1e-12


class TestCentralityGoldens:
    def test_core_periphery_levels(self, core_periphery):
        w1 = netreg.eigencentrality(core_periphery)
        assert w1[0] == pytest.approx(0.513, abs=1e-3)
        assert w1[3] == pytest.approx(0.188, abs=1e-3)

    def test_bipartite_part_ordering(self):
        net = netreg.gen_complete_bipartite(2, 10)
        w1 = netreg.eigencentrality(net)
        assert w1[:2].min() > w1[2:].max()


class TestRegularity:
    def test_cases(self, core_periphery, dyad):
        assert netreg.is_regular(netreg.gen_complete(9))
        assert not netreg.is_regular(core_periphery)
        assert netreg.is_regular(dyad)

    def test_tolerance(self):
        g = np.array([[0.0, 1.0 + DEGREE_TOL / 10], [1.0 + DEGREE_TOL / 10, 0.0]])
        assert netreg.is_regular(netreg.build_network(g))

    def test_degrees_past_the_largest_double(self):
        # warnings are errors, so an overflow in the degree sums fails here
        star = np.zeros((4, 4))
        star[0, 1:] = star[1:, 0] = 1e308
        net = netreg.build_network(star)
        assert np.all(np.isfinite(net.spectrum.eigenvalues))
        assert not netreg.is_regular(net)
        assert netreg.is_regular(netreg.build_network([[0.0, 1e308], [1e308, 0.0]]))


def _equitable(g, cells):
    """Whether every market of a cell sends one exact weight sum into each cell."""
    sums = [[math.fsum(g[i, cells == j]) for j in range(cells.max() + 1)] for i in range(len(cells))]
    return all(sums[i] == sums[j] for i in range(len(cells)) for j in range(len(cells)) if cells[i] == cells[j])


def _cells(labels):
    return sorted(np.flatnonzero(labels == j).tolist() for j in range(labels.max() + 1))


class TestEquitablePartition:
    def test_named_graphs(self, core_periphery, dyad):
        assert _cells(netreg.equitable_partition(core_periphery)) == [[0, 1, 2], [3, 4, 5, 6, 7, 8]]
        assert _cells(netreg.equitable_partition(netreg.gen_complete_bipartite(2, 10))) == [[0, 1], list(range(2, 12))]
        assert _cells(netreg.equitable_partition(netreg.gen_complete(9))) == [list(range(9))]
        assert _cells(netreg.equitable_partition(dyad)) == [[0, 1]]

    def test_colours_are_refined(self, core_periphery):
        colours = np.zeros(9)
        colours[0] = 1.0  # one core market apart, and then its leaves
        cells = netreg.equitable_partition(core_periphery, colours)
        assert _cells(cells) == [[0], [1, 2], [3, 4], [5, 6, 7, 8]]
        assert _equitable(core_periphery.adjacency, cells)

    def test_rows_of_colours(self, core_periphery):
        colours = np.zeros((9, 2))
        colours[3, 1] = -np.inf
        assert len(_cells(netreg.equitable_partition(core_periphery, colours))) == 5

    def test_colours_of_the_wrong_length(self, core_periphery):
        # 18 values would read as nine pairs, 5 would not reshape
        for colours in (np.arange(18.0), np.arange(5.0), np.zeros((8, 2)), 1.0):
            with pytest.raises(netreg.DimensionMismatchError):
                netreg.equitable_partition(core_periphery, colours)

    def test_random_graphs(self, rng):
        for n in (5, 12, 30):
            g = ring_with_chords(rng, n, n // 2)
            cells = netreg.equitable_partition(netreg.build_network(g))
            assert _equitable(g, cells)

    def test_sums_compared_exactly(self):
        # x and y send 0.1 + 0.2 + 0.3 into the b's in two orders, which
        # a left-to-right float sum rounds apart (0.6000000000000001 vs 0.6)
        g = np.zeros((5, 5))
        g[0, 2:] = [0.1, 0.2, 0.3]
        g[1, 2:] = [0.3, 0.2, 0.1]
        g = g + g.T
        assert (g[0, 2] + g[0, 3]) + g[0, 4] != (g[1, 2] + g[1, 3]) + g[1, 4]
        assert _cells(netreg.equitable_partition(netreg.build_network(g))) == [[0, 1], [2, 3, 4]]

    def test_second_graph_and_its_infinities(self):
        net = netreg.gen_complete(4)
        caps = np.ones((4, 4)) - np.eye(4)
        assert _cells(netreg.equitable_partition(net, weights=caps)) == [[0, 1, 2, 3]]
        caps[0, 1] = caps[1, 0] = caps[2, 3] = caps[3, 2] = np.inf  # one uncapped pair each
        assert _cells(netreg.equitable_partition(net, weights=caps)) == [[0, 1, 2, 3]]
        caps[2, 3] = caps[3, 2] = 1.0
        assert _cells(netreg.equitable_partition(net, weights=caps)) == [[0, 1], [2, 3]]

    def test_overflowing_sums_leave_every_node_alone(self):
        star = np.zeros((4, 4))
        star[0, 1:] = star[1:, 0] = 1e308
        assert _cells(netreg.equitable_partition(netreg.build_network(star))) == [[0], [1], [2], [3]]


class TestVectorHelpers:
    def test_demean_constant(self):
        assert np.allclose(netreg.demean(np.full(5, 3.7)), 0.0)

    def test_corr_self(self, rng):
        z = rng.normal(size=6)
        assert netreg.corr(z, z) == pytest.approx(1.0, abs=1e-12)

    def test_corr_orthogonal(self):
        assert netreg.corr([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_corr_zero_vector(self):
        with pytest.raises(netreg.ZeroVectorError):
            netreg.corr(np.zeros(3), np.ones(3))

