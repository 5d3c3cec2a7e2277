"""Spillover networks: validation, spectra, centralities, Leontief operator.

A :class:`Network` wraps a symmetric nonnegative adjacency matrix with a
zero diagonal over a connected graph.  Its spectrum is computed once at
construction and cached; everything downstream (Katz-Bonacich vectors,
eigencentrality, spectral-coordinate pricing) reads that cache.  A network
is frozen and its arrays are read-only, so builds of bitwise-equal
adjacencies share one network, and one decomposition, for as long as any
caller holds it (see :func:`build_network`).

The Leontief-type operator ``H = (I - delta*G)^-1`` is never materialised:
:func:`h_apply` applies it in the cached eigenbasis, scaling each spectral
coordinate by ``1/(1 - delta*lambda_i)``, which costs two O(n^2) products
per vector and no factorisation.  Welfare ratios and prices are quotients
of forms in that same spectral scaling, whose rounding errors cancel, and
stay within about 1e-15 relative as ``delta`` approaches ``1/lambda_1``; a
raw ``H v`` is accurate to about ``eps / (1 - delta*lambda_1)`` relative.
"""

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    DisconnectedError,
    InvalidSizeError,
    InvariantError,
    NegativeWeightError,
    NonzeroDiagonalError,
    NotSymmetricError,
    SpectralBoundError,
    ValidationError,
    ZeroVectorError,
)

# input symmetry / diagonal tolerance, relative to max(1, |entry|)
SYMMETRY_TOL = 1e-12
# weighted-degree spread below which a graph counts as regular
DEGREE_TOL = 1e-10

# every network still referenced, by the row sums of its adjacency's bits
_live_networks = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigendecomposition of the adjacency matrix.

    ``eigenvalues`` are sorted descending; column ``i`` of ``eigenvectors``
    is the unit eigenvector for ``eigenvalues[i]``.  The leading vector is
    oriented positive (Perron vector of a connected graph); every other
    vector is oriented so its largest-magnitude coordinate is positive,
    which makes golden tests deterministic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class Network:
    """Validated symmetric spillover network with cached spectrum."""

    adjacency: np.ndarray
    spectrum: SpectralData = field(repr=False)

    @property
    def n(self):
        return self.adjacency.shape[0]

    @property
    def lambda1(self):
        return float(self.spectrum.eigenvalues[0])

    @cached_property
    def ones_hat(self) -> np.ndarray:
        """``W' 1``: the all-ones vector in the eigenbasis, formed once."""
        what = self.spectrum.eigenvectors.T @ np.ones(self.n)
        what.setflags(write=False)
        return what


def _column_signs(vecs):
    # +1 or -1 per column, so that its first largest-magnitude entry is
    # positive; the Perron column goes by the sign of its sum.  That entry is
    # the column's max or its min, both reduced row-wise with no strided pass;
    # only where the two tie in magnitude does the first index of each decide
    hi, lo = vecs.max(axis=0), vecs.min(axis=0)
    sign = np.where(hi < -lo, -1.0, 1.0)
    ties = np.flatnonzero(hi == -lo)
    if ties.size:
        sub = vecs[:, ties]
        sign[ties] = np.where(sub.argmax(axis=0) <= sub.argmin(axis=0), 1.0, -1.0)
    sign[0] = -1.0 if vecs[:, 0].sum() < 0 else 1.0
    return sign


def _decompose(g):
    vals, vecs = np.linalg.eigh(g)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    vecs *= _column_signs(vecs)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralData(eigenvalues=vals, eigenvectors=vecs)


def _connected(g):
    # breadth-first search from node 0, one frontier level per step
    linked = g > 0
    seen = np.zeros(g.shape[0], dtype=bool)
    seen[0] = True
    level = seen.copy()
    while level.any():
        level = linked[level].any(axis=0) & ~seen
        seen |= level
    return bool(seen.all())


def build_network(adjacency) -> Network:
    """Validate an adjacency matrix and return a Network with its spectrum.

    The matrix must be square and finite, symmetric within ``SYMMETRY_TOL``
    (it is then symmetrised by averaging, so scenario-text round-trips are
    tolerated), elementwise nonnegative with a zero diagonal, and connected.

    A validated adjacency bitwise equal to that of a network still
    referenced anywhere in the process returns that network, without a
    second decomposition; ``-0.0`` and ``0.0`` count as different.  A
    network is kept only while referenced, so no table grows.  The result
    equals a fresh build because ``eigh`` of equal bits gives equal bits
    with one BLAS thread.  The table assumes one thread builds at a time;
    concurrent builds of one matrix at worst decompose it twice.

    Raises
    ------
    ValidationError (a non-finite entry or eigenvalue), NotSymmetricError,
    NegativeWeightError, NonzeroDiagonalError, DisconnectedError
    """
    g = np.array(adjacency, dtype=float, order="C")  # a copy that the network owns
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise NotSymmetricError(f"adjacency must be square, got shape {g.shape}")
    if g.shape[0] == 0:
        raise InvalidSizeError("adjacency must have at least one node")
    lo, hi = g.min(), g.max()  # a NaN propagates into both
    if not (np.isfinite(lo) and np.isfinite(hi)):
        i, j = np.argwhere(~np.isfinite(g))[0]
        raise ValidationError(f"g[{i},{j}]={float(g[i, j])!r} must be finite")
    bits = g.view(np.int64)
    # exact symmetry, the common case, needs no tolerance and no averaging;
    # compared bitwise, so that a -0.0 facing a 0.0 is averaged to 0.0
    if not np.array_equal(bits, bits.T):
        with np.errstate(over="ignore"):  # past the largest double, a sum or difference reads inf
            gap, mean = np.abs(g - g.T), 0.5 * (g + g.T)
        scale = np.maximum(1.0, np.maximum(np.abs(g), np.abs(g.T)))
        if np.any(gap > SYMMETRY_TOL * scale):
            i, j = np.unravel_index(np.argmax(gap), g.shape)
            raise NotSymmetricError(f"g[{i},{j}]={float(g[i, j])!r} != g[{j},{i}]={float(g[j, i])!r}")
        lo, hi = mean.min(), mean.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):  # halve before adding where the sum overflowed
            i, j = np.nonzero(~np.isfinite(mean))
            mean[i, j] = 0.5 * g[i, j] + 0.5 * g[j, i]
            lo, hi = mean.min(), mean.max()
        g = mean
    diag_tol = SYMMETRY_TOL * max(1.0, float(hi), float(-lo))
    if np.any(np.abs(np.diag(g)) > diag_tol):
        i = int(np.argmax(np.abs(np.diag(g))))
        raise NonzeroDiagonalError(f"g[{i},{i}]={float(g[i, i])!r} must be zero")
    np.fill_diagonal(g, 0.0)
    if lo < 0.0:  # else no entry is negative
        i, j = np.unravel_index(int(np.argmin(g)), g.shape)
        if g[i, j] < -diag_tol:
            raise NegativeWeightError(f"g[{i},{j}]={float(g[i, j])!r} is negative")
        g[g < 0.0] = 0.0  # clip round-trip dust
    if not _connected(g):
        raise DisconnectedError("graph is not connected")
    g.setflags(write=False)
    # integer sums wrap without a warning; equal sums of unequal bits are a miss
    bits = g.view(np.int64)
    key = bits.sum(axis=1).tobytes()
    net = _live_networks.get(key)
    if net is None or not np.array_equal(net.adjacency.view(np.int64), bits):
        spectrum = _decompose(g)
        bad = np.flatnonzero(~np.isfinite(spectrum.eigenvalues))
        if bad.size:  # finite weights near the largest double can give an infinite lambda_1
            i = int(bad[0])
            raise ValidationError(f"eigenvalue lambda_{i + 1}={float(spectrum.eigenvalues[i])!r} must be finite")
        net = Network(adjacency=g, spectrum=spectrum)
        _live_networks[key] = net
    return net


def gen_core_periphery(core_size: int, periphery_per_core: int) -> Network:
    """Complete core plus ``periphery_per_core`` private leaves per core node.

    Node order: the ``core_size`` core nodes first, then the leaves grouped
    by their core.  Requires core_size >= 2 and periphery_per_core >= 1
    (with no leaves the graph would be complete, hence regular).
    """
    if core_size < 2 or periphery_per_core < 1:
        raise InvalidSizeError(
            f"need core_size >= 2 and periphery_per_core >= 1, "
            f"got ({core_size}, {periphery_per_core})"
        )
    n = core_size * (1 + periphery_per_core)
    g = np.zeros((n, n))
    g[:core_size, :core_size] = 1.0
    np.fill_diagonal(g, 0.0)
    for ci in range(core_size):
        for t in range(periphery_per_core):
            leaf = core_size + ci * periphery_per_core + t
            g[ci, leaf] = g[leaf, ci] = 1.0
    return build_network(g)


def gen_complete_bipartite(m: int, k: int) -> Network:
    """All edges between the two parts, none within; part-1 nodes first."""
    if m < 1 or k < 1:
        raise InvalidSizeError(f"both parts must be nonempty, got ({m}, {k})")
    g = np.zeros((m + k, m + k))
    g[:m, m:] = 1.0
    g[m:, :m] = 1.0
    return build_network(g)


def gen_complete(n: int) -> Network:
    if n < 2:
        raise InvalidSizeError(f"complete graph needs n >= 2, got {n}")
    g = np.ones((n, n)) - np.eye(n)
    return build_network(g)


def check_spillover(net: Network, delta: float) -> None:
    """Raise SpectralBoundError unless delta is finite, 0 <= delta and
    delta*lambda_1 < 1."""
    if not np.isfinite(delta):
        raise SpectralBoundError(f"delta={float(delta)!r} must be finite")
    if delta < 0.0:
        raise SpectralBoundError(f"delta={float(delta)!r} must be nonnegative")
    if delta * net.lambda1 >= 1.0:
        raise SpectralBoundError(
            f"delta*lambda1 = {float(delta * net.lambda1)!r} >= 1; "
            f"require delta < {1.0 / net.lambda1 if net.lambda1 > 0 else float('inf')!r}"
        )


def h_apply(net: Network, delta: float, v: np.ndarray) -> np.ndarray:
    """Apply ``H = (I - delta*G)^-1`` to ``v`` in the cached eigenbasis:
    ``W ((W' v) / (1 - delta*lambda))``.

    ``v`` may also be a matrix of column right-hand sides.  The result is
    accurate to about ``eps / (1 - delta*lambda_1)`` relative; quotients of
    forms in the same spectral scaling (welfare ratios, prices) are far more
    accurate.
    """
    check_spillover(net, delta)
    v = np.asarray(v, dtype=float)
    if v.shape[0] != net.n:
        raise DimensionMismatchError(f"vector shape {v.shape} vs n={net.n}")
    w = net.spectrum.eigenvectors
    return w @ ((w.T @ v).T / (1.0 - delta * net.spectrum.eigenvalues)).T


def katz_bonacich(net: Network, delta: float, z: np.ndarray) -> np.ndarray:
    """Katz-Bonacich centrality with weight vector ``z``: ``H z``."""
    return h_apply(net, delta, z)


def eigencentrality(net: Network) -> np.ndarray:
    """Positive unit-norm leading eigenvector (eigenvector centrality)."""
    w1 = net.spectrum.eigenvectors[:, 0]
    if not w1.min() > 0.0:
        raise InvariantError("Perron vector of a connected graph must be positive")
    return w1


def is_regular(net: Network) -> bool:
    # weighted degrees of the adjacency scaled below 1 by a power of two,
    # which is exact, so that sums of weights near the largest double stay
    # finite; the verdict is that of the unscaled degrees
    scale = np.ldexp(1.0, -max(0, int(np.frexp(net.adjacency.max())[1])))
    deg = (net.adjacency * scale).sum(axis=1)
    spread = float(deg.max() - deg.min())
    return spread <= DEGREE_TOL * max(scale, float(deg.max()))


def demean(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return z - z.mean()


def corr(z, z2) -> float:
    """Cosine similarity <z,z2>/(||z|| ||z2||); raises on a zero vector."""
    z = np.asarray(z, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    nz, nz2 = np.linalg.norm(z), np.linalg.norm(z2)
    if nz == 0.0 or nz2 == 0.0:
        raise ZeroVectorError("correlation undefined for a zero vector")
    return float(z @ z2 / (nz * nz2))
