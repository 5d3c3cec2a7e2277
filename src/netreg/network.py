"""Spillover networks: validation, spectra, centralities, Leontief operator.

A :class:`Network` wraps a symmetric nonnegative adjacency matrix with a
zero diagonal over a connected graph.  Its spectrum is computed once at
construction and cached; everything downstream (Katz-Bonacich vectors,
eigencentrality, spectral-coordinate pricing) reads that cache.

The Leontief-type operator ``H = (I - delta*G)^-1`` is never materialised:
:func:`h_apply` applies it in the cached eigenbasis, scaling each spectral
coordinate by ``1/(1 - delta*lambda_i)``, which costs two O(n^2) products
per vector and no factorisation.  Welfare ratios and prices are quotients
of forms in that same spectral scaling, whose rounding errors cancel, and
stay within about 1e-15 relative as ``delta`` approaches ``1/lambda_1``; a
raw ``H v`` is accurate to about ``eps / (1 - delta*lambda_1)`` relative.
"""

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


def _orient_columns(vecs):
    # the first largest-magnitude entry of each column positive; the Perron
    # column by the sign of its sum
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    sign = np.where(peak < 0.0, -1.0, 1.0)
    sign[0] = -1.0 if vecs[:, 0].sum() < 0 else 1.0
    return vecs * sign


def _decompose(g):
    vals, vecs = np.linalg.eigh(g)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = _orient_columns(vecs[:, order])
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

    Raises
    ------
    ValidationError (a non-finite entry), NotSymmetricError,
    NegativeWeightError, NonzeroDiagonalError, DisconnectedError
    """
    g = np.asarray(adjacency, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise NotSymmetricError(f"adjacency must be square, got shape {g.shape}")
    if g.shape[0] == 0:
        raise InvalidSizeError("adjacency must have at least one node")
    if not np.all(np.isfinite(g)):
        i, j = np.argwhere(~np.isfinite(g))[0]
        raise ValidationError(f"g[{i},{j}]={float(g[i, j])!r} must be finite")
    scale = np.maximum(1.0, np.maximum(np.abs(g), np.abs(g.T)))
    if np.any(np.abs(g - g.T) > SYMMETRY_TOL * scale):
        i, j = np.unravel_index(np.argmax(np.abs(g - g.T)), g.shape)
        raise NotSymmetricError(f"g[{i},{j}]={float(g[i, j])!r} != g[{j},{i}]={float(g[j, i])!r}")
    g = 0.5 * (g + g.T)
    diag_tol = SYMMETRY_TOL * max(1.0, float(np.abs(g).max()))
    if np.any(np.abs(np.diag(g)) > diag_tol):
        i = int(np.argmax(np.abs(np.diag(g))))
        raise NonzeroDiagonalError(f"g[{i},{i}]={float(g[i, i])!r} must be zero")
    np.fill_diagonal(g, 0.0)
    if np.any(g < -diag_tol):
        i, j = np.unravel_index(int(np.argmin(g)), g.shape)
        raise NegativeWeightError(f"g[{i},{j}]={float(g[i, j])!r} is negative")
    g = np.where(g < 0.0, 0.0, g)  # clip round-trip dust
    if not _connected(g):
        raise DisconnectedError("graph is not connected")
    g.setflags(write=False)
    return Network(adjacency=g, spectrum=_decompose(g))


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
    deg = net.adjacency.sum(axis=1)
    spread = float(deg.max() - deg.min())
    return spread <= DEGREE_TOL * max(1.0, float(np.abs(deg).max()))


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
