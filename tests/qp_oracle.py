"""Brute-force oracle for H-norm projection onto an intersection of halfspaces.

Enumerates active sets: for every subset of constraints up to the rank of
the constraint matrix, solves the equality-constrained quadratic system in
closed form, keeps the feasible candidates, and returns the one with the
smallest H-distance to the query point.  The true projection's active set
always contains a linearly independent spanning subset whose
equality-constrained solution is the projection itself, so the minimum
over candidates is exact.  Deliberately dense and independent of the
production solver (explicit inverse, batched LAPACK solves).
"""

import itertools

import numpy as np


def project_oracle(prim, vmat, offsets, tol=1e-9):
    """Projection onto ``{p : vmat @ p <= offsets}``, one halfspace per row."""
    q = prim.a * 0.5 + prim.c * 0.5  # unrestricted price
    n = q.shape[0]
    h = np.linalg.inv(np.eye(n) - prim.delta * prim.net.adjacency)
    hinv = np.eye(n) - prim.delta * prim.net.adjacency
    vmat = np.asarray(vmat, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    m_count = vmat.shape[0]
    rank = np.linalg.matrix_rank(vmat)

    hinv_vt = hinv @ vmat.T  # n x m
    gram_full = vmat @ hinv_vt  # m x m
    slack_full = vmat @ q - offsets

    feas_tol = tol * (1.0 + float(np.abs(q).max()))
    best = None
    best_obj = np.inf

    def consider(candidates):
        # candidates in enumeration order; the first minimum wins, so a
        # later one replaces the best only when strictly closer
        nonlocal best, best_obj
        feasible = candidates[~np.any(candidates @ vmat.T - offsets > feas_tol, axis=1)]
        if feasible.shape[0] == 0:
            return
        diff = feasible - q
        obj = np.einsum("kn,kn->k", diff @ h, diff)
        i = int(np.argmin(obj))
        if obj[i] < best_obj:
            best_obj = float(obj[i])
            best = feasible[i]

    consider(q[None, :])
    for size in range(1, rank + 1):
        flat = itertools.chain.from_iterable(itertools.combinations(range(m_count), size))
        combos = np.fromiter(flat, dtype=np.intp).reshape(-1, size)
        grams = gram_full[combos[:, :, None], combos[:, None, :]]
        rhs = slack_full[combos]
        dets = np.linalg.det(grams)
        diag = np.sqrt(np.maximum(np.einsum("kii->ki", grams), 1e-300))
        ok = np.abs(dets) > 1e-10 * np.prod(diag, axis=1) ** 2
        if not np.any(ok):
            continue
        mults = np.linalg.solve(grams[ok], rhs[ok][..., None])[..., 0]
        dirs = hinv_vt.T[combos[ok]]  # k x size x n
        consider(q[None, :] - np.einsum("ks,ksn->kn", mults, dirs))
    assert best is not None, "oracle found no feasible candidate"
    return best
