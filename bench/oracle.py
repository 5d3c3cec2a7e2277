"""Independent re-derivations with plain numpy, used by the output checks.

Nothing here calls the library.  Closed-form equilibrium prices are solved
from ``I - delta*G`` directly, with different algebra from the library's
(one multi-column solve per row, and ``H (I - delta*G) v = v`` used to skip
solves), so agreement to ``CLOSED_FORM_RTOL`` is a real cross-check.
"""

import numpy as np

CLOSED_FORM_RTOL = 1e-9


def close(x, y, rtol=CLOSED_FORM_RTOL):
    """|x - y| <= rtol * max(1, |y|), elementwise over arrays."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return bool(np.all(np.abs(x - y) <= rtol * np.maximum(1.0, np.abs(y))))


def leading_pair(g):
    """(lambda_1, positive unit Perron vector) of a connected graph."""
    vals, vecs = np.linalg.eigh(g)
    w1 = vecs[:, -1]
    return float(vals[-1]), w1 if w1.sum() > 0 else -w1


def closed_form(g, w1, delta, a, c, regulation):
    """Equilibrium (price, r_v, r_pi, a_stat) for a closed-form regulation.

    ``regulation`` is ``("uniform",)`` (also the zero-difference-cap line)
    or ``("average_price", theta, cap)``.
    """
    n = g.shape[0]
    m = np.eye(n) - delta * g
    q = 0.5 * (a + c)
    d = 0.5 * (a - c)
    if regulation[0] == "uniform":
        ones = np.ones(n)
        h1, hq, ha, hd = np.linalg.solve(m, np.column_stack([ones, q, a, d])).T
        level = float(ones @ hq) / float(ones @ h1)
        price = level * ones
        h_dev = level * h1 - hq  # H (p - q)
        h_demand = ha - level * h1  # H (a - p)
    elif regulation[0] == "average_price":
        _, theta, cap = regulation
        hd = np.linalg.solve(m, d)
        u = m @ theta  # H^-1 theta
        shift = max(float(theta @ q) - cap, 0.0) / float(theta @ u)
        price = q - shift * u
        h_dev = -shift * theta  # H (p - q) = -shift * H H^-1 theta
        h_demand = hd + shift * theta  # a - p = d + shift * u
    else:
        raise ValueError(f"no closed form for {regulation[0]!r}")
    r_v = float(h_demand @ h_demand) / float(hd @ hd)
    r_pi = 1.0 - float((price - q) @ h_dev) / float(d @ hd)
    a_stat = float(w1 @ (price - q)) / float(w1 @ d)
    return price, r_v, r_pi, a_stat


def psi_correlation(g, a):
    """cos(psi, a) for the network summary vector psi, basis-free.

    ``psi = <1, u> w1 - <w1, 1> u`` with
    ``u = sum_{i>=2} w_i <w_i, 1> / (1 - lambda_i/lambda_1)``, computed as
    ``lambda_1 * [(lambda_1 I - G + w1 w1')^-1 1 - <w1, 1> w1]``.
    """
    n = g.shape[0]
    lam1, w1 = leading_pair(g)
    ones = np.ones(n)
    s1 = float(w1 @ ones)
    u = lam1 * (np.linalg.solve(lam1 * np.eye(n) - g + np.outer(w1, w1), ones) - s1 * w1)
    psi = float(ones @ u) * w1 - s1 * u
    return float(psi @ a) / (float(np.linalg.norm(psi)) * float(np.linalg.norm(a)))
