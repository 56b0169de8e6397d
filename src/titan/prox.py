"""Norms and proximal operators used by the solvers.

All operators act entrywise or row-wise on dense 2-d arrays and return
new arrays; inputs are never modified.
"""

import numpy as np


def norm_l1(m):
    """Sum of absolute values of all entries."""
    return float(np.sum(np.abs(m)))


def norm_l21(m):
    """Sum over rows of the Euclidean norm of each row."""
    m = np.atleast_2d(m)
    return float(np.sum(np.sqrt(np.sum(m * m, axis=1))))


def norm_fro(m):
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def soft_threshold(m, kappa):
    """Entrywise shrinkage sign(x) * max(|x| - kappa, 0).

    Prox of kappa * ||.||_1 with unit quadratic weight.
    """
    if kappa < 0:
        raise ValueError(f"threshold must be nonnegative, got {kappa}")
    return np.sign(m) * np.maximum(np.abs(m) - kappa, 0.0)


def soft_threshold_nonneg(m, kappa):
    """Entrywise max(x - kappa, 0).

    Prox of kappa * ||.||_1 restricted to the nonnegative orthant, i.e. of
    kappa * ||.||_1 + indicator{x >= 0}.
    """
    if kappa < 0:
        raise ValueError(f"threshold must be nonnegative, got {kappa}")
    return np.maximum(m - kappa, 0.0)


def prox_l21(m, kappa):
    """Row-wise group shrinkage: each row v -> max(0, 1 - kappa/||v||) * v.

    Prox of kappa * ||.||_{2,1}; rows with norm below kappa collapse to
    zero, others keep their direction.
    """
    if kappa < 0:
        raise ValueError(f"threshold must be nonnegative, got {kappa}")
    m = np.atleast_2d(np.asarray(m, dtype=float))
    norms = np.sqrt(np.sum(m * m, axis=1))
    # only surviving rows divide: kappa / norm overflows on a tiny norm
    scale = np.zeros_like(norms)
    keep = norms > kappa
    scale[keep] = 1.0 - kappa / norms[keep]
    return m * scale[:, None]
