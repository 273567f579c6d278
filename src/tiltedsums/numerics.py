"""Small shared numerical helpers.

All symmetric-matrix functional calculus (square roots, inverses, log
determinants) goes through a single guarded eigendecomposition so that
near-singular covariances fail loudly in one place instead of producing
NaNs downstream.
"""

import numpy as np

from .errors import DegenerateCovarianceError

# Eigenvalues below REL_EIG_FLOOR * lambda_max are treated as a hard error.
REL_EIG_FLOOR = 1e-12

LOG_2PI = float(np.log(2.0 * np.pi))


def as_vector(x, dim=None):
    """Coerce a scalar or sequence to a float vector of shape (d,)."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected a vector of length {dim}, got {v.shape[0]}")
    return v


def _square(m):
    """Coerce a scalar, matrix or stack of matrices to a float array of shape
    (..., d, d)."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    return a


def check_symmetric(m, tol=1e-10):
    """Coerce a scalar, matrix or stack of matrices to a float array of shape
    (..., d, d) and check that every matrix is symmetric."""
    a = _square(m)
    if not np.allclose(a, np.swapaxes(a, -1, -2), rtol=tol, atol=tol):
        raise ValueError("matrix is not symmetric")
    return a


def guarded_eigh(mat):
    """Eigendecomposition of a symmetric positive definite matrix, or of a
    stack of them (shape (..., d, d)).

    Symmetry is not re-tested: every matrix that reaches here is a
    covariance checked when its family was built, or a Hessian symmetric by
    construction, and eigh reads only the lower triangle.  Raises
    DegenerateCovarianceError when a spectrum is not usable for square
    roots / inverses: not finite, or lambda_min < REL_EIG_FLOOR * lambda_max.
    """
    w, q = np.linalg.eigh(_square(mat))
    lo, hi = w[..., 0], w[..., -1]
    if (~np.isfinite(w).all(axis=-1) | (hi <= 0.0) | (lo < REL_EIG_FLOOR * hi)).any():
        raise DegenerateCovarianceError(
            f"matrix numerically singular: eigenvalues in [{np.min(lo):.3e}, {np.max(hi):.3e}]"
        )
    return w, q


def sym_sqrt(mat):
    """Symmetric square root S of a SPD matrix, S @ S = mat."""
    w, q = guarded_eigh(mat)
    return (q * np.sqrt(w)[..., None, :]) @ np.swapaxes(q, -1, -2)


def sym_inv_sqrt(mat):
    """Symmetric inverse square root B of a SPD matrix, B @ mat @ B = I."""
    w, q = guarded_eigh(mat)
    return (q / np.sqrt(w)[..., None, :]) @ np.swapaxes(q, -1, -2)


def sym_inv(mat):
    w, q = guarded_eigh(mat)
    return (q / w[..., None, :]) @ np.swapaxes(q, -1, -2)


def sym_logdet(mat):
    w, _ = guarded_eigh(mat)
    return np.sum(np.log(w), axis=-1)


def tensor_grid(lo, hi, points_per_axis):
    """Uniform tensor-product grid over the box with corners lo and hi (one
    entry per axis), returned as an (N, dim) array."""
    axes = [np.linspace(l, h, points_per_axis) for l, h in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)
