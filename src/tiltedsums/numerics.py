"""Small shared numerical helpers.

Symmetric-matrix calculus (square roots, inverses, log determinants) goes
through one guarded eigendecomposition, so that near-singular or overflowed
covariances fail loudly in one place, not as NaNs downstream.  log Gamma
comes from the Stirling series: correctly rounded through decimal
arithmetic (lgamma) for the normalizers that do not cancel, and its tail
S(x) in floats (stirling_tail) for differences of log Gammas.
"""

import decimal
import math
from functools import lru_cache

import numpy as np

from .errors import DegenerateCovarianceError

# Eigenvalues below REL_EIG_FLOOR * lambda_max are treated as a hard error.
REL_EIG_FLOOR = 1e-12
# Relative and absolute tolerance of check_symmetric.
SYMMETRY_TOL = 1e-10

LOG_2PI = float(np.log(2.0 * np.pi))

# B_2j / (2j (2j - 1)) for j = 1..10, the coefficient of 1 / x^(2j - 1) in the
# Stirling tail S(x) = lgamma(x) - (x - 1/2) log x + x - log(2 pi) / 2.
STIRLING = (
    (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188),
    (-691, 360360), (1, 156), (-3617, 122400), (43867, 244188), (-174611, 125400),
)
_LGAMMA_CONTEXT = decimal.Context(prec=45)
_HALF_LOG_2PI = decimal.Decimal("0.91893853320467274178032973640561763986139747363778")
_STIRLING_DECIMAL = tuple(_LGAMMA_CONTEXT.divide(num, den) for num, den in reversed(STIRLING))
# lgamma evaluates the series at x + m >= _LGAMMA_SHIFT, where its first
# omitted term is below 2e-41.
_LGAMMA_SHIFT = 100


def as_vector(x, dim=None):
    """Coerce a scalar or sequence to a float vector of shape (d,)."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected a vector of length {dim}, got {v.shape[0]}")
    return v


_LOG1PMX = tuple((-1) ** (j + 1) / j for j in range(17, 1, -1))


def log1pmx(x):
    """log1p(x) - x for -1 < x < 1, a float or elementwise.  For |x| < 0.1,
    x^2 sum_{j=2}^{17} (-1)^(j+1) x^(j-2) / j by Horner's rule (u = 2^-53):
    the omitted tail, below |x|^18 / (18 (1 - |x|)), is 0.13 u of
    |log1pmx(x)| >= 0.46 x^2; the sum's terms add up to at most 1.2 times
    it and each later step damps an error by |x| <= 0.1, so it carries under
    1.5 u, and x^2 and the product 2 u more: under 4 u, where log1p(x) - x
    loses its digits as x -> 0.  Elsewhere log1p(x) - x: with log1p within
    1 ulp, 2 |log1p(x)| / |log1pmx(x)| + 1 < 42 u."""
    p = 0.0
    for coef in _LOG1PMX:
        p = p * x + coef
    p *= x * x
    small = np.abs(x) < 0.1
    return p if np.all(small) else np.where(small, p, np.log1p(x) - x)


def stirling_tail(x):
    """S(x) in floats, through its 1 / x^11 term; for x >= 10 the first
    omitted term is below 7e-16."""
    y = 1.0 / (x * x)
    total = 0.0
    for num, den in reversed(STIRLING[:6]):
        total = total * y + num / den
    return total / x


@lru_cache(maxsize=1024)
def lgamma(x):
    """log Gamma(x), correctly rounded for finite x > 0 (math.lgamma
    elsewhere): (z - 1/2) log z - z + log(2 pi) / 2 + S(z) at z = x + m >= 100,
    less log(x (x + 1) .. (x + m - 1)), in 45-digit decimal arithmetic and
    rounded once to a float.  About 0.1 ms a call; the last 1024 arguments
    are cached."""
    if not 0.0 < x < math.inf:
        return math.lgamma(x)
    if x == 1.0 or x == 2.0:
        return 0.0
    with decimal.localcontext(_LGAMMA_CONTEXT):
        z, shift = decimal.Decimal(x), decimal.Decimal(1)
        while z < _LGAMMA_SHIFT:
            shift *= z
            z += 1
        y = 1 / (z * z)
        tail = decimal.Decimal(0)
        for coef in _STIRLING_DECIMAL:
            tail = tail * y + coef
        value = (z - decimal.Decimal("0.5")) * z.ln() - z + _HALF_LOG_2PI + tail / z - shift.ln()
    return float(value)


def _square(m):
    """Coerce a scalar, matrix or stack of matrices to a float array of shape
    (..., d, d)."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    return a


def check_symmetric(m):
    """Coerce a scalar, matrix or stack of matrices to a float array of shape
    (..., d, d) and check that every matrix is symmetric to SYMMETRY_TOL."""
    a = _square(m)
    if not np.allclose(a, np.swapaxes(a, -1, -2), rtol=SYMMETRY_TOL, atol=SYMMETRY_TOL):
        raise ValueError("matrix is not symmetric")
    return a


def guarded_eigh(mat):
    """Eigendecomposition of a symmetric positive definite matrix, or of a
    stack of them (shape (..., d, d)).

    Symmetry is not re-tested: covariances were checked when their family
    was built, Hessians are symmetric by construction, and eigh reads only
    the lower triangle.  Raises DegenerateCovarianceError when a spectrum is
    not usable for square roots / inverses: lambda_min < REL_EIG_FLOOR *
    lambda_max, and first, before LAPACK, where a matrix is not finite
    (overflowed).  A 1 x 1 matrix is its own eigendecomposition, eigenvalue
    the entry and eigenvector 1, the bits LAPACK returns for it, with no
    LAPACK call.
    """
    a = _square(mat)
    if not np.isfinite(a).all():
        raise DegenerateCovarianceError("matrix not finite: a sum or product overflowed")
    if a.shape[-1] == 1:
        w, q = a[..., 0].copy(), np.ones_like(a)
    else:
        w, q = np.linalg.eigh(a)
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


def sym_inv_sqrt(mat, eig=None):
    """Symmetric inverse square root B of a SPD matrix, B @ mat @ B = I; eig
    is guarded_eigh(mat) where at hand, as in sym_inv and sym_logdet."""
    w, q = eig or guarded_eigh(mat)
    return (q / np.sqrt(w)[..., None, :]) @ np.swapaxes(q, -1, -2)


def sym_inv(mat, eig=None):
    w, q = eig or guarded_eigh(mat)
    return (q / w[..., None, :]) @ np.swapaxes(q, -1, -2)


def sym_logdet(mat, eig=None):
    w, _ = eig or guarded_eigh(mat)
    return np.sum(np.log(w), axis=-1)


def tensor_grid(lo, hi, points_per_axis):
    """Uniform tensor-product grid over the box with corners lo and hi (one
    entry per axis), returned as an (N, dim) array."""
    axes = [np.linspace(l, h, points_per_axis) for l, h in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)
