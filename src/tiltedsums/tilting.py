"""Solving the tilting equation.

For a sequence X_1..X_n with average cgf kbar_n = (1/n) sum_j kappa_j, the
tilt parameter associated with a target mean a is the unique solution of

    grad kbar_n(theta) = a,       a in int(conv support).

kbar_n is strictly convex and steep on the open convex domain Theta, so a
damped Newton iteration started at theta = 0 converges globally: each step
solves Hess kbar_n(theta) p = -(grad kbar_n(theta) - a) and halves the step
until the iterate is strictly inside Theta and the residual norm
||grad - a||, the merit, decreases; the norm is taken without squaring, so
it stays finite for every finite residual.  Halving stops once the
candidate theta + lam p rounds to theta: every shorter step gives the same
point and merit, so no decrease can follow.  The result is the one 60 halvings give,
and a converged solve costs about one evaluation per Newton step plus one.

The iteration stops after an accepted step p with
||p|| <= tol * min(max(1, ||theta||), dist(theta, boundary)), and a rejected
line search counts as converged under the same bound.  A residual test
cannot serve: grad kbar_n ~ a carries rounding of order eps * |a|, far above
a fixed tolerance for large a and far below it for small a.  The boundary
term measures the step against the distance on which the tilted law
depends, so a theta that float cannot place near the boundary is reported
as not converged.

Closed forms used as oracles in the test suite:

    all Normal:            mean(Gamma_j) theta = a - mean(mu_j)
    Gamma, shared scale:   theta = (1 - kbar t / a) / t,  kbar = mean shape
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, OutOfDomainError, UnsupportedFamilyError
from .families import GammaFamily, NormalFamily
from .numerics import as_vector, guarded_eigh

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100

# Iterates must stay strictly inside the domain; a finite theta_upper b
# keeps theta[0] < b - 1e-14 * max(1, |b|).
BOUNDARY_MARGIN = 1e-14

MAX_HALVINGS = 60


@dataclass(frozen=True)
class TiltingSolution:
    theta: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def _check_target(family, a):
    """a must lie in the interior of the convex support hull."""
    lower = family.mean_lower
    if math.isfinite(lower) and a[0] <= lower:
        raise OutOfDomainError(f"target mean a={a[0]} outside ({lower:g}, inf) for {family.kind} members")


def _in_domain(family, theta):
    upper = family.theta_upper
    margin = BOUNDARY_MARGIN * max(1.0, abs(upper)) if math.isfinite(upper) else 0.0
    return family.in_domain(theta) and theta[0] < upper - margin


# A huge gamma scale (1e300) overflows the Hessian to inf.  That inf is a
# singular Hessian (ConditioningError), not a fault to warn of.
@np.errstate(over="ignore")
def solve_tilt(family, a, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, callback=None):
    """Damped Newton iteration for grad kbar_n(theta) = a.

    Returns a TiltingSolution; converged is False (rather than raising) when
    max_iter Newton updates did not bring the step below the scale-aware
    bound of the module docstring.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a = as_vector(a, family.dim)
    _check_target(family, a)

    theta = np.zeros(family.dim)
    resid, hess = family.cgf_grad(theta) - a, family.cgf_hess(theta)
    merit = math.hypot(*resid)
    iterations = 0
    converged = False

    for _ in range(max_iter):
        w, q = _guarded_hessian(hess)
        step = -(q @ ((q.T @ resid) / w))

        lam = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            cand = theta + lam * step
            if np.array_equal(cand, theta):
                break  # every shorter step rounds to theta too
            if _in_domain(family, cand):
                resid_c, hess_c = family.cgf_grad(cand) - a, family.cgf_hess(cand)
                merit_c = math.hypot(*resid_c)
                if merit_c < merit:
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            converged = _step_small(family, theta, step, tol)
            break

        theta, resid, hess, merit = cand, resid_c, hess_c, merit_c
        iterations += 1
        if callback is not None:
            callback(theta.copy(), merit)
        converged = _step_small(family, theta, step, tol)
        if converged:
            break

    return TiltingSolution(theta, merit, iterations, converged)


def _step_small(family, theta, step, tol):
    scale = min(max(1.0, math.hypot(*theta)), family.theta_upper - float(theta[0]))
    return math.hypot(*step) <= tol * scale


def _guarded_hessian(hess):
    try:
        return guarded_eigh(hess)
    except Exception as exc:
        raise ConditioningError(f"mean cgf Hessian is numerically singular: {exc}") from exc


def tilt_oracle(family, a):
    """Closed-form tilt parameter for the shipped families.

    Normal: solve mean(Gamma_j) theta = a - mean(mu_j).  Gamma (shared scale):
    the average gradient kbar t/(1-theta t) depends on shapes only through
    their mean, so theta = (1 - kbar t / a)/t for any shape sequence.  Each
    row weighs as many members as it stands for (family.counts).
    """
    a = as_vector(a, family.dim)
    counts, n = family.counts, len(family)
    if isinstance(family, NormalFamily):
        mu, covs = np.add.reduce(counts[:, None] * family.means, axis=0) / n, family.covs
        gam = covs[0] if len(covs) == 1 else np.add.reduce(counts[:, None, None] * covs, axis=0) / n
        w, q = _guarded_hessian(gam)
        return q @ ((q.T @ (a - mu)) / w)
    if isinstance(family, GammaFamily):
        _check_target(family, a)
        t = family.scale
        kbar = float(np.add.reduce(counts * family.shapes) / n)
        return np.array([(1.0 - kbar * t / a[0]) / t])
    raise UnsupportedFamilyError(f"no closed-form tilt for kind {family.kind!r}")
