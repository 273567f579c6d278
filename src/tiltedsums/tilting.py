"""Solving the tilting equation.

For a sequence X_1..X_n with average cgf kbar_n = (1/n) sum_j kappa_j, the
tilt parameter associated with a target mean a is the unique solution of

    grad kbar_n(theta) = a,       a in int(conv support).

kbar_n is strictly convex and steep on the open convex domain Theta, so a
damped Newton iteration started at theta = 0 converges globally: each step
solves Hess kbar_n(theta) p = -(grad kbar_n(theta) - a) and halves the step
until the iterate is strictly inside Theta and the residual merit
0.5 ||grad - a||^2 decreases.  Halving stops once the candidate
theta + lam p rounds to theta: every shorter step gives the same point and
merit, so no decrease can follow.  The result is the one 60 halvings give,
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

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, OutOfDomainError, UnsupportedFamilyError
from .families import GammaFamily, NormalFamily
from .numerics import as_vector, guarded_eigh

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100

# Iterates must stay strictly inside the domain; for a half-line boundary b
# this keeps theta < b - 1e-14 * max(1, |b|).
BOUNDARY_MARGIN = 1e-14

MAX_HALVINGS = 60


@dataclass(frozen=True)
class TiltingSolution:
    theta: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def mean_cgf(family, theta):
    """(kbar_n, grad kbar_n, Hess kbar_n) at theta, as arithmetic means."""
    return family.cgf(theta), family.cgf_grad(theta), family.cgf_hess(theta)


def _check_target(family, a):
    """a must lie in the interior of the convex support hull."""
    if isinstance(family, GammaFamily) and a[0] <= 0.0:
        raise OutOfDomainError(f"target mean a={a[0]} outside (0, inf) for gamma members")


def _in_domain(family, theta):
    margin = 0.0
    dom = family.domain
    if hasattr(dom, "upper"):
        margin = BOUNDARY_MARGIN * max(1.0, abs(dom.upper))
    return dom.contains(theta, margin=margin)


# A target far out (|a| ~ 1e300) squares to inf in the merit and the norms.
# That inf is the answer (no decrease, not converged), not a fault to warn of.
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
    _, grad, hess = mean_cgf(family, theta)
    resid = grad - a
    merit = 0.5 * float(resid @ resid)
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
                _, grad_c, hess_c = mean_cgf(family, cand)
                resid_c = grad_c - a
                merit_c = 0.5 * float(resid_c @ resid_c)
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
            callback(theta.copy(), float(np.linalg.norm(resid)))
        converged = _step_small(family, theta, step, tol)
        if converged:
            break

    return TiltingSolution(theta, float(np.linalg.norm(resid)), iterations, converged)


def _step_small(family, theta, step, tol):
    scale = min(max(1.0, np.linalg.norm(theta)), family.domain.boundary_distance(theta))
    return bool(np.linalg.norm(step) <= tol * scale)


def _guarded_hessian(hess):
    try:
        return guarded_eigh(hess)
    except Exception as exc:
        raise ConditioningError(f"mean cgf Hessian is numerically singular: {exc}") from exc


def tilt_oracle(family, a):
    """Closed-form tilt parameter for the shipped families.

    Normal: solve mean(Gamma_j) theta = a - mean(mu_j).  Gamma (shared scale):
    the average gradient kbar t/(1-theta t) depends on shapes only through
    their mean, so theta = (1 - kbar t / a)/t for any shape sequence.
    """
    a = as_vector(a, family.dim)
    if isinstance(family, NormalFamily):
        mu = family.means.mean(axis=0)
        gam = family.covs.mean(axis=0)
        w, q = _guarded_hessian(gam)
        return q @ ((q.T @ (a - mu)) / w)
    if isinstance(family, GammaFamily):
        _check_target(family, a)
        t = family.scale
        kbar = float(family.shapes.mean())
        return np.array([(1.0 - kbar * t / a[0]) / t])
    raise UnsupportedFamilyError(f"no closed-form tilt for kind {family.kind!r}")
