"""Numeric validation of the uniformity assumptions behind the expansions.

Every check evaluates a family sequence over a compact box K strictly inside
the cgf domain and reports a pass flag plus witness numbers:

  cv        covariances of tilted members have eigenvalues bounded away
            from 0 and infinity over K;
  am4       fourth absolute central moments stay below a configured ceiling;
  cf_decay  the characteristic function obeys |cf(t)| <= C_K / ||t||, with
            C_K the largest L1 norm of a density partial derivative
            (in closed form);
  cf3       sup over ||t|| > beta of |cf(t)| stays strictly below 1
            (grid scan plus the analytic C_K / t_max tail bound);
  uf        one-dimensional gamma means are squeezed between the envelope
            functions shape_lo t/(1-theta t) and shape_hi t/(1-theta t).

Common support and positivity of the member densities hold by construction
(homogeneous kinds, open supports), so the report carries a structural
"supp" entry rather than a numeric one.  Every sup and inf runs over the
family's distinct member laws, so repeated members cost nothing.  All
evaluations are pure grid computations: identical inputs give identical
witnesses.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedFamilyError
from .families import GammaFamily, HalfLine
from .numerics import tensor_grid


@dataclass(frozen=True)
class ThetaBox:
    """Compact axis-aligned box K inside the cgf domain."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        if len(lo) != len(hi):
            raise ValueError("box corners have different lengths")
        if any(l > h for l, h in zip(lo, hi)):
            raise ValueError("box has negative extent")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return len(self.lo)

    def grid(self, points_per_axis=33):
        return tensor_grid(self.lo, self.hi, points_per_axis)

    @property
    def center(self):
        return np.array([(l + h) / 2.0 for l, h in zip(self.lo, self.hi)])


def theta_box_from_solutions(thetas, family, inflate=0.2, boundary_margin=1e-3):
    """Bounding box of observed tilt parameters, inflated and clipped
    strictly inside the domain (margin from a half-line boundary)."""
    arr = np.atleast_2d(np.asarray(thetas, dtype=float))
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    pad = inflate * np.maximum(hi - lo, 1.0)
    lo = lo - pad
    hi = hi + pad
    dom = family.domain
    if isinstance(dom, HalfLine):
        hi = np.minimum(hi, dom.upper - boundary_margin)
        lo = np.minimum(lo, hi - 1e-9)
    return ThetaBox(tuple(lo), tuple(hi))


@dataclass
class CheckResult:
    name: str
    passed: bool
    witnesses: dict = field(default_factory=dict)


@dataclass
class AssumptionReport:
    entries: list
    theta_box: ThetaBox

    def to_text(self):
        lines = []
        width = max(len(e.name) for e in self.entries)
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            info = "  ".join(f"{k}={v:.6g}" for k, v in e.witnesses.items())
            lines.append(f"{e.name:<{width}}  {status}  {info}".rstrip())
        return "\n".join(lines)

    def csv_rows(self):
        rows = ["assumption,passed,witness1,witness2"]
        for e in self.entries:
            vals = [f"{v:.17g}" for v in e.witnesses.values()][:2]
            vals += [""] * (2 - len(vals))
            rows.append(f"{e.name},{str(e.passed).lower()},{vals[0]},{vals[1]}")
        return "\n".join(rows) + "\n"

    @property
    def all_passed(self):
        return all(e.passed for e in self.entries)


def _thetas(laws, box, points_per_axis):
    """The tilt parameters a check evaluates, as an (N, d) array.

    Tilting a normal member shifts its mean only, so its covariance, moments,
    cf modulus and density-derivative norms do not depend on theta; the box
    center suffices.  Other kinds are scanned over the full grid, which must
    lie inside the cgf domain."""
    if box.dim != laws.dim:
        raise ValueError("box dimension does not match the members")
    if laws.kind == "normal":
        return box.center[None, :]
    grid = box.grid(points_per_axis)
    for theta in grid:
        if not laws.domain.contains(theta):
            raise ValueError(f"grid point {theta} is outside the cgf domain")
    return grid


def check_cv(family, box, points_per_axis=33, eig_floor=1e-8, eig_ceiling=1e12):
    """Covariance eigenvalues of tilted members over K."""
    laws = family.distinct()
    thetas = _thetas(laws, box, points_per_axis)
    eigs = np.array([np.linalg.eigvalsh(laws.member_hess(theta)) for theta in thetas])
    lam_min = float(np.min(eigs[..., 0]))
    lam_max = float(np.max(eigs[..., -1]))
    passed = eig_floor < lam_min <= lam_max < eig_ceiling
    return CheckResult("cv", passed, {"lambda_min": lam_min, "lambda_max": lam_max})


def check_am4(family, box, points_per_axis=33, ceiling=1e6):
    """Fourth absolute central moments of tilted members over K."""
    laws = family.distinct()
    thetas = _thetas(laws, box, points_per_axis)
    worst = max(float(np.max(laws.fourth_central_moment(theta))) for theta in thetas)
    passed = math.isfinite(worst) and worst < ceiling
    return CheckResult("am4", passed, {"max_fourth_moment": worst, "ceiling": ceiling})


def _sup_partial_l1(laws, thetas):
    return max(
        float(np.max(laws.density_partial_l1(theta, axis)))
        for theta in thetas
        for axis in range(laws.dim)
    )


def check_cf_decay(family, box, points_per_axis=33, r_min=1.0, r_max=100.0, r_points=512):
    """Characteristic-function decay |cf(t)| <= C_K / ||t|| on ||t|| in
    [r_min, r_max], with C_K = sup of L1 norms of density partials."""
    laws = family.distinct()
    thetas = _thetas(laws, box, points_per_axis)
    c_k = _sup_partial_l1(laws, thetas)
    radii = np.geomspace(r_min, r_max, r_points)
    worst_ratio = max(
        float(np.max(laws.char_fn_modulus_sup(theta, radii) * radii / c_k)) for theta in thetas
    )
    passed = worst_ratio <= 1.0 + 1e-9
    return CheckResult("cf_decay", passed, {"c_k": c_k, "max_bound_ratio": worst_ratio})


def check_cf3(family, box, beta=0.5, points_per_axis=33, r_max=100.0, r_points=512):
    """Strict cf separation from 1: epsilon = sup over ||t|| > beta of
    |cf(t)|, combining a grid scan on [beta, r_max] with the analytic
    C_K / r_max bound beyond."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    laws = family.distinct()
    thetas = _thetas(laws, box, points_per_axis)
    radii = np.linspace(beta, r_max, r_points)
    eps = max(float(np.max(laws.char_fn_modulus_sup(theta, radii))) for theta in thetas)
    eps = max(eps, _sup_partial_l1(laws, thetas) / r_max)
    return CheckResult("cf3", eps < 1.0, {"epsilon": eps, "beta": beta})


def check_uf(family, box=None, shape_lo=None, shape_hi=None, points_per_axis=33):
    """Envelope squeeze for one-dimensional gamma means.

    With f_lo(theta) = shape_lo t/(1-theta t) and f_hi the same with
    shape_hi, verifies f_lo <= m_j <= f_hi on a theta grid; the witness is
    the worst margin (nonnegative means the squeeze holds).
    """
    if not isinstance(family, GammaFamily):
        raise UnsupportedFamilyError("envelope check is defined for gamma members only")
    t = family.scale
    if box is None:
        box = ThetaBox((-2.0 / t,), (1.0 / t - 1e-3,))
    laws = family.distinct()
    grid = _thetas(laws, box, points_per_axis)
    k_lo = float(laws.shapes.min()) if shape_lo is None else float(shape_lo)
    k_hi = float(laws.shapes.max()) if shape_hi is None else float(shape_hi)

    # Same operation order as the member gradient, so equal shapes give an
    # exactly zero margin.
    denom = 1.0 - grid[:, :1] * t
    means = laws.shapes * t / denom
    worst = float(np.min(np.minimum(means - k_lo * t / denom, k_hi * t / denom - means)))
    return CheckResult("uf", worst >= 0.0, {"worst_margin": worst, "shape_lo": k_lo, "shape_hi": k_hi})


def run_assumption_checks(family, box, beta=0.5, points_per_axis=33, am4_ceiling=1e6,
                          r_max=100.0, r_points=512):
    """Full report over a family: structural support entry plus the numeric
    battery (and the envelope check for gamma families)."""
    entries = [CheckResult("supp", True, {})]
    entries.append(check_cv(family, box, points_per_axis))
    entries.append(check_am4(family, box, points_per_axis, ceiling=am4_ceiling))
    entries.append(check_cf_decay(family, box, points_per_axis, r_max=r_max, r_points=r_points))
    entries.append(
        check_cf3(family, box, beta=beta, points_per_axis=points_per_axis, r_max=r_max, r_points=r_points)
    )
    if isinstance(family, GammaFamily):
        entries.append(check_uf(family, box=None, points_per_axis=points_per_axis))
    return AssumptionReport(entries, box)
