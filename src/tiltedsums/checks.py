"""Numeric validation of the uniformity assumptions behind the expansions.

Every check evaluates a family sequence over a compact box K strictly inside
the cgf domain and reports a pass flag plus witness numbers:

  cv        covariances of tilted members have eigenvalues bounded away
            from 0 and infinity over K;
  am4       fourth absolute central moments stay below AM4_CEILING = 1e6;
  cf_decay  the characteristic function obeys |cf(t)| <= C_K / ||t||, with
            C_K the largest L1 norm of a density partial derivative
            (in closed form);
  cf3       sup over ||t|| > beta of |cf(t)| stays strictly below 1
            (radius scan plus the analytic C_K / R_MAX tail bound);
  uf        one-dimensional gamma means are squeezed between the envelope
            functions shape_lo u and shape_hi u, u = t/(1-theta t) the
            tilted scale.

Common support and positivity of the member densities hold by construction
(homogeneous kinds, open supports), so the report carries a structural
"supp" entry rather than a numeric one.  Every sup and inf runs over the
family's parameter rows, so n members cycling r rows cost what r members do.

No check scans K.  Every hook is monotone in theta over K: tilting a normal
member moves only its mean, so the normal hooks do not depend on theta, and
every gamma hook is a monotone function of the tilted scale
u = t / (1 - theta t), which increases with theta.  So each sup and inf over
K sits at one of the box's two ends, and each check reads the hooks of the
two tilted families family.tilt(lo) and family.tilt(hi), for every kind.  A
report tilts to them once and hands both laws to every check (laws=); a
check called on its own tilts itself.
Thresholds and radius grids are fixed constants, so identical inputs give
identical witnesses.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedFamilyError
from .families import GammaFamily

EIG_FLOOR, EIG_CEILING = 1e-8, 1e12
AM4_CEILING = 1e6
# cf_decay scans R_POINTS geometric radii in [R_MIN, R_MAX]; cf3 scans as
# many linear radii in [beta, R_MAX] and bounds the rest by C_K / R_MAX.
R_MIN, R_MAX, R_POINTS = 1.0, 100.0, 512
# A box from solved tilts grows by BOX_INFLATE times its extent (at least 1)
# and stays BOUNDARY_MARGIN below a finite theta_upper.
BOX_INFLATE, BOUNDARY_MARGIN = 0.2, 1e-3


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


def theta_box_from_solutions(thetas, family):
    """Bounding box of observed tilt parameters, inflated and clipped
    strictly inside the domain (margin from a finite theta_upper)."""
    arr = np.atleast_2d(np.asarray(thetas, dtype=float))
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    pad = BOX_INFLATE * np.maximum(hi - lo, 1.0)
    lo = lo - pad
    hi = hi + pad
    if math.isfinite(family.theta_upper):
        hi = np.minimum(hi, family.theta_upper - BOUNDARY_MARGIN)
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


def _tilted_ends(family, box):
    """The laws a check evaluates: the family tilted to the box's two ends
    (tilt raises OutOfDomainError, a ValueError, for an end outside the cgf
    domain).  That needs every hook (member_hess, fourth_central_moment,
    char_fn_modulus_sup at each radius, density_partial_l1, and the gamma
    mean) to be monotone in theta over the box, so that its sup and inf over
    K are taken at an end.  Tilting a normal member shifts its mean only, so
    its hooks do not depend on theta at all.  Each gamma hook is monotone in
    the tilted scale u = t / (1 - theta t), and u increases with theta."""
    if box.dim != family.dim:
        raise ValueError("box dimension does not match the members")
    return family.tilt(box.lo), family.tilt(box.hi)


def check_cv(family, box, laws=None):
    """Covariance eigenvalues of tilted members over K."""
    laws = laws or _tilted_ends(family, box)
    eigs = np.array([np.linalg.eigvalsh(law.member_hess()) for law in laws])
    lam_min = float(np.min(eigs[..., 0]))
    lam_max = float(np.max(eigs[..., -1]))
    passed = EIG_FLOOR < lam_min <= lam_max < EIG_CEILING
    return CheckResult("cv", passed, {"lambda_min": lam_min, "lambda_max": lam_max})


def check_am4(family, box, laws=None):
    """Fourth absolute central moments of tilted members over K."""
    laws = laws or _tilted_ends(family, box)
    worst = max(float(np.max(law.fourth_central_moment())) for law in laws)
    passed = math.isfinite(worst) and worst < AM4_CEILING
    return CheckResult("am4", passed, {"max_fourth_moment": worst, "ceiling": AM4_CEILING})


def _sup_partial_l1(laws):
    return max(float(np.max(law.density_partial_l1(axis))) for law in laws for axis in range(law.dim))


def check_cf_decay(family, box, laws=None):
    """Characteristic-function decay |cf(t)| <= C_K / ||t|| on ||t|| in
    [R_MIN, R_MAX] = [1, 100], with C_K = sup of L1 norms of density partials."""
    laws = laws or _tilted_ends(family, box)
    c_k = _sup_partial_l1(laws)
    radii = np.geomspace(R_MIN, R_MAX, R_POINTS)
    worst_ratio = max(float(np.max(law.char_fn_modulus_sup(radii) * radii / c_k)) for law in laws)
    passed = worst_ratio <= 1.0 + 1e-9
    return CheckResult("cf_decay", passed, {"c_k": c_k, "max_bound_ratio": worst_ratio})


def check_cf3(family, box, beta=0.5, laws=None):
    """Strict cf separation from 1: epsilon = sup over ||t|| > beta of
    |cf(t)|, combining a radius scan on [beta, R_MAX] with the analytic
    C_K / R_MAX bound beyond."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    laws = laws or _tilted_ends(family, box)
    radii = np.linspace(beta, R_MAX, R_POINTS)
    eps = max(float(np.max(law.char_fn_modulus_sup(radii))) for law in laws)
    eps = max(eps, _sup_partial_l1(laws) / R_MAX)
    return CheckResult("cf3", eps < 1.0, {"epsilon": eps, "beta": beta})


def check_uf(family, shape_lo=None, shape_hi=None):
    """Envelope squeeze for one-dimensional gamma means.

    With f_lo(theta) = shape_lo u and f_hi the same with shape_hi, u the
    scale of the family tilted by theta, verifies f_lo <= m_j <= f_hi over
    theta in [-2/t, 1/t - BOUNDARY_MARGIN]; the witness is the worst margin
    (nonnegative means the squeeze holds).
    """
    if not isinstance(family, GammaFamily):
        raise UnsupportedFamilyError("envelope check is defined for gamma members only")
    t = family.scale
    laws = _tilted_ends(family, ThetaBox((-2.0 / t,), (1.0 / t - BOUNDARY_MARGIN,)))
    k_lo = float(family.shapes.min()) if shape_lo is None else float(shape_lo)
    k_hi = float(family.shapes.max()) if shape_hi is None else float(shape_hi)

    # Every mean and envelope is a shape times the tilted scale, so equal
    # shapes give an exactly zero margin.
    u = np.array([[law.scale] for law in laws])
    means = family.shapes * u
    worst = float(np.min(np.minimum(means - k_lo * u, k_hi * u - means)))
    return CheckResult("uf", worst >= 0.0, {"worst_margin": worst, "shape_lo": k_lo, "shape_hi": k_hi})


# A box end far out (|theta| ~ 1e300) overflows a tilted moment to inf or
# shrinks it to 0; that is the check's verdict, not a fault to warn of.
@np.errstate(over="ignore")
def run_assumption_checks(family, box, beta=0.5):
    """Full report over a family: structural support entry plus the numeric
    battery (and the envelope check for gamma families).  The family is
    tilted to the box's two ends once, and every check reads those laws."""
    laws = _tilted_ends(family, box)
    entries = [
        CheckResult("supp", True, {}),
        check_cv(family, box, laws),
        check_am4(family, box, laws),
        check_cf_decay(family, box, laws),
        check_cf3(family, box, beta, laws),
    ]
    if isinstance(family, GammaFamily):
        entries.append(check_uf(family))
    return AssumptionReport(entries, box)
