"""Shared fixtures, including the documented negative-control family that
the assumption checks must reject, and the explicit-list form of a cycled
family.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    try:
        import tiltedsums  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(SRC))

from tiltedsums.families import Family, gamma_family, normal_family  # noqa: E402


class PointMassFamily(Family):
    """Members concentrated at one point: the documented violator for the
    characteristic-function checks.

    It is an honest family of the tilting framework (each cgf is
    theta * location, so tilting leaves it unchanged), but its members have
    no Lebesgue density and their characteristic functions have modulus 1
    everywhere, so both the decay bound |cf| <= C/||t|| and the strict
    separation sup |cf| < 1 genuinely fail.  density_partial_l1 returns a
    vacuous finite placeholder (there is no density to differentiate) so
    the validators can run to their failure verdicts instead of erroring.
    Its one parameter row, the location, stands for every member.
    """

    kind = "point_mass"
    dim = 1

    def __init__(self, location=1.0, count=1):
        self.location = float(location)
        self._r, self._n = 1, int(count)

    def _rotated(self, shift, count):
        return (self.location,)

    def cgf(self, theta):
        return float(self._check_theta(theta)[0]) * self.location

    def cgf_grad(self, theta):
        self._check_theta(theta)
        return np.array([self.location])

    def cgf_hess(self, theta):
        self._check_theta(theta)
        return np.zeros((1, 1))

    def tilt(self, theta):
        self._check_theta(theta)
        return self

    def convolve(self):
        return PointMassFamily(len(self) * self.location)

    def log_density(self, x):
        pts, single = self._points(x)
        out = np.full(pts.shape[0], -math.inf)
        return float(out[0]) if single else out

    def sample(self, rng, count):
        self._single("sample")
        return np.full((count, 1), self.location)

    def member_hess(self):
        return np.zeros((1, 1, 1))

    def fourth_central_moment(self):
        return np.zeros(1)

    def char_fn_modulus_sup(self, radii):
        return np.ones((1, np.size(radii)))

    def density_partial_l1(self, axis):
        return np.ones(1)

    def third_central_moment_tensor(self):
        return np.zeros((1, 1, 1))


def explicit_family(rows, n):
    """The n members that rows.build(n) cycles, as an explicit-list family
    with one row per member: the parameter rows repeated by np.resize."""
    if rows.kind == "gamma":
        return gamma_family(np.resize(rows.shapes, n), rows.scale)
    d = rows.dim
    covs = rows.covs if len(rows.covs) == 1 else np.resize(rows.covs, (n, d, d))
    return normal_family(np.resize(rows.means, (n, d)), covs)


def law_parameters(law):
    """The parameter arrays of a single law."""
    return (law.shapes, np.array(law.scale)) if law.kind == "gamma" else (law.means, law.covs)


@pytest.fixture
def point_mass_members():
    return PointMassFamily(1.0, count=3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
