"""Config parsing and validation."""

import numpy as np
import pytest

from conftest import explicit_family, law_parameters
from tiltedsums import (
    ConfigError,
    GammaFamily,
    NormalFamily,
    gamma_family,
    k_for,
    normal_family,
    parse_config,
)

GAMMA_CFG = """
# gamma sweep fixture
[family]
kind = gamma
scale = 1.0
shapes = 2.5, 4.0

[sweep]
n = 200, 400
k = sqrt
a = 6.0
method = scheffe
samples = 1000
seed = 7
out = results
"""


def test_parse_gamma_config():
    cfg = parse_config(GAMMA_CFG)
    assert isinstance(cfg.family, GammaFamily)
    assert (cfg.family.shapes.tolist(), cfg.family.scale) == ([2.5, 4.0], 1.0)
    assert cfg.n_values == (200, 400)
    assert cfg.k_rule == "sqrt"
    assert cfg.a_values == ((6.0,),)
    assert cfg.method == "scheffe"
    family = cfg.family.build(5)
    assert isinstance(family, GammaFamily)
    assert [family[j].shapes[0] for j in range(len(family))] == [2.5, 4.0, 2.5, 4.0, 2.5]


def test_parse_normal_config_with_matrix():
    cfg = parse_config(
        """
[family]
kind = normal
means = 0;0, 0.5;0.5
cov = 1;0.2|0.2;2

[sweep]
n = 50
k = 2
a = 0.3;0.3
method = sum_mc
"""
    )
    family = cfg.family.build(3)
    assert isinstance(family, NormalFamily)
    np.testing.assert_allclose(family[1].means[0], [0.5, 0.5])
    np.testing.assert_allclose(family[2].means[0], [0.0, 0.0])
    np.testing.assert_allclose(family[0].covs[0], [[1.0, 0.2], [0.2, 2.0]])


def test_parse_cov_list():
    cfg = parse_config(
        """
[family]
kind = normal
means = 0;0, 1;1
cov = 1;0|0;1, 2;0|0;2

[sweep]
n = 10
k = 1
a = 0.5;0.5
"""
    )
    family = cfg.family.build(4)
    np.testing.assert_allclose(family[3].covs[0], 2 * np.eye(2))


def test_configs_compare_by_identity():
    cfg = parse_config(GAMMA_CFG)
    assert cfg == cfg
    assert parse_config(GAMMA_CFG) != parse_config(GAMMA_CFG)


def test_k_rules():
    assert k_for("sqrt", 200) == 15
    assert k_for("pow:0.5", 100) == 10
    assert k_for("7", 100) == 7


def test_k_rule_validation():
    base = """
[family]
kind = gamma
shapes = 3.0
[sweep]
n = 50
a = 6.0
k = {rule}
"""
    for bad in ("pow:1.0", "pow:0.0", "pow:1.5", "nonsense", "50", "0"):
        with pytest.raises(ConfigError):
            parse_config(base.format(rule=bad))
    parse_config(base.format(rule="pow:0.5"))
    parse_config(base.format(rule="sqrt"))
    parse_config(base.format(rule="49"))  # k = n - 1 is allowed


def test_rows_enumeration_respects_rule():
    cfg = parse_config(GAMMA_CFG)
    rows = cfg.rows()
    assert rows == [(200, 15, (6.0,)), (400, 20, (6.0,))]
    for n, k, _ in rows:
        assert 1 <= k < n


def test_config_rejections():
    with pytest.raises(ConfigError):
        parse_config("[family]\nkind = cauchy\nshapes=3\n[sweep]\nn=10\nk=1\na=1")
    with pytest.raises(ConfigError):
        parse_config("[family]\nkind = gamma\nshapes = 3.0\n[sweep]\nn = 10\nk = 1\na = 0.5;0.5")
    with pytest.raises(ConfigError):
        parse_config("[family]\nkind = gamma\nshapes = 3.0\n[sweep]\nk = 1\na = 6")
    with pytest.raises(ConfigError):
        parse_config("no sections at all = 3")
    with pytest.raises(ConfigError):
        parse_config(GAMMA_CFG.replace("method = scheffe", "method = magic"))
    with pytest.raises(ConfigError):
        parse_config(GAMMA_CFG.replace("method = scheffe", "method = sum_mc").replace("samples = 1000", "samples = 1"))
    with pytest.raises(ConfigError):
        parse_config(GAMMA_CFG.replace("seed = 7", "seed = -1"))
    for line, bad in (
        ("n = 200, 400", "n = 200.7, 400"),
        ("seed = 7", "seed = 2.9"),
        ("samples = 1000", "samples = 1000.5"),
    ):
        with pytest.raises(ConfigError):
            parse_config(GAMMA_CFG.replace(line, bad))
    assert parse_config(GAMMA_CFG.replace("samples = 1000", "samples = 1e6")).samples == 10**6


# declared member rows, cycled by Family.build: L = 3 rows each
MEANS = [[0.0, 0.0], [0.5, -0.5], [1.0, 2.0]]
MEMBER_COVS = [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.3], [0.3, 2.0]], [[1.5, -0.1], [-0.1, 0.7]]]
CYCLED_ROWS = {
    "gamma": gamma_family([2.5, 3.0, 4.0], 1.5),
    "normal-shared-cov": normal_family(MEANS, [[1.0, 0.2], [0.2, 2.0]]),
    "normal-member-covs": normal_family(MEANS, MEMBER_COVS),
}
# the normal-member-covs rows as a stanza with one cov per means row
MEMBER_COVS_CFG = """
[family]
kind = normal
means = 0;0, 0.5;-0.5, 1;2
cov = 1;0|0;1, 2;0.3|0.3;2, 1.5;-0.1|-0.1;0.7

[sweep]
n = 10
k = 1
a = 0.5;0.5
"""


def _sums_and_averages(family):
    """The members' parameter sums (convolve) and averages (cgf_grad at 0 is
    the average mean, cgf_hess the average covariance)."""
    zero = np.zeros(family.dim)
    return [*law_parameters(family.convolve()), family.cgf_grad(zero), family.cgf_hess(zero)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 12801])
@pytest.mark.parametrize("name", list(CYCLED_ROWS))
def test_build_cycles_parameters_like_resize(name, n):
    # build(n) and its slices hold the members of the explicit list
    # np.resize(rows, n), with the same sums and averages: bit for bit for
    # the dyadic gamma shapes and normal means and for a shared covariance
    # (n cov on both sides), and for the other per-member covariances within
    # 2 (n + r) u of the same sums of |entries|: the list sums its n terms
    # ((n - 1) u), the cycle takes n // r times the sum of the r rows plus
    # the first n % r rows (2 r u)
    rows = CYCLED_ROWS[name]
    family, explicit = rows.build(n), explicit_family(rows, n)
    slices = [(i, j) for i, j in ((1, n), (0, n - 1), (n // 3, n // 2 + 1)) if i < j]
    pairs = [(family, explicit)] + [(family[i:j], explicit[i:j]) for i, j in slices]
    if name == "normal-member-covs":
        pairs.append((parse_config(MEMBER_COVS_CFG).family.build(n), explicit))
    for got, want in pairs:
        m = len(want)
        assert len(got) == m
        for j in sorted({0, 1, 2, m // 2, m - 2, m - 1} & set(range(m))):
            for a, b in zip(law_parameters(got[j]), law_parameters(want[j])):
                assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())
        got_values, want_values = _sums_and_averages(got), _sums_and_averages(want)
        if name != "normal-member-covs":
            assert [(a.shape, a.tobytes()) for a in got_values] == [(b.shape, b.tobytes()) for b in want_values]
            continue
        means, covs = np.abs(want.means), np.abs(want.covs)
        sizes = [means.sum(axis=0, keepdims=True), covs.sum(axis=0, keepdims=True), means.mean(axis=0), covs.mean(axis=0)]
        for a, b, size in zip(got_values, want_values, sizes):
            assert a.shape == b.shape
            assert np.all(np.abs(a - b) <= 2.0 * (m + len(rows)) * 2.0**-53 * size)


@pytest.mark.parametrize("n", [0, -1])
def test_build_needs_a_member(n):
    with pytest.raises(ValueError):
        CYCLED_ROWS["gamma"].build(n)
