"""Config parsing, validation, and round-tripping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltedsums import (
    ConfigError,
    ExperimentConfig,
    FamilySpec,
    GammaFamily,
    NormalFamily,
    k_for,
    parse_config,
    serialize_config,
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
    assert cfg.family == FamilySpec("gamma", scale=1.0, shapes=(2.5, 4.0))
    assert cfg.n_values == (200, 400)
    assert cfg.k_rule == "sqrt"
    assert cfg.a_values == ((6.0,),)
    assert cfg.method == "scheffe"
    family = cfg.family.build(5)
    assert isinstance(family, GammaFamily)
    assert family.shapes.tolist() == [2.5, 4.0, 2.5, 4.0, 2.5]


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
    np.testing.assert_allclose(family.means[1], [0.5, 0.5])
    np.testing.assert_allclose(family.means[2], [0.0, 0.0])
    np.testing.assert_allclose(family[0].covs[0], [[1.0, 0.2], [0.2, 2.0]])


def test_parse_member_lines():
    cfg = parse_config(
        """
[family]
member = normal mean=0;0 cov=1;0|0;1
member = normal mean=1;1 cov=2;0|0;2

[sweep]
n = 10
k = 1
a = 0.5;0.5
"""
    )
    family = cfg.family.build(4)
    np.testing.assert_allclose(family[3].covs[0], 2 * np.eye(2))


def test_parse_gamma_member_lines_share_scale():
    with pytest.raises(ConfigError):
        parse_config(
            """
[family]
member = gamma shape=3 scale=1
member = gamma shape=4 scale=2

[sweep]
n = 10
k = 1
a = 3.0
"""
        )


def test_linspace_expansion():
    cfg = parse_config(
        """
[family]
kind = gamma
scale = 1.0
shapes = linspace(2.5, 4.0, 4)

[sweep]
n = 10
k = 1
a = 3.0
"""
    )
    assert cfg.family.shapes == (2.5, 3.0, 3.5, 4.0)


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


def test_round_trip_gamma():
    cfg = parse_config(GAMMA_CFG)
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_normal_heterogeneous():
    cfg = ExperimentConfig(
        family=FamilySpec(
            "normal",
            means=((0.0, 0.0), (1.0, 1.0)),
            covs=(((1.0, 0.0), (0.0, 1.0)), ((2.0, 0.3), (0.3, 2.0))),
        ),
        n_values=(20,),
        k_rule="2",
        a_values=((0.25, 0.75),),
        method="sum_mc",
        samples=500,
        seed=3,
        out="x",
    )
    assert parse_config(serialize_config(cfg)) == cfg


@given(
    shapes=st.lists(st.floats(2.1, 9.0).map(lambda v: round(v, 6)), min_size=1, max_size=5),
    scale=st.floats(0.1, 5.0).map(lambda v: round(v, 6)),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=50, deadline=None)
def test_round_trip_property(shapes, scale, seed):
    cfg = ExperimentConfig(
        family=FamilySpec("gamma", scale=scale, shapes=tuple(shapes)),
        n_values=(16, 64),
        k_rule="pow:0.5",
        a_values=((1.5,), (2.5,)),
        method="joint_mc",
        samples=1000,
        seed=seed,
        out="out",
    )
    assert parse_config(serialize_config(cfg)) == cfg
