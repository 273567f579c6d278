"""Experiment configuration: a line-oriented key = value format.

Two sections.  Vectors use ';' between components, matrices '|' between
rows, and ',' between list items, so "a = 0.3;0.3, 0.5;0.5" is two
two-dimensional target means.  Example:

    [family]
    kind = gamma
    scale = 1.0
    shapes = 2.5, 4.0            # one row per shape, cycled to length n

    [sweep]
    n = 200, 400, 800, 1600
    k = sqrt                     # sqrt | pow:<alpha> | a fixed integer
    a = 6.0
    method = scheffe             # scheffe | sum_mc | joint_mc
    samples = 1000000
    seed = 7
    out = results

Each [family] key is one argument of the family's constructor: kind = gamma
takes shapes and scale (gamma_family), kind = normal takes means and cov
(normal_family), where cov is one matrix shared by every row or a list of
one matrix per means row, "cov = 1;0|0;1, 2;0|0;2".  A key or section not
named here is an error.  parse_config(text).family is the family of the
declared rows, and family.build(n) cycles them to n members, so
shapes = 2.5, 4.0 alternates the two shapes.
"""

import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .families import Family, gamma_family, normal_family


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A parsed config.  Configs compare by identity: a Family has no value
    equality, so two parses of one text are different configs."""

    family: Family
    n_values: tuple
    k_rule: str
    a_values: tuple
    method: str = "scheffe"
    samples: int = 10**6
    seed: int = 0
    out: str = "results"

    def __post_init__(self):
        if self.method not in ("scheffe", "sum_mc", "joint_mc"):
            raise ConfigError(f"unknown method {self.method!r}")
        if not self.n_values:
            raise ConfigError("sweep needs at least one n")
        if not self.a_values:
            raise ConfigError("sweep needs at least one a")
        if self.samples < 1:
            raise ConfigError("samples must be positive")
        if self.method != "scheffe" and self.samples < 2:
            raise ConfigError(f"method {self.method} needs samples >= 2 for a standard error")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        for a in self.a_values:
            if len(a) != self.family.dim:
                raise ConfigError(f"a={a} does not match family dimension {self.family.dim}")
        for n in self.n_values:
            k = k_for(self.k_rule, n)
            if not 1 <= k < n:
                raise ConfigError(f"k rule {self.k_rule!r} gives k={k} outside [1, {n})")

    def rows(self):
        """(n, k, a) triples in declaration order (n-major)."""
        return [(n, k_for(self.k_rule, n), a) for n in self.n_values for a in self.a_values]

    def with_overrides(self, seed=None, out=None):
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=int(seed))
        if out is not None:
            cfg = replace(cfg, out=str(out))
        return cfg


def k_for(rule, n):
    """Block size for a sweep point: fixed, ceil(sqrt(n)), or ceil(n^alpha).

    Raises ConfigError for an unknown rule or an exponent outside (0, 1)."""
    if rule == "sqrt":
        return math.ceil(math.sqrt(n))
    if rule.startswith("pow:"):
        try:
            alpha = float(rule[4:])
        except ValueError as exc:
            raise ConfigError(f"bad k rule {rule!r}") from exc
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"k rule exponent must lie in (0, 1), got {alpha}")
        return math.ceil(n ** alpha)
    try:
        return int(rule)
    except ValueError as exc:
        raise ConfigError(f"unknown k rule {rule!r}") from exc


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _strip(line):
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def _scalar(text):
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _scalar_list(text):
    return tuple(_scalar(item.strip()) for item in text.split(","))


def _count(value, key):
    if not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _vector(text):
    return tuple(_scalar(p) for p in text.split(";"))


def _vector_list(text):
    return tuple(_vector(p.strip()) for p in text.split(","))


def _matrix(text):
    rows = tuple(tuple(_scalar(c) for c in row.split(";")) for row in text.split("|"))
    if any(len(r) != len(rows) for r in rows):
        raise ConfigError(f"matrix {text!r} is not square")
    return rows


def _sections(text):
    current = None
    sections = {}
    for raw in text.splitlines():
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in ("family", "sweep"):
                raise ConfigError(f"unknown section [{current}]; a config has [family] and [sweep]")
            sections.setdefault(current, [])
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"cannot parse config line {raw!r}")
        key, value = line.split("=", 1)
        sections[current].append((key.strip(), value.strip()))
    return sections


def _keyed(pairs, required, optional, where):
    """The (key, value) pairs as a dict; a repeated, unknown or missing key
    is a ConfigError."""
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise ConfigError(f"duplicate {where} key {key!r}")
        if key not in required and key not in optional:
            raise ConfigError(f"unknown {where} key {key!r}")
        fields[key] = value
    missing = [key for key in required if key not in fields]
    if missing:
        raise ConfigError(f"{where} is missing {missing}")
    return fields


def _parse_family(pairs):
    """The declared member rows as a family: the shapes and scale of a
    kind = gamma stanza, or the means and covs of a kind = normal one."""
    kind = dict(pairs).get("kind")
    if kind == "gamma":
        fields = _keyed(pairs, ("kind", "shapes"), ("scale",), "gamma family")
        args = _scalar_list(fields["shapes"]), _scalar(fields.get("scale", "1.0"))
    elif kind == "normal":
        fields = _keyed(pairs, ("kind", "means", "cov"), (), "normal family")
        args = _vector_list(fields["means"]), [_matrix(c.strip()) for c in fields["cov"].split(",")]
    elif kind is None:
        raise ConfigError("family section needs a kind")
    else:
        raise ConfigError(f"unknown family kind {kind!r}")
    try:
        return (gamma_family if kind == "gamma" else normal_family)(*args)
    except ValueError as exc:
        raise ConfigError(f"bad {kind} family parameters: {exc}") from exc


def parse_config(text):
    sections = _sections(text)
    if "family" not in sections or "sweep" not in sections:
        raise ConfigError("config needs [family] and [sweep] sections")
    family = _parse_family(sections["family"])
    sweep = _keyed(sections["sweep"], ("n", "k", "a"), ("method", "samples", "seed", "out"), "sweep")
    n_values = tuple(_count(v, "n") for v in _scalar_list(sweep["n"]))
    return ExperimentConfig(
        family=family,
        n_values=n_values,
        k_rule=sweep["k"],
        a_values=_vector_list(sweep["a"]),
        method=sweep.get("method", "scheffe"),
        samples=_count(_scalar(sweep.get("samples", "1000000")), "samples"),
        seed=_count(_scalar(sweep.get("seed", "0")), "seed"),
        out=sweep.get("out", "results"),
    )


def parse_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
