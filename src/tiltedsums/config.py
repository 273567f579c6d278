"""Experiment configuration: a line-oriented key = value format.

Two sections.  Vectors use ';' between components, matrices '|' between
rows, and ',' between list items, so "a = 0.3;0.3, 0.5;0.5" is two
two-dimensional target means.  Example:

    [family]
    kind = gamma
    scale = 1.0
    shapes = 2.5, 4.0            # cycled to length n; linspace(lo,hi,m) allowed

    [sweep]
    n = 200, 400, 800, 1600
    k = sqrt                     # sqrt | pow:<alpha> | a fixed integer
    a = 6.0
    method = scheffe             # scheffe | sum_mc | joint_mc
    samples = 1000000
    seed = 7
    out = results

Normal families take "means" and "cov" (shared) or repeated
"member = normal mean=0;0 cov=1;0|0;1" lines; gamma members may likewise be
given as "member = gamma shape=3 scale=1".  A key, field or section not
named here is an error.  parse_config(text).family is the family of the
declared rows, and family.build(n) cycles them to n members, so
shapes = 2.5, 4.0 alternates the two shapes.
"""

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .families import Family, gamma_family, normal_family

_LINSPACE_RE = re.compile(r"^linspace\(\s*([^,()]+)\s*,\s*([^,()]+)\s*,\s*(\d+)\s*\)$")


@dataclass(frozen=True)
class ExperimentConfig:
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


def _split_top_level(text):
    """Split on commas outside parentheses, so generator calls stay whole."""
    items, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    items.append("".join(current))
    return [item.strip() for item in items]


def _scalar_list(text):
    """Comma list of scalars; linspace(lo, hi, count) items are expanded."""
    out = []
    for item in _split_top_level(text):
        m = _LINSPACE_RE.match(item)
        if m:
            lo, hi, count = _scalar(m.group(1)), _scalar(m.group(2)), int(m.group(3))
            out.extend(float(v) for v in np.linspace(lo, hi, count))
        else:
            out.append(_scalar(item))
    return tuple(out)


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


# The fields of a member line, per kind.
_MEMBER_FIELDS = {"gamma": ("shape", "scale"), "normal": ("mean", "cov")}


def _parse_member_line(value):
    parts = value.split()
    if not parts:
        raise ConfigError("empty member line")
    kind, pairs = parts[0], []
    if kind not in _MEMBER_FIELDS:
        raise ConfigError(f"unknown member kind {kind!r}")
    for part in parts[1:]:
        if "=" not in part:
            raise ConfigError(f"bad member field {part!r}")
        key, val = part.split("=", 1)
        pairs.append((key.strip(), val.strip()))
    return kind, _keyed(pairs, _MEMBER_FIELDS[kind], (), f"{kind} member")


def _parse_family(pairs):
    """The declared member rows as a family: one row per member line, or the
    rows of a kind = gamma | normal stanza."""
    lines = [value for key, value in pairs if key == "member"]
    stanza = [(key, value) for key, value in pairs if key != "member"]
    if lines:
        if any(key != "kind" for key, _ in stanza):
            raise ConfigError("member lines cannot be mixed with sequence stanzas")
        members = [_parse_member_line(line) for line in lines]
        kinds = {kind for kind, _ in members} | set(_keyed(stanza, (), ("kind",), "family").values())
        if len(kinds) != 1:
            raise ConfigError("member lines must share one kind, that of the kind line")
        (kind,) = kinds
        rows = [fields for _, fields in members]
        if kind == "gamma":
            scales = {_scalar(row["scale"]) for row in rows}
            if len(scales) != 1:
                raise ConfigError("gamma members must share one scale")
            args = [_scalar(row["shape"]) for row in rows], scales.pop()
        else:
            args = [_vector(row["mean"]) for row in rows], [_matrix(row["cov"]) for row in rows]
    else:
        kind = dict(stanza).get("kind")
        if kind == "gamma":
            fields = _keyed(stanza, ("kind", "shapes"), ("scale",), "gamma family")
            args = _scalar_list(fields["shapes"]), _scalar(fields.get("scale", "1.0"))
        elif kind == "normal":
            fields = _keyed(stanza, ("kind", "means", "cov"), (), "normal family")
            args = _vector_list(fields["means"]), [_matrix(fields["cov"])]
        elif kind is None:
            raise ConfigError("family section needs a kind or member lines")
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
