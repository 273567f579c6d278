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
given as "member = gamma shape=3 scale=1".  Parameter sequences are cycled
to the sweep length, so shapes = 2.5, 4.0 alternates the two shapes.
"""

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .families import gamma_family, normal_family

_LINSPACE_RE = re.compile(r"^linspace\(\s*([^,()]+)\s*,\s*([^,()]+)\s*,\s*(\d+)\s*\)$")


@dataclass(frozen=True)
class FamilySpec:
    """Declarative family sequence; build(n) materializes n members."""

    kind: str
    scale: float = 1.0
    shapes: tuple = ()
    means: tuple = ()
    covs: tuple = ()

    def __post_init__(self):
        if self.kind not in ("gamma", "normal"):
            raise ConfigError(f"unknown family kind {self.kind!r}")
        if self.kind == "gamma" and not self.shapes:
            raise ConfigError("gamma families need at least one shape")
        if self.kind == "normal" and (not self.means or not self.covs):
            raise ConfigError("normal families need means and covariances")
        # the declared rows, built once, carry every check the family makes
        try:
            if self.kind == "gamma":
                gamma_family(self.shapes, self.scale)
            else:
                normal_family(self.means, self.covs)
        except ValueError as exc:
            raise ConfigError(f"bad {self.kind} family parameters: {exc}") from exc

    @property
    def dim(self):
        return 1 if self.kind == "gamma" else len(self.means[0])

    def build(self, n):
        """The family of n members, parameters cycled in declaration order.

        Member j takes parameter row j mod len(rows); the rows are repeated
        by one np.tile copy.
        """
        if n < 1:
            raise ConfigError(f"family length must be at least 1, got {n}")
        if self.kind == "gamma":
            return gamma_family(_cycle(self.shapes, n), self.scale)
        covs = self.covs if len(self.covs) == 1 else _cycle(self.covs, n)
        return normal_family(_cycle(self.means, n), covs)


def _cycle(rows, n):
    """The first n rows of rows repeated end to end."""
    rows = np.asarray(rows)
    copies = -(-n // len(rows))
    return np.tile(rows, (copies,) + (1,) * (rows.ndim - 1))[:n]


@dataclass(frozen=True)
class ExperimentConfig:
    family: FamilySpec
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
            sections.setdefault(current, [])
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"cannot parse config line {raw!r}")
        key, value = line.split("=", 1)
        sections[current].append((key.strip(), value.strip()))
    return sections


def _parse_member_line(value):
    parts = value.split()
    if not parts:
        raise ConfigError("empty member line")
    kind, fields = parts[0], {}
    for part in parts[1:]:
        if "=" not in part:
            raise ConfigError(f"bad member field {part!r}")
        key, val = part.split("=", 1)
        fields[key.strip()] = val.strip()
    return kind, fields


def _parse_family(pairs):
    plain = {}
    member_lines = []
    for key, value in pairs:
        if key == "member":
            member_lines.append(value)
        elif key in plain:
            raise ConfigError(f"duplicate family key {key!r}")
        else:
            plain[key] = value

    if member_lines:
        if set(plain) - {"kind"}:
            raise ConfigError("member lines cannot be mixed with sequence stanzas")
        kinds = set()
        shapes, means, covs, scales = [], [], [], []
        for line in member_lines:
            kind, fields = _parse_member_line(line)
            kinds.add(kind)
            if kind == "gamma":
                shapes.append(_scalar(fields["shape"]))
                scales.append(_scalar(fields["scale"]))
            elif kind == "normal":
                means.append(_vector(fields["mean"]))
                covs.append(_matrix(fields["cov"]))
            else:
                raise ConfigError(f"unknown member kind {kind!r}")
        if len(kinds) != 1:
            raise ConfigError("member lines must share one kind")
        if shapes:
            if len(set(scales)) != 1:
                raise ConfigError("gamma members must share one scale")
            return FamilySpec("gamma", scale=scales[0], shapes=tuple(shapes))
        return FamilySpec("normal", means=tuple(means), covs=tuple(covs))

    kind = plain.get("kind")
    if kind is None:
        raise ConfigError("family section needs a kind or member lines")
    if kind == "gamma":
        if "shapes" not in plain:
            raise ConfigError("gamma family needs shapes")
        return FamilySpec(
            "gamma", scale=_scalar(plain.get("scale", "1.0")), shapes=_scalar_list(plain["shapes"])
        )
    if kind == "normal":
        if "means" not in plain or "cov" not in plain:
            raise ConfigError("normal family needs means and cov")
        means = _vector_list(plain["means"])
        return FamilySpec("normal", means=means, covs=(_matrix(plain["cov"]),))
    raise ConfigError(f"unknown family kind {kind!r}")


def parse_config(text):
    sections = _sections(text)
    if "family" not in sections or "sweep" not in sections:
        raise ConfigError("config needs [family] and [sweep] sections")
    family = _parse_family(sections["family"])
    sweep = dict(sections["sweep"])
    if len(sweep) != len(sections["sweep"]):
        raise ConfigError("duplicate sweep keys")
    missing = {"n", "k", "a"} - set(sweep)
    if missing:
        raise ConfigError(f"sweep section is missing {sorted(missing)}")
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
