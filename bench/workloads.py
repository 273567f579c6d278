"""Benchmark workloads: the config each one hands to the CLI, the CLI calls
it makes, and the correctness gates its outputs must pass.

Every workload is a closed loop: one CLI invocation at a time from one
process.  The config text written here is the only input the program
receives; --seed becomes the config's `seed` line.

Reference values are fixed here rather than recomputed by the program, so a
change that breaks an estimator cannot also move its own yardstick:

  * Scheffe TV values were computed by `tv_scheffe` at the seed commit
    (quadrature error estimate below 1e-8).
  * joint_mc on i.i.d. Gamma(3, 1) estimates the same TV as Scheffe
    (the block sum is sufficient), so it is held to the Scheffe values.
  * sum_mc on normal members has a closed form, see `normal_scale_l1`.
"""

import math
from dataclasses import dataclass

GAMMA_ALT_FAMILY = """kind = gamma
scale = 1.0
shapes = 2.5, 4.0"""

GAMMA_IID_FAMILY = """kind = gamma
scale = 1.0
shapes = 3.0"""

NORMAL_2D_FAMILY = """kind = normal
means = 0;0, 0.5;0.5
cov = 1;0.2|0.2;2"""

# tv_scheffe at k = ceil(sqrt(n)), a = 6, keyed by n.
SCHEFFE_GAMMA_ALT = {
    100: 0.05163708867900549,
    200: 0.03743974922838445,
    400: 0.024975876226826114,
    1600: 0.012289516608601643,
    3200: 0.008680816839122443,
    6400: 0.006096563701238161,
    12800: 0.00433397875893628,
}
SCHEFFE_GAMMA_IID = {
    100: 0.05169153019579281,
    200: 0.038069797022622316,
    400: 0.024988654406189765,
    800: 0.017950310188965493,
    1600: 0.012292618535169962,
}

THETA_RTOL = 1e-12
# Twice the quadrature error gate of tv_scheffe plus rounding headroom.
SCHEFFE_ATOL = 1e-7
MC_SIGMAS = 5.0
EXPONENT_TOL = 0.1


def normal_scale_l1(k, n, d):
    """L1 distance between the conditioned block sum and the tilted block sum
    for normal members with a shared covariance.

    Given S = n a, the block sum keeps the tilted block mean and its
    covariance shrinks by c = 1 - k/n.  After whitening this is the L1
    distance between N(0, I_d) and N(0, c I_d); with r0^2 where the two
    densities cross and Q the chi-square(d) survival function it equals
    2 (Q(r0^2) - Q(r0^2 / c)).  Only d = 2 is needed, where Q(x) = e^{-x/2}.
    """
    if d != 2:
        raise ValueError("closed form implemented for d = 2")
    c = 1.0 - k / n
    r0_sq = d * math.log(1.0 / c) / (1.0 / c - 1.0)
    return 2.0 * (math.exp(-r0_sq / 2.0) - math.exp(-r0_sq / (2.0 * c)))


@dataclass(frozen=True)
class Size:
    n: tuple
    samples: int
    check_n: int = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json records why each was chosen."""

    name: str
    family: str
    a: str
    method: str
    threads: int
    sizes: dict
    # Largest std_error * sqrt(samples) / tv seen at the seed commit, times
    # 1.25: drawing half the samples raises it by 1.41 and trips the gate.
    max_mc_cv: float = 0.0
    check: bool = False
    # (n, k, d) -> the TV value the sweep row must reproduce.
    reference: object = None

    def config_text(self, seed, out_dir, size="full"):
        sz = self.sizes[size]
        return (
            f"[family]\n{self.family}\n\n[sweep]\n"
            f"n = {', '.join(str(n) for n in sz.n)}\n"
            f"k = sqrt\na = {self.a}\nmethod = {self.method}\n"
            f"samples = {sz.samples}\nseed = {seed}\nout = {out_dir}\n"
        )

    def calls(self, config_path, size="full", threads=None):
        """CLI argument lists, run in order in one interpreter."""
        calls = []
        if self.check:
            calls.append(["check", "--config", config_path, "--n", str(self.sizes[size].check_n)])
        threads = self.threads if threads is None else threads
        calls.append(["sweep", "--config", config_path, "--threads", str(threads)])
        return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scheffe_gamma_large_n",
            family=GAMMA_ALT_FAMILY,
            a="6.0",
            method="scheffe",
            threads=1,
            sizes={"full": Size((1600, 3200, 6400, 12800), 1), "tiny": Size((100, 200, 400), 1)},
            reference=lambda n, k, d: SCHEFFE_GAMMA_ALT[n],
        ),
        Workload(
            name="sum_mc_normal2d",
            family=NORMAL_2D_FAMILY,
            a="0.6;0.6",
            method="sum_mc",
            threads=2,
            sizes={"full": Size((100, 200, 400, 800), 10**6), "tiny": Size((100, 200, 400), 20_000)},
            max_mc_cv=1.25 * 0.886,
            reference=lambda n, k, d: normal_scale_l1(k, n, d),
        ),
        Workload(
            name="validate_gamma",
            family=GAMMA_IID_FAMILY,
            a="6.0",
            method="joint_mc",
            threads=1,
            sizes={
                "full": Size((200, 400, 800, 1600), 10**5, check_n=200),
                "tiny": Size((100, 200, 400), 5_000, check_n=20),
            },
            max_mc_cv=1.25 * 1.041,
            check=True,
            reference=lambda n, k, d: SCHEFFE_GAMMA_IID[n],
        ),
    )
}


def _floats(text):
    return [float(v) for v in text.split(";")]


def read_results(text):
    """results.csv rows keyed by n."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows[int(row["n"])] = row
    return rows


def gate(workload, size, results_text, call_outcomes, oracle_thetas):
    """Correctness gates for one repetition.

    call_outcomes holds (argv, exit code, stdout) per CLI call; an exit code
    of None means the call raised.  oracle_thetas maps n to the closed-form
    tilt.  Returns (attempted, failures, mc_rel_se): every CLI call and every
    expected sweep row is one operation, and failures lists one message per
    failed operation.
    """
    failures = []
    for argv, code, stdout in call_outcomes:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if argv[0] == "check":
            lines = [ln for ln in stdout.splitlines() if ln.strip()]
            if len(lines) < 5 or any(ln.split()[1:2] != ["PASS"] for ln in lines):
                problems.append("assumption report has a non-PASS entry")
        if argv[0] == "sweep":
            exps = [float(tok.split("=")[1]) for tok in stdout.split() if tok.startswith("exponent=")]
            if not exps:
                problems.append("no scaling exponent printed")
            elif abs(exps[0] - 1.0) > EXPONENT_TOL:
                problems.append(f"scaling exponent {exps[0]} not within {EXPONENT_TOL} of 1")
        if problems:
            failures.append(f"{argv[0]}: {'; '.join(problems)}")

    rows = read_results(results_text) if results_text else {}
    sz = workload.sizes[size]
    mc_rel_se = 0.0
    for n in sz.n:
        row = rows.get(n)
        if row is None:
            failures.append(f"row n={n}: missing from results.csv")
            continue
        problems = []
        k = math.ceil(math.sqrt(n))
        theta = _floats(row["theta"])
        oracle = oracle_thetas[n]
        scale = max(abs(v) for v in oracle)
        if int(row["k"]) != k or row["method"] != workload.method:
            problems.append(f"k={row['k']} method={row['method']}")
        elif max(abs(t - o) for t, o in zip(theta, oracle)) > THETA_RTOL * scale:
            problems.append(f"theta {theta} differs from oracle {oracle}")
        tv = float(row["tv"])
        ref = workload.reference(n, k, len(theta))
        if workload.method == "scheffe":
            if abs(tv - ref) > SCHEFFE_ATOL:
                problems.append(f"tv {tv!r} differs from reference {ref!r}")
        else:
            se = float(row["std_error"])
            if not se > 0.0 or abs(tv - ref) > MC_SIGMAS * se:
                problems.append(f"tv {tv!r} +- {se!r} not within {MC_SIGMAS} se of {ref!r}")
            rel_se = se / tv if tv > 0.0 else math.inf
            mc_rel_se = max(mc_rel_se, rel_se)
            if rel_se * math.sqrt(sz.samples) > workload.max_mc_cv:
                problems.append(f"std_error/tv {rel_se:.3g} above the accuracy ceiling")
        if problems:
            failures.append(f"row n={n}: {'; '.join(problems)}")
    return len(call_outcomes) + len(sz.n), failures, mc_rel_se
