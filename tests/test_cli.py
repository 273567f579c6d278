"""Command-line interface: subcommand behaviour and exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tiltedsums
from tiltedsums.cli import main
from tiltedsums.tv import df_gamma_constant

GAMMA_CFG = """
[family]
kind = gamma
scale = 1.0
shapes = 3.0

[sweep]
n = 50, 80, 120
k = sqrt
a = 6.0
method = {method}
samples = 5000
seed = 3
out = {out}
"""


@pytest.fixture
def cfg_path(tmp_path):
    def write(method="scheffe", out=None, samples=5000):
        out = out or str(tmp_path / "results")
        path = tmp_path / "exp.cfg"
        path.write_text(GAMMA_CFG.format(method=method, out=out).replace("samples = 5000", f"samples = {samples}"))
        return str(path)

    return write


def test_tilt_subcommand(cfg_path, capsys):
    assert main(["tilt", "--config", cfg_path(), "--n", "50"]) == 0
    out = capsys.readouterr().out
    assert "theta=0.5 " in out
    assert "converged=True" in out


def test_tv_subcommand(cfg_path, capsys):
    assert main(["tv", "--config", cfg_path(), "--n", "50", "--k", "5", "--a", "6.0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,k,a,method,value,std_error,seconds"
    fields = lines[1].split(",")
    assert fields[:4] == ["50", "5", "6", "scheffe"]
    assert 0.0 < float(fields[4]) < 1.0
    # a far above the mean: theta lies 3e-6 from the domain boundary, and the
    # gamma TV does not depend on a
    assert main(["tv", "--config", cfg_path(), "--n", "400", "--k", "20", "--a", "1e6"]) == 0
    fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert float(fields[4]) == pytest.approx(0.0249886544, abs=1e-10)


def test_edgeworth_subcommand(cfg_path, tmp_path):
    out = tmp_path / "edge.csv"
    code = main(
        ["edgeworth", "--config", cfg_path(), "--count", "64", "--grid", "0:4:5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,exact,order0,order1,abs_err0,abs_err1"
    assert len(lines) == 6
    # order-1 beats order-0 at the quartile points of a skewed sum
    row = lines[2].split(",")
    assert float(row[5]) < float(row[4])


def test_ratio_subcommand(cfg_path, capsys):
    code = main(["ratio", "--config", cfg_path(), "--n", "100", "--k", "2", "--a", "6.0",
                 "--t-grid", "0:2:3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,t_tilde,t_sharp,exact,edgeworth"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.0, abs=1e-12)
    assert float(first[3]) == pytest.approx(1.0, rel=0.05)


def test_check_subcommand(cfg_path, tmp_path, capsys):
    csv_out = tmp_path / "report.csv"
    code = main(["check", "--config", cfg_path(), "--n", "20", "--out", str(csv_out)])
    assert code == 0
    text = capsys.readouterr().out
    for name in ("supp", "cv", "am4", "cf_decay", "cf3", "uf"):
        assert name in text
    assert "FAIL" not in text
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "assumption,passed,witness1,witness2"


def test_sweep_subcommand_writes_reports(cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["sweep", "--config", cfg_path(out=str(out_dir))]) == 0
    results = (out_dir / "results.csv").read_text()
    assert results.startswith("n,k,a,theta,method,tv,std_error,seconds\n")
    assert len(results.strip().split("\n")) == 4
    assert (out_dir / "scaling.csv").exists()
    assert "scaling exponent=" in capsys.readouterr().out


def test_sweep_deterministic_across_thread_counts(cfg_path, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    path = cfg_path(method="sum_mc")
    assert main(["sweep", "--config", path, "--threads", "1", "--out", str(out1)]) == 0
    assert main(["sweep", "--config", path, "--threads", "4", "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_sweep_timing_flag_breaks_zero_seconds(cfg_path, tmp_path):
    out_dir = tmp_path / "timed"
    assert main(["sweep", "--config", cfg_path(out=str(out_dir)), "--timing"]) == 0
    rows = (out_dir / "results.csv").read_text().strip().split("\n")[1:]
    assert any(float(r.split(",")[-1]) > 0.0 for r in rows)


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[family]\nkind = gamma\nshapes = 3.0\n[sweep]\nn = 10\nk = 10\na = 6.0\n")
    assert main(["sweep", "--config", str(bad)]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_row_failure_exit_code(tmp_path):
    # a = -1 passes config validation (dimension only) but every row fails
    # at run time, so sweep finishes with exit code 1
    bad = tmp_path / "rowfail.cfg"
    bad.write_text(
        "[family]\nkind = gamma\nshapes = 3.0\n"
        f"[sweep]\nn = 10, 20\nk = 2\na = -1.0\nout = {tmp_path / 'rf'}\n"
    )
    assert main(["sweep", "--config", str(bad)]) == 1
    results = (tmp_path / "rf" / "results.csv").read_text()
    assert results == "n,k,a,theta,method,tv,std_error,seconds\n"


def test_failed_rows_written_to_failures_csv(tmp_path, capsys):
    # a = -1 lies outside the Gamma support (0, inf), so its rows fail; the
    # good rows' results.csv is byte-identical to a sweep without that target
    cfg = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "gamma_iid_sweep.cfg"
    both, good = tmp_path / "both.cfg", tmp_path / "good.cfg"
    both.write_text(cfg.read_text().replace("a = 6.0", "a = 6.0, -1"))
    good.write_text(cfg.read_text())
    assert main(["sweep", "--config", str(both), "--out", str(tmp_path / "both")]) == 1
    assert f"wrote {tmp_path / 'both' / 'failures.csv'}" in capsys.readouterr().out
    assert main(["sweep", "--config", str(good), "--out", str(tmp_path / "good")]) == 0
    assert "failures.csv" not in capsys.readouterr().out
    results = [(tmp_path / d / "results.csv").read_bytes() for d in ("both", "good")]
    assert results[0] == results[1]
    lines = (tmp_path / "both" / "failures.csv").read_text().strip().split("\n")
    assert lines[0] == "index,n,k,a,error"
    assert [line.split(",")[:4] for line in lines[1:]] == [
        ["1", "200", "15", "-1"], ["3", "400", "20", "-1"], ["5", "800", "29", "-1"], ["7", "1600", "40", "-1"],
    ]
    # the message holds a comma, so the CSV quotes it
    assert all(line.endswith(',"target mean a=-1.0 outside (0, inf) for gamma members"') for line in lines[1:])
    # rerun into the same directory without failures: the stale file goes
    assert main(["sweep", "--config", str(good), "--out", str(tmp_path / "both")]) == 0
    assert not (tmp_path / "both" / "failures.csv").exists()


def test_check_with_explicit_box(cfg_path, capsys):
    assert main(["check", "--config", cfg_path(), "--n", "10", "--box=-1.0:0.9"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_box_dimension_mismatch_exits_2(tmp_path, caplog):
    path = tmp_path / "normal2d.cfg"
    path.write_text("[family]\nkind = normal\nmeans = 0;0\ncov = 1;0|0;1\n[sweep]\nn = 20\nk = 1\na = 0.5;0.5\n")
    assert main(["check", "--config", str(path), "--n", "20", "--box", "0:1"]) == 2
    assert any("dimensional" in r.getMessage() for r in caplog.records if r.levelname == "ERROR")


def test_seed_override_changes_mc_results(cfg_path, tmp_path):
    out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    path = cfg_path(method="sum_mc")
    main(["sweep", "--config", path, "--out", str(out1)])
    main(["sweep", "--config", path, "--out", str(out2), "--seed", "77"])
    main(["sweep", "--config", path, "--out", str(out3), "--seed", "3"])
    base = (out1 / "results.csv").read_bytes()
    assert (out2 / "results.csv").read_bytes() != base
    assert (out3 / "results.csv").read_bytes() == base  # config seed was 3


# (config method, config samples, argv after the subcommand's --config, exit code)
BAD_INPUTS = [
    ("scheffe", 5000, ["tv", "--n", "50", "--k", "50", "--a", "6.0"], 2),
    ("scheffe", 5000, ["tv", "--n", "50", "--k", "-1", "--a", "6.0"], 2),
    ("scheffe", 5000, ["ratio", "--n", "50", "--k", "0", "--a", "6.0"], 2),
    ("scheffe", 5000, ["tv", "--n", "50", "--k", "5", "--a", "nan"], 2),
    ("scheffe", 5000, ["tilt", "--a", "inf"], 2),
    ("scheffe", 5000, ["tv", "--n", "50", "--k", "5", "--a", "6.0", "--seed", "-1"], 2),
    ("scheffe", 5000, ["tv", "--n", "50", "--k", "5", "--a", "6.0", "--method", "sum_mc", "--samples", "1"], 2),
    ("scheffe", 1, ["tv", "--n", "50", "--k", "5", "--a", "6.0", "--method", "joint_mc"], 2),
    ("sum_mc", 1, ["sweep"], 2),
    ("scheffe", 5000, ["tv", "--n", "400", "--k", "20", "--a", "0"], 1),
    ("scheffe", 5000, ["check", "--n", "20", "--box", "abc"], 2),
    ("scheffe", 5000, ["check", "--n", "20", "--box", "0.5"], 2),
    ("scheffe", 5000, ["check", "--n", "20", "--box", "0.9:0.1"], 2),
    ("scheffe", 5000, ["check", "--n", "20", "--box", "0:2"], 2),
    ("scheffe", 5000, ["edgeworth", "--count", "64", "--a", "0", "--grid", "0:4:3"], 1),
    ("scheffe", 5000, ["edgeworth", "--grid=-6:6:-1"], 2),
    ("scheffe", 5000, ["ratio", "--n", "50", "--k", "5", "--a", "6.0", "--t-grid=-3:3:-1"], 2),
    ("scheffe", 5000, ["check", "--n", "20", "--beta", "0"], 2),
    ("scheffe", 5000, ["check", "--n", "20", "--beta=-1"], 2),
    ("scheffe", 5000, ["check", "--n", "20", "--beta", "nan"], 2),
    ("scheffe", 5000, ["tilt", "--a", "6;7"], 2),
    ("scheffe", 5000, ["tv", "--n", "50", "--k", "5", "--a", "6;7"], 2),
    ("scheffe", 5000, ["ratio", "--n", "50", "--k", "5", "--a", "6;7"], 2),
    ("scheffe", 5000, ["edgeworth", "--a", "6;7"], 2),
    ("scheffe", 5000, ["edgeworth", "--theta", "0.1;0.2"], 2),
    # each subcommand takes only the flags it reads
    ("scheffe", 5000, ["tilt", "--out", "x"], 2),
    ("scheffe", 5000, ["tilt", "--seed", "1"], 2),
    ("scheffe", 5000, ["edgeworth", "--threads", "2"], 2),
    ("scheffe", 5000, ["ratio", "--n", "50", "--k", "5", "--a", "6.0", "--seed", "1"], 2),
    ("scheffe", 5000, ["tv", "--n", "50", "--k", "5", "--a", "6.0", "--threads", "2"], 2),
    ("scheffe", 5000, ["check", "--n", "20", "--seed", "1"], 2),
    # a family of fewer than one member: a config error line, not a traceback
    ("scheffe", 5000, ["tilt", "--n", "0"], 2),
    ("scheffe", 5000, ["check", "--n", "-1"], 2),
    ("scheffe", 5000, ["edgeworth", "--count", "0"], 2),
    ("scheffe", 5000, ["tv", "--n", "50", "--k", "0", "--a", "6.0"], 2),
    # a worker count below one is malformed, like --samples below two
    ("scheffe", 5000, ["sweep", "--threads", "0"], 2),
    ("scheffe", 5000, ["sweep", "--threads", "-3"], 2),
]


@pytest.mark.parametrize("method,samples,argv,code", BAD_INPUTS)
def test_bad_inputs_exit_with_message(method, samples, argv, code, cfg_path, capsys, caplog):
    path = cfg_path(method=method, samples=samples)
    try:
        result = main([argv[0], "--config", path, *argv[1:]])
    except SystemExit as exc:
        result = exc.code
    assert result == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    logged = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert "error:" in err or logged


# [method, samples, argv, exit code, stdout, stderr, logged warnings and
# errors] of every BAD_INPUTS argv up to --k 0, then of no argument, -h, a
# misspelt subcommand and each subcommand's -h, as the parser that built all
# six subcommands printed them at 80 columns; argv omits "--config <file>"
# after the subcommand, and <tmp> stands for the test's directory
RECORDED_CLI_TEXT = json.loads((Path(__file__).parent / "cli_messages.json").read_text())


@pytest.mark.parametrize("method,samples,argv,code,stdout,stderr,logged", RECORDED_CLI_TEXT,
                         ids=["_".join(entry[2]) or "no-argument" for entry in RECORDED_CLI_TEXT])
def test_cli_text_matches_the_all_subcommand_parser(method, samples, argv, code, stdout, stderr, logged,
                                                    cfg_path, tmp_path, capsys, caplog, monkeypatch):
    # building one subparser changes no help or error byte, and the usage
    # line still lists all six subcommands
    monkeypatch.setenv("COLUMNS", "80")
    if method is not None:
        argv = [argv[0], "--config", cfg_path(method=method, samples=samples), *argv[1:]]
    try:
        result = main(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    texts = [captured.out, captured.err,
             *(r.getMessage() for r in caplog.records if r.levelname in ("WARNING", "ERROR"))]
    out, err, *messages = (text.replace(str(tmp_path), "<tmp>") for text in texts)
    assert (result, out, err, messages) == (code, stdout, stderr, logged)


@pytest.mark.parametrize("argv,built", [
    (["tilt", "--n", "50"], 1),
    (["sweep", "--threads", "0"], 1),
    (["tv", "-h"], 1),
    (["-h"], 6),
    (["tvv"], 6),
    ([], 6),
])
def test_main_builds_the_named_subcommand_only(argv, built, cfg_path, capsys, monkeypatch):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    if argv and argv[0] in ("tilt", "sweep"):
        argv = [argv[0], "--config", cfg_path(), *argv[1:]]
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert len(names) == built
    if built == 1:
        assert names == argv[:1]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_sweep_threads_below_one_is_an_argument_error(threads, cfg_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg_path(), "--threads", threads])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"tiltedsums: error: argument --threads: {threads} must be at least 1\n")
    assert not (tmp_path / "results").exists()


# one-row configs: (family section, a); n = 200 and k = 15
ONE_ROW_FAMILIES = {
    "gamma_iid": ("kind = gamma\nscale = 1.0\nshapes = 3.0", "6.0"),
    "normal2d": ("kind = normal\nmeans = 0;0, 0.5;0.5\ncov = 1;0.2|0.2;2", "0.6;0.6"),
}


@pytest.mark.parametrize("method", ["sum_mc", "joint_mc"])
@pytest.mark.parametrize("name", list(ONE_ROW_FAMILIES))
def test_tv_prints_row_0_of_the_one_row_sweep(name, method, tmp_path, capsys):
    family, a = ONE_ROW_FAMILIES[name]
    path = tmp_path / "one_row.cfg"
    path.write_text(f"[family]\n{family}\n\n[sweep]\nn = 200\nk = 15\na = {a}\nmethod = {method}\n"
                    f"samples = 20000\nseed = 7\nout = {tmp_path / 'sweep'}\n")
    assert main(["sweep", "--config", str(path)]) == 0
    row = (tmp_path / "sweep" / "results.csv").read_text().strip().split("\n")[1].split(",")
    capsys.readouterr()
    assert main(["tv", "--config", str(path), "--n", "200", "--k", "15", "--a", a, "--method", method]) == 0
    line = capsys.readouterr().out.strip().split("\n")[1].split(",")
    # tv: n,k,a,method,value,std_error,seconds; results.csv: n,k,a,theta,method,tv,std_error,seconds
    assert line[:4] == [row[0], row[1], row[2], row[4]]
    assert line[4:6] == row[5:7]


# configs whose family parameters, numbers or keys are invalid: (family section, a)
BAD_CONFIGS = {
    "gamma-shape": ("kind = gamma\nscale = 1.0\nshapes = 1.5", "6.0"),
    "gamma-scale": ("kind = gamma\nscale = -1.0\nshapes = 3.0", "6.0"),
    "normal-cov": ("kind = normal\nmeans = 0;0\ncov = 1;2|2;1", "0;0"),
    "normal-means": ("kind = normal\nmeans = 0;0, 1\ncov = 1;0|0;1", "0;0"),
    "nan-target": ("kind = gamma\nscale = 1.0\nshapes = 3.0", "nan"),
    "inf-scale": ("kind = gamma\nscale = inf\nshapes = 3.0", "6.0"),
    "inf-shape": ("kind = gamma\nscale = 1.0\nshapes = inf", "6.0"),
    # a member line, a list generator, a cov list of the wrong length, and
    # keys or sections the format does not name
    "member-line": ("kind = normal\nmeans = 0;0\ncov = 1;0|0;1\nmember = normal mean=0;0 cov=1;0|0;1", "0;0"),
    "member-line-no-kind": ("member = gamma shape=3 scale=1", "6.0"),
    "linspace-shapes": ("kind = gamma\nscale = 1.0\nshapes = linspace(2.5, 4.0, 4)", "6.0"),
    "normal-cov-list-length": ("kind = normal\nmeans = 0;0, 0.5;-0.5, 1;2\ncov = 1;0|0;1, 2;0|0;2", "0;0"),
    "gamma-scales-key": ("kind = gamma\nscales = 2\nshapes = 3.0", "6.0"),
    "normal-covs-key": ("kind = normal\nmeans = 0;0\ncov = 1;0|0;1\ncovs = 4", "0;0"),
    "sweep-methd-key": ("kind = gamma\nscale = 1.0\nshapes = 3.0\n\n[sweep]\nmethd = sum_mc", "6.0"),
    "unknown-section": ("kind = gamma\nscale = 1.0\nshapes = 3.0\n\n[output]\nformat = csv", "6.0"),
}


@pytest.mark.parametrize("command", ["tilt", "tv", "check", "sweep"])
@pytest.mark.parametrize("name", list(BAD_CONFIGS))
def test_bad_family_config_exits_2(name, command, tmp_path, capsys, caplog):
    family, a = BAD_CONFIGS[name]
    path = tmp_path / "bad.cfg"
    path.write_text(f"[family]\n{family}\n\n[sweep]\nn = 50, 80\nk = sqrt\na = {a}\n"
                    f"out = {tmp_path / 'out'}\n")
    target = "0;0" if "normal" in family else "6.0"
    extra = ["--n", "50", "--k", "5", "--a", target] if command == "tv" else []
    assert main([command, "--config", str(path), *extra]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert any("config error" in r.getMessage() for r in caplog.records if r.levelname == "ERROR")
    assert not (tmp_path / "out").exists()


def test_check_target_outside_the_support_exits_1(cfg_path, capsys, caplog):
    # the default theta box comes from the sweep's tilts, which fail here:
    # a = -1 lies outside the Gamma support (0, inf)
    path = cfg_path()
    with open(path) as fh:
        text = fh.read().replace("a = 6.0", "a = -1")
    with open(path, "w") as fh:
        fh.write(text)
    assert main(["check", "--config", path, "--n", "20"]) == 1
    assert "FAIL" not in capsys.readouterr().out
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["target mean a=-1.0 outside (0, inf) for gamma members"]


SHIPPED = Path(__file__).resolve().parents[1] / "scripts" / "configs"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_target_exits_1_without_overflow_warning(capsys, caplog):
    # |a| = 1e300: the tilt solver's norms stay finite and no step is accepted
    cfg = str(SHIPPED / "gamma_iid_sweep.cfg")
    assert main(["tilt", "--config", cfg, "--a", "1e300"]) == 1
    assert capsys.readouterr().out == "theta=0 residual_norm=1.000000e+300 iterations=0 converged=False\n"
    cfg = str(SHIPPED / "normal_df.cfg")
    assert main(["tv", "--config", cfg, "--n", "500", "--k", "1", "--a", "1e300"]) == 1
    assert any(r.levelname == "ERROR" for r in caplog.records)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["sum_mc", "joint_mc"])
def test_overflowing_normal_sum_exits_1_without_overflow_warning(method, tmp_path, caplog):
    # the rest sum's covariance, about 1e10 times 1e300, is inf: the
    # conditioning raises DegenerateCovarianceError where it is used, and
    # says that the matrix is not finite, not that it is singular
    path = tmp_path / "huge_cov.cfg"
    path.write_text(
        "[family]\nkind = normal\nmeans = 0;0, 0.5;0.5\ncov = 1e300;0|0;1e300\n\n"
        "[sweep]\nn = 100\nk = sqrt\na = 0.6;0.6\nmethod = sum_mc\nsamples = 1000\nseed = 11\n"
    )
    argv = ["tv", "--config", str(path), "--n", "10000000000", "--k", "10", "--a", "0.6;0.6", "--method", method]
    assert main(argv) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].endswith("failed: matrix not finite: a sum or product overflowed")


EPS = sys.float_info.epsilon


def _csv_rows(capsys, argv):
    assert main(argv) == 0
    return [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", ["1e7", "1e16", "1e300"])
def test_far_gamma_tv_prints_the_shipped_target_value(a, capsys):
    # the members tilted to a are Gamma(3, a / 3) however far a lies, and
    # Scheffe reads them in scale-free coordinates: only the four ends of the
    # two interval masses move, each by a few ulps in its log coordinate
    # (n a, u, their ratio and the log), and a mass moves by that times its
    # density there, below sqrt(K_x / (2 pi)), K_x = 60 the block's shape
    # (the roots' own rounding cancels to first order, rho being 1 there):
    # 64 eps sqrt(K_x) covers the four ends with a margin of four
    cfg = str(SHIPPED / "gamma_iid_sweep.cfg")
    argv = ["tv", "--config", cfg, "--n", "400", "--k", "20", "--a"]
    (shipped,), (far,) = _csv_rows(capsys, argv + ["6.0"]), _csv_rows(capsys, argv + [a])
    assert abs(float(far[4]) - float(shipped[4])) <= 64.0 * EPS * math.sqrt(60.0)
    assert far[5] == "0"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_gamma_edgeworth_prints_the_shipped_target_csv(capsys):
    # the normalized sum of 64 members tilted to a is the same law at every
    # a; its exact density exp(L) sums terms of size at most K (|log(K u)| +
    # 1) (K = 192, u = a / 3), and each rounds to a few ulps of its size, so
    # the exact column moves by at most 4 eps K (2 |log(K u)| + 2) relative
    # at either target; the Edgeworth columns read the scale-free skewness
    # 2 / sqrt(3), which rounds to a few ulps
    cfg = str(SHIPPED / "gamma_iid_sweep.cfg")
    argv = ["edgeworth", "--config", cfg, "--count", "64", "--grid", "0:4:3", "--a"]
    shipped, far = _csv_rows(capsys, argv + ["6.0"]), _csv_rows(capsys, argv + ["1e16"])
    shape = 192.0
    bound = sum(4.0 * EPS * shape * (2.0 * abs(math.log(shape * a / 3.0)) + 2.0) for a in (6.0, 1e16))
    for want, got in zip(shipped, far):
        want, got = [float(v) for v in want], [float(v) for v in got]
        x, exact, order0, order1, err0, err1 = want
        assert got[0] == x
        assert abs(got[1] - exact) <= bound * exact
        assert abs(got[2] - order0) <= 8.0 * EPS * order0 and abs(got[3] - order1) <= 8.0 * EPS * order1
        assert abs(got[4] - err0) <= bound * exact + 8.0 * EPS * order0
        assert abs(got[5] - err1) <= bound * exact + 8.0 * EPS * order1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [["edgeworth", "--count", "64", "--grid", "0:4:3"], ["ratio", "--n", "400", "--k", "20"]])
def test_gamma_target_near_the_float_range_exits_1_without_overflow_warning(argv, capsys, caplog):
    # at a = 1e300 the tilted scale is 3.3e299, whose square, the covariance
    # that normalizes the sum, is inf: a matrix that is not finite, exit 1
    cfg = str(SHIPPED / "gamma_iid_sweep.cfg")
    assert main([argv[0], "--config", cfg, *argv[1:], "--a", "1e300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["matrix not finite: a sum or product overflowed"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_gamma_target_sweep_writes_theta_minus_inf_without_overflow_warning(tmp_path, caplog):
    # at a = 1e-320 the tilted scale a / 3 is subnormal but positive, and
    # theta = (1 - 3 / a) / 1 lies past the float range: -inf, silently
    cfg = (SHIPPED / "gamma_iid_sweep.cfg").read_text()
    path = tmp_path / "tiny_target.cfg"
    path.write_text(cfg.replace("a = 6.0", "a = 1e-320"))
    assert main(["sweep", "--config", str(path), "--threads", "1", "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "results.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 4 and not any(r.levelname == "ERROR" for r in caplog.records)
    for row in rows:
        fields = row.split(",")
        assert fields[3] == "-inf" and 0.0 < float(fields[5]) < 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "shapes,n,a,total",
    [("1e300", "10000000000", "6.0", "inf"), ("3.0", "10", "5e-324", "30")],
    ids=["shape_sum_overflows", "target_underflows"],
)
def test_gamma_scale_rounding_to_zero_is_out_of_domain(shapes, n, a, total, tmp_path, capsys, caplog):
    # the tilted scale a / kbar is 0 where the shapes sum past the float
    # range or a / kbar underflows: an OutOfDomainError naming the target
    # and the shape sum, exit 1
    cfg = (SHIPPED / "gamma_iid_sweep.cfg").read_text()
    path = tmp_path / "scale_zero.cfg"
    path.write_text(cfg.replace("shapes = 3.0", f"shapes = {shapes}"))
    assert main(["tv", "--config", str(path), "--n", n, "--k", "1", "--a", a]) == 1
    assert capsys.readouterr().out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert errors[0].endswith(f"failed: target mean a={a} over shapes summing to {total} gives gamma scale 0")
    with pytest.raises(tiltedsums.OutOfDomainError):
        tiltedsums.gamma_family([float(shapes)], 1.0).build(int(n)).tilt_to_mean(float(a))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_gamma_scale_tv_prints_the_unit_scale_value(tmp_path, capsys):
    # Gamma(3, 1e300) members tilted to mean 6 are Gamma(3, 2), as at scale
    # 1: the closed-form law squares no scale, and the row is the same
    cfg = SHIPPED / "gamma_iid_sweep.cfg"
    huge = tmp_path / "huge_scale.cfg"
    huge.write_text(cfg.read_text().replace("scale = 1.0", "scale = 1e300"))
    argv = ["--n", "50", "--k", "5", "--a", "6.0"]
    rows = [_csv_rows(capsys, ["tv", "--config", str(path), *argv]) for path in (cfg, huge)]
    assert [row[:6] for row in rows[0]] == [row[:6] for row in rows[1]]
    assert float(rows[0][0][4]) > 0.0


# a huge gamma scale (or box end) squares past the float range
OVERFLOWS = {
    "tilt-huge-scale": (True, ["tilt"]),
    "check-far-box": (False, ["check", "--box=-1e300:0.5"]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(OVERFLOWS))
def test_gamma_overflow_exits_1_without_traceback(name, tmp_path, capsys, caplog):
    huge_scale, argv = OVERFLOWS[name]
    cfg = SHIPPED / "gamma_iid_sweep.cfg"
    if huge_scale:
        text = cfg.read_text().replace("scale = 1.0", "scale = 1e300")
        assert "scale = 1e300" in text
        cfg = tmp_path / "huge_scale.cfg"
        cfg.write_text(text)
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    if huge_scale:
        # an inf Hessian is singular, not a converged zero step
        assert captured.out == ""
        assert len(errors) == 1 and "mean cgf Hessian is numerically singular" in errors[0]
    else:
        assert "cv        FAIL  lambda_min=0  " in captured.out
        assert errors == []


def test_cli_import_loads_neither_optimize_nor_integrate():
    # nor any other scipy module: the runtime needs numpy only
    code = "import sys, tiltedsums.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(tiltedsums.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_normal_check_imports_no_numpy_ma():
    # the checks read the family's rows as they are: no np.unique, whose
    # first call imports numpy.ma
    cfg = SHIPPED / "normal_df.cfg"
    code = ("import sys; from tiltedsums.cli import main; before = set(sys.modules); "
            f"code = main(['check', '--config', {str(cfg)!r}]); "
            "print(code, sorted(m for m in set(sys.modules) - before if m.split('.')[:2] == ['numpy', 'ma']))")
    src = str(Path(tiltedsums.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "0 []"


@pytest.mark.parametrize("argv", [["tilt"], ["check"]])
def test_a_trillion_members_print_what_two_do(argv):
    # the alternating family's rows and counts give the mean shape 3.25
    # exactly at every even n, and the checks read the two rows, so the
    # tilt line and the report at n = 1e12 are those at n = 2
    cfg = str(SHIPPED / "gamma_alternating_sweep.cfg")
    src = str(Path(tiltedsums.__file__).resolve().parents[1])
    outputs = [
        subprocess.run([sys.executable, "-m", "tiltedsums.cli", *argv, "--config", cfg, "--n", n],
                       capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        for n in ("2", "1000000000000")
    ]
    assert [(out.returncode, out.stderr) for out in outputs] == [(0, "")] * 2
    assert outputs[0].stdout and outputs[1].stdout == outputs[0].stdout


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["tv", "ratio"])
def test_gamma_rows_at_a_trillion_members_need_no_spacing_guard(command, capsys):
    # Gamma pairs compute relative to the sum, so the float-resolution guard
    # of the Normal pair methods never reaches them: at n = 1e12, k = 1000 the
    # Scheffe row gives n TV / k within about 0.12 / k of 2 phi(1)
    cfg = str(SHIPPED / "gamma_alternating_sweep.cfg")
    argv = [command, "--config", cfg, "--n", "1000000000000", "--k", "1000", "--a", "6.0"]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    if command == "tv":
        assert abs(1e12 * float(rows[0][4]) / 1000 - df_gamma_constant()) <= 1e-3
    else:
        assert len(rows) == 61 and all(math.isfinite(float(v)) for row in rows for v in row)
