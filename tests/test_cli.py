"""Tests for the experiment harness: configs, CSV/JSON output, exit codes."""

import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from poslinops import (
    BoundReport,
    CompactRegion,
    CorpusEntry,
    Function2D,
    StancuParams,
    __version__,
    check_theorem_5_2,
    check_theorem_5_3,
    corpus_lookup,
    operator_rho_norm_bound,
    sample_lattice,
)
from poslinops import cli
from poslinops.cli import main, resolve_config


def run(tmp_path, *args):
    out = tmp_path / "report.csv"
    code = main(list(args) + ["--out", str(out)])
    return code, out


def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def sidecar(path):
    with open(os.path.splitext(str(path))[0] + ".json") as fh:
        return json.load(fh)


def test_eval_command(tmp_path):
    code, out = run(tmp_path, "eval", "--function", "linear",
                    "--x", "0.5", "--y", "1.0", "--m", "20", "--n", "20")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["m", "n", "x", "y", "value"]
    assert float(rows[0][4]) == pytest.approx(1.5, abs=1e-9)
    side = sidecar(out)
    assert side["version"] == __version__
    assert side["error"] is None


def test_moments_command(tmp_path):
    code, out = run(tmp_path, "moments", "--alpha1", "1", "--beta1", "2",
                    "--alpha2", "1", "--beta2", "2", "--x", "0.5", "--y", "1.0")
    assert code == 0
    header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["t"]) == pytest.approx(0.5)
    assert float(row["tau"]) == pytest.approx(11.0 / 12.0)


def test_moments_command_central_without_cancellation(tmp_path):
    code, out = run(tmp_path, "moments", "--m", "10", "--n", "10", "--x", "0.5",
                    "--y", "1e153")
    assert code == 0
    header, rows = read_csv(out)
    central = float(rows[0][header.index("central")])
    assert central == pytest.approx(0.025 + 1e152, rel=1e-14)


def test_modulus_command(tmp_path):
    code, out = run(tmp_path, "modulus", "--function", "linear",
                    "--delta", "0.1", "--grid", "201")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["kind", "delta", "value", "grid", "caveat"]
    kinds = [r[0] for r in rows]
    assert kinds == ["full", "partial_x", "partial_y"]
    for row in rows:
        assert len(row) == len(header)
        _, delta, _, grid, caveat = row
        assert (delta, grid, caveat) == ("0.10000000000000001",
                                         "201x201 uniform on [0,1]x[0,1.0]",
                                         "value_is_grid_estimate")


def test_modulus_delta_past_lattice(tmp_path):
    code, out = run(tmp_path, "modulus", "--function", "smooth",
                    "--grid", "11", "--delta", "1.5")
    assert code == 0
    F = sample_lattice(corpus_lookup("smooth").function, CompactRegion(1.0), 11)[2]
    _, rows = read_csv(out)
    assert {r[0]: float(r[2]) for r in rows} == {
        "full": F.max() - F.min(),
        "partial_x": np.ptp(F, axis=0).max(),
        "partial_y": np.ptp(F, axis=1).max(),
    }


def test_modulus_delta_past_float_range(tmp_path):
    # delta / h overflows to inf: the radii clamp to the lattice side
    code, out = run(tmp_path, "modulus", "--function", "smooth", "--delta", "1e306")
    assert code == 0
    F = sample_lattice(corpus_lookup("smooth").function, CompactRegion(1.0), 201)[2]
    _, rows = read_csv(out)
    assert [float(r[2]) for r in rows] == [
        F.max() - F.min(), np.ptp(F, axis=0).max(), np.ptp(F, axis=1).max()]


@pytest.mark.parametrize("extra", [["--m", "2", "--n", "2"],
                                   ["--m", "40", "--n", "40", "--A", "0.05"]])
def test_check_thm33_grid_delta_past_lattice(tmp_path, extra):
    code, out = run(tmp_path, "check-thm33", "--function", "smooth",
                    "--moduli-source", "grid", *extra)
    assert code == 0
    assert sidecar(out)["error"] is None
    assert [r[0] for r in read_csv(out)[1]] == ["a", "b"]


def counting_entry(calls, eval_fn, name):
    def counted(x, y):
        calls.append(np.broadcast(x, y).shape)
        return eval_fn(x, y)
    return CorpusEntry(function=Function2D(eval=counted, name=name))


def test_modulus_samples_lattice_once(tmp_path, monkeypatch):
    calls = []
    entry = counting_entry(calls, corpus_lookup("prod").function.eval, "prod")
    monkeypatch.setattr(cli, "corpus_lookup", lambda name: entry)
    code, _ = run(tmp_path, "modulus", "--grid", "31")
    assert code == 0
    assert calls == [(31, 31)]


@pytest.mark.parametrize("command", ["modulus", "check-thm33"])
def test_non_finite_function_exits_2(tmp_path, monkeypatch, command):
    entry = counting_entry(
        [], lambda x, y: np.where(np.asarray(x) > 0.5, np.nan, 0.0 * np.asarray(y)),
        "nan_half")
    monkeypatch.setattr(cli, "corpus_lookup", lambda name: entry)
    code, out = run(tmp_path, command, "--moduli-source", "grid", "--grid", "21")
    assert code == 2
    error = sidecar(out)["error"]
    assert error["type"] == "RuntimeError"
    assert "nan_half is not finite" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["converge", "--grid", "1"], "grid_points must be >= 2"),
    (["check-thm33", "--grid", "1"], "grid_points must be >= 2"),
    (["modulus", "--delta", "inf"], "delta must be finite"),
    (["modulus", "--delta", "nan"], "delta must be finite"),
    (["weighted", "--function", "rho_growth", "--epsilon", "nan"],
     "epsilon must be finite"),
    (["converge", "--A", "nan"], "A must be finite"),
    (["check-thm41", "--function", "quad", "--M", "nan"], "M must be finite"),
    (["check-thm41", "--function", "quad", "--M", "-1"], "M must be finite"),
    (["check-thm41", "--function", "quad", "--gamma", "0"], "gamma must be in (0, 1]"),
    (["eval", "--y", "1e308"], "y must be >= 0 with n*y finite"),
    (["rth", "--y", "1e308"], "y must be >= 0 with n*y finite"),
    (["moments", "--y", "1e308"], "y must give finite moments"),
    (["check-thm41", "--seed", "-1"], "seed must be a non-negative integer"),
    (["weighted", "--S", "nan"], "S must be finite"),
    (["weighted", "--function", "rho_growth", "--epsilon", "0"],
     "epsilon must be finite"),
    (["moments", "--alpha1", "1e300", "--beta1", "1e300"],
     "beta1 must give finite moments"),
    (["weighted", "--function", "rho_growth", "--alpha2", "1e300", "--beta2", "1e300"],
     "beta2 must give finite moments"),
    (["moments", "--m", "-1"], "degree m must be >= 1, got -1"),
    (["moments", "--m", "0"], "degree m must be >= 1, got 0"),
    (["moments", "--n", "0"], "degree n must be >= 1, got 0"),
    (["check-thm33", "--m", "0"], "degree m must be >= 1, got 0"),
    (["weighted", "--function", "rho_growth", "--m", "0"],
     "degree m must be >= 1, got 0"),
    (["rth", "--function", "smooth", "--r", "171"], "r must be <= 169, got r=171"),
    (["check-thm41", "--function", "smooth", "--r", "170", "--mode", "lipschitz"],
     "r must be <= 169, got r=170"),
    (["rth", "--r", "-1"], "r must be an integer >= 0, got r=-1"),
])
def test_invalid_input_exits_2_naming_parameter(tmp_path, args, message):
    code, out = run(tmp_path, *args)
    assert code == 2
    error = sidecar(out)["error"]
    assert error["type"] == "DomainError"
    assert error["message"].startswith(message)
    assert not out.exists()


def test_an_overflowing_distance_power_exits_2_naming_it(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # none from the Taylor weights nor the sweep
        code, out = run(tmp_path, "check-thm41", "--function", "linear", "--r", "169",
                        "--A", "100", "--M", "1", "--m", "10", "--n", "10",
                        "--grid", "11")
    assert code == 2
    error = sidecar(out)["error"]
    assert error["type"] == "RuntimeError"
    assert error["message"].startswith("L(|d|^170) is not finite")
    assert not out.exists()


def test_non_finite_bound_exits_2_naming_the_side(tmp_path):
    # (1e308 / 6) (1 + 10^2) delta_mn overflows: an infinite RHS would hold
    code, out = run(tmp_path, "check-thm41", "--function", "quad", "--r", "2",
                    "--M", "1e308", "--A", "10", "--mode", "lipschitz")
    assert code == 2
    error = sidecar(out)["error"]
    assert error["type"] == "RuntimeError"
    assert error["message"] == "the bound's rhs is not finite, got inf"
    assert not out.exists()


def test_overflowing_central_moment_exits_2_naming_it(tmp_path):
    # (alpha2 - beta2 y)^2 overflows on the strip once beta2 S passes ~1.3e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning on the way
        code, out = run(tmp_path, "weighted", "--function", "rho_growth",
                        "--beta2", "1e153")
    assert code == 2
    error = sidecar(out)["error"]
    assert error["type"] == "RuntimeError"
    assert error["message"].startswith(
        "the second central moment's ratio is not finite at ")
    assert error["message"].endswith(
        "strip lattice points on [0,1]x[0,S] (S = 50.0)")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["converge", "--A", "1e20", "--grid", "2", "--schedule", "10"],
    ["check-thm33", "--A", "1e100", "--grid", "11"],
])
def test_rate_past_the_term_cap_exits_2(tmp_path, args):
    code, out = run(tmp_path, *args)
    assert code == 2
    error = sidecar(out)["error"]
    assert error["type"] == "TruncationError"
    assert error["message"].startswith(
        "mass target 1 - 1e-12 not reached within 1000000 terms")
    assert not out.exists()


def test_eval_at_rate_1e6_runs(tmp_path):
    """max_terms caps the width of a point's Poisson row, not its last index:
    the row at ny = 1e6 holds about 15,000 columns, and ends past column
    10^6."""
    code, out = run(tmp_path, "eval", "--m", "10", "--n", "1000000", "--y", "1")
    assert code == 0
    header, rows = read_csv(out)
    assert abs(float(rows[0][header.index("value")]) - 1.5) <= 1e-12


def test_converge_past_the_term_cap_prints_one_line(tmp_path, capsys):
    """The lattice is built in blocks; the row that misses the target is
    still the first in lattice order, named with its rate."""
    code, out = run(tmp_path, "converge", "--A", "1e6")
    assert code == 2
    assert capsys.readouterr().err == ("error: mass target 1 - 1e-12 not reached "
                                       "within 1000000 terms (rate 1000000.0)\n")
    assert sidecar(out)["error"]["type"] == "TruncationError"


@pytest.mark.parametrize("args", [
    ["eval", "--tail-tol", "1e-300", "--y", "3"],
    ["converge", "--tail-tol", "1e-320", "--schedule", "10", "--grid", "11"],
])
def test_tiny_tail_tol_runs(tmp_path, args):
    """The window's ln(2^60 / tail_tol) is taken as a difference of logs:
    2^60 / tail_tol overflows for tail_tol below about 6.4e-291."""
    code, out = run(tmp_path, *args)
    assert code == 0
    header, rows = read_csv(out)
    assert all(np.isfinite(float(v)) for col, v in zip(header, rows[0])
               if col != "caveat")


def test_weighted_overflowing_strip_exits_2(tmp_path):
    # with beta2 > 0 the square gap's bias term and y^2 overflow on the
    # strip, so the rho-norm bound's ratio is -inf / inf
    code, out = run(tmp_path, "weighted", "--S", "1e200", "--beta2", "1")
    assert code == 2
    error = sidecar(out)["error"]
    assert error["type"] == "RuntimeError"
    assert error["message"].startswith("the rho-norm bound's ratio is not finite")
    assert "S = 1e+200" in error["message"]
    assert not out.exists()


def test_overflowing_function_exits_2_with_one_error_line(tmp_path, capsys):
    # rho_growth's x^2 + y^2 overflows on most of [0,1]x[0,1e160]: the named
    # error is the whole of stderr, with no numpy warning ahead of it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, "weighted", "--function", "rho_growth",
                        "--s", "1e160")
    assert code == 2
    assert caught == []
    assert capsys.readouterr().err == (
        "error: rho_growth is not finite at 40200 of 40401 lattice points on "
        "[0,1]x[0,1e+160]\n")
    assert not out.exists()


@pytest.mark.parametrize("A, error", [
    # 2 L ny overflows in the y window, then n*y itself
    ("1e306", "mass target 1 - 1e-12 not reached within 1000000 terms (rate 5e+306)"),
    ("1e308", "y must be >= 0 with n*y finite, got y = 5e+307 (n = 10)"),
])
def test_a_rate_past_the_float_range_prints_one_error_line(tmp_path, capsys, A, error):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, "converge", "--function", "linear", "--A", A,
                        "--schedule", "10", "--grid", "3")
    assert code == 2
    assert caught == []
    assert capsys.readouterr().err == f"error: {error}\n"


def test_weighted_huge_strip_runs(tmp_path):
    """At alpha = beta = 0 the square gap is x(1-x)/m + y/n, which does not
    overflow, and past y ~ 1e154 its ratio to rho is 0: the sup is the y = 0
    row's, max over the lattice's x of x(1-x) / (10 (1 + x^2))."""
    code, out = run(tmp_path, "weighted", "--S", "1e200")
    assert code == 0
    header, rows = read_csv(out)
    assert rows[0][:3] == ["rho_norm_bound", "10", "10"]
    xs = np.linspace(0.0, 1.0, 201)
    want = 1.0 + float(np.max(xs * (1.0 - xs) / 10.0 / (1.0 + xs * xs)))
    assert float(rows[0][3]) == pytest.approx(want, rel=1e-15)


class PrivateMemoryError(MemoryError):
    """Like numpy's allocation failure, a subclass of MemoryError."""


@pytest.mark.parametrize("exc_type", [MemoryError, PrivateMemoryError])
def test_out_of_memory_exits_2_without_blaming_f(tmp_path, monkeypatch, capsys,
                                                 exc_type):
    def exhausted(x, y):
        raise exc_type("Unable to allocate 74.5 PiB")

    entry = counting_entry([], exhausted, "hungry")
    monkeypatch.setattr(cli, "corpus_lookup", lambda name: entry)
    code, out = run(tmp_path, "modulus", "--grid", "21")
    assert code == 2
    assert sidecar(out)["error"] == {"type": "MemoryError",
                                     "message": "Unable to allocate 74.5 PiB"}
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 74.5 PiB\n")
    assert not out.exists()


def test_check_thm33_pass(tmp_path):
    code, out = run(tmp_path, "check-thm33", "--function", "linear",
                    "--m", "20", "--n", "20", "--grid", "101")
    assert code == 0
    side = sidecar(out)
    assert side["reports_hold"] is True
    assert side["caveats"] == []


def tamper_thm33(monkeypatch):
    """Make cli's Theorem 3.3 checker scale every RHS by 1e-6."""
    check = cli.check_theorem_3_3

    def tampered(*args, **kwargs):
        return [BoundReport(r.lhs, r.rhs * 1e-6, r.caveat)
                for r in check(*args, **kwargs)]

    monkeypatch.setattr(cli, "check_theorem_3_3", tampered)


def test_check_thm33_tampered_rhs_fails(tmp_path, monkeypatch):
    tamper_thm33(monkeypatch)
    # shifted params so the operator does not reproduce x + y exactly
    code, out = run(tmp_path, "check-thm33", "--function", "linear",
                    "--alpha1", "1", "--beta1", "2", "--alpha2", "1",
                    "--beta2", "2", "--m", "20", "--n", "20", "--grid", "101")
    assert code == 1
    assert sidecar(out)["reports_hold"] is False


def test_converge_samples_lattice_once(tmp_path, monkeypatch):
    calls = []
    entry = counting_entry(calls, corpus_lookup("prod").function.eval, "prod")
    monkeypatch.setattr(cli, "corpus_lookup", lambda name: entry)
    code, _ = run(tmp_path, "converge", "--schedule", "10,20,40", "--grid", "31")
    assert code == 0
    # the lattice once, then f on each entry's node grid
    assert calls[0] == (31, 31) and len(calls) == 4


def test_converge_command(tmp_path):
    code, out = run(tmp_path, "converge", "--function", "smooth",
                    "--schedule", "10,20,40", "--grid", "51")
    assert code == 0
    _, rows = read_csv(out)
    errs = [float(r[2]) for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_rth_and_thm41(tmp_path):
    code, out = run(tmp_path, "rth", "--function", "quad", "--r", "1",
                    "--x", "0.5", "--y", "1.0")
    assert code == 0
    code, out = run(tmp_path, "check-thm41", "--function", "quad", "--r", "1",
                    "--gamma", "1.0", "--M", "2.83", "--alpha1", "1",
                    "--beta1", "1", "--alpha2", "2", "--beta2", "2",
                    "--m", "20", "--n", "20", "--grid", "41")
    assert code == 0
    header, rows = read_csv(out)
    assert rows[0][header.index("holds")] == "true"


def test_default_check_thm41_holds(tmp_path):
    """L_1 of the default f = x + y is f itself, so the lhs is rounding and
    the renormalized Szasz rows keep it within the verdict's slack of rhs 0."""
    code, out = run(tmp_path, "check-thm41")
    assert code == 0
    header, rows = read_csv(out)
    assert rows[0][header.index("holds")] == "true"


def test_converge_on_prod_is_exact_to_rounding(tmp_path):
    """L(xy) = xy exactly: the sup error is rounding, far below tail_tol."""
    code, out = run(tmp_path, "converge", "--function", "prod", "--A", "4",
                    "--schedule", "10,1280", "--grid", "201")
    assert code == 0
    header, rows = read_csv(out)
    assert all(float(row[header.index("sup_error")]) < 1e-12 for row in rows)


@pytest.mark.parametrize("function, tol", [("quad", 1e-14), ("smooth", 1e-8)])
def test_rth_closed_form_providers_serve_every_order(tmp_path, function, tol):
    """The corpus's closed-form partials are exact at every order, so r = 11
    runs; for quad each node's Taylor polynomial is f itself, and the tight
    tail leaves L_11 f = x^2 + y^2 to rounding."""
    code, out = run(tmp_path, "rth", "--function", function, "--r", "11",
                    "--x", "0.3", "--y", "0.7", "--tail-tol", "1e-15")
    assert code == 0
    value = float(read_csv(out)[1][0][-1])
    want = float(corpus_lookup(function).function(0.3, 0.7))
    assert abs(value - want) <= tol * abs(want)


def test_weighted_command(tmp_path):
    code, out = run(tmp_path, "weighted", "--function", "rho_growth",
                    "--m", "40", "--n", "40", "--grid", "101",
                    "--schedule", "10,20", "--S", "50", "--s", "2.0")
    assert code == 0
    _, rows = read_csv(out)
    labels = [r[0] for r in rows]
    assert labels[0] == "rho_norm_bound"
    assert "thm52_estimate" in labels
    assert "thm53_margin" in labels
    assert "rhs_uses_frozen_weighted_modulus" in sidecar(out)["caveats"]


def test_weighted_estimate_rows_carry_no_verdict(tmp_path):
    """rho_norm_bound and thm52_estimate are lattice-max estimates, not checked
    inequalities: their holds field is empty, their caveat says so, and only
    the thm53_margin check decides the exit code."""
    code, out = run(tmp_path, "weighted", "--function", "rho_growth", "--m", "20",
                    "--n", "20", "--grid", "51", "--schedule", "10,20")
    assert code == 0
    header, rows = read_csv(out)
    fields = [dict(zip(header, row)) for row in rows]
    assert [r["row"] for r in fields] == ["rho_norm_bound", "thm52_estimate",
                                          "thm52_estimate", "thm53_margin"]
    for r in fields[:-1]:
        assert r["holds"] == "" and r["caveat"] == "value_is_grid_estimate"
    assert fields[-1]["holds"] == "true"
    assert fields[-1]["caveat"] == "rhs_uses_frozen_weighted_modulus"
    assert sidecar(out)["caveats"] == ["rhs_uses_frozen_weighted_modulus",
                                       "value_is_grid_estimate"]
    # without a rho-dominated f only the estimate row is written: no check
    code, out = run(tmp_path, "weighted", "--function", "linear", "--grid", "21")
    assert code == 0 and sidecar(out)["reports_hold"] is True
    (row,) = read_csv(out)[1]
    assert row[0] == "rho_norm_bound" and row[4:] == ["", "value_is_grid_estimate"]


def test_weighted_rows_equal_the_library_checks(tmp_path):
    """The CLI rows are the three weighted functions called with plain inputs."""
    code, out = run(tmp_path, "weighted", "--function", "rho_growth",
                    "--m", "40", "--n", "40", "--grid", "51")
    assert code == 0
    f = corpus_lookup("rho_growth").function
    params, strip = StancuParams(), CompactRegion(50.0)
    schedule = [(v, v) for v in (10, 20, 40, 80, 160)]
    want = [operator_rho_norm_bound(params, 40, 40, strip, 51),
            *check_theorem_5_2(f, params, schedule, 0.5, strip, 51),
            check_theorem_5_3(f, params, 40, 40, 2.0, strip, 51).margin]
    assert [row[3] for row in read_csv(out)[1]] == [cli._fmt(v) for v in want]


@pytest.mark.parametrize("args", [["converge", "--schedule", "10,20", "--grid", "21"],
                                  ["modulus", "--grid", "21"]])
def test_lattice_maxima_carry_the_grid_estimate_caveat(tmp_path, args):
    """converge's sup_error and modulus's value are lattice maxima: lower
    estimates of a sup, flagged in a trailing caveat column and the sidecar."""
    code, out = run(tmp_path, *args)
    assert code == 0
    header, rows = read_csv(out)
    assert header[-1] == "caveat"
    assert {row[-1] for row in rows} == {"value_is_grid_estimate"}
    assert sidecar(out)["caveats"] == ["value_is_grid_estimate"]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": "linear", "m": 5, "n": 5,
                               "x": 0.25, "y": 0.5}))
    out = tmp_path / "r.csv"
    code = main(["eval", "--config", str(cfg), "--m", "50",
                 "--out", str(out)])
    assert code == 0
    side = sidecar(out)
    assert side["config"]["m"] == 50  # flag wins
    assert side["config"]["n"] == 5  # file value kept


def test_config_entries_parse_as_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "converge", "m": None, "n": "7",
                               "x": 1, "M": 2, "schedule": 10}))
    got = resolve_config(["eval", "--config", str(cfg), "--M", "3"])
    assert got["command"] == "eval"  # a sidecar's command key is skipped
    assert got["m"] == 10  # null means unset
    assert got["n"] == 7 and got["x"] == 1.0 and type(got["x"]) is float
    assert got["schedule"] == "10" and got["M"] == 3.0


def exit_code(argv):
    """main's exit status, also where argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("text, extra", [
    pytest.param(None, [], id="missing file"),
    pytest.param('{"m": 10', [], id="malformed JSON"),
    pytest.param("[10, 10]", [], id="JSON array"),
    pytest.param('{"m": 10, "mm": 20}', [], id="unknown key"),
    pytest.param('{"m": 2.5}', [], id="m 2.5"),
    pytest.param('{"m": true}', [], id="m true"),
    pytest.param('{"grid": 50.5}', [], id="grid 50.5"),
    pytest.param('{"A": "wide"}', [], id="A wide"),
    pytest.param("{}", ["--out", "missing/r.csv"], id="out in a missing directory"),
    pytest.param('{"schedule": "10,x"}', [], id="schedule 10,x"),
])
def test_configuration_error_exits_2(tmp_path, monkeypatch, capsys, text, extra):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "cfg.json").write_text(text)
    assert exit_code(["eval", "--config", "cfg.json", *extra]) == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("command, schedule", [
    ("eval", "x"), ("converge", "10,,20"), ("converge", "2.5"), ("weighted", ""),
])
def test_bad_schedule_exits_2_naming_the_flag(tmp_path, capsys, command, schedule):
    out = tmp_path / "r.csv"
    assert exit_code([command, "--schedule", schedule, "--out", str(out)]) == 2
    assert ("error: argument --schedule: expected comma-separated integers, "
            f"got {schedule!r}\n") in capsys.readouterr().err
    assert not out.exists()


def child(args, cwd):
    """A fresh interpreter running python args in cwd, poslinops importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_the_parser_is_built_on_first_use_and_kept(tmp_path):
    code = """if True:
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counted
        import poslinops.cli
        at_import = len(built)
        codes = [poslinops.cli.main(["moments", "--out", "r.csv"]) for _ in range(3)]
        print(at_import, len(built), codes)
    """
    proc = child(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 1 [0, 0, 0]\n"


GOOD = ["converge", "--function", "prod", "--schedule", "10,20", "--grid", "21"]


@pytest.mark.parametrize("bad", [
    pytest.param(["converge", "--function", "smooth", "--grid", "11",
                  "--schedule", "10,x"], id="bad schedule"),
    pytest.param(["eval", "--config", "bad.json"], id="unknown config key"),
])
def test_a_run_after_an_argparse_exit_is_the_run_alone(tmp_path, monkeypatch, bad):
    alone, after = tmp_path / "alone", tmp_path / "after"
    alone.mkdir()
    after.mkdir()
    proc = child(["-m", "poslinops.cli", *GOOD, "--out", "r.csv"], alone)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(after)
    (after / "bad.json").write_text('{"m": 40, "mm": 1}')
    assert exit_code(bad + ["--out", "r.csv"]) == 2
    assert main(GOOD + ["--out", "r.csv"]) == 0
    for name in ("r.csv", "r.json"):
        assert (after / name).read_bytes() == (alone / name).read_bytes()


def test_config_files_used_in_turn_resolve_independently(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({"m": 5, "x": 0.25, "schedule": "10,20"}))
    second.write_text(json.dumps({"n": 7}))
    want = resolve_config(["eval", "--config", str(first)])
    assert want["m"] == 5 and want["x"] == 0.25 and want["schedule"] == "10,20"
    got = resolve_config(["moments", "--config", str(second)])
    assert got == dict(resolve_config(["moments"]), n=7)
    assert resolve_config(["eval", "--config", str(first)]) == want


def test_help_is_build_parsers_help(tmp_path, capsys):
    run(tmp_path, "moments")  # help from the parser main keeps
    capsys.readouterr()
    assert exit_code(["--help"]) == 0
    assert capsys.readouterr().out == cli.build_parser().format_help()


def test_unwritable_out_is_named(tmp_path, capsys):
    """The CSV goes through a temporary file beside --out; the error names
    --out, not the temporary file, and leaves no temporary file behind."""
    out = tmp_path / "missing" / "r.csv"
    assert main(["eval", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{out}'\n")
    out = tmp_path / "a_directory"
    out.mkdir()
    assert main(["eval", "--out", str(out)]) == 2
    assert f"'{out}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.tmp"))


def test_sidecar_config_reruns_byte_identical(tmp_path):
    code, out = run(tmp_path, "check-thm41", "--function", "quad", "--m", "12",
                    "--n", "12", "--grid", "21", "--mode", "lipschitz", "--A", "2")
    assert code == 0
    config = sidecar(out)["config"]
    assert config["M"] is None and config["command"] == "check-thm41"
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    again = tmp_path / "again.csv"
    code = main(["check-thm41", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(again)])
    assert code == 0
    assert again.read_bytes() == out.read_bytes()
    assert sidecar(again)["config"] == dict(config, out=str(again))


def test_byte_identical_reruns(tmp_path):
    args = ["converge", "--function", "prod", "--schedule", "10,20",
            "--grid", "41", "--seed", "7"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_function_exits_2(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["eval", "--function", "nope", "--out", str(out)])
    assert code == 2
    side = sidecar(out)
    assert side["error"]["type"] == "CorpusLookupError"
    assert not out.exists()  # no CSV on error


def test_resolve_config_defaults():
    cfg = resolve_config(["eval"])
    assert cfg["command"] == "eval"
    assert cfg["m"] == 10 and cfg["grid"] == 201


def test_floats_use_full_precision(tmp_path):
    code, out = run(tmp_path, "eval", "--function", "smooth",
                    "--x", "0.333", "--y", "0.777")
    assert code == 0
    _, rows = read_csv(out)
    # 17 significant digits round-trip doubles exactly
    v = rows[0][4]
    assert float(v) == float(repr(float(v)))
