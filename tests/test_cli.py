import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from latspec import cli
from latspec.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main


@pytest.fixture()
def v3_file(tmp_path):
    path = tmp_path / "v3.json"
    path.write_text(json.dumps({"d": 3, "entries": [{"site": [0, 0, 0], "re": 3.0}]}))
    return str(path)


@pytest.fixture()
def mix_file(tmp_path):
    payload = {"d": 3, "entries": [
        {"site": [0, 0, 0], "re": 1.1, "im": 0.4},
        {"site": [1, 0, 0], "re": -0.3, "im": 0.2},
        {"site": [0, 1, 0], "re": 0.5, "im": -0.1},
    ]}
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_green_subcommand(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["green", "--d", "3", "--lambda", "0.3,0.4", "--site", "1,0,0", "-o", str(out)])
    assert rc == EXIT_OK
    rep = _load(out)
    assert rep["command"] == "green"
    assert rep["value"]["re"] == pytest.approx(0.22349737477122522, rel=1e-10)
    assert "generated_at" in rep


def test_green_boundary_method(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["green", "--d", "3", "--lambda", "3", "--site", "0,0,0",
               "--method", "boundary-plus", "-o", str(out)])
    assert rc == EXIT_OK
    assert _load(out)["value"]["re"] == pytest.approx(-0.5054620197, abs=1e-8)


def test_green_rejects_complex_boundary():
    rc = main(["green", "--d", "3", "--lambda", "1,0.5", "--site", "0,0,0",
               "--method", "boundary-plus"])
    assert rc == EXIT_VALIDATION


@pytest.mark.parametrize("n_quad", ["4", "9", "1026"])
def test_green_torus_refuses_bad_n_quad(n_quad, capsys):
    # green_torus owns the rule: even and in [8, 512], the grids auto_n_quad
    # picks from; a larger grid would allocate (n_quad + 1)^2 per slab
    rc = main(["green", "--d", "3", "--lambda", "5", "--site", "0,0,0",
               "--method", "torus", "--n-quad", n_quad])
    assert rc == EXIT_VALIDATION
    assert "n_quad must be even and in [8, 512]" in capsys.readouterr().err


def test_green_n_quad_only_with_torus(tmp_path):
    base = ["green", "--d", "3", "--lambda", "5", "--site", "0,0,0", "--n-quad", "40"]
    assert main(base + ["--method", "auto"]) == EXIT_VALIDATION
    assert main(base + ["--method", "torus", "-o", str(tmp_path / "g.json")]) == EXIT_OK


@pytest.mark.parametrize("argv, message", [
    (["green", "--d", "3", "--lambda", "nan", "--site", "0,0,0"], "--lambda must be finite, got (nan+0j)"),
    (["green", "--d", "3", "--lambda", "nan", "--site", "0,0,0", "--method", "boundary-plus"],
     "--lambda must be finite, got (nan+0j)"),
    (["green", "--d", "3", "--lambda", "5,nan", "--site", "0,0,0", "--method", "torus"],
     "--lambda must be finite, got (5+nanj)"),
    (["green", "--d", "3", "--lambda", "1,nan", "--site", "0,0,0", "--method", "time"],
     "--lambda must be finite, got (1+nanj)"),
    (["det-eval", "-p", "{v3}", "--z", "inf,0"], "--z must be finite, got (inf+0j)"),
    (["bessel-check", "--beta-T", "inf"], "--beta-T must be finite, got inf"),
    (["bessel-check", "--t-max", "inf"], "--t-max must be finite, got inf"),
    (["eigs", "-p", "{v3}", "--tol", "inf"], "--tol must be finite, got inf"),
    (["taylor-check", "-p", "{v3}", "--r", "nan"], "--r must be finite, got nan"),
    (["eigs", "-p", "{v3}", "--config", "{cfg}"], "--tol must be finite, got nan"),
    (["sweep", "-p", "{v3}", "--scale-grid", "1:inf:2"],
     "--scale-grid must satisfy 0 < lo <= hi < inf, num >= 1"),
], ids=["green-auto", "green-boundary", "green-torus", "green-time", "det-eval-z", "bessel-beta-T",
        "bessel-t-max", "eigs-tol", "taylor-r", "config-tol", "sweep-scale-grid"])
def test_non_finite_inputs_exit_2_without_a_report(v3_file, tmp_path, capsys, argv, message):
    # refused before any Green evaluation, with the value named; these
    # ran the engines (printing RuntimeWarnings and writing "NaN", which
    # is not JSON), exited 3, or exited 2 with an unrelated message
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": "nan"}))
    out = tmp_path / "out.json"
    argv = [a.replace("{v3}", v3_file).replace("{cfg}", str(cfg)) for a in argv]
    assert main(argv + ["-o", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_det_eval_subcommand(v3_file, tmp_path):
    out = tmp_path / "d.json"
    rc = main(["det-eval", "-p", v3_file, "--z", "0.25,0.1", "-o", str(out)])
    assert rc == EXIT_OK
    rep = _load(out)
    assert rep["value"]["re"] == pytest.approx(0.5055177679837912, rel=1e-9)


def test_det_eval_outside_disc(v3_file):
    assert main(["det-eval", "-p", v3_file, "--z", "1.2,0"]) == EXIT_VALIDATION


def test_missing_potential_file(tmp_path):
    rc = main(["det-eval", "-p", str(tmp_path / "nope.json"), "--z", "0,0"])
    assert rc == EXIT_VALIDATION


def test_malformed_potential_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 3}')
    assert main(["eigs", "-p", str(bad)]) == EXIT_VALIDATION
    # the top level takes d and entries only
    bad.write_text(json.dumps({"d": 3, "entries": [{"site": [0, 0, 0], "re": 3.0}], "scale": 2.0}))
    assert main(["eigs", "-p", str(bad)]) == EXIT_VALIDATION
    assert "unknown key 'scale'" in capsys.readouterr().err


@pytest.mark.parametrize("entry, message", [
    ({"site": [0.5, 0, 0], "re": 3.0}, "site [0.5, 0, 0] has a coordinate that is not an integer"),
    ({"site": [True, 0, 0], "re": 3.0}, "site [True, 0, 0] has a coordinate that is not an integer"),
    ({"site": [0, 0, 0], "re": math.nan}, "site (0, 0, 0) has a value that is not finite: (nan+0j)"),
    ({"site": [0, 0, 0], "re": math.inf}, "site (0, 0, 0) has a value that is not finite: (inf+0j)"),
    ({"site": [1, 0, 0], "re": 1.0, "im": -math.inf},
     "site (1, 0, 0) has a value that is not finite: (1-infj)"),
    ({"site": [0, 0, 0], "re": True}, "entry 1: 're' and 'im' must be numbers, got True and 0.0"),
    ({"site": [0, 0, 0], "re": 3.0, "im": "1"}, "entry 1: 're' and 'im' must be numbers, got 3.0 and '1'"),
    ({"site": 5, "re": 3.0}, "entry 1 must be an object with a 'site' list"),
    ({"site": [0, 0, 0], "value": 3.0}, "entry 1 has an unknown key 'value'"),
    ({"site": [0, 0, 0], "re": 3.0, "imag": 1.0}, "entry 1 has an unknown key 'imag'"),
    ({"site": [0, 0, 0]}, "entry 1 needs 're' or 'im'"),
], ids=["fractional-site", "boolean-site", "nan-value", "infinite-value", "infinite-imaginary-part",
        "boolean-value", "string-value", "scalar-site", "misspelled-value-key", "misspelled-imaginary-key",
        "site-only"])
def test_eigs_refuses_bad_potential_entries(tmp_path, capsys, entry, message):
    # a coordinate is an integer, not truncated (0.5 as 0) or coerced (true
    # as 1); a value is a finite number, where NaN or Infinity would send
    # the zero search bisecting non-finite samples; each exits 2 before any
    # sampling, with a message naming the entry; an entry has the keys
    # site, re and im only, and re or im, where a misspelled value key was
    # read as 0 and ran as the empty potential
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 3, "entries": [{"site": [0, 1, 0], "re": 1.0}, entry]}))
    assert main(["eigs", "-p", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: invalid potential file") and message in err


@pytest.mark.parametrize("d, message", [
    (True, "dimension must be an integer, got bool"),
    ("3", "dimension must be an integer, got str"),
])
def test_eigs_refuses_a_dimension_that_is_not_an_integer(tmp_path, capsys, d, message):
    # true is no dimension 1, and a string crashed with a TypeError traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": d, "entries": [{"site": [0, 0, 0], "re": 3.0}]}))
    assert main(["eigs", "-p", str(path)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_linalg_error_is_a_numerical_failure(v3_file, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, the class of bad input; a failed
    # factorization is a numerical failure
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "det_eval", fail)
    assert main(["det-eval", "-p", v3_file, "--z", "0.3"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: SVD did not converge\n"


def test_a_bare_runtime_error_is_a_bug(v3_file, monkeypatch):
    # every failure of the pipeline is a NumericalError, an ArithmeticError
    # or a LinAlgError (exit 3) or a ValueError (exit 2); anything else
    # propagates instead of reading as a numerical failure
    def fail(*args, **kwargs):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "det_eval", fail)
    with pytest.raises(RuntimeError, match="unexpected"):
        main(["det-eval", "-p", v3_file, "--z", "0.3"])


def test_taylor_check_subcommand(v3_file, tmp_path):
    out = tmp_path / "t.json"
    rc = main(["taylor-check", "-p", v3_file, "--r", "0.03", "-o", str(out)])
    assert rc == EXIT_OK
    rep = _load(out)
    assert rep["winner"] == "B"
    assert rep["moments_max_diff"] < 1e-10
    assert rep["c"][0]["re"] == pytest.approx(2.0, abs=1e-8)


def test_taylor_check_around_a_zero(v3_file, tmp_path):
    # the lone zero of V = 3 delta_0 sits at |z| ~ 0.55: a Taylor circle of
    # radius 0.7 encloses it, and the coefficients of log D come out as on
    # a smaller circle, with the moment relation resolved
    out = tmp_path / "t.json"
    assert main(["taylor-check", "-p", v3_file, "--r", "0.7", "-o", str(out)]) == EXIT_OK
    rep = _load(out)
    assert rep["winner"] == "B" and rep["flags"] == []
    assert rep["c"][0]["re"] == pytest.approx(2.0, abs=1e-12)


def test_taylor_check_sample_count_rule_lives_in_the_library(v3_file, tmp_path, capsys):
    # without --m-samples, taylor_coeffs picks max(64, 8 n_max); a count
    # below 8 n_max is bad input
    out = tmp_path / "t.json"
    assert main(["taylor-check", "-p", v3_file, "--r", "0.3", "--n-max", "9", "-o", str(out)]) == EXIT_OK
    assert len(_load(out)["c"]) == 9
    rc = main(["taylor-check", "-p", v3_file, "--r", "0.3", "--m-samples", "16", "-o", str(out)])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: m_samples=16 < 8*n_max=32\n"


def test_eigs_refuses_a_zero_inside_the_searched_annulus(tmp_path, capsys):
    # V = 2000 delta_0 has its zero at |z| ~ 7.5e-4, inside the root's inner
    # circle |z| = 1e-3; eigs exited 0 with "zeros": [], and now refuses
    path = tmp_path / "v2000.json"
    path.write_text(json.dumps({"d": 3, "entries": [{"site": [0, 0, 0], "re": 2000.0}]}))
    out = tmp_path / "e.json"
    assert main(["eigs", "-p", str(path), "-o", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: 1 zero(s) of D lie inside |z| = 0.001, below the searched "
        "annulus: eigenvalues with |lambda| >~ 1500\n")
    assert not out.exists()


def test_eigs_subcommand(v3_file, tmp_path):
    out = tmp_path / "e.json"
    rc = main(["eigs", "-p", v3_file, "-o", str(out)])
    assert rc == EXIT_OK
    rep = _load(out)
    assert len(rep["zeros"]) == 1
    assert rep["zeros"][0]["lambda"]["re"] == pytest.approx(3.5519590504, abs=1e-8)


def test_trace_check_and_thread_determinism(v3_file, tmp_path):
    # a cold trace-check on V = 3 delta_0 also pins the Green work it does:
    # the values each engine computes, counted as memo misses
    from latspec import resolvent

    out1 = tmp_path / "t1.json"
    out8 = tmp_path / "t8.json"
    resolvent.clear_green_cache()
    rc1 = main(["--threads", "1", "trace-check", "-p", v3_file, "-o", str(out1)])
    info = resolvent.green_cache_info()
    assert (info["osc"]["misses"], info["series"]["misses"]) == (735, 490)
    rc8 = main(["trace-check", "-p", v3_file, "--threads", "8", "-o", str(out8)])
    assert rc1 == rc8 == EXIT_OK
    a, b = _load(out1), _load(out8)
    a.pop("generated_at"), b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["rho0"] >= -1e-6
    assert main(["--threads", "0", "trace-check", "-p", v3_file]) == EXIT_VALIDATION


@pytest.mark.parametrize("flag, value", [
    ("--n-grid", "300"), ("--jensen-grid", "0"), ("--jensen-grid", "-4"), ("--jensen-grid", "3"),
    ("--taylor-r", "0"), ("--taylor-r", "2"), ("--taylor-r", "-0.1"), ("--taylor-r", "0.9995"),
])
def test_trace_check_validates_grid_and_taylor_radius_first(v3_file, tmp_path, flag, value):
    # exit 2 before the first Green evaluation: no memo is touched and no
    # report is written (--taylor-r 0 used to mean the automatic radius,
    # --jensen-grid 0 wrote a NaN residual with exit 0)
    from latspec import resolvent

    out = tmp_path / "t.json"
    resolvent.clear_green_cache()
    assert main(["trace-check", "-p", v3_file, flag, value, "-o", str(out)]) == EXIT_VALIDATION
    assert all(info["hits"] == info["misses"] == 0 for info in resolvent.green_cache_info().values())
    assert not out.exists()


def test_bounds_report_subcommand(v3_file, tmp_path):
    out = tmp_path / "b.json"
    rc = main(["bounds-report", "-p", v3_file, "-o", str(out)])
    assert rc == EXIT_OK
    rep = _load(out)
    assert rep["exact_pass"] is True
    assert rep["real_case"]["n2"]["smaller"] == "half"


def test_bounds_report_on_a_cluster_pair(tmp_path):
    # V = 3 (delta_0 + delta_(6,0,0)) has two simple real zeros 2.7e-4
    # apart (tests/test_zeros.py checks them against brentq); returned as
    # one complex zero of multiplicity 2, they failed the real-case report
    # with "non-real zeros" (exit 3)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"d": 3, "entries": [{"site": [0, 0, 0], "re": 3.0},
                                                    {"site": [6, 0, 0], "re": 3.0}]}))
    out = tmp_path / "b.json"
    assert main(["bounds-report", "-p", str(path), "-o", str(out)]) == EXIT_OK
    assert _load(out)["exact_pass"] is True


def test_bounds_report_complex_has_no_real_case(mix_file, tmp_path):
    out = tmp_path / "b.json"
    rc = main(["bounds-report", "-p", mix_file, "-o", str(out)])
    assert rc == EXIT_OK
    assert "real_case" not in _load(out)


def test_bounds_report_non_real_zeros_of_a_real_potential_are_a_numerical_failure(
        v3_file, tmp_path, capsys, monkeypatch):
    # a zero set that is not closed under conjugation for a real potential
    # is refused by the real-case report: a numerical failure (exit 3), not
    # bad input (exit 2).  The zero search returns none such (the cluster
    # pair above was one, ROADMAP item 5), so it is handed one here
    from latspec.conformal import lambda_of_z
    from latspec.zeros import ZeroRecord

    z = 0.55 + 1e-3j
    monkeypatch.setattr(cli, "find_zeros", lambda *args: [ZeroRecord(z, 1, lambda_of_z(z, 3), 0.0, 0.0)])
    out = tmp_path / "b.json"
    assert main(["bounds-report", "-p", v3_file, "-o", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: real potential but non-real zeros; upstream data inconsistent\n")
    assert not out.exists()


def test_bessel_check_subcommand(tmp_path):
    out = tmp_path / "bes.json"
    rc = main(["bessel-check", "-o", str(out)])
    assert rc == EXIT_OK
    rep = _load(out)
    assert rep["normalization_residual"] < 1e-12
    assert rep["integral_representation_worst"] < 1e-10
    assert rep["beta_d3"]["tail_bound"] <= 0.033
    assert math.isfinite(rep["uniform_bound"]["C_emp"])


def test_sweep_subcommand(v3_file, tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "-p", v3_file, "--scale-grid", "0.5:1.1:3", "-o", str(out)])
    assert rc == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert int(rows[0]["n_zeros"]) == 0  # 1.5 is below threshold
    assert int(rows[-1]["n_zeros"]) == 1
    assert main(["sweep", "-p", v3_file, "--scale-grid", "0.5:1.1:3"]) == EXIT_VALIDATION
    assert main(["sweep", "-p", v3_file, "--scale-grid", "junk", "-o", str(out)]) == EXIT_VALIDATION
    for tol in ("-1", "0"):
        assert main(["sweep", "-p", v3_file, "--scale-grid", "1:1:1", "--tol", tol,
                     "-o", str(out)]) == EXIT_VALIDATION


# the 5-site complex potential of benchmark panel seed 1, draw 2: at the
# default 256-point grid its rho0 is -2.78e-5, below the -1e-6 threshold
DRAW2 = {"d": 3, "entries": [
    {"site": [-1, -1, 0], "re": -0.7027842035027629, "im": 1.024389084315739},
    {"site": [0, -1, 0], "re": 0.0922031016259035, "im": -1.3383064090232242},
    {"site": [1, -1, 0], "re": 1.3982196432802514, "im": -0.6958356225452828},
    {"site": [1, 0, 0], "re": 0.9797427736582445, "im": -0.5689165965531313},
    {"site": [0, 1, 0], "re": 1.244065031143438, "im": 0.9038693903920579},
]}


def test_sweep_flags_rho0_like_bounds_report(tmp_path, capsys):
    pot = tmp_path / "draw2.json"
    pot.write_text(json.dumps(DRAW2))
    out = tmp_path / "b.json"
    assert main(["bounds-report", "-p", str(pot), "-o", str(out)]) == EXIT_NUMERICAL
    assert _load(out)["flags"] == ["rho0 = -2.777e-05 below -1e-6"]
    capsys.readouterr()
    rc = main(["sweep", "-p", str(pot), "--scale-grid", "1:1:1", "-o", str(tmp_path / "s.csv")])
    assert rc == EXIT_NUMERICAL
    assert json.loads(capsys.readouterr().out)["flags"] == ["rho0 = -2.777e-05 below -1e-6 at scale 1.0"]


TWO_SITE = {"d": 3, "entries": [{"site": [0, 0, 0], "re": 3.0}, {"site": [1, 1, 0], "re": -2.5}]}


def test_cli_runs_reach_the_green_memo_with_one_orbit_set(tmp_path):
    # the memo holds one column per (orbit set, image): eigs, bounds-report
    # and sweep (whose scalings keep the support) reach the Green engines
    # with the support's orbit set only, so no value is computed twice
    from latspec import resolvent
    from latspec.lattice import Potential

    pot = tmp_path / "two.json"
    pot.write_text(json.dumps(TWO_SITE))
    resolvent.clear_green_cache()
    assert main(["eigs", "-p", str(pot), "-o", str(tmp_path / "e.json")]) == EXIT_OK
    assert main(["bounds-report", "-p", str(pot), "-o", str(tmp_path / "b.json")]) == EXIT_OK
    assert main(["sweep", "-p", str(pot), "--scale-grid", "0.8:1.2:2", "-o", str(tmp_path / "s.csv")]) == EXIT_OK
    canons = resolvent.support_orbits(Potential.from_file(str(pot)).support, 3)[0]
    keys = [key for memo in resolvent._MEMOS.values() for key in memo.data]
    assert keys and {key[0] for key in keys} == {canons}


def _fail_on_circle(monkeypatch, upper_only):
    # hardy's D evaluations fail on the unit circle, or on its points with
    # Im z > 0 only (Jensen circles and outer probes lie inside)
    from latspec import hardy
    batched = hardy.det_eval_many

    def det_eval_many(V, zs, *args, **kwargs):
        if any(abs(abs(complex(z)) - 1.0) < 1e-12 and (complex(z).imag > 0 or not upper_only) for z in zs):
            raise np.linalg.LinAlgError("singular")
        return batched(V, zs, *args, **kwargs)

    monkeypatch.setattr(hardy, "det_eval_many", det_eval_many)


def test_low_confidence_trace_flags_every_report(v3_file, tmp_path, monkeypatch, capsys):
    # about half the points on the unit circle fail, as in the hardy test
    # of the same failure: each report built on that trace says so and
    # exits 3
    _fail_on_circle(monkeypatch, upper_only=True)
    low = "boundary trace low-confidence (> 5% flagged points)"
    for command in ("trace-check", "bounds-report"):
        out = tmp_path / f"{command}.json"
        assert main([command, "-p", v3_file, "-o", str(out)]) == EXIT_NUMERICAL
        assert low in _load(out)["flags"], command
    capsys.readouterr()
    rc = main(["sweep", "-p", v3_file, "--scale-grid", "1:1:1", "-o", str(tmp_path / "s.csv")])
    assert rc == EXIT_NUMERICAL
    assert low + " at scale 1.0" in json.loads(capsys.readouterr().out)["flags"]


def test_trace_with_no_measured_point_reports_nothing(v3_file, tmp_path, monkeypatch, capsys):
    # every point on the unit circle fails: no report carries numbers from
    # an infill with nothing to infill from; each command exits 3
    _fail_on_circle(monkeypatch, upper_only=False)
    for command, name in (("trace-check", "t.json"), ("bounds-report", "b.json"), ("sweep", "s.csv")):
        out = tmp_path / name
        argv = [command, "-p", v3_file, "-o", str(out)] + (["--scale-grid", "1:1:1"] if command == "sweep" else [])
        assert main(argv) == EXIT_NUMERICAL, command
        assert not out.exists(), command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: log|D| failed at every one of the 256 boundary grid points\n"


def test_config_defaults_and_override(v3_file, tmp_path):
    # config fills option defaults; flags given explicitly win; required
    # arguments must still be spelled out on the command line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 0.05, "seed": 9, "n-max": 3}))
    out = tmp_path / "t.json"
    rc = main(["taylor-check", "-p", v3_file, "--r", "0.03", "--config", str(cfg), "-o", str(out)])
    assert rc == EXIT_OK
    rep = _load(out)
    assert rep["r"] == 0.03  # explicit flag beats the config value
    assert rep["seed"] == 9 and len(rep["c"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no-such": 1}))
    assert main(["taylor-check", "-p", v3_file, "--config", str(bad), "--r", "0.05"]) == EXIT_VALIDATION


def test_config_values_parse_like_flags(v3_file, tmp_path):
    # a config value goes through its option's type and choices, as if it
    # had been given on the command line; a bad one is invalid input
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "t.json"
    taylor = ["taylor-check", "-p", v3_file, "--r", "0.03", "--config", str(cfg), "-o", str(out)]
    cfg.write_text(json.dumps({"n_max": "3"}))
    assert main(taylor) == EXIT_OK
    assert len(_load(out)["c"]) == 3
    cfg.write_text(json.dumps({"n_max": "three"}))
    assert main(taylor) == EXIT_VALIDATION
    green = ["green", "--d", "3", "--lambda", "5", "--site", "0,0,0", "--config", str(cfg),
             "-o", str(out)]
    cfg.write_text(json.dumps({"threads": "2"}))
    assert main(green) == EXIT_OK
    cfg.write_text(json.dumps({"method": "sideways"}))
    assert main(green) == EXIT_VALIDATION


def test_config_never_overrides_explicit_flags(tmp_path):
    # short flags and renamed dests (-o -> out, --lambda -> lam) count as given
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "from_config.json"), "lam": "5,0"}))
    out = tmp_path / "explicit.json"
    rc = main(["green", "--d", "3", "--lambda", "4,1", "--site", "0,0,0",
               "--config", str(cfg), "-o", str(out)])
    assert rc == EXIT_OK
    assert not (tmp_path / "from_config.json").exists()
    assert _load(out)["lambda"] == {"re": 4.0, "im": 1.0}


def test_seed_position_agnostic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["green", "--d", "3", "--lambda", "5", "--site", "0,0,0"]
    assert main(["--seed", "3"] + base + ["-o", str(out1)]) == EXIT_OK
    assert main(base + ["--seed", "3", "-o", str(out2)]) == EXIT_OK
    assert _load(out1)["seed"] == _load(out2)["seed"] == 3


@pytest.mark.parametrize("command, option, value", [
    (["green", "--d", "2", "--site", "1,2"], "--lambda", "-1.1,0.4"),
    (["green", "--d", "3", "--site", "1,0,0", "--method", "time"], "--lambda", "-.5,-1e-1"),
    (["det-eval", "-p", "{v3}"], "--z", "-0.3,0.1"),
])
def test_negative_values_parse_with_or_without_equals(v3_file, tmp_path, command, option, value):
    # argparse reads "-1.1,0.4" as an option unless it is attached with "="
    # (it exited 2 with "expected one argument"): both spellings give one report
    command = [a.replace("{v3}", v3_file) for a in command]
    reports = []
    for spelled in ([option, value], [f"{option}={value}"]):
        out = tmp_path / "r.json"
        assert main(command + spelled + ["-o", str(out)]) == EXIT_OK
        rep = _load(out)
        rep.pop("generated_at")
        reports.append(rep)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [
    ["green", "--d", "2", "--lambda", "1,0.4", "--site", "1,2", "--frobnicate", "-1,2"],
    ["green", "--d", "2", "--lambda", "1,0.4", "--site", "1,2", "--frobnicate", "1"],
    ["det-eval", "-p", "{v3}", "--z", "-0.3,0.1", "--tol", "-1"],
])
def test_an_unknown_option_still_exits_2(v3_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{v3}", v3_file) for a in argv])
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_entry_point_runs(v3_file, tmp_path):
    # end-to-end through a real interpreter
    out = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "latspec.cli", "eigs", "-p", v3_file, "-o", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(_load(out)["zeros"]) == 1


def test_pipeline_never_imports_scipy(v3_file, tmp_path):
    # scipy serves only bessel-check; importing it costs a fresh interpreter
    # most of its start-up, so the package and the pipeline subcommands must
    # not load it
    script = (
        "import sys\n"
        "import latspec\n"
        "import latspec.cli\n"
        f"assert latspec.cli.main(['eigs', '-p', {v3_file!r}, '-o', {str(tmp_path / 'e.json')!r}]) == 0\n"
        f"assert latspec.cli.main(['trace-check', '-p', {v3_file!r}, '-o', {str(tmp_path / 't.json')!r},"
        " '--jensen-grid', '256', '--r-list', '0.5']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
