"""Command-line entry point: reproducible batch runs over the pipeline.

Every subcommand validates its options fully before the first Green
evaluation, writes one JSON report (CSV for sweeps), and exits with
0 = ok, 2 = validation error, 3 = numerical-quality flags raised or a
numerical failure (no report is written then).
Reports are deterministic for a fixed config apart from the timestamp.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import datetime
import json
import math
import sys
from typing import Optional

from numpy.linalg import LinAlgError

from ._util import json_sanitize, parse_complex
from .lattice import Potential, brute_force_moments, trace_moments
from .resolvent import green_auto, green_boundary, green_time, green_torus
from .determinant import (
    RIM_RADIUS, NumericalError, det_eval, moment_relation_check, taylor_coeffs,
)
from .zeros import find_zeros
from .hardy import boundary_trace, check_grid, jensen_check, outer_reconstruct, trace_residuals
from .bounds import check_bounds, real_case_report
from . import bessel

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class ValidationError(ValueError):
    """Bad config or precondition, detected before any computation."""


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(report: dict, out_path: Optional[str]) -> None:
    report = dict(report)
    report["generated_at"] = _timestamp()
    text = json.dumps(json_sanitize(report), sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_potential(path: str) -> Potential:
    if not path:
        raise ValidationError("a --potential file is required for this command")
    try:
        return Potential.from_file(path)
    except FileNotFoundError:
        raise ValidationError(f"potential file not found: {path}")
    except (ValueError, TypeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"invalid potential file {path}: {exc}")


def _parse_site(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"site must be comma-separated integers, got {text!r}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _parse_finite_complex(text: str, option: str) -> complex:
    value = parse_complex(text)
    _require(cmath.isfinite(value), f"{option} must be finite, got {value}")
    return value


def _require_search_options(args) -> None:
    """Checks shared by the subcommands that run the zero search: --r-outer,
    --tol, and --n-grid where the subcommand samples the boundary."""
    if hasattr(args, "n_grid"):
        check_grid(args.n_grid, "--n-grid")  # a ValueError: main exits 2
    _require(0.0 < args.r_outer <= RIM_RADIUS, f"--r-outer must lie in (0, {RIM_RADIUS:g}]")
    _require(args.tol > 0.0, "--tol must be positive")


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (report dict, flags list)


def _cmd_green(args) -> tuple:
    d = args.d
    _require(d >= 1, "--d must be >= 1")
    lam = _parse_finite_complex(args.lam, "--lambda")
    site = _parse_site(args.site)
    _require(len(site) == d, f"site length {len(site)} != d={d}")
    method = args.method
    # green_torus owns the rule for the value
    _require(args.n_quad is None or method == "torus", "--n-quad applies only to --method torus")
    if method == "torus":
        g = green_torus(site, lam, d, n_quad=args.n_quad)
    elif method == "time":
        g = green_time(site, lam, d)
    elif method == "auto":
        g = green_auto(site, lam, d)
    else:  # boundary-plus or boundary-minus, the parser's last choices
        _require(abs(lam.imag) < 1e-12, "boundary evaluation takes a real lambda0")
        side = "plus" if method.endswith("plus") else "minus"
        g = green_boundary(site, lam.real, side, d)
    report = {
        "command": "green",
        "d": d,
        "lambda": lam,
        "site": list(site),
        "method": method,
        "value": g.value,
        "err_estimate": g.err_estimate,
    }
    flags = ["err_estimate not finite"] if not math.isfinite(g.err_estimate) else []
    return report, flags


def _cmd_det_eval(args) -> tuple:
    V = _load_potential(args.potential)
    z = _parse_finite_complex(args.z, "--z")
    _require(abs(z) <= 1.0 + 1e-12, "--z must lie in the closed unit disc")
    smp = det_eval(V, z)
    report = {
        "command": "det-eval",
        "z": z,
        "value": smp.value,
        "err_estimate": smp.err_estimate,
        "potential": args.potential,
    }
    return report, []


def _cmd_taylor_check(args) -> tuple:
    V = _load_potential(args.potential)
    _require(0.0 < args.r < RIM_RADIUS, f"--r must lie in (0, {RIM_RADIUS:g})")
    _require(args.n_max >= 1, "--n-max must be >= 1")
    m_samples = args.m_samples if args.m_samples else max(64, 8 * args.n_max)
    _require(m_samples >= 8 * args.n_max, "--m-samples must be >= 8 * n_max")
    tc = taylor_coeffs(V, args.r, args.n_max, m_samples)
    report = {
        "command": "taylor-check",
        "r": tc.r,
        "c": tc.c,
        "err_estimate": tc.err_estimate,
    }
    flags = []
    if args.n_max >= 4:
        rel = moment_relation_check(V, tc)
        report["moment_relations"] = rel
        report["winner"] = rel["winner"]
        if rel["winner"] == "none":
            flags.append("no moment relation matched the Cauchy coefficients")
        mom = trace_moments(V).as_tuple()
        brute = brute_force_moments(V)
        report["moments_closed_form"] = mom
        report["moments_brute_force"] = brute
        report["moments_max_diff"] = max(abs(a - b) for a, b in zip(mom, brute))
    return report, flags


def _cmd_eigs(args) -> tuple:
    V = _load_potential(args.potential)
    _require_search_options(args)
    recs = find_zeros(V, args.r_outer, args.tol)
    report = {
        "command": "eigs",
        "r_outer": args.r_outer,
        "tol": args.tol,
        "zeros": [
            {
                "z": r.z,
                "lambda": r.lam,
                "multiplicity": r.multiplicity,
                "residual": r.residual,
                "newton_radius": r.newton_radius,
            }
            for r in recs
        ],
    }
    flags = [
        f"zero at z={r.z} has residual {r.residual:.2e}"
        for r in recs
        if r.residual > 1e3 * args.tol
    ]
    return report, flags


def _pipeline(V: Potential, n_grid: int, r_outer: float, tol: float, n_max: int, taylor_r: float):
    zeros = find_zeros(V, r_outer, tol)
    bt = boundary_trace(V, n_grid)
    r0 = min((abs(r.z) for r in zeros), default=1.0)
    r_taylor = taylor_r if taylor_r is not None else min(0.3, 0.5 * r0)
    tc = taylor_coeffs(V, r_taylor, n_max, max(64, 8 * n_max))
    return zeros, bt, tc


def _trace_flags(bt, rho0: float, where: str = "") -> list:
    """The quality flags of every report built on a boundary trace: a
    low-confidence trace, and rho0 below -1e-6, further below zero than
    the quadrature floor.  ``where`` ends each message (the sweep names
    its scale)."""
    flags = []
    if bt.low_confidence:
        flags.append(f"boundary trace low-confidence (> 5% flagged points){where}")
    if rho0 < -1e-6:
        flags.append(f"rho0 = {rho0:.3e} below -1e-6{where}")
    return flags


def _cmd_trace_check(args) -> tuple:
    V = _load_potential(args.potential)
    _require_search_options(args)
    _require(args.n_max >= 1, "--n-max must be >= 1")
    try:
        r_list = [float(x) for x in args.r_list.split(",") if x]
    except ValueError:
        raise ValidationError(f"bad --r-list {args.r_list!r}")
    _require(all(0.0 < r < RIM_RADIUS for r in r_list), f"jensen radii must lie in (0, {RIM_RADIUS:g})")
    check_grid(args.jensen_grid, "--jensen-grid")
    _require(args.taylor_r is None or 0.0 < args.taylor_r < RIM_RADIUS,
             f"--taylor-r must lie in (0, {RIM_RADIUS:g})")

    zeros, bt, tc = _pipeline(V, args.n_grid, args.r_outer, args.tol, args.n_max, args.taylor_r)
    resid = trace_residuals(V, zeros, bt, tc)
    jensen = [
        {"r": r, "residual": jensen_check(V, zeros, r, n_grid=args.jensen_grid)}
        for r in r_list
    ]
    probes = [0.3, -0.45 + 0.2j, 0.6j, -0.7j, 0.85, -0.85]
    outer = outer_reconstruct(V, bt, zeros, probes)
    report = {
        "command": "trace-check",
        "n_grid": args.n_grid,
        "I0": bt.I0,
        "B0": resid["B0"],
        "rho0": resid["rho0"],
        "rho": resid["rho"],
        "t52": resid["t52"],
        "ratio_rho1": resid["ratio_rho1"],
        "ratio_rho1_reason": resid["ratio_rho1_reason"],
        "jensen": jensen,
        "outer_error": outer["max_rel_err"],
        "zeros": [r.z for r in zeros],
        "taylor_r": tc.r,
        "flagged_points": len(bt.flagged),
        "low_confidence": bt.low_confidence,
    }
    return report, _trace_flags(bt, resid["rho0"])


def _cmd_bounds_report(args) -> tuple:
    V = _load_potential(args.potential)
    _require_search_options(args)
    zeros = find_zeros(V, args.r_outer, args.tol)
    bt = boundary_trace(V, args.n_grid)
    report = {"command": "bounds-report", **check_bounds(V, zeros, bt)}
    if V.is_real():
        report["real_case"] = real_case_report(V, zeros, bt)
    flags = [] if report["exact_pass"] else ["exact inequality sum(1-|z_j|) <= -B0 failed"]
    return report, flags + _trace_flags(bt, report["rho0"])


def _cmd_bessel_check(args) -> tuple:
    _require(args.t_max > 0, "--t-max must be positive")
    _require(args.m_max >= 1, "--m-max must be >= 1")
    rng_m = (1, args.m_max)
    rng_t = (1.0, args.t_max)
    unif = bessel.check_uniform_bound(args.eps, m_range=rng_m, t_range=rng_t)
    beta = bessel.beta_estimate(3, m_max=min(args.m_max, 200), T=args.beta_T)
    # classic cross-checks at a few pinned arguments
    sq_sum = float(sum(bessel.bessel_j(n, 3.7) ** 2 for n in range(-60, 61)))
    worst_int = 0.0
    for m, t in ((0, 1.0), (3, 15.0), (7, 80.0), (2, 500.0), (40, 200.0)):
        worst_int = max(
            worst_int, abs(bessel.bessel_j(m, t) - bessel.integral_representation(m, t))
        )
    report = {
        "command": "bessel-check",
        "uniform_bound": unif,
        "beta_d3": beta,
        "normalization_residual": abs(sq_sum - 1.0),
        "integral_representation_worst": worst_int,
    }
    flags = []
    if abs(sq_sum - 1.0) > 1e-12:
        flags.append("squared-sum normalization residual above 1e-12")
    if worst_int > 1e-10:
        flags.append("integral representation residual above 1e-10")
    return report, flags


def _cmd_sweep(args) -> tuple:
    V = _load_potential(args.potential)
    try:
        lo, hi, num = args.scale_grid.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
    except ValueError:
        raise ValidationError(f"--scale-grid must be lo:hi:num, got {args.scale_grid!r}")
    _require(num >= 1 and math.isfinite(hi) and hi >= lo > 0.0,
             "--scale-grid must satisfy 0 < lo <= hi < inf, num >= 1")
    _require_search_options(args)
    _require(args.out is not None, "sweep requires -o/--out for the CSV file")

    rows = []
    flags = []
    for k in range(num):
        t = lo + (hi - lo) * k / max(num - 1, 1)
        Vt = V.scale(t)
        zeros = find_zeros(Vt, args.r_outer, args.tol)
        bt = boundary_trace(Vt, args.n_grid)
        rep = check_bounds(Vt, zeros, bt)
        z1 = zeros[0].z if zeros else 0.0
        lam1 = zeros[0].lam if zeros else 0.0
        rows.append(
            {
                "scale": t,
                "quasi_norm": rep["quasi_norm"],
                "n_zeros": sum(r.multiplicity for r in zeros),
                "z1_re": z1.real if zeros else "",
                "z1_im": z1.imag if zeros else "",
                "lambda1_re": lam1.real if zeros else "",
                "lambda1_im": lam1.imag if zeros else "",
                "blaschke_sum": rep["blaschke_sum"],
                "neg_b0": rep["neg_b0"],
                "rho0": rep["rho0"],
                "c_emp_log": rep["c_emp_log"],
                "exact_pass": rep["exact_pass"],
            }
        )
        if not rep["exact_pass"]:
            flags.append(f"exact inequality failed at scale {t}")
        flags += _trace_flags(bt, rep["rho0"], f" at scale {t}")
    fieldnames = list(rows[0].keys())
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return {"command": "sweep", "rows": len(rows), "out": args.out}, flags


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    # global options live on a parent parser too so they may be given
    # before or after the subcommand name; SUPPRESS keeps the subparser
    # from clobbering a value parsed before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON file with defaults for the subcommand options")
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="accepted for compatibility (must be >= 1); has no "
                        "effect, evaluation is sequential")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="recorded in the report")

    p = argparse.ArgumentParser(
        prog="latspec",
        parents=[common],
        description="Lattice Schrodinger spectral toolbox: Green functions, "
        "determinants, eigenvalues, trace identities.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("green", help="one Green-function value", parents=[common])
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--lambda", dest="lam", required=True, help="'re,im'")
    g.add_argument("--site", required=True, help="comma-separated integers")
    g.add_argument("--method", default="auto",
                   choices=["auto", "torus", "time", "boundary-plus", "boundary-minus"])
    g.add_argument("--n-quad", type=int, default=None)
    g.add_argument("-o", "--out")

    de = sub.add_parser("det-eval", help="one determinant sample", parents=[common])
    de.add_argument("-p", "--potential", required=True)
    de.add_argument("--z", required=True, help="'re,im'")
    de.add_argument("-o", "--out")

    tc = sub.add_parser("taylor-check", help="Taylor coefficients + moment relations", parents=[common])
    tc.add_argument("-p", "--potential", required=True)
    tc.add_argument("--r", type=float, required=True)
    tc.add_argument("--n-max", type=int, default=4)
    tc.add_argument("--m-samples", type=int, default=None)
    tc.add_argument("-o", "--out")

    ei = sub.add_parser("eigs", help="all disc zeros / eigenvalues", parents=[common])
    ei.add_argument("-p", "--potential", required=True)
    ei.add_argument("--r-outer", type=float, default=RIM_RADIUS)
    ei.add_argument("--tol", type=float, default=1e-10)
    ei.add_argument("-o", "--out")

    tr = sub.add_parser("trace-check", help="trace-identity residual report", parents=[common])
    tr.add_argument("-p", "--potential", required=True)
    tr.add_argument("--n-grid", type=int, default=256)
    tr.add_argument("--r-list", default="0.5,0.8,0.95")
    tr.add_argument("--jensen-grid", type=int, default=1024)
    tr.add_argument("--r-outer", type=float, default=RIM_RADIUS)
    tr.add_argument("--tol", type=float, default=1e-10)
    tr.add_argument("--n-max", type=int, default=4)
    tr.add_argument("--taylor-r", type=float, default=None)
    tr.add_argument("-o", "--out")

    br = sub.add_parser("bounds-report", help="eigenvalue-sum estimates", parents=[common])
    br.add_argument("-p", "--potential", required=True)
    br.add_argument("--n-grid", type=int, default=256)
    br.add_argument("--r-outer", type=float, default=RIM_RADIUS)
    br.add_argument("--tol", type=float, default=1e-10)
    br.add_argument("-o", "--out")

    bc = sub.add_parser("bessel-check", help="Bessel cross-validation suite", parents=[common])
    bc.add_argument("--eps", type=float, default=1e-10)
    bc.add_argument("--m-max", type=int, default=200)
    bc.add_argument("--t-max", type=float, default=400.0)
    bc.add_argument("--beta-T", type=float, default=1000.0)
    bc.add_argument("-o", "--out")

    sw = sub.add_parser("sweep", help="coupling sweep, CSV output", parents=[common])
    sw.add_argument("-p", "--potential", required=True)
    sw.add_argument("--scale-grid", required=True, help="lo:hi:num")
    sw.add_argument("--n-grid", type=int, default=256)
    sw.add_argument("--r-outer", type=float, default=RIM_RADIUS)
    sw.add_argument("--tol", type=float, default=1e-9)
    sw.add_argument("-o", "--out")

    return p


_HANDLERS = {
    "green": _cmd_green,
    "det-eval": _cmd_det_eval,
    "taylor-check": _cmd_taylor_check,
    "eigs": _cmd_eigs,
    "trace-check": _cmd_trace_check,
    "bounds-report": _cmd_bounds_report,
    "bessel-check": _cmd_bessel_check,
    "sweep": _cmd_sweep,
}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name -> its parser."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _given_dests(argv: "list[str]") -> set:
    """Dests of the options spelled out in ``argv``: a second parse in which
    no option has a default, so only the given ones land in the namespace."""
    parser = _build_parser()
    for p in (parser, *_subparsers(parser).values()):
        for action in p._actions:
            action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _config_value(action: argparse.Action, key: str, value):
    """A config value converted as if str(value) had been given for the
    option on the command line: the option's type, then its choices."""
    text = str(value)
    try:
        out = action.type(text) if action.type else text
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise ValidationError(f"config key {key!r}: invalid value {value!r}")
    if action.choices is not None and out not in action.choices:
        raise ValidationError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return out


def _apply_config(parser: argparse.ArgumentParser, args, argv: "list[str]") -> None:
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {args.config}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    # config supplies defaults; explicit command-line flags win
    given = _given_dests(argv)
    actions = {a.dest: a for a in _subparsers(parser)[args.command]._actions}
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config"):
            continue
        if not hasattr(args, attr):
            raise ValidationError(f"config key {key!r} is not an option of {args.command!r}")
        if attr not in given:
            setattr(args, attr, _config_value(actions[attr], key, value))


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the shared options use SUPPRESS so a pre-subcommand value survives the
    # subparser pass; fill the fallbacks here instead of via set_defaults
    for attr, fallback in (("config", None), ("threads", None), ("seed", 0)):
        if not hasattr(args, attr):
            setattr(args, attr, fallback)
    try:
        _apply_config(parser, args, argv)
        _require(args.threads is None or args.threads >= 1, "--threads must be >= 1")
        # no subcommand has a use for a float option that is not finite
        for dest, value in sorted(vars(args).items()):
            _require(not isinstance(value, float) or math.isfinite(value),
                     f"--{dest.replace('_', '-')} must be finite, got {value}")
        handler = _HANDLERS[args.command]
        report, flags = handler(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except (NumericalError, ArithmeticError, LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except (ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except RuntimeError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    report["seed"] = args.seed
    report["flags"] = flags
    _write_json(report, getattr(args, "out", None) if args.command != "sweep" else None)
    return EXIT_NUMERICAL if flags else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
