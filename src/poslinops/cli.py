"""Experiment harness: configuration-driven runs with CSV/JSON reports.

Each subcommand writes a CSV (one row per point, schedule entry or bound)
and a JSON sidecar echoing the resolved configuration, the library version
and all caveat flags.  Exit status is 0 iff every checked bound holds, 1 if
one fails and 2 on bad input or a failed run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

from . import __version__
from .basis import TruncationPolicy, require_positive
from .bounds import check_theorem_3_3, deltas, theorem_4_1_bound
from .corpus import CorpusLookupError, corpus_lookup
from .moduli import lattice_moduli
from .operators import (
    CompactRegion,
    Point2D,
    StancuParams,
    apply,
    apply_on_grid,
    lattice_error,
    moments_closed_form,
    sample_lattice,
    second_central_moment,
)
from .reporting import CAVEAT_GRID_ESTIMATE, CAVEAT_NONE
from .taylor import apply_rth, f_rth_lipschitz_estimate, finite_difference_derivs
from .weighted import check_theorem_5_2, check_theorem_5_3, operator_rho_norm_bound

COMMANDS = (
    "eval", "moments", "modulus", "check-thm33", "rth", "check-thm41",
    "weighted", "converge",
)

_DEFAULTS = {
    "m": 10, "n": 10, "schedule": "10,20,40,80,160",
    "alpha1": 0.0, "beta1": 0.0, "alpha2": 0.0, "beta2": 0.0,
    "A": 1.0, "S": 50.0, "s": 2.0,
    "grid": 201, "tail_tol": 1e-12, "max_terms": 10**6,
    "function": "linear", "x": 0.5, "y": 1.0, "delta": 0.1,
    "r": 1, "gamma": 1.0, "M": None, "mode": "moment",
    "epsilon": 0.5, "moduli_source": "closed_form",
    "seed": 0, "out": "report.csv",
}


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_atomic(path, text):
    """Write text to path through path + ".tmp", which a failed write removes;
    the OSError names path, not the temporary file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, path) from None


def _sidecar(cfg, caveats, hold, error):
    """Write the run's JSON sidecar: configuration, caveats and verdict."""
    sidecar = {"config": cfg, "version": __version__, "caveats": sorted(caveats),
               "reports_hold": hold, "error": error}
    base, _ = os.path.splitext(cfg["out"])
    _write_atomic(base + ".json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def _run(cfg):
    params = StancuParams(cfg["alpha1"], cfg["beta1"], cfg["alpha2"], cfg["beta2"])
    policy = TruncationPolicy(cfg["tail_tol"], cfg["max_terms"])
    region = CompactRegion(cfg["A"])
    entry = corpus_lookup(cfg["function"])
    f = entry.function
    m, n, G = cfg["m"], cfg["n"], cfg["grid"]
    schedule = [(int(v), int(v)) for v in str(cfg["schedule"]).split(",")]
    command = cfg["command"]
    reports = []

    if command == "eval":
        p = Point2D(cfg["x"], cfg["y"])
        val = apply(f, params, m, n, p, policy)
        header = ["m", "n", "x", "y", "value"]
        rows = [[m, n, p.x, p.y, val]]
    elif command == "moments":
        p = Point2D(cfg["x"], cfg["y"])
        mom = moments_closed_form(params, m, n, p)
        central = second_central_moment(params, m, n, p)
        header = ["m", "n", "x", "y", "one", "t", "tau", "t2_plus_tau2", "central"]
        rows = [[m, n, p.x, p.y, mom.one, mom.t, mom.tau, mom.t2_plus_tau2, central]]
    elif command == "modulus":
        delta = cfg["delta"]
        ests = lattice_moduli(*sample_lattice(f, region, G), full=delta,
                              partial_x=delta, partial_y=delta)
        grid = f"{G}x{G} uniform on [0,1]x[0,{region.A}]"
        header = ["kind", "delta", "value", "grid", "caveat"]
        rows = [[kind, delta, value, grid, CAVEAT_GRID_ESTIMATE]
                for kind, value in ests.items()]
    elif command == "check-thm33":
        reports += check_theorem_3_3(
            f, params, m, n, region, G, policy,
            moduli_source=cfg["moduli_source"],
            closed_form_moduli=entry.closed_form_moduli,
        )
        header = ["part", "m", "n", "lhs", "rhs", "margin", "holds", "caveat"]
        rows = [[part, m, n, rep.lhs, rep.rhs, rep.margin, rep.holds, rep.caveat]
                for part, rep in zip("ab", reports)]
    elif command == "rth":
        derivs = entry.derivative_provider or finite_difference_derivs(f, cfg["r"])
        p = Point2D(cfg["x"], cfg["y"])
        val = apply_rth(derivs, params, m, n, cfg["r"], p, policy)
        header = ["m", "n", "r", "x", "y", "value"]
        rows = [[m, n, cfg["r"], p.x, p.y, val]]
    elif command == "check-thm41":
        derivs = entry.derivative_provider or finite_difference_derivs(f, cfg["r"])
        M = cfg["M"]
        if M is None:
            M = 1.05 * f_rth_lipschitz_estimate(
                derivs, cfg["r"], cfg["gamma"], region, seed=cfg["seed"]
            ).M_estimate
        rep = theorem_4_1_bound(
            derivs, f, params, m, n, cfg["r"], cfg["gamma"], M, region, G,
            policy, mode=cfg["mode"],
        )
        reports.append(rep)
        header = ["mode", "m", "n", "r", "gamma", "M", "lhs", "rhs", "margin",
                  "holds", "caveat"]
        rows = [[cfg["mode"], m, n, cfg["r"], cfg["gamma"], M, rep.lhs, rep.rhs,
                 rep.margin, rep.holds, rep.caveat]]
    elif command == "weighted":
        require_positive("S", cfg["S"])
        strip = CompactRegion(cfg["S"])
        bound = operator_rho_norm_bound(params, m, n, strip, G)
        header = ["row", "m", "n", "value", "holds", "caveat"]
        rows = [["rho_norm_bound", m, n, bound, "", CAVEAT_GRID_ESTIMATE]]
        if f.m_f is not None:
            ests = check_theorem_5_2(f, params, schedule, cfg["epsilon"], strip, G,
                                     policy)
            for (mm, nn), v in zip(schedule, ests):
                rows.append(["thm52_estimate", mm, nn, v, "", CAVEAT_GRID_ESTIMATE])
            rep = check_theorem_5_3(f, params, m, n, cfg["s"], strip, G, policy)
            reports.append(rep)
            rows.append(["thm53_margin", m, n, rep.margin, rep.holds, rep.caveat])
    else:  # converge: one lattice sample of f serves every schedule entry
        xs, ys, F = sample_lattice(f, region, G)
        header = ["m", "n", "sup_error", "delta_mn", "caveat"]
        rows = []
        for mm, nn in schedule:
            L = apply_on_grid(f, params, mm, nn, xs, ys, policy)
            err = float(lattice_error(f, L, F).max())
            rows.append([mm, nn, err, deltas(mm, nn, params, region).delta_mn,
                         CAVEAT_GRID_ESTIMATE])

    return header, rows, reports


def _schedule(text):
    """--schedule's type: comma-separated integers, returned unchanged."""
    try:
        [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    return text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poslinops",
        description="Bivariate Bernstein-Szasz-Stancu operator experiments",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file; flags override it")
    for key, default in _DEFAULTS.items():
        kind = float if default is None else type(default)
        parser.add_argument("--" + key.replace("_", "-"), default=default,
                            type=_schedule if key == "schedule" else kind)
    return parser


def resolve_config(argv):
    """The run's configuration from the flags in argv.

    The entries of the --config file's JSON object are parsed as flags ahead
    of argv's, so argv wins.  null means unset, and the command key that a
    sidecar's config carries is skipped.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            with open(args.config) as fh:
                entries = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        if not isinstance(entries, dict):
            parser.error(f"config {args.config} must hold a JSON object")
        entries.pop("command", None)
        unknown = sorted(set(entries) - set(_DEFAULTS))
        if unknown:
            parser.error(f"unknown config keys {unknown} in {args.config}")
        flags = [f"--{key.replace('_', '-')}="
                 + (value if isinstance(value, str) else json.dumps(value))
                 for key, value in entries.items() if value is not None]
        args = parser.parse_args(flags + list(argv))
    cfg = {key: getattr(args, key) for key in _DEFAULTS}
    cfg["command"] = args.command
    return cfg


def main(argv=None):
    cfg = resolve_config(sys.argv[1:] if argv is None else argv)
    try:
        header, rows, reports = _run(cfg)
        hold = all(rep.holds for rep in reports)
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(
            [_fmt(v) for v in row] for row in [header, *rows])
        _write_atomic(cfg["out"], text.getvalue())
        caveats = {row[-1] for row in rows if header[-1] == "caveat"} - {CAVEAT_NONE}
        _sidecar(cfg, caveats, hold, None)
        return 0 if hold else 1
    except (CorpusLookupError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        oom = isinstance(exc, MemoryError)  # numpy raises a private subclass
        error = {"type": "MemoryError" if oom else type(exc).__name__,
                 "message": str(exc)}
        with contextlib.suppress(OSError):
            _sidecar(cfg, (), False, error)
        print(f"error: {'out of memory: ' if oom else ''}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
