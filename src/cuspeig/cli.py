"""Batch front-end: bound evaluation, eigensolves, verification, sweeps.

Outputs are deterministic given the configuration and seed: JSON summaries
carry no timestamps and are serialized with sorted keys, CSV columns are
fixed per schema version (see schemas/ in the repository root).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .bounds import TWELVE_PI, BoundConfigError, lower_bound_report
from .eigensolver import ConvergenceError, solve_eigenpair
from .geometry import (
    BoxDomain,
    CuspDomain,
    GeometryError,
    mesh_box,
    mesh_cusp,
    write_mesh_text,
)
from .verification import run_verify_suite

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip())


def _load_config_file(path: str) -> dict:
    """Key = value lines; '#' starts a comment."""
    values: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspeig",
        description="Neumann (p,q)-eigenvalues on power-law cusp domains",
    )
    parser.add_argument("--config", help="key = value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="evaluate the closed-form lower bound")
    bound.add_argument("--n", type=int)
    bound.add_argument("--p", type=float)
    bound.add_argument("--q", type=float)
    bound.add_argument("--s", type=float)
    bound.add_argument("--r", type=float)
    bound.add_argument("--gammas", help="comma-separated profile exponents")
    bound.add_argument("--pin-a", type=float, dest="pin_a",
                       help="evaluate at this mapping exponent instead of optimizing")
    bound.add_argument("--use-12pi", action="store_true", dest="use_12pi",
                       help="replace the Poincare estimate by the rounded constant 12*pi")
    bound.add_argument("--unsafe-n2", action="store_true", dest="unsafe_n2",
                       help="allow the 2-D evaluation of the composite bound")
    bound.add_argument("--json", dest="json_path")
    bound.add_argument("--csv", dest="csv_path", help="write (a, objective) samples")

    solve = sub.add_parser("solve", help="compute the first nontrivial eigenpair")
    solve.add_argument("--domain", choices=("cusp", "box"))
    solve.add_argument("--gammas", help="cusp profile exponents")
    solve.add_argument("--sides", help="box side lengths")
    solve.add_argument("--a", type=float, help="mesh grading exponent for cusp domains")
    solve.add_argument("--p", type=float)
    solve.add_argument("--q", type=float)
    solve.add_argument("--resolution", type=int)
    solve.add_argument("--method", choices=("minimize", "iterate"))
    solve.add_argument("--tol", type=float)
    solve.add_argument("--json", dest="json_path")
    solve.add_argument("--csv", dest="csv_path", help="write the iteration trace")
    solve.add_argument("--dump-mesh", dest="dump_mesh", help="write the mesh as plain text")

    verify = sub.add_parser("verify", help="run the cross-check suite")
    verify.add_argument("--fast", action="store_true")
    verify.add_argument("--seed", type=int)
    verify.add_argument("--json", dest="json_path")

    sweep = sub.add_parser("sweep", help="Cartesian parameter sweep")
    sweep.add_argument("--n", type=int)
    sweep.add_argument("--q", type=float)
    sweep.add_argument("--gamma-grid", dest="gamma_grid",
                       help="comma-separated isotropic profile exponents")
    sweep.add_argument("--p-grid", dest="p_grid")
    sweep.add_argument("--resolution-grid", dest="resolution_grid")
    sweep.add_argument("--method", choices=("minimize", "iterate"))
    sweep.add_argument("--tol", type=float)
    sweep.add_argument("--workers", type=int)
    sweep.add_argument("--csv", dest="csv_path", required=True)
    return parser


_DEFAULTS = {
    "bound": {"n": 3, "p": 3.0, "q": 2.0, "gammas": "1.5,1.5"},
    "solve": {
        "domain": "cusp",
        "gammas": "2",
        "sides": "1,1",
        "a": 1.0,
        "p": 2.0,
        "q": 2.0,
        "resolution": 16,
        "method": "minimize",
        "tol": 1e-6,
    },
    "verify": {"seed": 0},
    "sweep": {
        "n": 2,
        "q": 2.0,
        "gamma_grid": "1,2",
        "p_grid": "2",
        "resolution_grid": "8",
        "method": "minimize",
        "tol": 1e-4,
        "workers": 1,
    },
}

_TYPES = {
    "n": int,
    "p": float,
    "q": float,
    "s": float,
    "r": float,
    "a": float,
    "pin_a": float,
    "tol": float,
    "resolution": int,
    "seed": int,
    "workers": int,
    "use_12pi": lambda v: str(v).lower() in ("1", "true", "yes"),
    "unsafe_n2": lambda v: str(v).lower() in ("1", "true", "yes"),
    "fast": lambda v: str(v).lower() in ("1", "true", "yes"),
}


def _flag_keys(parser: argparse.ArgumentParser) -> set[str]:
    """Option names that the flags of some subcommand define."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.dest
        for sub in commands.choices.values()
        for action in sub._actions
        if action.dest != "help"
    }


def _merge_config(args: argparse.Namespace, flag_keys: set[str]) -> dict:
    """Options for one subcommand run: defaults < config file < flags.

    A config key may belong to any subcommand, so one file can serve
    several; a key that no subcommand defines is rejected.
    """
    merged = dict(_DEFAULTS.get(args.command, {}))
    if args.config:
        file_values = _load_config_file(args.config)
        unknown = sorted(set(file_values) - flag_keys)
        if unknown:
            raise ValueError(f"unknown config key(s) {', '.join(unknown)} in {args.config}")
        for key, raw in file_values.items():
            merged[key] = _TYPES[key](raw) if key in _TYPES else raw
    for key, val in vars(args).items():
        if key in ("config", "command") or val is None:
            continue
        if val is False and key in ("use_12pi", "unsafe_n2", "fast"):
            continue  # absent store_true flags must not mask config values
        merged[key] = val
    return merged


def _run_bound(options: dict) -> int:
    n = int(options.get("n"))
    p = float(options.get("p"))
    q = float(options.get("q"))
    gammas = _parse_floats(options.get("gammas"))
    use_12pi = bool(options.get("use_12pi", False))
    pin_a = options.get("pin_a")
    unsafe_n2 = bool(options.get("unsafe_n2", False))
    if len(gammas) != n - 1:
        raise BoundConfigError(
            f"expected {n - 1} profile exponents for n={n}, got {gammas}"
        )
    domain = CuspDomain(gammas)
    if n == 2 and not unsafe_n2:
        raise BoundConfigError(
            "composite bound is stated for n >= 3; pass --unsafe-n2 to evaluate anyway"
        )
    report, s, r = lower_bound_report(
        domain, p, q, s=options.get("s"), r=options.get("r"),
        b_constant=TWELVE_PI if use_12pi else None, fixed_a=pin_a,
        allow_n2=unsafe_n2,
    )
    echo = {
        "n": n, "p": p, "q": q, "s": s, "r": r, "gammas": list(gammas),
        "use_12pi": use_12pi, "pin_a": pin_a,
    }
    payload = {
        "schema": f"bound_report/{SCHEMA_VERSION}",
        "config": echo,
        "report": report.as_dict(),
    }
    _write_json(options.get("json_path"), payload)
    if options.get("csv_path"):
        _write_csv(
            options.get("csv_path"), ["a", "objective"],
            [(a, obj) for a, obj in report.evaluations],
        )
    return EXIT_OK


def _run_solve(options: dict) -> int:
    p = float(options.get("p"))
    q = float(options.get("q"))
    resolution = int(options.get("resolution"))
    method = options.get("method")
    tol = float(options.get("tol"))
    if options.get("domain") == "box":
        domain_info = {"type": "box", "sides": list(_parse_floats(options.get("sides")))}
        mesh = mesh_box(BoxDomain(_parse_floats(options.get("sides"))), resolution)
    else:
        gammas = _parse_floats(options.get("gammas"))
        domain_info = {"type": "cusp", "gammas": list(gammas), "a": float(options.get("a"))}
        mesh = mesh_cusp(CuspDomain(gammas), float(options.get("a")), resolution)
    if options.get("dump_mesh"):
        write_mesh_text(mesh, options.get("dump_mesh"))

    pair, trace = solve_eigenpair(mesh, p, q, method, tol)
    if method == "iterate":
        trace_rows = [
            (i, state.mu, state.energy, state.constraint_residual)
            for i, state in enumerate(trace)
        ]
    else:
        trace_rows = [
            (i, lam, lam, cres)
            for i, (lam, _res, cres) in enumerate(pair.diagnostics.get("history", []))
        ]
    payload = {
        "schema": f"eigenpair/{SCHEMA_VERSION}",
        "config": {
            "domain": domain_info, "p": p, "q": q,
            "resolution": resolution, "method": method, "tol": tol,
        },
        "result": {
            "lambda": pair.lam,
            "iterations": pair.iterations,
            "weak_residual": pair.weak_residual,
            "constraint_residual": pair.constraint_residual,
            "nodes": mesh.num_nodes,
            "cells": mesh.num_cells,
        },
    }
    _write_json(options.get("json_path"), payload)
    if options.get("csv_path"):
        _write_csv(
            options.get("csv_path"),
            ["n", "mu_n", "energy_n", "constraint_residual"],
            trace_rows,
        )
    return EXIT_OK


def _run_verify(options: dict) -> int:
    checks = run_verify_suite(
        fast=bool(options.get("fast", False)), seed=int(options.get("seed", 0))
    )
    passed = all(check["passed"] for check in checks)
    payload = {
        "schema": f"verify_report/{SCHEMA_VERSION}",
        "passed": passed,
        "checks": checks,
    }
    _write_json(options.get("json_path"), payload)
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        sys.stderr.write(f"[{status}] {check['name']}\n")
    return EXIT_OK if passed else EXIT_NUMERICAL


def _sweep_cell(task: tuple) -> tuple:
    n, q, sigma, p, resolution, method, tol = task
    domain = CuspDomain(tuple([sigma] * (n - 1)))
    mesh = mesh_cusp(domain, 1.0, resolution)
    pair, _ = solve_eigenpair(mesh, p, q, method, tol)
    return (sigma, p, resolution, pair.lam, pair.weak_residual, pair.iterations)


def _run_sweep(options: dict) -> int:
    n = int(options.get("n"))
    q = float(options.get("q"))
    method = options.get("method")
    tol = float(options.get("tol"))
    tasks = [
        (n, q, sigma, p, int(res), method, tol)
        for sigma in _parse_floats(options.get("gamma_grid"))
        for p in _parse_floats(options.get("p_grid"))
        for res in _parse_floats(options.get("resolution_grid"))
    ]
    workers = int(options.get("workers", 1))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, tasks))
    else:
        rows = [_sweep_cell(task) for task in tasks]
    _write_csv(
        options.get("csv_path"),
        ["gamma_i", "p", "resolution", "lambda", "weak_residual", "iterations"],
        rows,
    )
    return EXIT_OK


_RUNNERS = {
    "bound": _run_bound,
    "solve": _run_solve,
    "verify": _run_verify,
    "sweep": _run_sweep,
}


def run(command: str, options: dict) -> int:
    """Run a subcommand on merged options; exit code semantics as `main`."""
    return _RUNNERS[command](options)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args.command, _merge_config(args, _flag_keys(parser)))
    except (BoundConfigError, GeometryError, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except (ConvergenceError, RuntimeError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
