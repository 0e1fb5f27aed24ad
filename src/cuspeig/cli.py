"""Batch front-end: bound evaluation, eigensolves, verification, sweeps.

The argparse parser is the one definition of the options: each flag's
type, default and choices live in its add_argument call, and each
subcommand's runner reads the parsed namespace.  A --config file supplies
defaults for the chosen subcommand, converted and checked like its flags.

Outputs are deterministic given the configuration, the seed and the BLAS
thread count (it sets the banded Cholesky's round-off in every solve):
JSON summaries carry no timestamps and are serialized with sorted keys, CSV
columns are fixed per schema version (see schemas/ in the repository root).
"""

from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .bounds import TWELVE_PI, BoundConfigError, _p_star_gamma, lower_bound_report
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


def _list_of(kind):
    """Flag type: a nonempty comma-separated list of ``kind`` values."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            values = ()
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected a nonempty comma-separated list of {kind.__name__} values, got {text!r}"
            )
        return values

    return parse


_float_list, _int_list = _list_of(float), _list_of(int)


def _positive_int(text: str) -> int:
    """Flag type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _check_subcritical(gamma: float, p: float, q: float) -> None:
    """Reject q >= p*_gamma = gamma p / (gamma - p) when p < gamma.

    There W^{1,p} does not embed compactly into L^q, the eigenvalue is 0,
    and a discrete solve returns a number set by the tip cutoff.
    """
    if p < gamma and q >= _p_star_gamma(p, gamma):
        raise ValueError(
            f"requires q < p*_gamma = {_p_star_gamma(p, gamma):g} (no compact embedding; "
            f"lambda = 0), got q={q:g} at p={p:g}, gamma={gamma:g}"
        )


def _load_config_file(path: str) -> dict:
    """Key = value lines; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from None
    values: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _config_value(action: argparse.Action, key: str, raw: str):
    """A config-file value converted and checked like its flag's argument."""
    if action.nargs == 0:  # store_true flags
        word = raw.lower()
        if word not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError(f"config key {key}: expected yes or no, got {raw!r}")
        return word in ("1", "true", "yes")
    try:
        value = action.type(raw) if action.type else raw
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"config key {key}: invalid value {raw!r}") from None
    if action.choices and value not in action.choices:
        raise ValueError(
            f"config key {key}: invalid choice {raw!r} (choose from {', '.join(action.choices)})"
        )
    return value


def _config_defaults(commands: dict, command: str, path: str) -> dict:
    """Config-file values that become defaults of one subcommand's flags.

    A key may belong to any subcommand, so one file can serve several;
    every key is checked against its flag, and a key that no subcommand
    defines is rejected.
    """
    def flags(name):
        return {a.dest: a for a in commands[name]._actions if a.dest != "help"}

    own = flags(command)
    actions = {dest: a for name in commands for dest, a in flags(name).items()} | own
    values = _load_config_file(path)
    unknown = sorted(set(values) - set(actions))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)} in {path}")
    checked = {key: _config_value(actions[key], key, raw) for key, raw in values.items()}
    return {key: val for key, val in checked.items() if key in own}


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


def _run_bound(args: argparse.Namespace) -> int:
    n, gammas = args.n, args.gammas
    if len(gammas) != n - 1:
        raise BoundConfigError(
            f"expected {n - 1} profile exponents for n={n}, got {gammas}"
        )
    domain = CuspDomain(gammas)
    if n == 2 and not args.unsafe_n2:
        raise BoundConfigError(
            "composite bound is stated for n >= 3; pass --unsafe-n2 to evaluate anyway"
        )
    report, s, r = lower_bound_report(
        domain, args.p, args.q, s=args.s, r=args.r,
        b_constant=TWELVE_PI if args.use_12pi else None, fixed_a=args.pin_a,
        allow_n2=args.unsafe_n2,
    )
    echo = {
        "n": n, "p": args.p, "q": args.q, "s": s, "r": r, "gammas": list(gammas),
        "use_12pi": args.use_12pi, "pin_a": args.pin_a,
    }
    payload = {
        "schema": f"bound_report/{SCHEMA_VERSION}",
        "config": echo,
        "report": report.as_dict(),
    }
    _write_json(args.json_path, payload)
    if args.csv_path:
        _write_csv(
            args.csv_path, ["a", "objective"],
            [(a, obj) for a, obj in report.evaluations],
        )
    return EXIT_OK


def _run_solve(args: argparse.Namespace) -> int:
    if args.domain == "box":
        domain_info = {"type": "box", "sides": list(args.sides)}
        box = BoxDomain(args.sides)
        _check_subcritical(box.n, args.p, args.q)  # a box is Lipschitz: gamma = n
        mesh = mesh_box(box, args.resolution)
    else:
        domain_info = {"type": "cusp", "gammas": list(args.gammas), "a": args.a}
        cusp = CuspDomain(args.gammas)
        _check_subcritical(cusp.gamma, args.p, args.q)
        mesh = mesh_cusp(cusp, args.a, args.resolution)
    if args.dump_mesh:
        write_mesh_text(mesh, args.dump_mesh)

    pair, trace = solve_eigenpair(mesh, args.p, args.q, args.method, args.tol)
    if args.method == "iterate":
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
            "domain": domain_info, "p": args.p, "q": args.q,
            "resolution": args.resolution, "method": args.method, "tol": args.tol,
        },
        "result": {
            "lambda": pair.lam,
            "iterations": pair.iterations,
            "weak_residual": pair.weak_residual,
            "constraint_residual": pair.constraint_residual,
            "nodes": mesh.num_nodes,
            "cells": mesh.num_cells,
            # The route's integer counters; route A's history list is the CSV.
            "diagnostics": {
                key: value for key, value in pair.diagnostics.items() if isinstance(value, int)
            },
        },
    }
    _write_json(args.json_path, payload)
    if args.csv_path:
        _write_csv(
            args.csv_path,
            ["n", "mu_n", "energy_n", "constraint_residual"],
            trace_rows,
        )
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    checks = run_verify_suite(fast=args.fast, seed=args.seed)
    passed = all(check["passed"] for check in checks)
    payload = {
        "schema": f"verify_report/{SCHEMA_VERSION}",
        "passed": passed,
        "checks": checks,
    }
    _write_json(args.json_path, payload)
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        sys.stderr.write(f"[{status}] {check['name']}\n")
    return EXIT_OK if passed else EXIT_NUMERICAL


# One BLAS thread per sweep worker.  Workers that each run a threaded BLAS
# oversubscribe the cores, and LAPACK's blocked kernels then spin against
# each other: a two-cell 3-D sweep took 30 s at 2 workers against 7 s at 1
# on 2 cores.  BLAS reads these when it loads, so workers are spawned.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _sweep_cell(task: tuple) -> tuple:
    n, q, sigma, p, resolution, method, tol = task
    domain = CuspDomain(tuple([sigma] * (n - 1)))
    mesh = mesh_cusp(domain, 1.0, resolution)
    pair, _ = solve_eigenpair(mesh, p, q, method, tol)
    return (sigma, p, resolution, pair.lam, pair.weak_residual, pair.iterations)


def _run_sweep(args: argparse.Namespace) -> int:
    for sigma in args.gamma_grid:
        gamma = CuspDomain(tuple([sigma] * (args.n - 1))).gamma
        for p in args.p_grid:
            _check_subcritical(gamma, p, args.q)
    tasks = [
        (args.n, args.q, sigma, p, res, args.method, args.tol)
        for sigma in args.gamma_grid
        for p in args.p_grid
        for res in args.resolution_grid
    ]
    if args.workers > 1:
        saved = {key: os.environ.get(key) for key in _WORKER_ENV}
        os.environ.update(_WORKER_ENV)
        try:
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=args.workers, mp_context=spawn) as pool:
                rows = list(pool.map(_sweep_cell, tasks))
        finally:
            for key, value in saved.items():
                if value is None:
                    del os.environ[key]
                else:
                    os.environ[key] = value
    else:
        rows = [_sweep_cell(task) for task in tasks]
    _write_csv(
        args.csv_path,
        ["gamma_i", "p", "resolution", "lambda", "weak_residual", "iterations"],
        rows,
    )
    return EXIT_OK


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="cuspeig",
        description="Neumann (p,q)-eigenvalues on power-law cusp domains",
    )
    parser.add_argument("--config", help="key = value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="evaluate the closed-form lower bound")
    bound.set_defaults(run=_run_bound)
    bound.add_argument("--n", type=int, default=3)
    bound.add_argument("--p", type=float, default=3.0)
    bound.add_argument("--q", type=float, default=2.0)
    bound.add_argument("--s", type=float)
    bound.add_argument("--r", type=float)
    bound.add_argument("--gammas", type=_float_list, default="1.5,1.5",
                       help="comma-separated profile exponents")
    bound.add_argument("--pin-a", type=float, dest="pin_a",
                       help="evaluate at this mapping exponent instead of optimizing")
    bound.add_argument("--use-12pi", action="store_true", dest="use_12pi",
                       help="replace the Poincare estimate by the rounded constant 12*pi")
    bound.add_argument("--unsafe-n2", action="store_true", dest="unsafe_n2",
                       help="allow the 2-D evaluation of the composite bound")
    bound.add_argument("--json", dest="json_path")
    bound.add_argument("--csv", dest="csv_path", help="write (a, objective) samples")

    solve = sub.add_parser("solve", help="compute the first nontrivial eigenpair")
    solve.set_defaults(run=_run_solve)
    solve.add_argument("--domain", choices=("cusp", "box"), default="cusp")
    solve.add_argument("--gammas", type=_float_list, default="2",
                       help="cusp profile exponents")
    solve.add_argument("--sides", type=_float_list, default="1,1", help="box side lengths")
    solve.add_argument("--a", type=float, default=1.0,
                       help="mesh grading exponent for cusp domains")
    solve.add_argument("--p", type=float, default=2.0)
    solve.add_argument("--q", type=float, default=2.0)
    solve.add_argument("--resolution", type=int, default=16)
    solve.add_argument("--method", choices=("minimize", "iterate"), default="minimize")
    solve.add_argument("--tol", type=float, default=1e-6)
    solve.add_argument("--json", dest="json_path")
    solve.add_argument("--csv", dest="csv_path", help="write the iteration trace")
    solve.add_argument("--dump-mesh", dest="dump_mesh", help="write the mesh as plain text")

    verify = sub.add_parser("verify", help="run the cross-check suite")
    verify.set_defaults(run=_run_verify)
    verify.add_argument("--fast", action="store_true")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--json", dest="json_path")

    sweep = sub.add_parser("sweep", help="Cartesian parameter sweep")
    sweep.set_defaults(run=_run_sweep)
    sweep.add_argument("--n", type=int, default=2)
    sweep.add_argument("--q", type=float, default=2.0)
    sweep.add_argument("--gamma-grid", dest="gamma_grid", type=_float_list, default="1,2",
                       help="comma-separated isotropic profile exponents")
    sweep.add_argument("--p-grid", dest="p_grid", type=_float_list, default="2")
    sweep.add_argument("--resolution-grid", dest="resolution_grid", type=_int_list,
                       default="8")
    sweep.add_argument("--method", choices=("minimize", "iterate"), default="minimize")
    sweep.add_argument("--tol", type=float, default=1e-4)
    sweep.add_argument("--workers", type=_positive_int, default=1)
    sweep.add_argument("--csv", dest="csv_path", required=True)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # Config values become flag defaults, so explicit flags still win.
            commands[args.command].set_defaults(
                **_config_defaults(commands, args.command, args.config)
            )
            args = parser.parse_args(argv)
        return args.run(args)
    except (BoundConfigError, GeometryError, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except (ConvergenceError, RuntimeError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
