import json
import math
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cuspeig as ce
from cuspeig import cli, eigensolver

SCHEMAS = Path(__file__).resolve().parents[1] / "schemas"


def run_cli(args):
    return cli.main([str(a) for a in args])


def load_checked(path, schema_name):
    """The JSON document at path, validated against schemas/<schema_name>."""
    doc = json.loads(path.read_text())
    schema = json.loads((SCHEMAS / f"{schema_name}.schema.json").read_text())
    jsonschema.validate(doc, schema)
    return doc


class TestBoundCommand:
    def test_lipschitz_display_reproduction(self, tmp_path):
        out = tmp_path / "bound.json"
        code = run_cli(
            ["bound", "--n", 3, "--p", 3, "--q", 2, "--s", 1.5, "--r", 2.5,
             "--gammas", "1,1", "--pin-a", 1, "--use-12pi", "--json", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        expected = (12.0 * math.pi * math.sqrt(3.0)) ** (-3.0)
        assert doc["report"]["lambda_lower"] == pytest.approx(expected, rel=1e-12)

    def test_general_bound_and_csv(self, tmp_path):
        out = tmp_path / "bound.json"
        csv_path = tmp_path / "samples.csv"
        code = run_cli(
            ["bound", "--n", 3, "--p", 3, "--q", 2, "--s", 1.5, "--r", 2.5,
             "--gammas", "1.5,1.5", "--json", out, "--csv", csv_path]
        )
        assert code == 0
        doc = load_checked(out, "bound_report")
        lo, hi = doc["report"]["interval"]
        assert lo < doc["report"]["a_star"] < hi
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "a,objective"
        assert len(lines) == 1 + 512

    def test_use_12pi_substitutes_constant(self, tmp_path):
        out = tmp_path / "bound.json"
        run_cli(
            ["bound", "--n", 3, "--p", 3, "--q", 2, "--s", 1.5, "--r", 2.5,
             "--gammas", "1.5,1.5", "--pin-a", 1, "--use-12pi", "--json", out]
        )
        doc = json.loads(out.read_text())
        assert doc["report"]["b_rs"] == pytest.approx(12.0 * math.pi, rel=1e-15)
        assert doc["report"]["lambda_lower"] == pytest.approx(
            ce.lambda_32_lower_bound(1.5, 1.5), rel=1e-12
        )

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["bound", "--n", 3, "--p", 3, "--q", 2, "--gammas", "1.25,1.25"]
        run_cli(args + ["--json", out_a])
        run_cli(args + ["--json", out_b])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_invalid_exponents_exit_code(self, capsys):
        code = run_cli(
            ["bound", "--n", 3, "--p", 3, "--q", 2, "--s", 2.9, "--r", 2.5,
             "--gammas", "1.5,1.5"]
        )
        assert code == 2
        assert "1/s-1/r" in capsys.readouterr().err

    def test_overflowing_objective_exit_code(self, capsys):
        # B**p overflows a float at p = 200: a configuration error, not a
        # traceback.
        code = run_cli(["bound", "--n", 3, "--p", 200, "--q", 2, "--gammas", "100,100"])
        assert code == 2
        assert "non-finite objective" in capsys.readouterr().err

    def test_two_dimensional_gate(self, capsys):
        assert run_cli(["bound", "--n", 2, "--p", 1.5, "--q", 1.2, "--gammas", "2"]) == 2
        assert "unsafe-n2" in capsys.readouterr().err


class TestSolveCommand:
    def test_box_minimize(self, tmp_path):
        out = tmp_path / "solve.json"
        mesh_path = tmp_path / "mesh.txt"
        code = run_cli(
            ["solve", "--domain", "box", "--sides", "1,1", "--p", 2, "--q", 2,
             "--resolution", 16, "--method", "minimize", "--tol", 1e-6,
             "--json", out, "--dump-mesh", mesh_path]
        )
        assert code == 0
        doc = load_checked(out, "eigenpair")
        assert doc["result"]["lambda"] == pytest.approx(math.pi**2, rel=0.02)
        # Route A's counters; its history list stays out of the JSON.
        diagnostics = doc["result"]["diagnostics"]
        assert set(diagnostics) == {"ray_trials", "restarts", "start_sweeps"}
        assert 1 <= diagnostics["restarts"] <= doc["result"]["iterations"]
        mesh = ce.mesh_box(ce.BoxDomain((1.0, 1.0)), 16)
        num_nodes = int(np.loadtxt(mesh_path, max_rows=1))
        assert num_nodes == doc["result"]["nodes"] == mesh.num_nodes
        nodes = np.loadtxt(mesh_path, skiprows=1, max_rows=num_nodes)
        cells = np.loadtxt(mesh_path, skiprows=num_nodes + 2, dtype=np.int64)
        np.testing.assert_array_equal(nodes, mesh.nodes)
        np.testing.assert_array_equal(cells, mesh.cells)

    def test_cusp_iterate_trace(self, tmp_path):
        out = tmp_path / "solve.json"
        trace_path = tmp_path / "trace.csv"
        code = run_cli(
            ["solve", "--domain", "cusp", "--gammas", "2", "--p", 2.5, "--q", 2,
             "--resolution", 8, "--method", "iterate", "--tol", 1e-6,
             "--json", out, "--csv", trace_path]
        )
        assert code == 0
        doc = load_checked(out, "eigenpair")
        diagnostics = doc["result"]["diagnostics"]
        assert set(diagnostics) == {
            "extrapolations", "three_term_steps", "ray_trials", "start_sweeps"
        }
        assert 0 < diagnostics["extrapolations"] < doc["result"]["iterations"]
        # The second ray starts at step 3 and is searched at most once a step.
        assert 0 < diagnostics["three_term_steps"] <= doc["result"]["iterations"] - 2
        assert diagnostics["ray_trials"] >= (
            diagnostics["extrapolations"] + diagnostics["three_term_steps"]
        )
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "n,mu_n,energy_n,constraint_residual"
        mus = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(m2 <= m1 * (1.0 + 1e-10) for m1, m2 in zip(mus, mus[1:]))

    @pytest.mark.parametrize("method", ["minimize", "iterate"])
    def test_json_carries_the_start_sweeps(self, tmp_path, method):
        # Both routes start from the p = 2 sweeps of x_n on the cusp, where
        # they lower the quotient, and report how many were taken.
        out = tmp_path / "solve.json"
        code = run_cli(
            ["solve", "--domain", "cusp", "--gammas", "2", "--p", 2.5, "--q", 2,
             "--resolution", 32, "--method", method, "--tol", 1e-6, "--json", out]
        )
        assert code == 0
        doc = load_checked(out, "eigenpair")
        assert doc["result"]["diagnostics"]["start_sweeps"] == eigensolver._START_SWEEPS

    def test_config_file_precedence(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("resolution = 8\np = 2.5\n# comment line\n")
        out = tmp_path / "solve.json"
        code = run_cli(
            ["--config", conf, "solve", "--domain", "cusp", "--gammas", "2",
             "--q", 2, "--p", 2.0, "--tol", 1e-4, "--json", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        # resolution comes from the file, p from the explicit flag.
        assert doc["config"]["resolution"] == 8
        assert doc["config"]["p"] == 2.0

    def test_config_file_key_checks(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("resolution = 4\nmethd = iterate\n")
        args = ["--config", conf, "solve", "--tol", 1e-4, "--json", tmp_path / "s.json"]
        assert run_cli(args) == 2
        assert "methd" in capsys.readouterr().err
        # Keys of other subcommands are accepted, so one file serves all.
        conf.write_text("resolution = 4\nworkers = 1\nfast = yes\nuse_12pi = no\n")
        assert run_cli(args) == 0
        capsys.readouterr()
        # File values are checked like the flags they stand for.
        out = tmp_path / "v.json"
        for command, key, value in (
            (["solve", "--resolution", 4, "--tol", 1e-4], "domain", "square"),
            (["solve", "--resolution", 4, "--tol", 1e-4], "method", "iterat"),
            (["verify", "--fast"], "fast", "maybe"),
        ):
            conf.write_text(f"{key} = {value}\n")
            assert run_cli(["--config", conf] + command + ["--json", out]) == 2
            assert key in capsys.readouterr().err
            assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.conf"
        assert run_cli(["--config", missing, "bound"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert str(missing) in err


class TestInputChecks:
    """Inputs that exit 2 before any solve, with a message naming the flag."""

    @staticmethod
    def output(command, path):
        return ["--csv", path] if command == "sweep" else ["--json", path]

    @pytest.mark.parametrize(
        "flag, value",
        [("--resolution-grid", "8.7"), ("--gamma-grid", ""), ("--workers", "0")],
    )
    def test_sweep_grid_values(self, tmp_path, capsys, flag, value):
        csv_path = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as info:
            run_cli(["sweep", flag, value, "--csv", csv_path])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
        assert not csv_path.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("tol", [0, -1])
    def test_nonpositive_tol(self, tmp_path, capsys, command, tol):
        out = tmp_path / "out"
        assert run_cli([command, "--tol", tol] + self.output(command, out)) == 2
        assert "requires tol > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, p_star",
        [
            (["solve", "--domain", "cusp", "--gammas", 2, "--p", 2, "--q", 9], "6"),
            (["solve", "--domain", "cusp", "--gammas", "1.5,1.5", "--p", 2, "--q", 4], "4"),
            (["solve", "--domain", "box", "--sides", "1,1", "--p", 1.5, "--q", 6], "6"),
            (["sweep", "--gamma-grid", "1,2", "--q", 6], "6"),
        ],
    )
    def test_supercritical_q_fails_fast(self, tmp_path, capsys, args, p_star):
        # At q >= p*_gamma = gamma p / (gamma - p) the embedding of W^{1,p}
        # into L^q is not compact and lambda = 0 (boxes have gamma = n).
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run_cli(args + self.output(args[0], out)) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"requires q < p*_gamma = {p_star} (no compact embedding; lambda = 0)" in err
        assert not out.exists()

    @pytest.mark.parametrize("sides", ["nan,1", "1,inf"])
    def test_non_finite_box_sides(self, tmp_path, capsys, sides):
        out = tmp_path / "solve.json"
        assert run_cli(["solve", "--domain", "box", "--sides", sides, "--json", out]) == 2
        assert "box sides must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_no_ceiling_when_p_reaches_gamma(self, tmp_path):
        # p >= gamma: W^{1,p} embeds into every L^q.
        out = tmp_path / "solve.json"
        code = run_cli(
            ["solve", "--domain", "box", "--sides", "1,1", "--p", 2, "--q", 9,
             "--resolution", 4, "--tol", 1e-3, "--json", out]
        )
        assert code == 0
        assert json.loads(out.read_text())["result"]["lambda"] > 0.0


def test_verify_fast_exit_zero(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--fast", "--json", out])
    assert code == 0
    doc = load_checked(out, "verify_report")
    assert doc["passed"] is True
    assert all(check["passed"] for check in doc["checks"])


def test_sweep_rows(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep", "--n", 2, "--q", 2, "--gamma-grid", "1,2", "--p-grid", "2",
         "--resolution-grid", "4,8", "--tol", 1e-4, "--csv", csv_path]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "gamma_i,p,resolution,lambda,weak_residual,iterations"
    assert len(lines) == 1 + 4
    # Spawned workers, one BLAS thread each, give the same rows.
    pooled = tmp_path / "pooled.csv"
    code = run_cli(
        ["sweep", "--n", 2, "--q", 2, "--gamma-grid", "1,2", "--p-grid", "2",
         "--resolution-grid", "4,8", "--tol", 1e-4, "--workers", 2, "--csv", pooled]
    )
    assert code == 0
    assert pooled.read_text() == csv_path.read_text()
