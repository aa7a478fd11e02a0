"""Command-line interface: subcommands, exit codes, deterministic output."""

import csv
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from torusgas import cli
from torusgas.cli import main, run
from torusgas.errors import NomeOutOfRange, ParameterOutOfRange
from torusgas.identities import identity_draws
from torusgas.plasma import IntegralEstimate, PartitionCheck
from torusgas.selftest import MC_MAX_PULL, QUAD_MAX_REL
from torusgas.theta import Nome

runner = CliRunner()


class TestTheta:
    def test_valid_nome(self):
        res = runner.invoke(main, ["theta", "--q", "0.3", "--z", "0.5"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert abs(payload["theta3"]["im"]) < 1e-12

    def test_zero_nome_is_usage_error(self):
        res = runner.invoke(main, ["theta", "--q", "0", "--z", "0.5"])
        assert res.exit_code == 2

    def test_overlarge_nome_is_usage_error(self):
        res = runner.invoke(main, ["theta", "--q", "0.99"])
        assert res.exit_code == 2

    def test_max_terms_caps_the_summed_series(self):
        """At q = 0.9 the dual series that is summed needs n* = 3 terms, so a
        cap of 10 suffices although the direct series would need 20."""
        args = ["theta", "--q", "0.9", "--z", "0.5"]
        capped = runner.invoke(main, args + ["--max-terms", "10"])
        assert capped.exit_code == 0
        ref = json.loads(runner.invoke(main, args).output)
        for key, value in json.loads(capped.output).items():
            pair = (value, ref[key])
            a, b = (complex(v["re"], v["im"]) if isinstance(v, dict) else v for v in pair)
            assert abs(a - b) <= 1e-14 * abs(b), key


class TestGreens:
    def test_csv_shape(self):
        res = runner.invoke(main, ["greens", "--L", "1.0", "--W", "1.0", "--grid", "4"])
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        assert lines[0] == "x,y,phi_quasi,phi_periodic"
        assert len(lines) == 17
        assert all(math.isfinite(float(v)) for row in csv.reader(lines[1:]) for v in row)


class TestVerifyIdentities:
    def test_runs_and_passes(self, tmp_path):
        out = tmp_path / "residuals.csv"
        res = runner.invoke(
            main,
            ["verify-identities", "--n", "3", "--draws", "4", "--seed", "7", "--out", str(out)],
        )
        assert res.exit_code == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0].startswith("identity,size,seed,draw")
        assert len(rows) == 1 + 4 * 3 + 4 * 2  # frobenius for N=1..3, vandermonde N=2..3

    def test_rows_follow_gate_draw_order(self, tmp_path):
        """One row per (identity, size, draw): every Vandermonde size, then
        every Frobenius size, with the residuals of the gate's own draw loop."""
        out = tmp_path / "residuals.csv"
        args = ["verify-identities", "--n", "3", "--draws", "4", "--seed", "7", "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        rng = np.random.default_rng(7)
        draws = identity_draws(rng, Nome.from_q(0.3), range(2, 4), range(1, 4), 4)
        assert [(r[0], int(r[1]), int(r[3]), float(r[5])) for r in rows] == [
            (identity, N, d, rel)
            for identity, N, res in draws
            for d, rel in enumerate(res.rel_residual.tolist())
        ]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["verify-identities", "--n", "2", "--draws", "3", "--seed", "42"]
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_required(self):
        res = runner.invoke(main, ["verify-identities", "--n", "2", "--draws", "2"])
        assert res.exit_code == 2

    def test_unreachable_tolerance_exits_one(self):
        res = runner.invoke(
            main,
            ["verify-identities", "--n", "2", "--draws", "3", "--seed", "1", "--tol", "1e-18"],
        )
        assert res.exit_code == 1


class TestOcp:
    def test_n1_quadrature_json(self):
        res = runner.invoke(main, ["ocp", "--N", "1", "--L", "1", "--W", "1"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["resolved_nome"] == "W/L"
        quad = payload["quadrature"]
        assert quad["rel_deviation"] < 1e-12
        assert quad["grid_x"] == quad["grid_y"] >= 2
        assert quad["two_grid_difference"] <= QUAD_MAX_REL * quad["value"]

    def test_quadrature_rule_is_the_gate_rule(self):
        tol = next(p for p in main.commands["ocp"].params if p.name == "tol")
        assert tol.default == QUAD_MAX_REL

    def test_nan_quadrature_deviation_exits_one(self, monkeypatch):
        """A NaN deviation fails the N = 1 check instead of passing `> tol`."""
        def nan_check(geom):
            est = IntegralEstimate(math.nan, math.nan, 0, 0, (2, 2))
            return PartitionCheck(est, 1.0, math.nan)

        monkeypatch.setattr(cli, "verify_partition_lattice", nan_check)
        res = runner.invoke(main, ["ocp", "--N", "1"])
        assert res.exit_code == 1
        assert math.isnan(json.loads(res.output)["quadrature"]["rel_deviation"])

    def test_n2_requires_seed(self):
        res = runner.invoke(main, ["ocp", "--N", "2"])
        assert res.exit_code == 2

    def test_n2_monte_carlo(self):
        res = runner.invoke(
            main, ["ocp", "--N", "2", "--samples", "100000", "--seed", "9"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["monte_carlo"]["pull_sigma"] < 3.0

    def test_pull_only_rule(self):
        """ocp passes on the pull alone, also at a sigma/value above 1%."""
        res = runner.invoke(
            main, ["ocp", "--N", "3", "--W", "0.05", "--samples", "100000", "--seed", "9"]
        )
        assert res.exit_code == 0
        mc = json.loads(res.output)["monte_carlo"]
        assert mc["pull_sigma"] < MC_MAX_PULL
        assert mc["std_error"] / mc["value"] > 0.01


class TestLandau:
    def test_grid_and_selftest(self):
        res = runner.invoke(
            main, ["landau", "--N", "2", "--L", "1.0", "--grid", "4", "--draws", "5"]
        )
        assert res.exit_code == 0
        assert "x,y,abs_psi_sq" in res.output
        assert "factorization ratio spread" in res.output

    def test_unreachable_tolerance_exits_one(self):
        res = runner.invoke(
            main, ["landau", "--N", "3", "--draws", "7", "--seed", "5", "--tol", "1e-18"]
        )
        assert res.exit_code == 1
        assert "factorization ratio spread" in res.output


class TestTcg:
    def test_report_fields(self):
        res = runner.invoke(main, ["tcg", "--zeta", "0.4", "--nmax", "6", "--cutoff", "20"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["finite_size"]["o1_resolved"] > 0
        assert abs(payload["pressure_fit"]["c"]) < 1.0
        assert payload["mode_roots"]["0"]["max_root_residual"] < 1e-10

    def test_convergence_table(self, tmp_path):
        table = tmp_path / "conv.csv"
        res = runner.invoke(
            main,
            ["tcg", "--zeta", "0.4", "--nmax", "4", "--cutoff", "20", "--kmax", "2",
             "--convergence-out", str(table)],
        )
        assert res.exit_code == 0
        lines = table.read_text().strip().split("\n")
        assert lines[0].startswith("mode,grid,root_index")
        assert len(lines) > 9


class TestCasimir:
    def test_report(self):
        res = runner.invoke(main, ["casimir", "--L", "1.0", "--W", "2.0"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert abs(payload["modular_shift_logWL"] - 0.6931471805599453) < 1e-12


class TestEntryPoint:
    def test_named_error_exits_two(self, monkeypatch, capsys):
        """The configured ``torusgas`` script maps a TorusGasError to exit 2."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["torusgas"]
        module, attr = target.split(":")
        entry = getattr(importlib.import_module(module), attr)
        args = ["ocp", "--W", "0.01"]
        assert isinstance(runner.invoke(main, args).exception, NomeOutOfRange)
        monkeypatch.setattr(sys, "argv", ["torusgas", *args])
        with pytest.raises(SystemExit) as info:
            entry()
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["tcg", "--W", "0.02"],
            ["ocp", "--N", "1", "--W", "0.0193"],
            ["ocp", "--N", "1", "--W", "0.0165"],
            ["ocp", "--N", "1", "--W", "61"],
            ["greens", "--W", "0.0193", "--grid", "2"],
        ],
        ids=["tcg-theta4", "ocp-theta1-prime", "ocp-lowest-aspect", "ocp-highest-aspect",
             "greens-theta1-prime"],
    )
    def test_near_cap_exits_zero(self, args, monkeypatch, capsys):
        """Near the nome cap the direct theta4(0) and theta1'(0) series cancel
        to noise; on the modular route these runs finish with exit 0, and the
        N = 1 lattice rule closes on the closed form at both ends of the
        accepted W/L range."""
        monkeypatch.setattr(sys, "argv", ["torusgas", *args])
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 0
        out = capsys.readouterr().out
        if args[0] == "greens":
            rows = list(csv.reader(out.splitlines()))[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row)
        else:
            payload = json.loads(out)
            if args[0] == "ocp":
                assert payload["quadrature"]["rel_deviation"] < QUAD_MAX_REL
            else:
                assert math.isfinite(payload["log_xi2_closed"])

    @pytest.mark.parametrize(
        "args, error",
        [
            (["ocp", "--L", "-1"], ParameterOutOfRange),
            (["theta", "--q", "0.3", "--eps", "0"], ParameterOutOfRange),
            (["landau", "--N", "0"], ParameterOutOfRange),
            (["landau", "--draws", "0"], ParameterOutOfRange),
        ],
        ids=["ocp-negative-L", "theta-zero-eps", "landau-zero-N", "landau-zero-draws"],
    )
    def test_domain_errors_exit_two(self, args, error, monkeypatch, capsys):
        """Out-of-range input ends in a named error, which ``run`` maps to
        exit 2 (a raw ValueError would exit 1)."""
        assert isinstance(runner.invoke(main, args).exception, error)
        monkeypatch.setattr(sys, "argv", ["torusgas", *args])
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @staticmethod
    def _loaded_after(imports: str, package: str) -> list[str]:
        """The modules of ``package`` a fresh interpreter holds after
        ``import <imports>``."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            f"import sys, {imports}; "
            f"print(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        ).stdout
        return out.split()

    def test_import_loads_no_scipy(self):
        """The library and its command line run on numpy and click alone;
        scipy is a test dependency."""
        assert self._loaded_after("torusgas, torusgas.cli", "scipy") == []

    def test_import_loads_no_concurrent_futures(self):
        """The Monte Carlo imports its thread pool when it first starts one:
        concurrent.futures loads logging, about 6 ms."""
        assert self._loaded_after("torusgas", "concurrent") == []
