"""Command-line interface: subcommands, exit codes, deterministic output."""

import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from torusgas import cli, plasma, selftest
from torusgas.cli import main, run
from torusgas.coulombgas import eigen_roots
from torusgas.electrostatics import phi_periodic, phi_quasi
from torusgas.errors import NomeOutOfRange, ParameterOutOfRange, PrecisionUnreachable
from torusgas.geometry import TorusGeometry
from torusgas.identities import identity_draws
from torusgas.landau import MagneticSetup, psi_lll
from torusgas.plasma import MC_MAX_PULL, QUAD_MAX_REL, IntegralEstimate, PartitionCheck
from torusgas.theta import Nome, eta_q

runner = CliRunner()


class TestTheta:
    def test_valid_nome(self):
        res = runner.invoke(main, ["theta", "--q", "0.3", "--z", "0.5"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert abs(payload["theta3"]["im"]) < 1e-12


class TestGreens:
    def test_csv_shape(self):
        res = runner.invoke(main, ["greens", "--L", "1.0", "--W", "1.0", "--grid", "4"])
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        assert lines[0] == "x,y,phi_quasi,phi_periodic"
        assert len(lines) == 17
        assert all(math.isfinite(float(v)) for row in csv.reader(lines[1:]) for v in row)

    def test_table_matches_per_point_calls(self):
        """One array call per potential gives the grid of per-point scalar
        calls, x outer, up to numpy's scalar and array rounding."""
        L, W, grid = 1.3, 0.7, 6
        res = runner.invoke(main, ["greens", "--L", str(L), "--W", str(W), "--grid", str(grid)])
        assert res.exit_code == 0
        rows = [[float(v) for v in row] for row in csv.reader(res.output.splitlines()[1:])]
        geom, src = TorusGeometry(L, W, 1), 0j
        points = [((i + 0.5) * L / grid, (j + 0.5) * W / grid)
                  for i in range(grid) for j in range(grid)]
        assert [row[:2] for row in rows] == [list(p) for p in points]
        for row, (x, y) in zip(rows, points):
            for got, phi in zip(row[2:], (phi_quasi, phi_periodic)):
                ref = phi(complex(x, y), src, geom)
                assert abs(got - ref) <= 5e-15 * abs(ref)

    def test_odd_grid_misses_the_default_source(self):
        """The default source is the cell corner, which no midpoint of any
        grid reaches; the cell centre was a midpoint of every odd grid."""
        res = runner.invoke(main, ["greens", "--grid", "5"])
        assert res.exit_code == 0
        rows = list(csv.reader(res.output.splitlines()))[1:]
        assert len(rows) == 25
        assert all(math.isfinite(float(v)) for row in rows for v in row)


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

    def test_negative_nome_is_a_skewed_torus(self):
        """q = -0.3 is the nome of tau = 1 + 0.383i, which theta accepts: the
        identities hold there too."""
        args = ["verify-identities", "--n", "3", "--draws", "4", "--seed", "1", "--q", "-0.3"]
        assert runner.invoke(main, args).exit_code == 0

    def test_root_nome_refusal_names_size_and_q(self, monkeypatch, capsys):
        """Size N takes its Vandermonde columns at q^(1/N): q = 0.9 passes
        theta's cap but its cube root does not, and the refusal says so."""
        monkeypatch.setattr(sys, "argv", ["torusgas", "verify-identities", "--seed", "1",
                                          "--q", "0.9", "--n", "3"])
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 2
        assert re.fullmatch(
            r"error: size N = 3 takes q\^\(1/N\) = 0\.9655\+0j of q = 0\.9\+0j: "
            r"\|q\| = e\^\(-pi \* 0\.0111\d*\) is outside \|q\| <= 0\.95\n",
            capsys.readouterr().err,
        )

    def test_unreachable_tolerance_exits_one(self, monkeypatch):
        """Negative control: the rows pass by the gate's IDENTITY_MAX_REL, and
        tightened to 1e-18 it fails them."""
        args = ["verify-identities", "--n", "2", "--draws", "3", "--seed", "1"]
        assert runner.invoke(main, args).exit_code == 0
        monkeypatch.setattr(selftest, "IDENTITY_MAX_REL", 1e-18)
        assert runner.invoke(main, args).exit_code == 1


class TestOcp:
    def test_n1_quadrature_json(self):
        res = runner.invoke(main, ["ocp", "--N", "1", "--L", "1", "--W", "1"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert set(payload) == {"N", "L", "W", "middle_form", "final_form_nome_WL",
                                "final_form_nome_LW", "free_energy", "quadrature"}
        assert set(payload["free_energy"]) == {"bulk", "casimir", "total"}
        assert abs(payload["final_form_nome_WL"] - payload["middle_form"]) < 1e-10
        quad = payload["quadrature"]
        assert quad["rel_deviation"] < 1e-12
        assert quad["grid_x"] == quad["grid_y"] >= 2
        assert quad["two_grid_difference"] <= QUAD_MAX_REL * quad["value"]

    def test_quadrature_rule_is_the_gate_rule(self, monkeypatch):
        """Negative control: the lattice check passes by plasma.QUAD_MAX_REL,
        which also stops the grid doubling; set to 0.0 once the grids have
        agreed, no deviation passes it."""
        lattice = cli.verify_partition_lattice

        def then_tighten(geom):
            chk = lattice(geom)
            monkeypatch.setattr(plasma, "QUAD_MAX_REL", 0.0)
            return chk

        monkeypatch.setattr(cli, "verify_partition_lattice", then_tighten)
        res = runner.invoke(main, ["ocp", "--N", "1"])
        assert res.exit_code == 1
        assert json.loads(res.output)["quadrature"]["rel_deviation"] < 1e-12

    def test_pull_rule_is_the_gate_rule(self, monkeypatch):
        """Negative control: the Monte Carlo check passes by plasma.MC_MAX_PULL."""
        args = ["ocp", "--N", "2", "--samples", "100000", "--seed", "9"]
        monkeypatch.setattr(plasma, "MC_MAX_PULL", 0.0)
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert json.loads(res.output)["monte_carlo"]["pull_sigma"] < 3.0

    def test_nan_quadrature_deviation_exits_one(self, monkeypatch):
        """A NaN deviation fails the N = 1 check instead of passing `> tol`."""
        def nan_check(geom):
            est = IntegralEstimate(math.nan, math.nan, 0, 0, (2, 2))
            return PartitionCheck(est, 1.0, math.nan)

        monkeypatch.setattr(cli, "verify_partition_lattice", nan_check)
        res = runner.invoke(main, ["ocp", "--N", "1"])
        assert res.exit_code == 1
        assert math.isnan(json.loads(res.output)["quadrature"]["rel_deviation"])

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

    def test_unreachable_tolerance_exits_one(self, monkeypatch):
        """Negative control: the spread passes by the gate's
        FACTORIZATION_MAX_SPREAD, and tightened to 1e-18 it fails."""
        args = ["landau", "--N", "3", "--draws", "7", "--seed", "5"]
        assert runner.invoke(main, args).exit_code == 0
        monkeypatch.setattr(selftest, "FACTORIZATION_MAX_SPREAD", 1e-18)
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert "factorization ratio spread" in res.output

    def test_nan_spread_exits_one(self, monkeypatch):
        """A nan spread fails the check instead of passing `> tol`."""
        monkeypatch.setattr(selftest, "factorization_spread", lambda *a: (math.nan, math.nan))
        res = runner.invoke(main, ["landau", "--N", "2", "--grid", "2"])
        assert res.exit_code == 1
        assert "factorization ratio spread: nan" in res.output

    def test_table_matches_per_point_calls(self):
        """One array call gives the grid of per-point scalar |psi_m|^2 calls,
        x outer, up to numpy's scalar and array rounding."""
        N, L, m, grid = 3, 1.2, 1, 5
        args = ["landau", "--N", str(N), "--L", str(L), "--m", str(m), "--grid", str(grid)]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        lines = [line for line in res.output.splitlines() if not line.startswith("factor")]
        rows = [[float(v) for v in row] for row in csv.reader(lines[1:])]
        setup = MagneticSetup.plasma_mapping(L=L, N=N)
        points = [((i + 0.5) * setup.L / grid, (j + 0.5) * setup.W2 / grid)
                  for i in range(grid) for j in range(grid)]
        assert [row[:2] for row in rows] == [list(p) for p in points]
        for row, (x, y) in zip(rows, points):
            ref = abs(psi_lll(m, complex(x, y), setup)) ** 2
            assert abs(row[2] - ref) <= 5e-15 * ref


class TestTcg:
    def test_report_fields(self):
        res = runner.invoke(main, ["tcg", "--zeta", "0.4", "--nmax", "6", "--cutoff", "20"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        finite_size = payload["finite_size"]
        assert set(finite_size) == {"o1_fitted", "bulk_per_area"}
        resolved = -2.0 * math.log(eta_q(math.exp(-math.pi)))
        assert abs(finite_size["o1_fitted"] - resolved) < 0.02 * resolved
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

    def test_convergence_table_past_half_the_grid_is_refused(self, tmp_path, monkeypatch, capsys):
        """61 roots per mode need more than the 50-point grid holds: a named
        refusal, not a traceback."""
        table = tmp_path / "conv.csv"
        monkeypatch.setattr(sys, "argv", ["torusgas", "tcg", "--kmax", "60",
                                          "--convergence-out", str(table)])
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("error: 61 distinct magnitudes need a grid")
        assert not table.exists()

    def test_oracle_comparison_converges_in_the_grid(self):
        """--grid-m runs the oracle: a finite log Xi, and the closed form's
        gap to it shrinks from M = 100 to M = 200."""
        rel = {}
        for m in (100, 200):
            res = runner.invoke(main, ["tcg", "--grid-m", str(m)])
            assert res.exit_code == 0
            payload = json.loads(res.output)
            assert math.isfinite(payload["log_xi2_oracle"])
            rel[m] = payload["closed_vs_oracle_rel"]
        assert rel[200] < rel[100]

    def test_abs_lambda_is_the_mode_spectrum(self):
        """The reported roots are ModeSpectrum.abs_lambda, unrounded."""
        res = runner.invoke(main, ["tcg", "--L", "1.5", "--W", "0.8", "--kmax", "2"])
        assert res.exit_code == 0
        modes = json.loads(res.output)["mode_roots"]
        geom = TorusGeometry(1.5, 0.8, 1)
        for n in (0, 1, 2):
            assert modes[str(n)]["abs_lambda"] == eigen_roots(n, geom, 2).abs_lambda.tolist()


class TestCasimir:
    def test_report(self):
        res = runner.invoke(main, ["casimir", "--L", "1.0", "--W", "2.0"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert set(payload) == {"L", "W", "ocp_term_printed_nome", "modular_shift_logWL",
                                "resolved_term", "discrepancies", "fitted"}
        assert set(payload["discrepancies"]) == {"ocp_vs_tcg_printed", "ocp_vs_tcg_resolved_nome"}
        assert abs(payload["modular_shift_logWL"] - 0.6931471805599453) < 1e-12

    def test_ladders_on_the_given_torus(self):
        """casimir reports the torus given and fits the same gas ladder as tcg
        there: at (8, 2) it is 0.0094 off the resolved term, not the 0.195 of
        a (4, 1) torus swapped in."""
        res = runner.invoke(main, ["casimir", "--L", "8", "--W", "2", "--ladders"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert (payload["L"], payload["W"]) == (8.0, 2.0)
        tcg = json.loads(runner.invoke(main, ["tcg", "--L", "8", "--W", "2"]).output)
        fitted = payload["fitted"]["tcg_ladder_remainder"]
        assert fitted == tcg["finite_size"]["o1_fitted"]
        assert abs(fitted - payload["resolved_term"]) < 0.02 * payload["resolved_term"]


class TestSelftest:
    def test_every_criterion_passes(self):
        res = runner.invoke(main, ["selftest"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1] == "9/9 criteria passed"

    def test_failed_criterion_exits_one(self, monkeypatch):
        """Negative control: with the identity tolerance tightened to 1e-18
        that criterion fails, and the gate exits 1."""
        monkeypatch.setattr(selftest, "IDENTITY_MAX_REL", 1e-18)
        res = runner.invoke(main, ["selftest"])
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert lines[0].startswith("FAIL identity-suite")
        assert lines[-1] == "8/9 criteria passed"


class TestJson:
    def test_complex_is_re_im(self):
        assert json.loads(cli._json_dump({"z": 1 - 2j})) == {"z": {"re": 1.0, "im": -2.0}}

    def test_other_types_refused(self):
        """A payload value json cannot write is an error, not its str()."""
        with pytest.raises(TypeError):
            cli._json_dump({"x": object()})


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
        "args",
        [
            ["ocp", "--N", "1", "--W", "400"],
            ["ocp", "--N", "2", "--seed", "1", "--samples", "100000", "--W", "400"],
            ["casimir", "--L", "1", "--W", "1000"],
            ["casimir", "--L", "1000", "--W", "1"],
        ],
        ids=["ocp-lattice", "ocp-monte-carlo", "casimir-W/L", "casimir-L/W"],
    )
    def test_far_aspect_exits_zero(self, args, monkeypatch, capsys):
        """Past W/L = 237 q = e^(-pi W/L) underflows to 0; the closed forms
        take their q-powers from tau, so these runs finish, and the N = 1
        lattice rule closes on the closed form."""
        monkeypatch.setattr(sys, "argv", ["torusgas", *args])
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 0
        payload = json.loads(capsys.readouterr().out)
        if "quadrature" in payload:
            assert payload["quadrature"]["rel_deviation"] < 1e-12
        for value in payload.values():
            assert not isinstance(value, float) or math.isfinite(value)

    @pytest.mark.parametrize(
        "args, error",
        [
            (["ocp", "--L", "-1"], ParameterOutOfRange),
            (["tcg", "--zeta", "0"], ParameterOutOfRange),
            (["landau", "--N", "0"], ParameterOutOfRange),
            (["landau", "--draws", "0"], ParameterOutOfRange),
            (["ocp", "--N", "1", "--W", "1000"], PrecisionUnreachable),
            (["greens", "--W", "1000", "--grid", "2"], PrecisionUnreachable),
            (["tcg", "--zeta", "5", "--W", "3"], PrecisionUnreachable),
            (["ocp", "--N", "2", "--seed", "1", "--samples", "100000", "--W", "500"],
             PrecisionUnreachable),
            (["ocp", "--N", "6", "--W", "300"], PrecisionUnreachable),
            (["casimir", "--L", "1", "--W", "3000"], PrecisionUnreachable),
            (["theta", "--q", "0", "--z", "0.5"], NomeOutOfRange),
            (["theta", "--q", "0.99"], NomeOutOfRange),
            (["theta", "--q", "-0.3"], NomeOutOfRange),
            (["verify-identities", "--seed", "1", "--q", "0.97", "--n", "2"], NomeOutOfRange),
            (["theta", "--q", "0.3", "--z", "1+"], click.UsageError),
            (["landau", "--N", "3", "--L", "nan"], ParameterOutOfRange),
            (["casimir", "--L", "inf", "--W", "1"], ParameterOutOfRange),
            (["landau", "--N", "3", "--m", "5"], ParameterOutOfRange),
            (["ocp", "--N", "2"], ParameterOutOfRange),
            (["verify-identities", "--seed", "1", "--draws", "-1"], ParameterOutOfRange),
            (["verify-identities", "--seed", "1", "--draws", "0"], ParameterOutOfRange),
            (["greens", "--grid", "0"], ParameterOutOfRange),
            (["landau", "--grid", "-1"], ParameterOutOfRange),
            (["tcg", "--grid-m", "18"], ParameterOutOfRange),
        ],
        ids=["ocp-negative-L", "tcg-zero-zeta", "landau-zero-N", "landau-zero-draws",
             "ocp-theta1-underflow", "greens-theta1-underflow", "tcg-xi-overflow",
             "ocp-strip-overflow", "ocp-f_N-overflow", "casimir-eta-underflow",
             "theta-zero-nome", "theta-overlarge-nome", "theta-complex-nome-eta",
             "verify-identities-overlarge-nome", "theta-bad-z", "landau-nan-L", "casimir-inf-L",
             "landau-level-index", "ocp-n2-requires-seed", "verify-identities-negative-draws",
             "verify-identities-zero-draws", "greens-zero-grid", "landau-negative-grid",
             "tcg-coarse-oracle-grid"],
    )
    def test_domain_errors_exit_two(self, args, error, monkeypatch, capsys):
        """Out-of-range input, or a value out of double range, ends in a named
        error, which ``run`` maps to exit 2 (a raw ValueError would exit 1);
        a malformed option is click's usage error, also exit 2."""
        assert isinstance(runner.invoke(main, args, standalone_mode=False).exception, error)
        monkeypatch.setattr(sys, "argv", ["torusgas", *args])
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 2
        err = capsys.readouterr().err
        if error is click.UsageError:
            assert err.startswith("Usage: ") and "\nError: " in err
        else:
            assert err.startswith("error: ")

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
