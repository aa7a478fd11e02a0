"""Batch command-line front end.

Every subcommand is a single invocation that computes, writes its table or
report, and exits: 0 on success, 1 when a verification residual exceeds its
tolerance, 2 on usage errors. Stochastic commands require an explicit seed and
produce byte-identical output for identical configuration.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import click
import numpy as np

from . import selftest as _selftest
from .coulombgas import (
    eigen_roots,
    fit_pressure,
    log_xi2_asymptotic,
    log_xi2_closed,
    oracle_leading_magnitudes,
    xi2_closed,
)
from .electrostatics import phi_periodic, phi_quasi
from .errors import TorusGasError
from .geometry import TorusGeometry
from .landau import MagneticSetup, psi_lll
from .plasma import free_energy, verify_partition_mc, verify_partition_quadrature, zn_closed
from .theta import Nome, SeriesPrecision, eta_q, theta1, theta1_prime0, theta3, theta4
from .universality import casimir_report

EXIT_TOLERANCE = 1


class ComplexParam(click.ParamType):
    name = "complex"

    def convert(self, value, param, ctx):
        try:
            return complex(str(value).replace(" ", ""))
        except ValueError:
            self.fail(f"{value!r} is not a complex number", param, ctx)


COMPLEX = ComplexParam()


def _physics_nome(q: float) -> Nome:
    if not 0.0 < q <= 0.95:
        raise click.UsageError(f"nome q = {q} must lie in (0, 0.95]")
    return Nome.from_q(q)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_jsonable) + "\n"


def _jsonable(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return str(x)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows])
    return buf.getvalue()


def _flatten(payload, prefix=""):
    rows = []
    for key in sorted(payload):
        value = payload[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=name + "."))
        else:
            rows.append([name, value])
    return rows


def _emit_payload(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "csv":
        _emit(_csv_text(["quantity", "value"], _flatten(payload)), out)
    else:
        _emit(_json_dump(payload), out)


@click.group()
def main():
    """Exactly solvable Coulomb systems on a torus: evaluation and verification."""


@main.command()
@click.option("--q", type=float, required=True, help="nome, 0 < q <= 0.95")
@click.option("--z", type=COMPLEX, default=0j, show_default=True, help="argument")
@click.option("--eps", type=float, default=1e-14, show_default=True)
@click.option("--max-terms", type=int, default=64, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def theta(q, z, eps, max_terms, out):
    """Evaluate theta1, theta3, theta4, theta1'(0) and the eta product at (z, q)."""
    nome = _physics_nome(q)
    prec = SeriesPrecision(epsilon=eps, max_terms=max_terms)
    payload = {
        "q": q,
        "z": z,
        "theta1": theta1(z, nome, prec),
        "theta3": theta3(z, nome, prec),
        "theta4": theta4(z, nome, prec),
        "theta1_prime0": theta1_prime0(nome, prec),
        "eta_q": eta_q(nome, prec),
    }
    _emit(_json_dump(payload), out)


@main.command()
@click.option("--L", "L", type=float, default=1.0, show_default=True)
@click.option("--W", "W", type=float, default=1.0, show_default=True)
@click.option("--grid", type=int, default=32, show_default=True, help="points per side")
@click.option("--zp", type=COMPLEX, default=None, help="source point (default cell center)")
@click.option("--out", type=click.Path(), default=None)
def greens(L, W, grid, zp, out):
    """Tabulate the quasi-periodic and periodic potentials on a grid (CSV)."""
    geom = TorusGeometry(L, W, 1)
    src = zp if zp is not None else complex(L / 2.0, W / 2.0)
    rows = []
    for i in range(grid):
        for j in range(grid):
            x = (i + 0.5) * L / grid
            y = (j + 0.5) * W / grid
            z = complex(x, y)
            rows.append([x, y, phi_quasi(z, src, geom), phi_periodic(z, src, geom)])
    _emit(_csv_text(["x", "y", "phi_quasi", "phi_periodic"], rows), out)


@main.command("verify-identities")
@click.option("--n", "n_max", type=int, default=4, show_default=True, help="largest size")
@click.option("--draws", type=int, default=100, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--q", type=float, default=0.3, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def verify_identities(n_max, draws, seed, q, tol, out):
    """Random-draw residuals of the determinant identities, in the gate's draw
    order: every Vandermonde size, then every Frobenius size (CSV; exit 1 on
    failure)."""
    nome = _physics_nome(q)
    rng = np.random.default_rng(seed)
    rows = []
    failed = False
    for identity, N, d, r in _selftest.identity_draws(
        rng, nome, range(2, n_max + 1), range(1, n_max + 1), draws
    ):
        rows.append([identity, N, seed, d, r.abs_residual, r.rel_residual, int(r.near_zero)])
        failed |= not r.passes(tol)
    header = ["identity", "size", "seed", "draw", "abs_residual", "rel_residual", "near_zero"]
    _emit(_csv_text(header, rows), out)
    if failed:
        raise SystemExit(EXIT_TOLERANCE)


@main.command()
@click.option("--N", "N", type=int, default=3, show_default=True, help="flux integer")
@click.option("--L", "L", type=float, default=1.0, show_default=True)
@click.option("--grid", type=int, default=24, show_default=True)
@click.option("--m", "m", type=int, default=0, show_default=True, help="level index")
@click.option("--draws", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def landau(N, L, grid, m, draws, seed, tol, out):
    """Tabulate |psi_m|^2 on a grid (CSV) and self-test the determinant
    factorization; exit 1 if the factorization ratio drifts."""
    setup = MagneticSetup.plasma_mapping(L=L, N=N)
    rows = []
    for i in range(grid):
        for j in range(grid):
            x = (i + 0.5) * setup.L / grid
            y = (j + 0.5) * setup.W2 / grid
            rows.append([x, y, abs(psi_lll(m, complex(x, y), setup)) ** 2])
    _emit(_csv_text(["x", "y", "abs_psi_sq"], rows), out)

    spread, _ = _selftest.factorization_spread(setup, np.random.default_rng(seed), draws)
    click.echo(f"factorization ratio spread: {spread:.3e}", err=True)
    if spread > tol:
        raise SystemExit(EXIT_TOLERANCE)


@main.command()
@click.option("--N", "N", type=int, default=1, show_default=True)
@click.option("--L", "L", type=float, default=1.0, show_default=True)
@click.option("--W", "W", type=float, default=1.0, show_default=True)
@click.option("--samples", type=int, default=1_000_000, show_default=True)
@click.option("--seed", type=int, default=None, help="required for N >= 2")
@click.option("--tol", type=float, default=_selftest.QUAD_MAX_REL, show_default=True,
              help="quadrature deviation gate")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def ocp(N, L, W, samples, seed, tol, fmt, out):
    """Plasma partition function: closed forms, free energy, and the numerical
    check of the defining integral (quadrature for N = 1, Monte Carlo beyond)."""
    geom = TorusGeometry(L, W, N)
    chain = zn_closed(N, geom)
    fe = free_energy(N, geom)
    payload = {
        "N": N,
        "L": L,
        "W": W,
        "middle_form": chain.middle_form,
        "final_form": chain.final_form,
        "final_form_nome_WL": chain.final_form_WL,
        "final_form_nome_LW": chain.final_form_LW,
        "resolved_nome": chain.resolved_nome,
        "free_energy": {
            "bulk": fe.bulk,
            "surface": fe.surface,
            "casimir": fe.casimir,
            "total": fe.total,
        },
    }
    failed = False
    if N == 1:
        chk = verify_partition_quadrature(geom)
        payload["quadrature"] = {
            "value": chk.estimate.value,
            "closed_form": chk.closed_form,
            "rel_deviation": chk.rel_deviation,
        }
        failed |= not chk.rel_deviation < tol
    elif N in (2, 3):
        if seed is None:
            raise click.UsageError("--seed is required for the Monte Carlo check")
        chk = verify_partition_mc(geom, samples=samples, seed=seed)
        payload["monte_carlo"] = {
            "value": chk.estimate.value,
            "std_error": chk.estimate.std_error,
            "samples": chk.estimate.samples,
            "seed": chk.estimate.seed,
            "closed_form": chk.closed_form,
            "rel_deviation": chk.rel_deviation,
            "pull_sigma": chk.pull,
        }
        failed |= not chk.pull < _selftest.MC_MAX_PULL
    _emit_payload(payload, fmt, out)
    if failed:
        raise SystemExit(EXIT_TOLERANCE)


@main.command()
@click.option("--zeta", type=float, default=0.5, show_default=True)
@click.option("--L", "L", type=float, default=1.0, show_default=True)
@click.option("--W", "W", type=float, default=1.0, show_default=True)
@click.option("--nmax", type=int, default=8, show_default=True, help="mode pairs in the product")
@click.option("--grid-m", "grid_m", type=int, default=0, show_default=True,
              help="oracle grid; 0 skips the oracle comparison")
@click.option("--cutoff", type=int, default=40, show_default=True, help="pressure cutoff density")
@click.option("--kmax", type=int, default=3, show_default=True, help="root pairs per mode")
@click.option("--convergence-out", type=click.Path(), default=None,
              help="write a CSV grid-convergence table of oracle spectra")
@click.option("--out", type=click.Path(), default=None)
def tcg(zeta, L, W, nmax, grid_m, cutoff, kmax, convergence_out, out):
    """Coulomb-gas grand partition function: closed form, mode spectra,
    pressure-sum fit, and the finite-size ladder breakdown."""
    geom = TorusGeometry(L, W, 1)
    payload = {
        "zeta": zeta,
        "L": L,
        "W": W,
        "n_max": nmax,
        "log_xi2_closed": log_xi2_closed(zeta, geom, nmax),
        "xi2_closed": xi2_closed(zeta, geom, nmax),
    }
    modes = {}
    for n in (0, 1, 2):
        spec = eigen_roots(n, geom, kmax)
        modes[str(n)] = {
            "mu": spec.mu,
            "abs_lambda": sorted(set(np.round(np.abs(spec.lambdas), 12)), reverse=True),
            "max_root_residual": float(spec.residuals.max()),
        }
    payload["mode_roots"] = modes
    if grid_m:
        from .coulombgas import oracle_log_xi2

        lo = oracle_log_xi2(zeta, geom, nmax, M=grid_m)
        payload["log_xi2_oracle"] = lo
        payload["closed_vs_oracle_rel"] = abs(
            math.exp(payload["log_xi2_closed"]) - math.exp(lo)
        ) / math.exp(payload["log_xi2_closed"])
    fit = fit_pressure(1.0, np.arange(4.0, 17.0), cutoff)
    payload["pressure_fit"] = {"a": fit.a, "b": fit.b, "c": fit.c, "cutoff_density": cutoff}
    ladder_geom = TorusGeometry(max(L, 4.0), max(L, 4.0) * W / L, 1)
    br = log_xi2_asymptotic(zeta if zeta > 0 else 0.5, ladder_geom, cutoff_density=8)
    payload["finite_size"] = {
        "o1_fitted": br.o1_fitted,
        "o1_resolved": br.o1_resolved,
        "o1_printed": br.o1_printed,
        "bulk_per_area": br.bulk_per_area,
    }
    if convergence_out:
        rows = []
        for n in (0, 1, 2):
            spec = eigen_roots(n, geom, kmax)
            closed = sorted(set(np.round(np.abs(spec.lambdas), 12)), reverse=True)
            for M in (50, 100, 200):
                got = oracle_leading_magnitudes(n, geom, len(closed), Ms=(M, 2 * M))
                for k, (c, g) in enumerate(zip(closed, got)):
                    rows.append([n, M, k, float(g), float(c), abs(g - c) / c])
        header = ["mode", "grid", "root_index", "oracle_abs_lambda",
                  "closed_abs_lambda", "rel_deviation"]
        with open(convergence_out, "w", newline="") as fh:
            fh.write(_csv_text(header, rows))
    _emit(_json_dump(payload), out)


@main.command()
@click.option("--L", "L", type=float, default=1.0, show_default=True)
@click.option("--W", "W", type=float, default=1.0, show_default=True)
@click.option("--zeta", type=float, default=0.5, show_default=True)
@click.option("--ladders/--no-ladders", default=False, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def casimir(L, W, zeta, ladders, fmt, out):
    """Report every convention of the O(1) finite-size term with the exact
    modular reconciliation between them."""
    geom = TorusGeometry(L, W, 1)
    if ladders and (L < 4 or W < 4):
        geom = TorusGeometry(4.0, 4.0 * W / L, 1)
    r = casimir_report(geom, zeta=zeta, run_ladders=ladders)
    payload = {
        "L": geom.L,
        "W": geom.W,
        "ocp_term_printed_nome": r.ocp_term,
        "tcg_term": r.tcg_term,
        "gff_term": r.gff_term,
        "ocp_term_resolved_nome": r.ocp_term_resolved_nome,
        "modular_shift_logWL": r.modular_shift,
        "resolved_term": r.resolved_term,
        "discrepancies": r.discrepancies,
        "fitted": r.fitted,
    }
    _emit_payload(payload, fmt, out)


@main.command()
@click.option("--fast", is_flag=True, help="trim the Monte Carlo sample count")
def selftest(fast):
    """Run the full verification suite, one pass/fail line per criterion."""
    results = _selftest.run_all(fast=fast)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"{status} {r.name:28s} [{r.seconds:6.1f}s] {r.detail}")
        failed += not r.passed
    click.echo(f"{len(results) - failed}/{len(results)} criteria passed")
    if failed:
        raise SystemExit(EXIT_TOLERANCE)


def run():
    try:
        main(standalone_mode=True)
    except TorusGasError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(2)


if __name__ == "__main__":  # pragma: no cover
    run()
