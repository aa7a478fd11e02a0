"""Batch command-line front end.

Every subcommand is a single invocation that computes, writes its table or
report, and exits: 0 on success, 1 when a verification residual exceeds its
tolerance, 2 on usage errors. Stochastic commands require an explicit seed and
produce byte-identical output for identical configuration. The commands parse
options, call the library and print: every tolerance and pass rule they apply
is the gate's (``selftest.IDENTITY_MAX_REL``,
``selftest.FACTORIZATION_MAX_SPREAD``, ``plasma.PartitionCheck.passed``), and
the ladder base and distinct mode roots are the library's.
"""

from __future__ import annotations

import csv
import dataclasses
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
from .errors import TorusGasError, _check_count
from .geometry import TorusGeometry
from .identities import identity_draws
from .landau import MagneticSetup, psi_lll
from .plasma import free_energy, verify_partition_lattice, verify_partition_mc, zn_closed
from .theta import Nome, eta_q, theta1, theta1_prime0, theta3, theta4
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
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows])
    return buf.getvalue()


def _grid(L: float, W: float, grid: int):
    """The grid x grid midpoints of [0, L] x [0, W] as flat (x, y, x + iy),
    x the outer index."""
    _check_count(grid, "grid")
    x = np.repeat((np.arange(grid) + 0.5) * L / grid, grid)
    y = np.tile((np.arange(grid) + 0.5) * W / grid, grid)
    return x, y, x + 1j * y


@click.group()
def main():
    """Exactly solvable Coulomb systems on a torus: evaluation and verification."""


@main.command()
@click.option("--q", type=float, required=True, help="nome; theta refuses |q| > 0.95")
@click.option("--z", type=COMPLEX, default=0j, show_default=True, help="argument")
@click.option("--out", type=click.Path(), default=None)
def theta(q, z, out):
    """Evaluate theta1, theta3, theta4, theta1'(0) and the eta product at (z, q)."""
    nome = Nome.from_q(q)
    payload = {
        "q": q,
        "z": z,
        "theta1": theta1(z, nome),
        "theta3": theta3(z, nome),
        "theta4": theta4(z, nome),
        "theta1_prime0": theta1_prime0(nome),
        "eta_q": eta_q(nome),
    }
    _emit(_json_dump(payload), out)


@main.command()
@click.option("--L", "L", type=float, default=1.0, show_default=True)
@click.option("--W", "W", type=float, default=1.0, show_default=True)
@click.option("--grid", type=int, default=32, show_default=True, help="points per side")
@click.option("--zp", type=COMPLEX, default=0j, show_default=True,
              help="source point; the default cell corner is no grid midpoint")
@click.option("--out", type=click.Path(), default=None)
def greens(L, W, grid, zp, out):
    """Tabulate the quasi-periodic and periodic potentials on a grid (CSV)."""
    geom = TorusGeometry(L, W, 1)
    x, y, z = _grid(L, W, grid)
    rows = np.column_stack([x, y, phi_quasi(z, zp, geom), phi_periodic(z, zp, geom)])
    _emit(_csv_text(["x", "y", "phi_quasi", "phi_periodic"], rows.tolist()), out)


@main.command("verify-identities")
@click.option("--n", "n_max", type=int, default=4, show_default=True, help="largest size")
@click.option("--draws", type=int, default=100, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--q", type=float, default=0.3, show_default=True,
              help="nome; theta refuses |q| > 0.95, and size N takes it at q^(1/N)")
@click.option("--out", type=click.Path(), default=None)
def verify_identities(n_max, draws, seed, q, out):
    """Random-draw residuals of the determinant identities, in the gate's draw
    order: every Vandermonde size, then every Frobenius size (CSV; exit 1 on
    failure)."""
    nome = Nome.from_q(q)
    rng = np.random.default_rng(seed)
    rows = []
    failed = False
    for identity, N, r in identity_draws(
        rng, nome, range(2, n_max + 1), range(1, n_max + 1), draws
    ):
        columns = zip(r.abs_residual.tolist(), r.rel_residual.tolist(), r.near_zero.tolist())
        rows += [[identity, N, seed, d, a, b, int(z)] for d, (a, b, z) in enumerate(columns)]
        failed |= not r.passes(_selftest.IDENTITY_MAX_REL).all()
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
@click.option("--out", type=click.Path(), default=None)
def landau(N, L, grid, m, draws, seed, out):
    """Tabulate |psi_m|^2 on a grid (CSV) and self-test the determinant
    factorization; exit 1 if the factorization ratio drifts."""
    setup = MagneticSetup.plasma_mapping(L=L, N=N)
    spread, _ = _selftest.factorization_spread(setup, np.random.default_rng(seed), draws)
    x, y, z = _grid(setup.L, setup.W2, grid)
    rows = np.column_stack([x, y, np.abs(psi_lll(m, z, setup)) ** 2])
    _emit(_csv_text(["x", "y", "abs_psi_sq"], rows.tolist()), out)
    click.echo(f"factorization ratio spread: {spread:.3e}", err=True)
    if not spread < _selftest.FACTORIZATION_MAX_SPREAD:
        raise SystemExit(EXIT_TOLERANCE)


@main.command()
@click.option("--N", "N", type=int, default=1, show_default=True)
@click.option("--L", "L", type=float, default=1.0, show_default=True)
@click.option("--W", "W", type=float, default=1.0, show_default=True)
@click.option("--samples", type=int, default=1_000_000, show_default=True)
@click.option("--seed", type=int, default=None, help="required for N >= 2")
@click.option("--out", type=click.Path(), default=None)
def ocp(N, L, W, samples, seed, out):
    """Plasma partition function: closed forms, free energy, and the numerical
    check of the defining integral (lattice rule for N = 1, Monte Carlo beyond)."""
    geom = TorusGeometry(L, W, N)
    chain = zn_closed(N, geom)
    payload = {
        "N": N,
        "L": L,
        "W": W,
        "middle_form": chain.middle_form,
        "final_form_nome_WL": chain.final_form_WL,
        "final_form_nome_LW": chain.final_form_LW,
        "free_energy": dataclasses.asdict(free_energy(N, geom)),
    }
    chk = None
    if N == 1:
        chk = verify_partition_lattice(geom)
        nx, ny = chk.estimate.grid
        payload["quadrature"] = {
            "value": chk.estimate.value,
            "closed_form": chk.closed_form,
            "rel_deviation": chk.rel_deviation,
            "grid_x": nx,
            "grid_y": ny,
            "two_grid_difference": chk.estimate.std_error,
        }
    elif N in (2, 3):
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
    _emit(_json_dump(payload), out)
    if chk is not None and not chk.passed:
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
            "abs_lambda": spec.abs_lambda.tolist(),
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
    br = log_xi2_asymptotic(zeta, geom)
    payload["finite_size"] = {
        "o1_fitted": br.o1_fitted,
        "bulk_per_area": br.bulk_per_area,
    }
    if convergence_out:
        rows = []
        for n in (0, 1, 2):
            closed = modes[str(n)]["abs_lambda"]
            for M in (50, 100, 200):
                got = oracle_leading_magnitudes(n, geom, len(closed), Ms=(M, 2 * M))
                for k, (c, g) in enumerate(zip(closed, got)):
                    rows.append([n, M, k, float(g), float(c), abs(g - c) / c])
        header = ["mode", "grid", "root_index", "oracle_abs_lambda",
                  "closed_abs_lambda", "rel_deviation"]
        _emit(_csv_text(header, rows), convergence_out)
    _emit(_json_dump(payload), out)


@main.command()
@click.option("--L", "L", type=float, default=1.0, show_default=True)
@click.option("--W", "W", type=float, default=1.0, show_default=True)
@click.option("--zeta", type=float, default=0.5, show_default=True)
@click.option("--ladders/--no-ladders", default=False, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def casimir(L, W, zeta, ladders, out):
    """Report the O(1) finite-size term, its value at the other nome and the
    exact modular shift between the two."""
    r = casimir_report(TorusGeometry(L, W, 1), zeta=zeta, run_ladders=ladders)
    payload = {
        "L": L,
        "W": W,
        "ocp_term_printed_nome": r.ocp_term,
        "modular_shift_logWL": r.modular_shift,
        "resolved_term": r.resolved_term,
        "discrepancies": r.discrepancies,
        "fitted": r.fitted,
    }
    _emit(_json_dump(payload), out)


@main.command()
def selftest():
    """Run the full verification suite, one pass/fail line per criterion."""
    results = _selftest.run_all()
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
