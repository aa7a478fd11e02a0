"""Every command-line case that the tests and CI run, one row each.

A row is (id, arguments, exit code, error class or None): exit 0, or exit 2
with the ``TorusGasError`` subclass (or click's ``UsageError``) that the
command raises and ``torusgas.cli.run`` maps to exit 2. ``tests/test_cli.py``
runs every row in process. Run as a script, this module runs the installed
``torusgas`` over every row and checks the exit code and the start of stderr,
``error: `` or click's ``Usage: ``; it prints each failing row's id and exits
1 if any row fails:

    PYTHONWARNINGS=error python tests/cli_cases.py
"""

import os
import subprocess
import sys
from typing import NamedTuple

import click

from torusgas.errors import (
    CoincidentPoints,
    NomeOutOfRange,
    ParameterOutOfRange,
    PrecisionUnreachable,
)


class Case(NamedTuple):
    id: str
    args: list[str]
    code: int
    error: type | None


def _rows(*rows) -> list[Case]:
    return [Case(id, args.split(), code, error) for id, args, code, error in rows]


# Subcommands that share the gate's loops.
SUBCOMMANDS = _rows(
    ("verify-identities-six-sizes", "verify-identities --n 6 --draws 4 --seed 7", 0, None),
    ("landau-n3", "landau --N 3 --grid 4 --draws 5", 0, None),
    ("landau-n5", "landau --N 5 --grid 4 --draws 50", 0, None),
    ("landau-n4-wide", "landau --N 4 --L 8 --grid 4 --draws 50", 0, None),
    ("verify-identities-gate-q0.1", "verify-identities --n 6 --draws 100 --seed 2024 --q 0.1", 0, None),
    ("verify-identities-gate-q0.3", "verify-identities --n 6 --draws 100 --seed 2024 --q 0.3", 0, None),
    ("verify-identities-gate-q0.5", "verify-identities --n 6 --draws 100 --seed 2024 --q 0.5", 0, None),
    ("verify-identities-negative-nome", "verify-identities --n 4 --draws 4 --seed 1 --q -0.3", 0, None),
    ("ocp-n1", "ocp --N 1", 0, None),
    ("ocp-n2", "ocp --N 2 --seed 1", 0, None),
    ("ocp-n3", "ocp --N 3 --seed 2 --W 0.5", 0, None),
    ("ocp-n3-highest-aspect", "ocp --N 3 --seed 1 --samples 100000 --W 61", 0, None),
    ("ocp-n3-lowest-aspect", "ocp --N 3 --seed 1 --samples 100000 --W 0.0165", 0, None),
    ("ocp-n2-real-route-edge", "ocp --N 2 --seed 1 --samples 100000 --W 225", 0, None),
    ("ocp-n2-lowest-aspect", "ocp --N 2 --seed 1 --samples 100000 --W 0.0165", 0, None),
    ("tcg-oracle", "tcg --zeta 0.5 --nmax 8 --grid-m 3200", 0, None),
    ("casimir-ladders", "casimir --L 1 --W 2 --ladders", 0, None),
    ("greens-grid-64", "greens --grid 64", 0, None),
    ("greens-odd-grid", "greens --grid 5", 0, None),
    ("greens-source-at-inf", "greens --grid 2 --zp inf", 0, None),
)

# Near the nome cap |q| = 0.95, where the direct theta4(0) and theta1'(0)
# series cancel to noise and the modular route takes over.
NEAR_CAP = _rows(
    ("tcg-theta4", "tcg --W 0.02", 0, None),
    ("ocp-theta1-prime", "ocp --N 1 --W 0.0193", 0, None),
    ("ocp-lowest-aspect", "ocp --N 1 --W 0.0165", 0, None),
    ("ocp-highest-aspect", "ocp --N 1 --W 61", 0, None),
    ("greens-theta1-prime", "greens --W 0.0193 --grid 2", 0, None),
    ("theta-cap-nome", "theta --q 0.9", 0, None),
)

# Past W/L = 237, where q = e^(-pi W/L) underflows; casimir reads only W/L, so
# a cell whose area overflows is no error there.
FAR_ASPECT = _rows(
    ("ocp-lattice", "ocp --N 1 --W 400", 0, None),
    ("ocp-monte-carlo", "ocp --N 2 --seed 1 --samples 100000 --W 400", 0, None),
    ("greens-far-aspect", "greens --W 300 --grid 4", 0, None),
    ("casimir-W/L", "casimir --L 1 --W 1000", 0, None),
    ("casimir-L/W", "casimir --L 1000 --W 1", 0, None),
    ("casimir-huge-cell", "casimir --L 1e200 --W 1e200", 0, None),
)

# Input out of range, or a value out of double range: a named error, exit 2,
# never exit 1 with a traceback.
REFUSALS = _rows(
    ("ocp-negative-L", "ocp --L -1", 2, ParameterOutOfRange),
    ("tcg-zero-zeta", "tcg --zeta 0", 2, ParameterOutOfRange),
    ("landau-zero-N", "landau --N 0", 2, ParameterOutOfRange),
    ("landau-zero-draws", "landau --draws 0", 2, ParameterOutOfRange),
    ("ocp-theta1-underflow", "ocp --N 1 --W 1000", 2, PrecisionUnreachable),
    ("greens-theta1-underflow", "greens --W 1000 --grid 2", 2, PrecisionUnreachable),
    ("tcg-xi-overflow", "tcg --zeta 5 --W 3", 2, PrecisionUnreachable),
    ("ocp-strip-overflow", "ocp --N 2 --seed 1 --samples 100000 --W 500", 2, PrecisionUnreachable),
    ("ocp-f_N-overflow", "ocp --N 6 --W 300", 2, PrecisionUnreachable),
    ("casimir-eta-underflow", "casimir --L 1 --W 3000", 2, PrecisionUnreachable),
    ("theta-zero-nome", "theta --q 0 --z 0.5", 2, NomeOutOfRange),
    ("theta-overlarge-nome", "theta --q 0.99", 2, NomeOutOfRange),
    ("theta-past-cap-nome", "theta --q 0.97", 2, NomeOutOfRange),
    ("theta-complex-nome-eta", "theta --q -0.3", 2, NomeOutOfRange),
    ("verify-identities-overlarge-nome", "verify-identities --seed 1 --q 0.97 --n 2", 2, NomeOutOfRange),
    ("verify-identities-root-nome", "verify-identities --seed 1 --q 0.9 --n 3", 2, NomeOutOfRange),
    ("theta-bad-z", "theta --q 0.3 --z 1+", 2, click.UsageError),
    ("landau-nan-L", "landau --N 3 --L nan", 2, ParameterOutOfRange),
    ("casimir-inf-L", "casimir --L inf --W 1", 2, ParameterOutOfRange),
    ("landau-level-index", "landau --N 3 --m 5", 2, ParameterOutOfRange),
    ("ocp-n2-requires-seed", "ocp --N 2", 2, ParameterOutOfRange),
    ("verify-identities-negative-draws", "verify-identities --seed 1 --draws -1", 2, ParameterOutOfRange),
    ("verify-identities-zero-draws", "verify-identities --seed 1 --draws 0", 2, ParameterOutOfRange),
    ("verify-identities-zero-n", "verify-identities --seed 1 --n 0", 2, ParameterOutOfRange),
    ("verify-identities-negative-seed", "verify-identities --seed -1", 2, ParameterOutOfRange),
    ("landau-negative-seed", "landau --seed -1", 2, ParameterOutOfRange),
    ("greens-zero-grid", "greens --grid 0", 2, ParameterOutOfRange),
    ("greens-source-on-grid", "greens --grid 1 --zp 0.5+0.5j", 2, CoincidentPoints),
    ("landau-negative-grid", "landau --grid -1", 2, ParameterOutOfRange),
    ("tcg-coarse-oracle-grid", "tcg --grid-m 18", 2, ParameterOutOfRange),
    ("tcg-convergence-past-half-grid", f"tcg --kmax 60 --convergence-out {os.devnull}", 2,
     ParameterOutOfRange),
    ("ocp-product-overflow", "ocp --N 4 --L 1e150 --W 1e150", 2, PrecisionUnreachable),
    ("ocp-middle-underflow", "ocp --N 4 --L 1e-150 --W 1e-150", 2, PrecisionUnreachable),
    ("ocp-area-overflow", "ocp --N 1 --L 1e200 --W 1e200", 2, ParameterOutOfRange),
    ("ocp-area-underflow", "ocp --N 1 --L 1e-300 --W 1e-300", 2, ParameterOutOfRange),
    ("landau-normalization-overflow", "landau --L 1e300", 2, PrecisionUnreachable),
    ("landau-normalization-overflow-tiny-L", "landau --L 1e-300", 2, PrecisionUnreachable),
    ("landau-product-length", "landau --L 1e100", 2, PrecisionUnreachable),
    ("casimir-product-length", "casimir --L 1e-320 --W 1", 2, PrecisionUnreachable),
    ("tcg-roots-overflow", "tcg --nmax 3 --L 1e-170 --W 1e-170", 2, PrecisionUnreachable),
)

CASES = SUBCOMMANDS + NEAR_CAP + FAR_ASPECT + REFUSALS


def stderr_prefix(case: Case) -> str:
    """How stderr starts on a refusal: click's usage text, or ``run``'s ``error: ``."""
    return "Usage: " if case.error is click.UsageError else "error: "


def main() -> int:
    failed = []
    for case in CASES:
        res = subprocess.run(["torusgas", *case.args], capture_output=True, text=True)
        if res.returncode != case.code or case.error and not res.stderr.startswith(stderr_prefix(case)):
            failed.append(case.id)
            print(f"FAIL {case.id}: torusgas {' '.join(case.args)} exited {res.returncode}, "
                  f"expected {case.code}\n{res.stderr}", file=sys.stderr)
    print(f"{len(CASES) - len(failed)}/{len(CASES)} cases as listed", *failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
