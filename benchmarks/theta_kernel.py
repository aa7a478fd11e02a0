"""Micro-benchmark of the theta series kernel, one checkout against another.

    python benchmarks/theta_kernel.py --baseline ../parent

``--baseline`` is another checkout (the parent), compared with this one.

For each W/L in {0.02, 0.05, 0.2, 1, 5} (q = exp(-pi W/L)) it times, in fresh
worker processes that import ``torusgas`` from ``<checkout>/src``:

* ``theta1`` on 1e5 points, in ns per point (the plasma Monte Carlo regime);
* one scalar call of ``theta1``, ``theta4`` and ``log_abs_theta1``, in us;
* one 6-point call of ``theta1`` (the pair differences of 4 particles), in us.

Points are drawn uniformly over the cell Re u in [0, pi), Im u in
[-pi W/L, pi W/L], so the quasi-periodicity shift n is -1, 0 or 1 as in the
plasma integrand. Every timing is the best of several repeats inside a worker;
ROUNDS workers per side run alternately (baseline first in even rounds), and
the result is the median over rounds with the quartiles as the noise. The
record, with the machine and library versions, goes to ``BENCH_5.json`` at the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ASPECTS = (0.02, 0.05, 0.2, 1.0, 5.0)
BIG = 100_000
ROUNDS = 5
OUT = ROOT / "BENCH_5.json"


def _best(fn, number: int, repeat: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def measure(src: str) -> dict:
    """Timings of the theta kernel imported from ``src``, by W/L."""
    sys.path.insert(0, src)
    import numpy as np
    from torusgas.theta import Nome, log_abs_theta1, theta1, theta4

    rng = np.random.default_rng(5)
    out = {}
    for wl in ASPECTS:
        nome = Nome.from_aspect(wl, 1.0)

        def cell(n):
            return np.pi * rng.uniform(0, 1, n) + 1j * np.pi * wl * rng.uniform(-1, 1, n)

        big, six, one = cell(BIG), cell(6), complex(cell(1)[0])
        theta1(big, nome)   # fill the coefficient caches
        out[str(wl)] = {
            "theta1_ns_per_point": _best(lambda: theta1(big, nome), 2, 5) / BIG * 1e9,
            "theta1_scalar_us": _best(lambda: theta1(one, nome), 2000, 5) * 1e6,
            "theta4_scalar_us": _best(lambda: theta4(one, nome), 2000, 5) * 1e6,
            "log_abs_theta1_scalar_us": _best(lambda: log_abs_theta1(one, nome), 2000, 5) * 1e6,
            "theta1_6pt_us": _best(lambda: theta1(six, nome), 2000, 5) * 1e6,
        }
    return out


def _worker(checkout: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(checkout / "src")],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def _summary(runs: list[dict]) -> dict:
    """Median and quartiles over rounds of every timing."""
    out = {}
    for wl, metrics in runs[0].items():
        out[wl] = {}
        for name in metrics:
            vals = sorted(r[wl][name] for r in runs)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            out[wl][name] = {"median": q[1], "q1": q[0], "q3": q[2]}
    return out


def _machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
    }


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        print(json.dumps(measure(sys.argv[2])))
        return
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path, required=True,
                    help="checkout to compare against (its src/ is imported)")
    args = ap.parse_args()

    sides = {"parent": args.baseline.resolve(), "change": ROOT}
    runs = {name: [] for name in sides}
    for r in range(ROUNDS):
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        for name in order:
            runs[name].append(_worker(sides[name]))
    record = {
        "harness": "benchmarks/theta_kernel.py",
        "rounds": ROUNDS,
        "points": BIG,
        "machine": _machine(),
        "noise": "median over rounds; q1/q3 are the quartiles over rounds, each round the best of 5 repeats",
        "results": {name: _summary(rs) for name, rs in runs.items()},
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    for wl in map(str, ASPECTS):
        cells = []
        for name in sides:
            m = record["results"][name][wl]
            cells.append(
                f"{name}: {m['theta1_ns_per_point']['median']:6.0f} ns/pt "
                f"{m['theta1_scalar_us']['median']:5.1f} us/scalar "
                f"{m['theta1_6pt_us']['median']:5.1f} us/6pt"
            )
        print(f"W/L={wl:>5}  " + "  |  ".join(cells))


if __name__ == "__main__":
    main()
