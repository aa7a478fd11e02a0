"""Micro-benchmark of the theta series kernel, one checkout against another.

    python benchmarks/theta_kernel.py --baseline ../parent BENCH_6.json

``--baseline`` is another checkout (the parent), compared with this one; the
last argument is the file the JSON record goes to, which must not exist yet.

For each W/L in {0.02, 0.05, 0.2, 1, 5} (q = exp(-pi W/L)) it times, in fresh
worker processes that import ``torusgas`` from ``<checkout>/src``:

* ``theta1`` on 8192 points, in ns per point: the plasma Monte Carlo regime,
  whose integrand runs in row blocks of ``plasma._MC_BLOCK`` = 8192 samples;
* ``theta1`` on 1e5 points, in ns per point: a large vectorised call, whose
  fresh temporaries page-fault in on every call;
* one scalar call of ``theta1``, ``theta4`` and ``log_abs_theta1``, in us;
  the 0-d end of the sweep below;
* one call of ``theta1`` and of ``log_abs_theta1`` on each of SWEEP points
  (1 to 32), in us: a call of at most ``theta._POINT_MAX`` points runs the
  Python-complex point kernel, one of more the array path, so the sweep
  shows where the two cost the same;
* one cold build of the nome's series (``_coefficients.__wrapped__``, the
  uncached function), in us: what a fresh torus pays once per nome.

Points are drawn uniformly over the cell Re u in [0, pi), Im u in
[-pi W/L, pi W/L], so the quasi-periodicity shift n is -1, 0 or 1 as in the
plasma integrand. Every timing is the best of several repeats inside a worker,
at reference speed: the shared machine's speed drifts by tens of percent over
minutes, so each worker times ``perfbench/worker.py``'s ``Reference`` kernel
(no torusgas code) before the first timing and after each one, and scales a
timing by the kernel's nominal over its measured duration, averaged over the
two runs beside it, as perfbench scales its blocks. ROUNDS workers per side
run alternately (baseline first in even rounds), and the result is the median
over rounds with the quartiles as the noise. The record, with the machine and
library versions, goes to the output file.
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
BLOCK = 8192
BIG = 100_000
SWEEP = (1, 2, 4, 8, 12, 16, 32)
ROUNDS = 5


def _best(fn, number: int, repeat: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def measure(src: str) -> dict:
    """Timings of the theta kernel imported from ``src``, by W/L, each scaled
    to reference speed by the reference kernel timed before and after it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, src)
    import numpy as np
    from torusgas.theta import Nome, _coefficients, log_abs_theta1, theta1, theta4
    from worker import Reference

    ref = Reference()
    speeds = [ref.speed()]

    def timed(fn, number: int, repeat: int) -> float:
        t = _best(fn, number, repeat)
        speeds.append(ref.speed())
        return t * (speeds[-2] + speeds[-1]) / 2.0

    rng = np.random.default_rng(5)
    out = {}
    for wl in ASPECTS:
        nome = Nome.from_aspect(wl, 1.0)

        def cell(n):
            return np.pi * rng.uniform(0, 1, n) + 1j * np.pi * wl * rng.uniform(-1, 1, n)

        big, block, one = cell(BIG), cell(BLOCK), complex(cell(1)[0])
        theta1(big, nome)   # fill the coefficient caches
        out[str(wl)] = timings = {
            "theta1_block_ns_per_point": timed(lambda: theta1(block, nome), 10, 5) / BLOCK * 1e9,
            "theta1_ns_per_point": timed(lambda: theta1(big, nome), 2, 5) / BIG * 1e9,
            "theta1_scalar_us": timed(lambda: theta1(one, nome), 2000, 5) * 1e6,
            "theta4_scalar_us": timed(lambda: theta4(one, nome), 2000, 5) * 1e6,
            "log_abs_theta1_scalar_us": timed(lambda: log_abs_theta1(one, nome), 2000, 5) * 1e6,
        }
        for k in SWEEP:
            pts = cell(k)
            for name, fn in (("theta1", theta1), ("log_abs_theta1", log_abs_theta1)):
                timings[f"{name}_{k}pt_us"] = timed(lambda fn=fn, pts=pts: fn(pts, nome), 1000, 5) * 1e6
        timings["cold_build_us"] = timed(lambda: _coefficients.__wrapped__(nome), 500, 5) * 1e6
    return out


def _args(doc: str) -> argparse.Namespace:
    """The arguments every harness takes: ``--baseline`` and the output file,
    which is refused if it exists so that no earlier record is overwritten."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--baseline", type=Path, required=True,
                    help="checkout to compare against (its src/ is imported)")
    ap.add_argument("out", type=Path, help="JSON record to write; must not exist")
    args = ap.parse_args()
    if args.out.exists():
        ap.error(f"{args.out} exists; give a new path rather than overwrite a record")
    return args


def _rounds(script: str, baseline: Path, rounds: int) -> dict[str, list]:
    """Worker results by side ("parent", "change") over ``rounds`` rounds.

    Each worker is ``script --worker <checkout>/src`` in a fresh process with
    one BLAS thread that prints its measurement as JSON; the sides alternate,
    the baseline first in even rounds."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sides = {"parent": baseline.resolve(), "change": ROOT}
    runs = {name: [] for name in sides}
    for r in range(rounds):
        for name in list(sides) if r % 2 == 0 else list(reversed(sides)):
            proc = subprocess.run(
                [sys.executable, script, "--worker", str(sides[name] / "src")],
                env=env, check=True, capture_output=True, text=True,
            )
            runs[name].append(json.loads(proc.stdout))
    return runs


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
    args = _args(__doc__)
    runs = _rounds(__file__, args.baseline, ROUNDS)
    record = {
        "harness": "benchmarks/theta_kernel.py",
        "rounds": ROUNDS,
        "points": {"block": BLOCK, "big": BIG, "sweep": list(SWEEP)},
        "machine": _machine(),
        "noise": ("median over rounds; q1/q3 are the quartiles over rounds, each round the best of 5 "
                  "repeats scaled to reference speed by perfbench's Reference kernel timed beside it"),
        "results": {name: _summary(rs) for name, rs in runs.items()},
    }
    with args.out.open("x") as f:
        f.write(json.dumps(record, indent=2) + "\n")
    for wl in map(str, ASPECTS):
        cells = []
        for name in runs:
            m = record["results"][name][wl]
            cells.append(
                f"{name}: {m['theta1_block_ns_per_point']['median']:6.0f} ns/pt@{BLOCK} "
                f"{m['theta1_ns_per_point']['median']:6.0f} ns/pt@{BIG} "
                f"{m['theta1_scalar_us']['median']:5.1f} us/scalar "
                f"{m['cold_build_us']['median']:5.1f} us/build"
            )
        print(f"W/L={wl:>5}  " + "  |  ".join(cells))
        for fn in ("theta1", "log_abs_theta1"):
            sweep = "  ".join(
                f"{k}: " + "/".join(f"{record['results'][name][wl][f'{fn}_{k}pt_us']['median']:.1f}"
                                   for name in runs) for k in SWEEP)
            print(f"           {fn} us per call by points, parent/change  {sweep}")


if __name__ == "__main__":
    main()
