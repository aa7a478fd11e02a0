"""Nanoseconds per sample and minor page faults per call of the plasma Monte
Carlo, one checkout against another.

    python benchmarks/plasma_mc.py --baseline ../parent BENCH_8.json

``--baseline`` is another checkout (the parent), compared with this one; the
last argument is the file the JSON record goes to, which must not exist yet.

Each worker is a fresh process with one BLAS thread that imports ``torusgas``
from ``<checkout>/src`` and, for N in {2, 3} and W/L in {0.5, 1, 2} (L = 1),
runs one warm-up ``verify_partition_mc`` call at 1e5 samples and then REPEATS
seeded calls. It records the best wall time per call over the repeats, in ns
per sample, and the median over the repeats of the minor page faults a call
takes, read from ``resource.getrusage(RUSAGE_SELF).ru_minflt`` in the worker's
own process before and after it. It also records the estimate of the seed-1
call, so the record shows whether the two sides give the same bits. ROUNDS
workers per side run alternately (baseline first in even rounds), and the
result is the median over rounds with the quartiles as the noise.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

from theta_kernel import _args, _machine, _rounds, _summary

CONFIGS = tuple((N, wl) for N in (2, 3) for wl in (0.5, 1.0, 2.0))
SAMPLES = 100_000
REPEATS = 5
ROUNDS = 7


def measure(src: str) -> dict:
    """ns per sample and minor faults per call of the Monte Carlo imported
    from ``src``, by configuration, and the seed-1 estimates."""
    sys.path.insert(0, src)
    from torusgas.geometry import TorusGeometry
    from torusgas.plasma import verify_partition_mc

    timings, estimates = {}, {}
    for N, wl in CONFIGS:
        key = f"N={N} W/L={wl}"
        geom = TorusGeometry(1.0, wl, N)
        verify_partition_mc(geom, SAMPLES, 0)   # fill the coefficient caches
        seconds, faults = [], []
        for seed in range(1, REPEATS + 1):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            est = verify_partition_mc(geom, SAMPLES, seed).estimate
            seconds.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            if seed == 1:
                estimates[key] = [est.value.hex(), est.std_error.hex()]
        timings[key] = {
            "ns_per_sample": min(seconds) / SAMPLES * 1e9,
            "minor_faults_per_call": statistics.median(faults),
        }
    return {"timings": timings, "estimates": estimates}


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        print(json.dumps(measure(sys.argv[2])))
        return
    args = _args(__doc__)
    runs = _rounds(__file__, args.baseline, ROUNDS)
    estimates = {name: rs[0]["estimates"] for name, rs in runs.items()}
    record = {
        "harness": "benchmarks/plasma_mc.py",
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "samples": SAMPLES,
        "machine": _machine(),
        "noise": "median over rounds; q1/q3 are the quartiles over rounds; in each "
                 f"round ns_per_sample is the best of {REPEATS} calls and "
                 f"minor_faults_per_call the median of the same {REPEATS}",
        "results": {name: _summary([run["timings"] for run in rs]) for name, rs in runs.items()},
        "estimates_seed1": estimates,
        "estimates_identical": estimates["parent"] == estimates["change"],
    }
    with args.out.open("x") as f:
        f.write(json.dumps(record, indent=2) + "\n")
    print(f"{'config':14s} {'parent ns/sample':>18s} {'change ns/sample':>18s} "
          f"{'parent faults':>14s} {'change faults':>14s}")
    for key in record["results"]["parent"]:
        p, c = record["results"]["parent"][key], record["results"]["change"][key]
        print(f"{key:14s} {p['ns_per_sample']['median']:18.0f} {c['ns_per_sample']['median']:18.0f} "
              f"{p['minor_faults_per_call']['median']:14.0f} {c['minor_faults_per_call']['median']:14.0f}")
    print(f"seed-1 estimates identical: {record['estimates_identical']}")


if __name__ == "__main__":
    main()
