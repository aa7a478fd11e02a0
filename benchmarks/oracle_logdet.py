"""Seconds per Coulomb-gas oracle log-det against the grid M, one checkout
against another.

    python benchmarks/oracle_logdet.py --baseline ../parent BENCH_9.json

``--baseline`` is another checkout (the parent), compared with this one; the
last argument is the file the JSON record goes to, which must not exist yet.

Each worker is a fresh process with one BLAS thread that imports ``torusgas``
from ``<checkout>/src`` and times ``coulombgas.mode_logdet(0, geom, M, 0.5)``
on the unit square for M in GRIDS = 100, 200, ..., 12800. The baseline side is
taken as the dense reference (an M x M singular-value decomposition before the
circulant route), so it runs only up to REF_MAX_M = 800; this checkout runs
every M. A timing is the best of REPEATS repeats of ``timeit``'s autorange
loop; the worker also records each log-det, so the record shows whether the
two sides agree where both ran. ROUNDS workers per side run alternately
(baseline first in even rounds), and the result is the median over rounds with
the quartiles as the noise.
"""

from __future__ import annotations

import json
import sys
import timeit
from pathlib import Path

from theta_kernel import ROOT, _args, _machine, _rounds, _summary

GRIDS = tuple(100 * 2**k for k in range(8))
REF_MAX_M = 800
ZETA = 0.5
REPEATS = 5
ROUNDS = 5


def measure(src: str) -> dict:
    """Best seconds per ``mode_logdet`` call imported from ``src``, by M, and
    the log-det values."""
    sys.path.insert(0, src)
    from torusgas.coulombgas import mode_logdet
    from torusgas.geometry import TorusGeometry

    geom = TorusGeometry(1.0, 1.0, 1)
    reference = Path(src).resolve() != (ROOT / "src").resolve()
    timings, logdets = {}, {}
    for M in GRIDS:
        if reference and M > REF_MAX_M:
            break
        timer = timeit.Timer(lambda: mode_logdet(0, geom, M, ZETA))
        number, _ = timer.autorange()
        timings[f"M={M}"] = {"seconds": min(timer.repeat(REPEATS, number)) / number}
        logdets[f"M={M}"] = mode_logdet(0, geom, M, ZETA)
    return {"timings": timings, "logdets": logdets}


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        print(json.dumps(measure(sys.argv[2])))
        return
    args = _args(__doc__)
    runs = _rounds(__file__, args.baseline, ROUNDS)
    logdets = {name: rs[0]["logdets"] for name, rs in runs.items()}
    shared = logdets["parent"].keys() & logdets["change"].keys()
    record = {
        "harness": "benchmarks/oracle_logdet.py",
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "call": f"mode_logdet(0, TorusGeometry(1, 1, 1), M, {ZETA})",
        "machine": _machine(),
        "noise": "median over rounds; q1/q3 are the quartiles over rounds, "
                 f"each round the best of {REPEATS} autorange loops",
        "results": {name: _summary([run["timings"] for run in rs]) for name, rs in runs.items()},
        "logdets": logdets,
        "max_abs_logdet_difference": max(
            abs(logdets["parent"][k] - logdets["change"][k]) for k in shared
        ),
    }
    with args.out.open("x") as f:
        f.write(json.dumps(record, indent=2) + "\n")
    print(f"{'grid':8s} {'parent s [q1, q3]':>34s} {'change s [q1, q3]':>34s}  ratio")
    for key, c in record["results"]["change"].items():
        p = record["results"]["parent"].get(key)
        cells = [f"{m['seconds']['median']:.3e} [{m['seconds']['q1']:.3e}, {m['seconds']['q3']:.3e}]"
                 if m else "-" for m in (p, c)]
        ratio = f"{p['seconds']['median'] / c['seconds']['median']:7.1f}" if p else ""
        print(f"{key:8s} {cells[0]:>34s} {cells[1]:>34s}  {ratio}")
    print(f"max |log-det difference| where both ran: {record['max_abs_logdet_difference']:.2e}")


if __name__ == "__main__":
    main()
