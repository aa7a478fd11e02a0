"""Seconds per ``selftest`` criterion and per full gate pass, one checkout
against another.

    python benchmarks/gate_criteria.py --baseline ../parent

``--baseline`` is another checkout (the parent), compared with this one.

Each worker is a fresh process with one BLAS thread that imports ``torusgas``
from ``<checkout>/src`` and runs the nine criteria of ``selftest.ALL_CHECKS``
in order at their defaults, PASSES times. A criterion's time is the
``seconds`` its ``CriterionResult`` reports, the time ``torusgas selftest``
prints; a pass's time is the wall time of all nine. Each worker keeps the
best over its passes. ROUNDS workers per side run alternately (baseline first
in even rounds), and the result is the median over rounds with the quartiles
as the noise. The record, with the machine, library versions and every
criterion's printed detail (its residuals), goes to ``BENCH_7.json`` at the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from theta_kernel import _machine, _summary

ROOT = Path(__file__).resolve().parent.parent
PASSES = 3
ROUNDS = 5
OUT = ROOT / "BENCH_7.json"


def measure(src: str) -> dict:
    """Best seconds per criterion and per pass of the gate imported from
    ``src``, every criterion's pass/fail and the detail of its last pass."""
    sys.path.insert(0, src)
    from torusgas.selftest import ALL_CHECKS

    best: dict[str, float] = {}
    for _ in range(PASSES):
        t0 = time.perf_counter()
        results = [fn() for _, fn in ALL_CHECKS]
        total = time.perf_counter() - t0
        for r in results:
            best[r.name] = min(best.get(r.name, float("inf")), r.seconds)
        best["pass"] = min(best.get("pass", float("inf")), total)
    return {
        "seconds": best,
        "passed": all(r.passed for r in results),
        "detail": {r.name: r.detail for r in results},
    }


def _worker(checkout: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(checkout / "src")],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


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
        "harness": "benchmarks/gate_criteria.py",
        "rounds": ROUNDS,
        "passes": PASSES,
        "machine": _machine(),
        "noise": "median over rounds; q1/q3 are the quartiles over rounds, "
                 f"each round the best of {PASSES} passes",
        "results": {
            name: {
                **_summary([{"seconds": run["seconds"]} for run in rs]),
                "passed": all(run["passed"] for run in rs),
                "detail": rs[-1]["detail"],
            }
            for name, rs in runs.items()
        },
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{'criterion':28s} {'parent s [q1, q3]':>26s} {'change s [q1, q3]':>26s}  ratio")
    for crit in record["results"]["parent"]["seconds"]:
        cells = []
        for name in sides:
            m = record["results"][name]["seconds"][crit]
            cells.append(f"{m['median']:8.3f} [{m['q1']:6.3f}, {m['q3']:6.3f}]")
        ratio = (record["results"]["change"]["seconds"][crit]["median"]
                 / record["results"]["parent"]["seconds"][crit]["median"])
        print(f"{crit:28s} {cells[0]:>26s} {cells[1]:>26s}  {ratio:5.2f}")


if __name__ == "__main__":
    main()
