"""torusgas benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each measurement runs in a fresh worker process with the BLAS thread count
fixed at 1. With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics, measured from spans recorded
around calls into each module (see ``tracer.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload untraced, then traced.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("gate", "geometry-scan", "plasma-mc")
SETUP_SAMPLES = 3
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--deadline", f"{max(1.0, deadline - time.monotonic() - 10.0):.1f}"]
    try:
        proc = subprocess.run(
            cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as e:
        raise WorkerFailed(f"worker timed out: {' '.join(cmd)}") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(
            f"worker exited with {proc.returncode}: {' '.join(cmd)}\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def provenance(seed: int, trace: int, libs: dict) -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = next(
        (ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")),
        platform.processor(),
    )
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(
            f"L{_read(index / 'level')} {_read(index / 'type')} {_read(index / 'size')}"
        )
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        **libs,
        "blas_threads": int(_env()["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "seed": seed,
        "trace": trace,
    }


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(base + ["--setup-only"], deadline))
    rec = _worker(base, deadline)
    setups.append(rec)
    setup_raw = [s["setup_raw_s"] for s in setups]
    setups = [s["setup_s"] for s in setups]

    attempted, failed = rec["attempted"], rec["failed"]
    # The gate is the program's own acceptance test, so there any failed
    # criterion is wrong output; elsewhere failures are what is measured.
    correct = rec["inputs_reproducible"] and (workload != "gate" or failed == 0)
    if trace:
        metrics = rec["layers"]
        counts = {"trace.overhead_s": (len(rec["block_s"]), len(rec["traced_block_s"]))}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": rec["wall_s"],
            "op_p50_ms": rec["op_p50_ms"],
            "op_tail_ms": rec["op_tail_ms"],
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        counts = {
            "setup_s": len(setups),
            "wall_s": len(rec["block_s"]),
            "op_p50_ms": rec["ops"],
            "op_tail_ms": rec["ops"],
            "ok_frac": attempted,
            "peak_rss_mb": 1,
        }
    return {
        "workload": workload,
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": counts,
        "setup_samples_s": setups,
        "setup_raw_samples_s": setup_raw,
        "record": rec,
        "provenance": provenance(seed, trace, rec["libs"]),
    }


def report(res: dict) -> None:
    rec, prov = res["record"], res["provenance"]
    w = res["workload"]
    print(f"== {w}  seed {prov['seed']}  trace {prov['trace']}")
    print(f"   provenance: {json.dumps(prov)}")
    print(f"   inputs: {rec['blocks']} blocks x {rec['ops_per_block']} operations, "
          f"sha256 {rec['input_digest']}")
    for name, m in res["metrics"].items():
        n = res["samples"].get(name)
        n_text = f"  (n={n})" if n is not None else ""
        print(f"   {name:40s} {m['value']!r} {m['unit']}{n_text}")
    if not prov["trace"]:
        print(f"   op_tail_ms is p{rec['op_tail_percentile']:g} of {rec['ops']} operations")
        raw = {**rec["raw"], "setup_s": statistics.median(res["setup_raw_samples_s"])}
        print(f"   set-up and blocks of at most 3 s are at reference speed; machine speed "
              f"median {statistics.median(rec['speeds'])!r} of nominal; unscaled {json.dumps(raw)}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"   failed_frac {failed_frac!r} ({res['failed']} of {res['attempted']}) "
          f"by class {json.dumps(rec['failed_by_class'])}")
    print(f"   failed by exception type {json.dumps(rec['failed_by_type'])}")
    if rec["failed_by_family"]:
        print(f"   failed checks by family {json.dumps(rec['failed_by_family'])}")
    if rec["worst_margin"] is not None:
        print(f"   worst_margin {rec['worst_margin']!r} (residual/tolerance, passing operations)")
    for k, v in rec["observed_median"].items():
        print(f"   {k} {v!r} (median over passing operations)")
    if prov["trace"]:
        print(f"   tracing overhead: traced {rec['traced_wall_s']!r} s - untraced "
              f"{rec['raw']['wall_s']!r} s per block, both unscaled")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "torusgas" / "__init__.py").is_file():
        print(f"no torusgas sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    runs = (
        [(w, t) for w in WORKLOADS for t in (0, 1)]
        if args.workload == "all"
        else [(args.workload, args.trace)]
    )
    results = []
    try:
        for w, t in runs:
            res = run_one(w, args.seed, args.seconds, t)
            report(res)
            OUT.mkdir(exist_ok=True)
            (OUT / f"result-{w}-seed{args.seed}-trace{t}.json").write_text(
                json.dumps(res, indent=1)
            )
            results.append(res)
    except WorkerFailed as e:
        print(e, file=sys.stderr)
        return 1

    def summary(res):
        return {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}

    if args.workload == "all":
        print(json.dumps({f"{r['workload']}/trace{r['provenance']['trace']}": summary(r)
                          for r in results}))
    else:
        print(json.dumps(summary(results[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
