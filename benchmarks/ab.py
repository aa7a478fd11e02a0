"""Parent-versus-change benchmark: ``perfbench/run.py`` and a layer worker on
two revisions, in interleaved pairs.

    python3 benchmarks/ab.py --base HEAD~1 --workload gate geometry-scan plasma-mc \
        --pairs 10 --seconds 20 --out BENCH_<n>_ab.json

``--base`` is any revision git can archive; the change is HEAD, so only
committed files are measured. Each side is a ``git archive`` of its revision
unpacked into a temporary directory. For every pair and workload the harness
runs two processes from each tree, with one BLAS thread, the base first in
even pairs and the change first in odd ones:

* ``perfbench/run.py --workload <w> --seed 1 --seconds <s> --trace 0``, whose
  end-to-end metrics, input digest, correctness and failure count are read
  from the tree's ``.perfbench_out/result-<w>-seed1-trace0.json``;
* the layer worker: this file, the same on both sides, with the tree's
  ``src/`` and ``perfbench/`` first on ``sys.path``. It times the layers that
  carry the workload:

  - ``gate``: each ``selftest`` criterion's reported seconds, best of PASSES
    passes, and ``coulombgas.mode_logdet(0, TorusGeometry(1, 1, 1), M, 0.5)``
    at every M in GRIDS; it returns every criterion's detail string;
  - ``geometry-scan``: the seconds of each ``SCAN_FAMILIES`` check over the
    seed-1 first block (240 operations, each with its families in order, as
    perfbench runs them), best of PASSES passes; and per W/L in ASPECTS, in
    us, a scalar call of ``theta1``, ``theta4`` and ``log_abs_theta1``, a call
    of ``theta1`` and of ``log_abs_theta1`` on each of SWEEP points (a call of
    at most ``theta._POINT_MAX`` points runs the point kernel, one of more the
    array path, so the sweep shows where the two cost the same) and a cold
    build of the nome's series (``_coefficients.__wrapped__``);
  - ``plasma-mc``: ns per sample (best) and minor page faults per call
    (median) of REPEATS seeded ``verify_partition_mc`` calls after a warm-up,
    at the workload's six (N, W/L) pairs and sample count; it returns the
    seed-1 estimate's bits. Per W/L in ASPECTS, ``theta1`` in ns per point on
    BLOCK points (the lattice rule's block) and on BIG points, and
    ``log_abs_theta1``, the call the Monte Carlo's integrand makes, in ns per
    point on MC_BLOCK points (its row block: 1e5 rows in 8 blocks on 2 CPUs).

  A θ or ``mode_logdet`` time is the best of REPEATS loops of about LOOP_S
  seconds. θ points lie uniformly over the cell Re u in [0, pi),
  Im u in [-pi W/L, pi W/L], as in the plasma integrand.

Per workload and metric the record holds both sides' medians and quartiles
over the pairs, every run, the ratio of the change's median to the base's and
the pairs the change won; a tie counts for neither side. The end-to-end
metrics are ``BENCHMARK.json``'s list, with its unit, direction and bound;
every layer is lower-is-better, its unit the suffix of its name. The
alternating pairs are the noise control: no time is scaled by a reference
kernel. ``inputs_match`` is true when every run of both sides read the same
input digest, ``details_match`` (``gate``) when every run printed the same
gate details and ``estimates_match`` (``plasma-mc``) the same seed-1 bits;
``layer_worker_s`` is the worker's wall time per side and pair. The record,
with the machine and both revisions, goes to ``--out`` (which must not exist
yet) or, without it, to standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
PASSES = 3
REPEATS = 5
LOOP_S = 0.01
GRIDS = tuple(100 * 2**k for k in range(8))
ASPECTS = (0.02, 0.05, 0.2, 1.0, 5.0)
SWEEP = (1, 2, 4, 8, 12, 16, 32)
BLOCK = 8192
BIG = 100_000
MC_BLOCK = 12_500


def _git(*args: str, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, **kw)


def _checkout(rev: str, dest: Path) -> str:
    """Unpack ``git archive <rev>`` into dest; the revision's commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", commit).stdout, check=True)
    return commit


def _run(tree: Path, workload: str, seconds: int) -> dict:
    """One untraced perfbench run from ``tree``, then its layer worker: the
    metric values, input digest, correctness, failure count and the worker's
    output and wall time."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                    "--seconds", str(seconds), "--trace", "0"],
                   cwd=tree, env=ENV, check=True, capture_output=True, text=True)
    res = json.loads((tree / ".perfbench_out" / f"result-{workload}-seed{SEED}-trace0.json").read_text())
    t0 = time.perf_counter()
    worker = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", workload,
                             str(tree)], env=ENV, check=True, capture_output=True, text=True)
    return {
        "metrics": {k: m["value"] for k, m in res["metrics"].items()},
        "input_digest": res["record"]["input_digest"],
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        **json.loads(worker.stdout),
        "worker_s": time.perf_counter() - t0,
    }


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": q[1], "q1": q[0], "q3": q[2]}


def _compare(sides: dict[str, list[float]], better: str) -> dict:
    """Both sides' quartiles and runs of one metric, the ratio of the change's
    median to the base's and the pairs the change won; ``better`` is "lower"
    or "higher"."""
    lower = better == "lower"
    summary = {side: {**_quartiles(vals), "runs": vals} for side, vals in sides.items()}
    won = sum((c < b) if lower else (c > b) for b, c in zip(sides["base"], sides["change"]))
    return {
        **summary,
        "ratio": summary["change"]["median"] / summary["base"]["median"],
        "pairs_won": won,
    }


def _workload(sides: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """The record of one workload from both sides' ``_run`` results."""
    runs = sides["base"] + sides["change"]

    def each(get) -> dict:
        return {side: [get(r) for r in rs] for side, rs in sides.items()}

    def same(key: str) -> bool:
        return len({json.dumps(r[key], sort_keys=True) for r in runs}) == 1

    record = {
        "inputs_match": same("input_digest"),
        "correct": all(r["correct"] for r in runs),
        "attempted": runs[0]["attempted"],
        "failed": each(lambda r: r["failed"]),
        "input_digest": each(lambda r: r["input_digest"]),
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                **_compare(each(lambda r: r["metrics"][m["name"]]), m["better"])}
                    for m in end_to_end},
        "layers": {name: _compare(each(lambda r: r["layers"][name]), "lower")
                   for name in runs[0]["layers"]},
        "layer_worker_s": each(lambda r: r["worker_s"]),
    }
    for key in ("details", "estimates"):
        if key in runs[0]:
            record[f"{key}_match"] = same(key)
    return record


def _machine() -> dict:
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


# --------------------------------------------------------------------------
# The layer worker, run in a fresh process per side, pair and workload.


def _best(fn) -> float:
    """Best seconds per call of ``fn`` over REPEATS loops of about LOOP_S
    seconds, after one call that fills its caches."""
    fn()
    t0 = time.perf_counter()
    fn()
    number = max(1, int(LOOP_S / (time.perf_counter() - t0)))
    return min(timeit.repeat(fn, number=number, repeat=REPEATS)) / number


def _cell(rng: np.random.Generator, wl: float, n: int) -> np.ndarray:
    return np.pi * rng.uniform(0, 1, n) + 1j * np.pi * wl * rng.uniform(-1, 1, n)


def _gate() -> dict:
    from torusgas.coulombgas import mode_logdet
    from torusgas.geometry import TorusGeometry
    from torusgas.selftest import ALL_CHECKS

    layers = {}
    for _ in range(PASSES):
        results = [fn() for _, fn in ALL_CHECKS]
        for r in results:
            key = f"selftest.{r.name}_s"
            layers[key] = min(layers.get(key, math.inf), r.seconds)
    geom = TorusGeometry(1.0, 1.0, 1)
    for M in GRIDS:
        layers[f"coulombgas.mode_logdet_M{M}_s"] = _best(lambda: mode_logdet(0, geom, M, 0.5))
    return {"layers": layers, "details": {r.name: r.detail for r in results}}


def _scan() -> dict:
    from torusgas.theta import Nome, _coefficients, log_abs_theta1, theta1, theta4
    from workloads import WORKLOADS, Accounting

    scan = WORKLOADS["geometry-scan"]
    blocks, warm, _ = scan.generate(SEED, 1)
    Accounting().run(scan.checks(warm))
    layers, spent = {}, {}

    def timed(family, check):   # a failed check is timed too, as perfbench times it
        def run():
            t0 = time.perf_counter()
            try:
                return check()
            finally:
                spent[family] = spent.get(family, 0.0) + time.perf_counter() - t0
        return family, run

    for _ in range(PASSES):
        spent.clear()
        acc = Accounting()
        for op in blocks[0]:
            acc.run([timed(*c) for c in scan.checks(op)])
        for family, s in spent.items():
            key = f"scan.{family}_s"
            layers[key] = min(layers.get(key, math.inf), s)

    rng = np.random.default_rng(5)
    for wl in ASPECTS:
        nome, at = Nome.from_aspect(wl, 1.0), f"@W/L={wl}"
        one = complex(_cell(rng, wl, 1)[0])
        for fn in (theta1, theta4, log_abs_theta1):
            layers[f"theta.{fn.__name__}_scalar_us{at}"] = _best(lambda: fn(one, nome)) * 1e6
        for k in SWEEP:
            pts = _cell(rng, wl, k)
            for fn in (theta1, log_abs_theta1):
                layers[f"theta.{fn.__name__}_{k}pt_us{at}"] = _best(lambda: fn(pts, nome)) * 1e6
        layers[f"theta.cold_build_us{at}"] = _best(lambda: _coefficients.__wrapped__(nome)) * 1e6
    return {"layers": layers}


def _plasma() -> dict:
    from torusgas.geometry import TorusGeometry
    from torusgas.plasma import verify_partition_mc
    from torusgas.theta import Nome, log_abs_theta1, theta1
    from workloads import MC_CONFIGS, MC_SAMPLES

    layers, estimates = {}, {}
    for N, wl in MC_CONFIGS:
        at = f"@N={N},W/L={wl}"
        geom = TorusGeometry(1.0, wl, N)
        verify_partition_mc(geom, MC_SAMPLES, 0)   # fill the coefficient caches
        seconds, faults = [], []
        for seed in range(1, REPEATS + 1):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            est = verify_partition_mc(geom, MC_SAMPLES, seed).estimate
            seconds.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            if seed == 1:
                estimates[at] = [est.value.hex(), est.std_error.hex()]
        layers[f"plasma.mc_ns_per_sample{at}"] = min(seconds) / MC_SAMPLES * 1e9
        layers[f"plasma.minor_faults_per_call{at}"] = statistics.median(faults)

    rng = np.random.default_rng(5)
    for wl in ASPECTS:
        nome = Nome.from_aspect(wl, 1.0)
        for fn, n in ((theta1, BLOCK), (theta1, BIG), (log_abs_theta1, MC_BLOCK)):
            pts = _cell(rng, wl, n)
            layers[f"theta.{fn.__name__}_{n}pt_ns_per_point@W/L={wl}"] = (
                _best(lambda: fn(pts, nome)) / n * 1e9)
    return {"layers": layers, "estimates": estimates}


def _worker(workload: str, tree: str) -> dict:
    """The layers of ``workload`` timed on the torusgas of ``tree``."""
    src = Path(tree).resolve() / "src"
    sys.path[:0] = [str(src), str(src.parent / "perfbench")]
    import torusgas

    if not Path(torusgas.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"torusgas imported from {torusgas.__file__}, not from {src}")
    # as in perfbench: overflow and invalid-value warnings come with failed checks
    warnings.simplefilter("ignore", RuntimeWarning)
    return {"gate": _gate, "geometry-scan": _scan, "plasma-mc": _plasma}[workload]()


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="revision to compare HEAD against")
    ap.add_argument("--workload", nargs="+", choices=[w["name"] for w in bench["workloads"]],
                    required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out", type=Path, default=None, help="JSON record to write; must not exist")
    args = ap.parse_args(argv)
    if args.out is not None and args.out.exists():
        ap.error(f"{args.out} exists; give a new path rather than overwrite a record")

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        # names of one length: the tree's path moves a worker's page-fault count
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "head"}
        commits = {"base": _checkout(args.base, trees["base"]),
                   "change": _checkout("HEAD", trees["change"])}
        runs = {w: {"base": [], "change": []} for w in args.workload}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for w in args.workload:
                for side in order:
                    runs[w][side].append(_run(trees[side], w, args.seconds))

    record = {
        "harness": "benchmarks/ab.py",
        "command": f"perfbench/run.py --workload <w> --seed {SEED} --seconds {args.seconds} "
                   "--trace 0, then the layer worker, from a git archive of each side, "
                   "one BLAS thread",
        "machine": _machine(),
        "base": {"rev": args.base, "commit": commits["base"]},
        "change": {"rev": "HEAD", "commit": commits["change"]},
        "pairs": args.pairs,
        "base_first_in": "even pairs",
        "noise": "median and quartiles over the pairs, per side",
        "workloads": {w: _workload(sides, bench["end_to_end"]) for w, sides in runs.items()},
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with args.out.open("x") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:   # one side's layers, started by _run
        print(json.dumps(_worker(*sys.argv[2:])))
    else:
        sys.exit(main())
