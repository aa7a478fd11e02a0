"""One benchmark process: set up a workload, run its fixed operations, report.

Run by ``run.py``, once per measurement and once per extra set-up sample.
Set-up time runs from the first line of this file through ``import torusgas``,
input generation and one warm-up operation. The last line of standard output
is a JSON record.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
MAX_SCALED_BLOCK_S = 3.0


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten operations beyond it;
    100 (the slowest operation) when there are too few operations."""
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 100.0


class Reference:
    """A fixed piece of pure-Python, small-array numpy, vector numpy and LAPACK
    work that runs no torusgas code. The measuring machine is shared and its
    speed drifts by tens of percent over minutes; timing this kernel next to
    the workload measures that drift. Times of set-up and of blocks short
    enough for the samples beside them to describe are scaled to the kernel's
    nominal duration, so a change in the program shows and a change in the
    machine's speed largely does not."""

    NOMINAL_S = 0.026   # median on the 2-core Xeon the bounds were set on

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((120, 120)) + 1j * rng.standard_normal((120, 120))
        self.x = rng.uniform(0.0, 1.0, 100_000)
        self.small = rng.uniform(0.0, 1.0, 8)

    def speed(self) -> float:
        """Nominal over measured duration of one kernel run (> 1: fast machine)."""
        np = self.np
        t = time.perf_counter()
        s = 0
        for i in range(60_000):
            s += i * i % 7
        for _ in range(600):
            np.sum(np.sin(self.small) * np.exp(self.small))
        for _ in range(3):
            np.sum(np.abs(np.sin(self.x * 3.0) * np.exp(self.x)))
        np.linalg.eigvals(self.a)
        return self.NOMINAL_S / (time.perf_counter() - t)


def provenance_libs() -> dict:
    import numpy as np
    import scipy

    import torusgas

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "torusgas": torusgas.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--deadline", type=float, default=150.0)
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import torusgas

    if not Path(torusgas.__file__).resolve().is_relative_to(src.resolve()):
        print(f"torusgas imported from {torusgas.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads

    # Overflow and invalid-value warnings from the library accompany results
    # the checks already count as failures.
    warnings.simplefilter("ignore", RuntimeWarning)

    wl = workloads.WORKLOADS[args.workload]
    blocks, warmup, digest = wl.generate(args.seed, args.seconds)
    workloads.Accounting().run(wl.checks(warmup))
    setup_raw_s = time.perf_counter() - T0
    ref = Reference()
    setup_speed = float(np.median([ref.speed() for _ in range(3)]))
    setup_s = setup_raw_s * setup_speed
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    acc = workloads.Accounting()
    latencies: list[float] = []
    raw_latencies: list[float] = []
    block_s = {False: [], True: []}
    scaled = {False: [], True: []}
    speeds = [ref.speed()]
    for i, block in enumerate(blocks):
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        t_block = time.perf_counter()
        block_lat = []
        for op in block:
            t_op = time.perf_counter()
            acc.run(wl.checks(op))
            block_lat.append(time.perf_counter() - t_op)
        block_s[traced].append(time.perf_counter() - t_block)
        if traced:
            tracer.uninstall()
        speeds.append(ref.speed())
        # The kernel runs on both sides of the block. Two point samples only
        # describe a short block; a longer one (a gate pass) stays unscaled.
        if block_s[traced][-1] <= MAX_SCALED_BLOCK_S:
            speed = (speeds[-2] + speeds[-1]) / 2.0
        else:
            speed = 1.0
        scaled[traced].append(block_s[traced][-1] * speed)
        latencies.extend(t * speed for t in block_lat)
        raw_latencies.extend(block_lat)
        if time.perf_counter() - T0 > args.deadline:
            print(f"{args.workload}: over the {args.deadline} s deadline after "
                  f"{i + 1} of {len(blocks)} blocks", file=sys.stderr)
            return 3

    _, _, digest_again = wl.generate(args.seed, args.seconds)
    lat_ms = np.asarray(latencies) * 1e3
    raw_ms = np.asarray(raw_latencies) * 1e3
    p_tail = tail_percentile(len(lat_ms))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_digest": digest,
        "inputs_reproducible": digest_again == digest,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "blocks": len(blocks),
        "ops_per_block": len(blocks[0]),
        "block_s": block_s[False],
        "speeds": speeds,
        "wall_s": float(np.median(scaled[False])),
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_tail_ms": float(np.percentile(lat_ms, p_tail)),
        "op_tail_percentile": p_tail,
        "raw": {
            "wall_s": float(np.median(block_s[False])),
            "op_p50_ms": float(np.percentile(raw_ms, 50)),
            "op_tail_ms": float(np.percentile(raw_ms, p_tail)),
        },
        "ops": len(lat_ms),
        "attempted": acc.attempted,
        "failed": acc.failed,
        "failed_by_class": dict(acc.by_class),
        "failed_by_type": dict(acc.by_type),
        "failed_by_family": dict(acc.by_family),
        "first_errors": acc.first_errors,
        "worst_margin": acc.worst_margin,
        "observed_median": {k: float(np.median(v)) for k, v in acc.observed.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "libs": provenance_libs(),
    }
    if tracer is not None:
        from tracer import layer_metrics

        OUT.mkdir(exist_ok=True)
        spans = tracer.arrays()
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        criteria = {fn.__name__: name for name, fn in torusgas.selftest.ALL_CHECKS}
        layers = layer_metrics(spans, criteria)
        traced_wall = float(np.median(block_s[True]))
        layers["trace.overhead_s"] = (traced_wall - record["raw"]["wall_s"], "s")
        record["traced_wall_s"] = traced_wall
        record["traced_block_s"] = block_s[True]
        record["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
