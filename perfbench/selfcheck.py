"""Self-tests of the benchmark itself.

    python3 perfbench/selfcheck.py

1. ``BENCHMARK.json`` names exactly the metrics the benchmark prints.
2. A smoke-size run of every workload, untraced and traced, prints every
   metric name with its unit, and the last line carries exactly those metrics.
3. Negative control: geometry-scan operations that pass all count as failed,
   in the zn_closed check alone, once the product form of ``zn_closed`` is
   scaled by 1 + 1e-6.
4. Two runs with the same seed use the same inputs (same digest) and give the
   same failed_frac, worst_margin and mc_rel_error.
5. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark exits non-zero without printing a result.

Takes about five minutes; exits non-zero on the first failed test.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_metrics():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    from tracer import layer_metrics

    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS, (e2e, run.END_TO_END_UNITS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    import numpy as np

    empty = {k: np.zeros(0, np.int64) for k in ("name_id", "parent", "size", "tag",
                                                "start_ns", "end_ns")}
    empty["names"] = np.array(["theta.theta1"])
    from torusgas import selftest

    criteria = {fn.__name__: name for name, fn in selftest.ALL_CHECKS}
    layers = layer_metrics(empty, criteria)
    layers["trace.overhead_s"] = (0.0, "s")
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == {k: u for k, (_, u) in layers.items()}, (
        set(per_layer) ^ set(layers)
    )


def test_smoke_prints_every_metric():
    for w in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", w["name"], "--seed", "11", "--seconds", "1",
                         "--trace", str(trace))
            out = last_json(proc)
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            assert out["attempted"] >= 1 and out["correct"], out
            text = proc.stdout
            for name, unit in want.items():
                assert any(name in ln and unit in ln for ln in text.splitlines()[:-1]), name
            print(f"smoke {w['name']} trace {trace}: {len(want)} metrics printed")


def test_negative_control():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import warnings

    import numpy as np
    import workloads
    from torusgas import plasma

    warnings.simplefilter("ignore", RuntimeWarning)
    ops, _ = workloads._scan_block(np.random.default_rng([5, 1]))

    def passing(op) -> bool:
        acc = workloads.Accounting()
        acc.run(workloads.GeometryScan.checks(op))
        return acc.failed == 0

    ops = [op for op in ops[:60] if passing(op)]
    assert len(ops) >= 20, len(ops)
    original = plasma._log_product_form
    plasma._log_product_form = lambda N, rho, q: original(N, rho, q) + math.log1p(1e-6)
    try:
        acc = workloads.Accounting()
        for op in ops:
            acc.run(workloads.GeometryScan.checks(op))
    finally:
        plasma._log_product_form = original
    assert acc.failed == len(ops), (acc.failed, len(ops))
    assert dict(acc.by_family) == {"zn_closed:check": len(ops)}, dict(acc.by_family)
    print(f"negative control: {acc.failed} of {len(ops)} passing operations fail once "
          f"zn_closed's product form is scaled by 1 + 1e-6")


def test_same_seed_same_outcome():
    for w in ("geometry-scan", "plasma-mc"):
        recs = []
        for _ in range(2):
            last_json(bench("--workload", w, "--seed", "23", "--seconds", "2"))
            res = json.loads((ROOT / ".perfbench_out" / f"result-{w}-seed23-trace0.json").read_text())
            r = res["record"]
            recs.append((r["input_digest"], r["failed"] / r["attempted"], r["worst_margin"],
                         r["observed_median"]))
        assert recs[0] == recs[1], recs
        print(f"same seed {w}: {recs[0][0][:12]} failed_frac {recs[0][1]!r}")


def test_bare_directory_fails():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    try:
        proc = bench("--workload", "gate", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"bare directory: exit {proc.returncode}, no result")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print("selfcheck passed")
