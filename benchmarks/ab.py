"""Parent-versus-change benchmark: ``perfbench/run.py`` on two revisions, in
interleaved pairs.

    python3 benchmarks/ab.py --base HEAD~1 --workload gate geometry-scan plasma-mc \
        --pairs 10 --seconds 20 --out BENCH_<n>_ab.json

``--base`` is any revision git can archive; the change is HEAD, so only
committed files are measured. Each side is a ``git archive`` of its revision
unpacked into a temporary directory. For every pair and workload the harness
runs ``perfbench/run.py --workload <w> --seed 1 --seconds <s> --trace 0``
from each tree, with one BLAS thread, the base first in even pairs and the
change first in odd ones. Each run's end-to-end metrics, input digest,
correctness and failure count are read from the tree's
``.perfbench_out/result-<w>-seed1-trace0.json``.

Per workload and end-to-end metric (``BENCHMARK.json``'s list, with its unit,
direction and bound) the record holds both sides' medians and quartiles over
the pairs, every run, the ratio of the change's median to the base's and the
pairs the change won; a tie counts for neither side. ``inputs_match`` is true
when every run of both sides read the same input digest. The record, with the
machine and both revisions, goes to ``--out`` (which must not exist yet) or,
without it, to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from theta_kernel import _machine

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _git(*args: str, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, **kw)


def _checkout(rev: str, dest: Path) -> str:
    """Unpack ``git archive <rev>`` into dest; the revision's commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", commit).stdout, check=True)
    return commit


def _run(tree: Path, workload: str, seconds: int) -> dict:
    """One untraced perfbench run from ``tree``: its metric values, input
    digest, correctness and failure count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                    "--seconds", str(seconds), "--trace", "0"],
                   cwd=tree, env=env, check=True, capture_output=True, text=True)
    out = tree / ".perfbench_out" / f"result-{workload}-seed{SEED}-trace0.json"
    res = json.loads(out.read_text())
    return {
        "metrics": {k: m["value"] for k, m in res["metrics"].items()},
        "input_digest": res["record"]["input_digest"],
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
    }


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": q[1], "q1": q[0], "q3": q[2]}


def _compare(runs: dict, metric: dict) -> dict:
    """Both sides' quartiles of one metric, the ratio of medians and the pairs
    the change won."""
    name, lower = metric["name"], metric["better"] == "lower"
    sides = {side: [r["metrics"][name] for r in rs] for side, rs in runs.items()}
    summary = {side: {**_quartiles(vals), "runs": vals} for side, vals in sides.items()}
    won = sum((c < b) if lower else (c > b) for b, c in zip(sides["base"], sides["change"]))
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        **summary,
        "ratio": summary["change"]["median"] / summary["base"]["median"],
        "pairs_won": won,
    }


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
        trees = {side: Path(tmp) / side for side in ("base", "change")}
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
                   "--trace 0 from a git archive of each side, one BLAS thread",
        "machine": _machine(),
        "base": {"rev": args.base, "commit": commits["base"]},
        "change": {"rev": "HEAD", "commit": commits["change"]},
        "pairs": args.pairs,
        "base_first_in": "even pairs",
        "noise": "median and quartiles over the pairs, per side",
        "workloads": {
            w: {
                "inputs_match": len({r["input_digest"] for rs in sides.values() for r in rs}) == 1,
                "correct": all(r["correct"] for rs in sides.values() for r in rs),
                "attempted": sides["base"][0]["attempted"],
                "failed": {side: [r["failed"] for r in rs] for side, rs in sides.items()},
                "input_digest": {side: [r["input_digest"] for r in rs]
                                 for side, rs in sides.items()},
                "metrics": {m["name"]: _compare(sides, m) for m in bench["end_to_end"]},
            }
            for w, sides in runs.items()
        },
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with args.out.open("x") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
