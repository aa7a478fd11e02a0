"""The parent-versus-change harness's summary of its runs: ``benchmarks/ab.py``
loaded by path, its ``_compare`` and ``_workload`` fed runs made up here."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
              {"name": "ok_frac", "unit": "fraction", "better": "higher", "bound": 0.02}]


def _run(p50=1.0, ok=0.9, digest="d0", detail="r 1e-15", layer=0.5):
    return {"metrics": {"op_p50_ms": p50, "ok_frac": ok}, "input_digest": digest,
            "correct": True, "attempted": 240, "failed": 24,
            "layers": {"scan.landau_s": layer}, "details": {"identity-suite": detail},
            "worker_s": 4.0}


class TestCompare:
    def test_a_tie_counts_for_neither_side(self):
        for better in ("lower", "higher"):
            assert ab._compare({"base": [2.0, 3.0], "change": [2.0, 3.0]}, better)["pairs_won"] == 0

    def test_higher_is_better_counts_wins_the_other_way(self):
        sides = {"base": [2.0, 2.0, 2.0], "change": [1.0, 1.0, 3.0]}
        assert ab._compare(sides, "lower")["pairs_won"] == 2
        assert ab._compare(sides, "higher")["pairs_won"] == 1

    def test_one_pair_gives_median_q1_q3_alike(self):
        m = ab._compare({"base": [2.0], "change": [3.0]}, "lower")
        for side, value in (("base", 2.0), ("change", 3.0)):
            assert m[side] == {"median": value, "q1": value, "q3": value, "runs": [value]}
        assert m["ratio"] == 1.5 and m["pairs_won"] == 0

    def test_quartiles_and_ratio_of_medians(self):
        m = ab._compare({"base": [5.0, 1.0, 3.0, 2.0, 4.0], "change": [3.0] * 5}, "lower")
        assert (m["base"]["q1"], m["base"]["median"], m["base"]["q3"]) == (2.0, 3.0, 4.0)
        assert m["ratio"] == 1.0 and m["pairs_won"] == 2


class TestWorkload:
    def test_matching_runs(self):
        w = ab._workload({"base": [_run(), _run()], "change": [_run(), _run(layer=0.4)]},
                         END_TO_END)
        assert w["inputs_match"] and w["details_match"] and w["correct"]
        assert "estimates_match" not in w
        assert set(w["metrics"]) == {"op_p50_ms", "ok_frac"}
        assert w["metrics"]["ok_frac"]["better"] == "higher"
        assert w["metrics"]["op_p50_ms"]["bound"] == 0.25
        assert w["layers"]["scan.landau_s"]["pairs_won"] == 1
        assert w["layer_worker_s"] == {"base": [4.0, 4.0], "change": [4.0, 4.0]}

    def test_inputs_match_is_false_when_two_digests_differ(self):
        w = ab._workload({"base": [_run(), _run()], "change": [_run(), _run(digest="d1")]},
                         END_TO_END)
        assert not w["inputs_match"]
        assert w["input_digest"]["change"] == ["d0", "d1"]

    def test_details_match_is_false_when_a_detail_differs(self):
        w = ab._workload({"base": [_run()], "change": [_run(detail="r 2e-15")]}, END_TO_END)
        assert w["inputs_match"] and not w["details_match"]


def test_an_existing_record_is_not_overwritten(tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        ab.main(["--base", "HEAD", "--workload", "gate", "--out", str(out)])
    assert exc.value.code == 2
    assert out.read_text() == "{}"
