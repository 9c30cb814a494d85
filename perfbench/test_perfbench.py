"""Tests of the benchmark itself: span arithmetic, the outcome check, and a
seconds-long run of the whole harness on the toy system."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import PER_LAYER, pass_metrics
from perfbench.run import END_TO_END
from perfbench.spans import Span, Tracer, covered_seconds, layer_self_seconds, percentile, self_times
from perfbench.workloads import WORKLOADS, campaign_config, check_outcome, reference_for

ROOT = Path(__file__).resolve().parents[1]


def _tree():
    # root [0, 10] holds two overlapping children and one that overruns it;
    # child a holds a grandchild.
    return [
        Span(0, "run", "campaign", 0.0, 10.0),
        Span(1, "a", "driver", 1.0, 4.0, parent=0),
        Span(2, "b", "fca", 3.0, 6.0, parent=0),
        Span(3, "c", "cache", 9.0, 12.0, parent=0),
        Span(4, "g", "cache", 2.0, 3.0, parent=1),
    ]


def test_self_time_subtracts_the_union_of_children():
    own = self_times(_tree())
    # Children cover [1, 6] and the clipped [9, 10]: 6 s of the root's 10.
    assert own[0] == pytest.approx(4.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    layers = layer_self_seconds(_tree())
    assert layers == pytest.approx({"campaign": 4.0, "driver": 2.0, "fca": 3.0, "cache": 4.0})


def test_covered_seconds_merges_and_skips_empty_intervals():
    assert covered_seconds([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == pytest.approx(3.0)
    assert covered_seconds([]) == 0.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0
    assert percentile([], 50) == 0.0


def test_tracer_nests_spans_and_closes_spans_left_open():
    tracer = Tracer("t")
    outer = tracer.open("stage", "allocate")
    inner = tracer.open("driver", "run_workload")
    leaked = tracer.open("fca", "analyze")
    tracer.close(inner)  # an exception skipped ``leaked``'s close
    tracer.close(outer)
    assert [s.parent for s in tracer.spans] == [None, outer.id, inner.id]
    assert leaked.end == inner.end
    assert all(s.end >= s.start for s in tracer.spans)


def test_pass_metrics_sum_stages_and_account_for_layers():
    spans = [
        Span(0, "run", "campaign", 0.0, 10.0),
        Span(1, "profile", "stage", 0.0, 4.0, parent=0),
        Span(5, "map", "executor", 0.2, 3.8, parent=1),
        Span(2, "run_workload", "driver", 0.5, 3.5, parent=5),
        Span(3, "search", "stage", 4.0, 10.0, parent=0),
        Span(4, "search", "search", 4.0, 9.0, parent=3),
    ]
    metrics = pass_metrics(spans, {"sim.events": 3000}, campaign_s=10.0)
    assert metrics["stage.profile_s"] == pytest.approx(4.0)
    assert metrics["trace.stage_sum_pct"] == pytest.approx(100.0)
    # Driver 3 s + search 5 s; the executor's own 0.6 s is not accounted.
    assert metrics["trace.self_coverage_pct"] == pytest.approx(80.0)
    assert metrics["executor.map_s"] == pytest.approx(3.6)
    assert metrics["driver.runs"] == 1
    assert metrics["driver.us_per_event"] == pytest.approx(1000.0)


def _toy_campaign():
    from repro.pipeline import Pipeline
    from repro.systems import get_system

    config = campaign_config("toy-smoke", 7)
    return Pipeline.default(get_system("toy"), config).run()


def test_tampered_report_fails_the_digest_check():
    from perfbench.child import campaign_digest

    ctx = _toy_campaign()
    report, edges = ctx.get("report"), ctx.driver.edges.all_edges()
    reference = reference_for("toy-smoke", 7)

    def outcome():
        return {
            "digest": campaign_digest(report, edges),
            "bugs": list(report.detected_bugs),
            "cache": {"misses": 0},
        }

    assert check_outcome(outcome(), reference, warm=False) == []
    report.runs_executed += 1
    problems = check_outcome(outcome(), reference, warm=False)
    assert len(problems) == 1 and "digest" in problems[0]
    assert check_outcome(dict(outcome(), bugs=[]), reference, warm=False)[-1].startswith(
        "detected bugs"
    )
    report.runs_executed -= 1
    assert check_outcome(dict(outcome(), cache={"misses": 2}), reference, warm=True) == [
        "2 cache misses on a warm campaign"
    ]


def test_warm_fill_is_keyed_on_the_program_sources(tmp_path, monkeypatch):
    import perfbench.run as run_mod

    (tmp_path / "src" / "repro" / "__pycache__").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    module = tmp_path / "src" / "repro" / "cache.py"
    module.write_text("SCHEMA = 1\n")
    (tmp_path / "perfbench" / "workloads.py").write_text("")
    monkeypatch.setattr(run_mod, "ROOT", tmp_path)
    before = run_mod.source_digest()
    (tmp_path / "src" / "repro" / "__pycache__" / "cache.pyc").write_bytes(b"\0")
    assert run_mod.source_digest() == before
    module.write_text("SCHEMA = 2\n")
    assert run_mod.source_digest() != before


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace, expected", [("0", END_TO_END), ("1", PER_LAYER)])
def test_toy_smoke_runs_the_whole_harness(trace, expected):
    proc = _bench("--workload", "toy-smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in expected]
    assert all(m["unit"] == unit for (_, unit), m in zip(expected, result["metrics"].values()))
    if trace == "1":
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["trace.stage_sum_pct"] == pytest.approx(100.0, abs=2.0)
        assert metrics["driver.runs"] > 0 and metrics["instrument.hook_calls"] > 0
        assert metrics["executor.batches"] > 0 and metrics["cache.bytes_written"] > 0
        spans = ROOT / ".bench_build" / "perfbench" / "trace-toy-smoke-s3-traced-serial.json"
        assert json.loads(spans.read_text())["spans"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "hdfs2-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
