"""Unit tests for the bench harness helpers."""

from repro.bench import bench_config, format_table
from repro.bench.runners import BUDGET_PER_FAULT


def test_format_table_alignment():
    out = format_table(["A", "Blong"], [["x", 1], ["yy", 22]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("A")
    assert "-" in lines[1]


def test_bench_config_overrides():
    cfg = bench_config("minihdfs2", beam_width=5)
    assert cfg.beam_width == 5
    assert cfg.budget_per_fault == BUDGET_PER_FAULT["minihdfs2"]
    assert cfg.repeats == 3


def test_bench_config_default_budget():
    cfg = bench_config("unknown-system")
    assert cfg.budget_per_fault == 8


# ------------------------------------------------------- campaign benchmark


def test_bench_campaign_smoke(tmp_path):
    import json

    from repro.bench import bench_campaign, check_regression, write_bench_json

    result = bench_campaign(smoke=True, workers=2, backends=("serial", "thread"), overhead=False)
    assert result["system"] == "toy"
    serial = result["backends"]["serial"]
    thread = result["backends"]["thread"]
    assert serial["wall_s"] > 0
    assert thread["identical_to_serial"]
    assert thread["digest"] == serial["digest"]
    assert set(serial["phases"]) == {"analyze", "profile", "allocate", "search", "report"}
    # recall rides next to speed, for check_regression's recall gate
    assert serial["detected_bugs"] == ["TOY-1"]
    assert isinstance(result["dfs_campaign"]["backends"]["serial"]["detected_bugs"], list)
    # the code-slice analysis stats ride along for slicer-regression CI
    analysis = result["analysis"]
    assert analysis["functions"] > 0 and analysis["call_edges"] > 0
    assert analysis["wall_total_s"] >= 0 and analysis["reachability_trusted"]

    # The remote_campaign section self-hosts a manager + 2 agent threads
    # and must reproduce the serial digest over the wire, with the fleet's
    # throughput and queue-wait metrics recorded.
    remote = result["remote_campaign"]
    assert remote["backends"]["remote"]["identical_to_serial"]
    assert remote["submit_to_commit_wall_s"] == remote["backends"]["remote"]["wall_s"]
    assert remote["tasks"]["executed"] == remote["tasks"]["total"] > 0
    assert sum(a["tasks_completed"] for a in remote["agents"]) >= remote["tasks"]["total"]
    assert all(a["tasks_per_s"] >= 0 for a in remote["agents"])
    assert remote["queue_wait_s"]["max"] >= remote["queue_wait_s"]["mean"] >= 0

    out = tmp_path / "bench.json"
    write_bench_json(result, str(out))
    loaded = json.loads(out.read_text())
    assert loaded["backends"]["serial"]["wall_s"] == serial["wall_s"]

    # The result never regresses against itself...
    assert check_regression(result, str(out), max_factor=2.0) == []
    # ...and a absurdly fast baseline trips the gate.
    loaded["backends"]["serial"]["wall_s"] = serial["wall_s"] / 100.0
    fast = tmp_path / "fast.json"
    fast.write_text(json.dumps(loaded))
    assert check_regression(result, str(fast), max_factor=2.0)


def test_check_regression_gates_phases(tmp_path):
    import json

    from repro.bench.campaign import PHASE_GATE_FLOOR_S, check_regression

    def entry(wall, phases):
        return {
            "backends": {
                "serial": {
                    "wall_s": wall,
                    "phases": phases,
                    "identical_to_serial": True,
                }
            }
        }

    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(entry(10.0, {"allocate": 2.0, "search": 4.0, "report": 0.1}))
    )

    # A regressed gated phase fails even when total wall stays within bounds.
    result = entry(12.0, {"allocate": 9.0, "search": 4.0, "report": 0.1})
    failures = check_regression(result, str(baseline), max_factor=2.0)
    assert any("allocate" in f for f in failures)
    assert not any("search" in f for f in failures)

    # Ungated phases never fail, however much they regress.
    result = entry(10.0, {"allocate": 2.0, "search": 4.0, "report": 9.0})
    assert check_regression(result, str(baseline), max_factor=2.0) == []

    # Sub-floor times are timer noise: a 100x "regression" under the floor
    # passes, so smoke baselines with ~0.3 ms search phases cannot flake.
    noisy_base = tmp_path / "noisy.json"
    noisy_base.write_text(json.dumps(entry(10.0, {"search": 0.0003})))
    result = entry(10.0, {"search": PHASE_GATE_FLOOR_S * 0.9})
    assert check_regression(result, str(noisy_base), max_factor=2.0) == []
    result = entry(10.0, {"search": PHASE_GATE_FLOOR_S * 1.1})
    assert check_regression(result, str(noisy_base), max_factor=2.0)


def test_check_regression_gates_recall(tmp_path):
    import copy
    import json

    from repro.bench.campaign import check_regression

    def campaign(bugs):
        serial = {"wall_s": 1.0, "identical_to_serial": True, "detected_bugs": bugs}
        return {"backends": {"serial": serial}}

    result = campaign(["TOY-1"])
    result["schedule_campaign"] = campaign(["RAFT-1", "RAFT-6"])
    result["dfs_campaign"] = campaign(["DFS-1", "DFS-2"])
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(result))
    assert check_regression(result, str(baseline)) == []

    # A bug the baseline detects and the result misses fails the gate...
    missed = copy.deepcopy(result)
    missed["dfs_campaign"]["backends"]["serial"]["detected_bugs"] = ["DFS-1"]
    failures = check_regression(missed, str(baseline))
    assert len(failures) == 1
    assert "dfs_campaign" in failures[0] and "DFS-2" in failures[0]
    missed["backends"]["serial"]["detected_bugs"] = []
    assert any("main" in f and "TOY-1" in f for f in check_regression(missed, str(baseline)))

    # ...while a newly detected bug does not.
    more = copy.deepcopy(result)
    more["schedule_campaign"]["backends"]["serial"]["detected_bugs"].append("RAFT-7")
    assert check_regression(more, str(baseline)) == []


def test_profile_campaign_shape():
    from repro.bench.profiling import profile_campaign
    from repro.config import CSnakeConfig

    config = CSnakeConfig(
        repeats=2, delay_values_ms=(500.0,), seed=7, budget_per_fault=1
    )
    phases = profile_campaign("toy", config, top_n=5)
    assert set(phases) == {"analyze", "profile", "allocate", "search", "report"}
    for entry in phases.values():
        assert entry["wall_s"] >= 0
        assert 0 < len(entry["top"]) <= 5
        row = entry["top"][0]
        assert set(row) == {"function", "ncalls", "tottime_s", "cumtime_s"}
        # top is sorted by cumulative time, descending
        cums = [r["cumtime_s"] for r in entry["top"]]
        assert cums == sorted(cums, reverse=True)
        # top_self is the same rows ranked by self time, descending
        assert 0 < len(entry["top_self"]) <= 5
        assert set(entry["top_self"][0]) == set(row)
        owns = [r["tottime_s"] for r in entry["top_self"]]
        assert owns == sorted(owns, reverse=True)
        assert owns[0] >= max(r["tottime_s"] for r in entry["top"])
        assert entry["collapsed"], "collapsed stacks must not be empty"
        for line in entry["collapsed"]:
            stack, _, value = line.rpartition(" ")
            assert stack and int(value) > 0
    # the hot allocation loop must be named, not guessed at
    allocate_funcs = " ".join(r["function"] for r in phases["allocate"]["top"])
    assert "driver.py" in allocate_funcs or "allocation.py" in allocate_funcs
