"""End-to-end campaign benchmark: the repo's recorded perf trajectory.

``repro bench`` times one full campaign per executor backend (serial /
thread / process), checks that every backend produced a bit-identical
report, measures the runtime agent's instrumentation overhead (the §8.5
experiment), and writes everything to ``BENCH_campaign.json`` — one
reproducible data point per commit, so performance regressions are caught
by comparing files, not by folklore.  CI runs the ``--smoke`` variant
against the checked-in baseline (``benchmarks/baseline_campaign.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import CSnakeConfig
from ..core.driver import _seed_for
from ..instrument.runtime import Runtime
from ..instrument.trace import RunTrace
from ..pipeline import BACKENDS, EventRecorder, Pipeline, make_executor
from ..pipeline.events import STAGE_FINISHED
from ..serialize import edge_to_obj
from ..sim import SimEnv
from ..systems import get_system
from .runners import bench_config

#: Systems whose agent overhead is sampled (mirrors benchmarks/bench_overhead.py).
OVERHEAD_SYSTEMS = ("minihdfs2", "minihbase", "miniozone")

#: Agent overhead of the pre-interning (seed) trace recorder, measured with
#: this harness's method on the PR-3 dev container — the reference point
#: the "measured reduction" claim in README.md is made against.
SEED_OVERHEAD_PCT: Dict[str, float] = {
    "minihdfs2": 116.9,
    "minihbase": 105.7,
    "miniozone": 267.8,
}


def _campaign_once(
    system: str, config: CSnakeConfig, backend: str, workers: int
) -> Dict[str, Any]:
    """Run one full campaign on one backend; returns timing + digests.

    With ``config.cache_dir`` set, the campaign runs through the shared
    experiment cache and its hit/miss/store counters land in the entry —
    since the serial reference runs first (cold) and every later backend
    reuses the same store (warm), the existing cross-backend digest check
    doubles as a cache-cold ≡ cache-warm parity check.
    """
    recorder = EventRecorder()
    executor = make_executor(
        workers if backend != "serial" else 1, backend, manager_url=config.manager_url
    )
    started = time.perf_counter()
    with executor:
        pipeline = Pipeline.default(
            get_system(system), config, executor=executor, observers=[recorder]
        )
        ctx = pipeline.run()
    wall_s = time.perf_counter() - started
    detection = ctx.get("report")
    report = detection.to_dict()
    edges = [edge_to_obj(e) for e in ctx.driver.edges.all_edges()]
    digest = hashlib.sha256(
        json.dumps({"report": report, "edges": edges}, sort_keys=True).encode()
    ).hexdigest()
    entry = {
        "backend": backend,
        "workers": workers if backend != "serial" else 1,
        "wall_s": round(wall_s, 4),
        "phases": {
            e.stage: round(e.seconds, 4)
            for e in recorder.events
            if e.kind == STAGE_FINISHED
        },
        "runs_executed": ctx.driver.runs_executed,
        "experiments_run": ctx.driver.experiments_run,
        "edges": len(edges),
        "digest": digest,
        "detected_bugs": detection.detected_bugs,
    }
    if ctx.driver.cache is not None:
        entry["cache"] = ctx.driver.cache.stats()
    return entry


def _profile_wall_s(spec, test_id: str, enabled: bool) -> float:
    """One profile run with the agent enabled or disabled (§8.5 method)."""
    workload = spec.workloads[test_id]
    seed = _seed_for(test_id, 0, 99)
    runtime = Runtime(spec.registry, trace=RunTrace(test_id=test_id), enabled=enabled)
    env = SimEnv(workload.sim_config, seed=seed)
    runtime.bind_env(env)
    env.runtime = runtime
    started = time.perf_counter()
    workload.setup(env, runtime)
    env.run(workload.duration_ms)
    return time.perf_counter() - started


def measure_agent_overhead(
    systems: Sequence[str] = OVERHEAD_SYSTEMS, rounds: int = 3
) -> Dict[str, Dict[str, float]]:
    """Instrumented-vs-bare wall time per system (best of ``rounds``)."""
    out: Dict[str, Dict[str, float]] = {}
    for system in systems:
        spec = get_system(system)
        tests = spec.workload_ids()
        bare = sum(min(_profile_wall_s(spec, t, False) for _ in range(rounds)) for t in tests)
        inst = sum(min(_profile_wall_s(spec, t, True) for _ in range(rounds)) for t in tests)
        entry = {
            "bare_s": round(bare, 4),
            "instrumented_s": round(inst, 4),
            "overhead_pct": round((inst - bare) / bare * 100.0, 1),
        }
        seed_pct = SEED_OVERHEAD_PCT.get(system)
        if seed_pct is not None:
            entry["seed_overhead_pct"] = seed_pct
        out[system] = entry
    return out


def measure_analysis(system: str) -> Optional[Dict[str, Any]]:
    """Code-slice analysis stats for the benched system: call-graph and
    slicing wall time plus resolved/unresolved site counts.

    Computed on a fresh analysis (not the spec's memoized one) so the
    recorded wall times reflect a cold run.  ``None`` for systems that
    declare no ``source_modules``.
    """
    from ..analysis import analyze_system
    from ..analysis.source import live_sources

    spec = get_system(system)
    if not spec.source_modules:
        return None
    return analyze_system(spec, live_sources(spec.source_modules)).stats()


def _schedule_campaign_section(
    backends: Sequence[str],
    workers: int,
    cache_dir: Optional[str],
    schedules: Optional[Sequence[str]],
    adaptive_budget: bool,
) -> Dict[str, Any]:
    """The composed-schedule benchmark: a reduced miniraft campaign with
    fault schedules (and, by default, adaptive budget) enabled, per
    backend.  Records the same digest/parity bits as the main campaign —
    with a shared ``cache_dir`` the serial reference runs cold and every
    later backend warm, so the parity bits double as the cache-cold ≡
    cache-warm check for scheduled, adaptive campaigns.
    """
    from ..faults import registered_schedules

    names = tuple(schedules) if schedules is not None else tuple(registered_schedules())
    config = CSnakeConfig(
        repeats=2,
        delay_values_ms=(500.0, 8000.0),
        seed=7,
        budget_per_fault=2,
        schedules=names,
        adaptive_budget=adaptive_budget,
    )
    if cache_dir is not None:
        import dataclasses

        config = dataclasses.replace(
            config, cache_dir=os.path.join(cache_dir, "schedules")
        )
    system = "miniraft"
    ordered = ["serial"] + [b for b in backends if b != "serial"]
    results: Dict[str, Any] = {}
    for backend in ordered:
        results[backend] = _campaign_once(system, config, backend, workers)
    reference = results["serial"]
    for entry in results.values():
        entry["speedup_vs_serial"] = round(reference["wall_s"] / entry["wall_s"], 3)
        entry["identical_to_serial"] = entry["digest"] == reference["digest"]
    return {
        "system": system,
        "schedules": list(names),
        "adaptive_budget": adaptive_budget,
        "config": config.to_dict(),
        "backends": results,
    }


def _dfs_campaign_section(
    backends: Sequence[str], workers: int, cache_dir: Optional[str]
) -> Dict[str, Any]:
    """The environment-gated benchmark: a reduced minidfs campaign with
    every fault kind and every composed schedule enabled, per backend.
    minidfs is the target whose ground truth is *entirely* environment-
    gated, so this section tracks the cost of the full fault model on a
    topology with both node and link sites — and its parity bits assert
    serial ≡ thread ≡ process, cache-cold ≡ cache-warm, for it.
    """
    from ..faults import expand_kinds, registered_schedules

    config = CSnakeConfig(
        repeats=2,
        delay_values_ms=(500.0, 8000.0),
        seed=7,
        budget_per_fault=2,
        fault_kinds=expand_kinds("all"),
        schedules=tuple(registered_schedules()),
        adaptive_budget=True,
    )
    if cache_dir is not None:
        import dataclasses

        config = dataclasses.replace(config, cache_dir=os.path.join(cache_dir, "dfs"))
    system = "minidfs"
    ordered = ["serial"] + [b for b in backends if b != "serial"]
    results: Dict[str, Any] = {}
    for backend in ordered:
        results[backend] = _campaign_once(system, config, backend, workers)
    reference = results["serial"]
    for entry in results.values():
        entry["speedup_vs_serial"] = round(reference["wall_s"] / entry["wall_s"], 3)
        entry["identical_to_serial"] = entry["digest"] == reference["digest"]
    return {
        "system": system,
        "config": config.to_dict(),
        "backends": results,
    }


def _remote_campaign_section(workers: int) -> Dict[str, Any]:
    """Campaign-as-a-service benchmark (docs/service.md): one reduced toy
    campaign through a live in-process manager (stdlib HTTP server) and
    two agent threads, against its serial reference.

    Records the remote campaign's submit-to-commit wall time (every
    experiment crosses the wire: submit → lease → execute → complete →
    ordered commit), per-agent task throughput, and the manager's
    queue-wait statistics.  The digest parity bit rides the same
    ``identical_to_serial`` convention as every other section, so
    :func:`check_regression` gates remote ≡ serial too.
    """
    import dataclasses
    import threading

    from ..service.agent import Agent
    from ..service.http import HttpTransport, ManagerServer

    config = CSnakeConfig(
        repeats=2, delay_values_ms=(500.0, 8000.0), seed=7, budget_per_fault=2
    )
    system = "toy"
    results: Dict[str, Any] = {"serial": _campaign_once(system, config, "serial", 1)}
    agent_workers = max(1, workers // 2)
    with ManagerServer(port=0) as server:
        agents = []
        threads = []
        for index in range(2):
            agent = Agent(
                HttpTransport(server.url),
                workers=agent_workers,
                name="bench-%d" % index,
            )
            thread = threading.Thread(
                target=agent.run, kwargs={"idle_exit_s": 60.0}, daemon=True
            )
            thread.start()
            agents.append(agent)
            threads.append(thread)
        try:
            remote_config = dataclasses.replace(
                config, experiment_backend="remote", manager_url=server.url
            )
            results["remote"] = _campaign_once(system, remote_config, "remote", workers)
        finally:
            for agent in agents:
                agent.stop()
            for thread in threads:
                thread.join(timeout=10.0)
        stats = server.core.stats()
    reference = results["serial"]
    for entry in results.values():
        entry["speedup_vs_serial"] = round(reference["wall_s"] / entry["wall_s"], 3)
        entry["identical_to_serial"] = entry["digest"] == reference["digest"]
    wall_s = results["remote"]["wall_s"]
    return {
        "system": system,
        "config": config.to_dict(),
        "backends": results,
        "submit_to_commit_wall_s": wall_s,
        "agents": [
            {
                "name": a["name"],
                "workers": a["workers"],
                "tasks_completed": a["completed"],
                "tasks_per_s": round(a["completed"] / wall_s, 3) if wall_s else 0.0,
            }
            for a in stats["agents"]
        ],
        "tasks": stats["tasks"],
        "queue_wait_s": stats["queue_wait_s"],
    }


def bench_campaign(
    system: Optional[str] = None,
    workers: Optional[int] = None,
    backends: Sequence[str] = BACKENDS,
    smoke: bool = False,
    overhead: bool = True,
    cache_dir: Optional[str] = None,
    fault_kinds: Optional[Sequence[str]] = None,
    sweep_overrides: Optional[Sequence] = None,
    schedules: Optional[Sequence[str]] = None,
    adaptive_budget: bool = True,
    profile: bool = False,
) -> Dict[str, Any]:
    """Benchmark one system's campaign across executor backends.

    ``smoke`` switches to a reduced configuration (and, with no explicit
    ``system``, to the toy system) — seconds instead of minutes, for CI.
    The serial backend is always run first as the reference; per-backend
    speedups and report parity are computed against it.  With
    ``cache_dir`` the backends share one experiment cache: serial runs
    cold, every later backend runs warm, and the parity check then also
    asserts cache-warm ≡ cache-cold.

    ``profile`` appends one *extra* serial campaign with every stage under
    cProfile (top-N cumulative functions + collapsed flamegraph stacks per
    phase, :mod:`repro.bench.profiling`).  The timed entries above are
    never the instrumented ones, so the regression gate stays honest.
    """
    if smoke:
        system = system or "toy"
        config = CSnakeConfig(
            repeats=2, delay_values_ms=(500.0, 8000.0), seed=7, budget_per_fault=2
        )
    else:
        system = system or "minihdfs2"
        config = bench_config(system)
    if fault_kinds is not None or sweep_overrides is not None:
        import dataclasses

        overrides: Dict[str, Any] = {}
        if fault_kinds is not None:
            overrides["fault_kinds"] = tuple(fault_kinds)
        if sweep_overrides is not None:
            overrides["sweep_overrides"] = tuple(sweep_overrides)
        config = dataclasses.replace(config, **overrides)
    if cache_dir is not None:
        import dataclasses
        from pathlib import Path

        from ..errors import ReproError

        # The serial reference must run cold — its wall time anchors the
        # speedup columns and the --check regression gate.  A pre-populated
        # store would warm it silently and void both numbers.
        root = Path(cache_dir)
        if root.exists() and any(root.glob("*/*.json")):
            raise ReproError(
                "bench needs a fresh cache dir (the serial reference must "
                "run cold), but %s already holds entries" % cache_dir
            )
        config = dataclasses.replace(config, cache_dir=cache_dir)
    if workers is None:
        workers = os.cpu_count() or 1
    ordered = ["serial"] + [b for b in backends if b != "serial"]
    results: Dict[str, Any] = {}
    for backend in ordered:
        results[backend] = _campaign_once(system, config, backend, workers)
    reference = results["serial"]
    for backend, entry in results.items():
        entry["speedup_vs_serial"] = round(reference["wall_s"] / entry["wall_s"], 3)
        entry["identical_to_serial"] = entry["digest"] == reference["digest"]
    out: Dict[str, Any] = {
        "schema": 1,
        "kind": "smoke" if smoke else "full",
        "created_unix": int(time.time()),
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "system": system,
        "workers": workers,
        "config": config.to_dict(),
        "backends": results,
        "analysis": measure_analysis(system),
        "schedule_campaign": _schedule_campaign_section(
            backends, workers, cache_dir, schedules, adaptive_budget
        ),
        "dfs_campaign": _dfs_campaign_section(backends, workers, cache_dir),
        "remote_campaign": _remote_campaign_section(workers),
    }
    if overhead:
        out["agent_overhead"] = measure_agent_overhead(
            OVERHEAD_SYSTEMS if not smoke else OVERHEAD_SYSTEMS[:1]
        )
    if profile:
        import dataclasses

        from .profiling import profile_campaign

        # Profile the real computation: with a cache_dir the serial timed
        # run above already warmed the store and allocate would replay.
        out["profile"] = profile_campaign(
            system, dataclasses.replace(config, cache_dir=None)
        )
    return out


def write_bench_json(result: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


#: Serial phases gated individually by :func:`check_regression` — the two
#: (former) hot phases this repo's perf work targets.  Gating them
#: separately keeps a regression in one from hiding inside the total.
GATED_PHASES: Tuple[str, ...] = ("allocate", "search")

#: Sections whose serial campaign's ``detected_bugs`` are gated for recall
#: (``None`` is the top-level campaign).
RECALL_SECTIONS: Tuple[Optional[str], ...] = (None, "schedule_campaign", "dfs_campaign")

#: Phase times are gated against ``max(baseline * factor, floor)``: smoke
#: phases run in fractions of a millisecond, where a pure-ratio gate would
#: flake on timer noise.
PHASE_GATE_FLOOR_S = 0.25


def check_regression(
    result: Dict[str, Any], baseline_path: str, max_factor: float = 2.0
) -> List[str]:
    """Compare a bench result against a checked-in baseline.

    Returns a list of human-readable failures (empty = pass).  Only the
    serial backend's wall time is gated — total and per-phase for the
    :data:`GATED_PHASES` — since thread/process times depend on the
    runner's core count; plus the cross-backend parity bits, which must
    hold on any machine; plus recall: every bug id a :data:`RECALL_SECTIONS`
    serial campaign detects in the baseline must still be detected.
    """
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures: List[str] = []
    base_wall = baseline["backends"]["serial"]["wall_s"]
    cur_wall = result["backends"]["serial"]["wall_s"]
    if cur_wall > base_wall * max_factor:
        failures.append(
            "serial campaign regressed: %.3fs vs baseline %.3fs (> %.1fx)"
            % (cur_wall, base_wall, max_factor)
        )
    base_phases = baseline["backends"]["serial"].get("phases", {})
    cur_phases = result["backends"]["serial"].get("phases", {})
    for phase in GATED_PHASES:
        base_s = base_phases.get(phase)
        cur_s = cur_phases.get(phase)
        if base_s is None or cur_s is None:
            continue
        limit = max(base_s * max_factor, PHASE_GATE_FLOOR_S)
        if cur_s > limit:
            failures.append(
                "serial %s phase regressed: %.3fs vs baseline %.3fs (limit %.3fs)"
                % (phase, cur_s, base_s, limit)
            )
    for section in RECALL_SECTIONS:
        base = baseline if section is None else baseline.get(section) or {}
        cur = result if section is None else result.get(section) or {}
        base_bugs = base.get("backends", {}).get("serial", {}).get("detected_bugs")
        if base_bugs is None:
            continue
        cur_bugs = cur.get("backends", {}).get("serial", {}).get("detected_bugs", [])
        missed = sorted(set(base_bugs) - set(cur_bugs))
        if missed:
            failures.append(
                "%s serial campaign no longer detects %s"
                % (section or "main", ", ".join(missed))
            )
    for backend, entry in result["backends"].items():
        if not entry.get("identical_to_serial", True):
            failures.append("backend %r diverged from the serial reference" % backend)
    for section, label in (
        ("schedule_campaign", "schedule campaign"),
        ("dfs_campaign", "dfs campaign"),
        ("remote_campaign", "remote campaign"),
    ):
        extra = result.get(section) or {}
        for backend, entry in extra.get("backends", {}).items():
            if not entry.get("identical_to_serial", True):
                failures.append(
                    "%s backend %r diverged from the serial reference"
                    % (label, backend)
                )
    return failures
