"""Per-layer tracing of a campaign, from outside the program.

:func:`install` wraps the public callables at each layer boundary so that
every call records a span (see :mod:`perfbench.spans`) and the counts that
ratios are made of.  Nothing under ``src/`` changes: the wrappers replace
module and class attributes for the lifetime of a :class:`Patches` and are
then put back.  :func:`pass_metrics` turns one traced campaign into the
per-layer metrics; :func:`instrument_pass` measures the instrumentation
agent on the system's profile workloads.

Layer of each wrapped callable:

========== ================================================================
driver     ``repro.core.driver.run_workload`` (one simulated run; its
           time includes the sim kernel and every hook it calls)
sim        ``SimEnv.run`` -- counts ``events_processed``, records no span
fca        ``FaultCausalityAnalysis.analyze``
allocation ``ThreePhaseAllocator.run``, ``ExperimentDriver.commit_result``
cache      ``ExperimentCache.experiment_key``/``profile_key`` (key),
           ``lookup_*`` (get), ``store_*`` (put)
executor   ``SerialExecutor``/``ParallelExecutor``/``ProcessExecutor.map``
search     ``BeamSearch.search``
report     ``build_report`` (as the report stage calls it), ``cluster_cycles``
analysis   ``SystemSpec.slice_analysis``
stage      one span per pipeline stage, from ``STAGE_STARTED`` to
           ``STAGE_FINISHED`` events
========== ================================================================
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Sequence, Tuple

from .spans import Patches, Span, Tracer, layer_self_seconds, percentile

STAGES = ("analyze", "profile", "allocate", "search", "report")

#: Layers whose summed self time, over ``campaign_s``, is
#: ``trace.self_coverage_pct``: where a campaign's wall time goes.
ACCOUNTED_LAYERS = ("driver", "fca", "search", "report", "allocation", "cache")

#: Every per-layer metric, in output order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    [("stage.%s_s" % s, "s") for s in STAGES]
    + [
        ("driver.runs", "count"),
        ("driver.run_s", "s"),
        ("driver.run_ms.p50", "ms"),
        ("driver.run_ms.p99", "ms"),
        ("driver.saturated_runs", "count"),
        ("driver.us_per_event", "us"),
        ("sim.events", "count"),
        ("sim.us_per_event_bare", "us"),
        ("instrument.hook_calls", "count"),
        ("instrument.ns_per_hook", "ns"),
        ("instrument.overhead_pct", "%"),
        ("fca.calls", "count"),
        ("fca.s", "s"),
        ("fca.ms.p50", "ms"),
        ("fca.useful_ratio", "ratio"),
        ("allocation.self_s", "s"),
        ("allocation.experiments", "count"),
        ("allocation.new_edge_ratio", "ratio"),
        ("cache.hit_ratio", "ratio"),
        ("cache.get_ms.p50", "ms"),
        ("cache.get_ms.p99", "ms"),
        ("cache.put_ms.p50", "ms"),
        ("cache.put_ms.p99", "ms"),
        ("cache.key_ms.p50", "ms"),
        ("cache.bytes_written", "B"),
        ("executor.batches", "count"),
        ("executor.items", "count"),
        ("executor.map_s", "s"),
        ("executor.worker_cpu_s", "s"),
        ("executor.utilization", "ratio"),
        ("search.s", "s"),
        ("search.chains_explored", "count"),
        ("search.levels", "count"),
        ("search.cycles", "count"),
        ("search.chains_per_s", "1/s"),
        ("report.s", "s"),
        ("report.clusters", "count"),
        ("analysis.s", "s"),
        ("trace.overhead_pct", "%"),
        ("trace.stage_sum_pct", "%"),
        ("trace.self_coverage_pct", "%"),
    ]
)

#: Metrics of the layers that run inside executor workers.  On the process
#: backend the parent's wrappers never see those calls, so these come from a
#: second traced pass of the same campaign on the serial backend.
WORKER_SIDE = ("driver.", "sim.events", "fca.", "cache.")

#: The eight hook methods of the instrumentation runtime.
HOOKS = ("function", "branch", "loop", "loop_guard", "throw_point", "lib_call", "rpc_call", "detector")


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary listed in the module docstring."""
    import repro.core.driver as driver_mod
    import repro.core.report as report_mod
    import repro.pipeline.stages as stages_mod
    from repro.cache import ExperimentCache
    from repro.core.allocation import ThreePhaseAllocator
    from repro.core.beam import BeamSearch
    from repro.core.fca import FaultCausalityAnalysis
    from repro.pipeline.executor import ParallelExecutor, ProcessExecutor, SerialExecutor
    from repro.sim.events import SimEnv
    from repro.systems.base import SystemSpec

    count = tracer.count

    def search_counts(result: Any) -> None:
        count("search.chains_explored", result.chains_explored)
        count("search.levels", result.levels)
        count("search.cycles", len(result.cycles))

    def traced(owner: Any, attr: str, layer: str, name: str, after=None) -> None:
        patches.replace(owner, attr, lambda fn: tracer.wrap(layer, name, fn, after))

    traced(driver_mod, "run_workload", "driver", "run_workload",
           lambda trace: count("driver.saturated_runs", int(trace.saturated)))
    traced(FaultCausalityAnalysis, "analyze", "fca", "analyze",
           lambda result: count("fca.useful", int(bool(result.edges))))
    traced(ThreePhaseAllocator, "run", "allocation", "run")
    traced(BeamSearch, "search", "search", "search", search_counts)
    traced(stages_mod, "build_report", "report", "build_report",
           lambda report: count("report.clusters", len(report.cycle_clusters)))
    traced(report_mod, "cluster_cycles", "report", "cluster_cycles")
    traced(SystemSpec, "slice_analysis", "analysis", "slice_analysis")
    for attr in ("experiment_key", "profile_key"):
        traced(ExperimentCache, attr, "cache", "key")
    for attr in ("lookup_experiment", "lookup_profile"):
        traced(ExperimentCache, attr, "cache", "get",
               lambda hit: count("cache.hits" if hit is not None else "cache.misses"))
    for attr in ("store_experiment", "store_profile"):
        traced(ExperimentCache, attr, "cache", "put")
    for cls in (SerialExecutor, ParallelExecutor, ProcessExecutor):
        traced(cls, "map", "executor", "map",
               lambda results: count("executor.items", len(results)))

    def commit(fn):
        @functools.wraps(fn)
        def wrapper(driver, *args, **kwargs):
            before = len(driver.edges)
            span = tracer.open("allocation", "commit_result")
            try:
                return fn(driver, *args, **kwargs)
            finally:
                tracer.close(span)
                count("allocation.new_edge_commits", int(len(driver.edges) > before))

        return wrapper

    patches.replace(driver_mod.ExperimentDriver, "commit_result", commit)

    def sim_run(fn):
        @functools.wraps(fn)
        def wrapper(env, *args, **kwargs):
            before = env.events_processed
            try:
                return fn(env, *args, **kwargs)
            finally:
                count("sim.events", env.events_processed - before)

        return wrapper

    patches.replace(SimEnv, "run", sim_run)


class StageSpans:
    """Pipeline observer opening one span per stage."""

    def __init__(self, tracer: Tracer) -> None:
        from repro.pipeline.events import STAGE_FINISHED, STAGE_STARTED

        self._started, self._finished = STAGE_STARTED, STAGE_FINISHED
        self.tracer = tracer
        self._open: Dict[str, Span] = {}

    def on_event(self, event: Any) -> None:
        if event.kind == self._started:
            self._open[event.stage] = self.tracer.open("stage", event.stage)
        elif event.kind == self._finished:
            self.tracer.close(self._open.pop(event.stage))


def pass_metrics(
    spans: Sequence[Span], counts: Dict[str, float], campaign_s: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign (instrument-pass, executor
    CPU, cache-bytes and overhead metrics are added by the caller)."""
    durations: Dict[Tuple[str, str], List[float]] = {}
    for span in spans:
        durations.setdefault((span.layer, span.name), []).append(span.seconds)

    def total(layer: str, name: str) -> float:
        return sum(durations.get((layer, name), ()))

    def ms(layer: str, name: str, q: float) -> float:
        return percentile(durations.get((layer, name), ()), q) * 1e3

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    own = layer_self_seconds(spans)
    runs = len(durations.get(("driver", "run_workload"), ()))
    run_s = total("driver", "run_workload")
    events = counts.get("sim.events", 0)
    fca_calls = len(durations.get(("fca", "analyze"), ()))
    commits = len(durations.get(("allocation", "commit_result"), ()))
    lookups = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    search_s = total("search", "search")
    stage_s = sum(total("stage", s) for s in STAGES)
    out = {"stage.%s_s" % s: total("stage", s) for s in STAGES}
    out.update(
        {
            "driver.runs": runs,
            "driver.run_s": run_s,
            "driver.run_ms.p50": ms("driver", "run_workload", 50),
            "driver.run_ms.p99": ms("driver", "run_workload", 99),
            "driver.saturated_runs": counts.get("driver.saturated_runs", 0),
            "driver.us_per_event": ratio(run_s, events) * 1e6,
            "sim.events": events,
            "fca.calls": fca_calls,
            "fca.s": total("fca", "analyze"),
            "fca.ms.p50": ms("fca", "analyze", 50),
            "fca.useful_ratio": ratio(counts.get("fca.useful", 0), fca_calls),
            "allocation.self_s": own.get("allocation", 0.0),
            "allocation.experiments": commits,
            "allocation.new_edge_ratio": ratio(counts.get("allocation.new_edge_commits", 0), commits),
            "cache.hit_ratio": ratio(counts.get("cache.hits", 0), lookups),
            "cache.get_ms.p50": ms("cache", "get", 50),
            "cache.get_ms.p99": ms("cache", "get", 99),
            "cache.put_ms.p50": ms("cache", "put", 50),
            "cache.put_ms.p99": ms("cache", "put", 99),
            "cache.key_ms.p50": ms("cache", "key", 50),
            "executor.batches": len(durations.get(("executor", "map"), ())),
            "executor.items": counts.get("executor.items", 0),
            "executor.map_s": total("executor", "map"),
            "search.s": search_s,
            "search.chains_explored": counts.get("search.chains_explored", 0),
            "search.levels": counts.get("search.levels", 0),
            "search.cycles": counts.get("search.cycles", 0),
            "search.chains_per_s": ratio(counts.get("search.chains_explored", 0), search_s),
            "report.s": total("report", "build_report"),
            "report.clusters": counts.get("report.clusters", 0),
            "analysis.s": total("analysis", "slice_analysis"),
            "trace.stage_sum_pct": ratio(stage_s, campaign_s) * 100.0,
            "trace.self_coverage_pct": ratio(
                sum(own.get(layer, 0.0) for layer in ACCOUNTED_LAYERS), campaign_s
            )
            * 100.0,
        }
    )
    return out


def _count_profile_run(spec: Any, test_id: str, enabled: bool) -> int:
    """Events processed by one fault-free profile run, seeded the way
    ``repro.bench.campaign`` seeds its timed profile runs."""
    from repro.core.driver import _seed_for
    from repro.instrument.runtime import Runtime
    from repro.instrument.trace import RunTrace
    from repro.sim import SimEnv

    workload = spec.workloads[test_id]
    runtime = Runtime(spec.registry, trace=RunTrace(test_id=test_id), enabled=enabled)
    env = SimEnv(workload.sim_config, seed=_seed_for(test_id, 0, 99))
    runtime.bind_env(env)
    env.runtime = runtime
    workload.setup(env, runtime)
    env.run(workload.duration_ms)
    return env.events_processed


def instrument_pass(system: str) -> Dict[str, float]:
    """Agent cost on every profile workload of ``system``.

    The timings are ``repro.bench.campaign.measure_agent_overhead``'s (best
    of three bare and three instrumented runs per workload).  A separate,
    untimed pass then counts the events of the bare runs and, with the
    runtime's hook methods wrapped, the hook calls of the instrumented
    runs, so the counting cost never enters a timing.
    """
    from repro.bench.campaign import measure_agent_overhead
    from repro.instrument.runtime import Runtime
    from repro.systems import get_system

    timed = measure_agent_overhead([system])[system]
    bare_s, inst_s = timed["bare_s"], timed["instrumented_s"]
    spec = get_system(system)
    tests = spec.workload_ids()
    events = sum(_count_profile_run(spec, test_id, False) for test_id in tests)
    calls = [0]

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    with Patches() as patches:
        for hook in HOOKS:
            patches.replace(Runtime, hook, counted)
        for test_id in tests:
            _count_profile_run(spec, test_id, True)
    hooks = calls[0]
    return {
        "sim.us_per_event_bare": bare_s / events * 1e6 if events else 0.0,
        "instrument.hook_calls": hooks,
        "instrument.ns_per_hook": (inst_s - bare_s) / hooks * 1e9 if hooks else 0.0,
        "instrument.overhead_pct": timed["overhead_pct"],
    }
