"""One campaign, one set-up probe or one instrument pass, in a fresh interpreter.

    python3 -m perfbench.child '<task json>' OUT.json

``run.py`` starts this module once per measured operation, so every
campaign pays the interpreter's import of ``repro`` the way a user's
``repro run`` does.  Task keys: ``mode`` (``campaign``, ``setup`` or
``instrument``), ``workload``, ``seed`` (the campaign seed),
``cache_dir``, and for campaigns ``trace`` (a pass label, or null for an
untraced campaign), ``backend`` (overrides the workload's) and
``trace_out`` (where a traced pass writes its spans).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Optional  # noqa: E402

from .workloads import WORKERS, WORKLOADS  # noqa: E402  (imports no repro module)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process or any reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _dir_bytes(root: Optional[str]) -> int:
    if not root or not os.path.isdir(root):
        return 0
    return sum(p.stat().st_size for p in Path(root).rglob("*.json"))


def campaign_digest(report: Any, edges: Any) -> str:
    """sha256 over the report and edge set, as ``repro bench`` computes it."""
    from repro.serialize import edge_to_obj

    blob = json.dumps(
        {"report": report.to_dict(), "edges": [edge_to_obj(e) for e in edges]},
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def run_campaign(task: Dict[str, Any]) -> Dict[str, Any]:
    """Set up and run one campaign; timings, resources and its outcome."""
    workload = WORKLOADS[task["workload"]]
    backend = task.get("backend") or workload.backend
    tracer = patches = None
    if task.get("trace"):
        from .layers import StageSpans, install
        from .spans import Patches, Tracer

        tracer, patches = Tracer(task["trace"]), Patches()
        install(tracer, patches)

    from repro.pipeline import Pipeline, make_executor
    from repro.systems import get_system

    spec = get_system(workload.system)
    config = workload.config(task["seed"], task.get("cache_dir"))
    executor = make_executor(WORKERS if backend != "serial" else 1, backend)
    observers = [StageSpans(tracer)] if tracer is not None else []
    pipeline = Pipeline.default(spec, config, executor=executor, observers=observers)
    setup_s = time.perf_counter() - _STARTED
    if task["mode"] == "setup":
        executor.close()
        return {"setup_s": setup_s}

    cache_bytes = _dir_bytes(task.get("cache_dir"))
    cpu_before = _cpu_seconds()
    kids_before = _children_cpu_seconds()
    with executor:
        root = tracer.open("campaign", "run") if tracer is not None else None
        started = time.perf_counter()
        ctx = pipeline.run()
        campaign_s = time.perf_counter() - started
        if root is not None:
            tracer.close(root)
    # Worker processes are reaped when the executor closes: only then does
    # RUSAGE_CHILDREN hold their CPU time and peak RSS.
    cpu_s = _cpu_seconds() - cpu_before
    report = ctx.get("report")
    edges = ctx.driver.edges.all_edges()
    cache = ctx.driver.cache.stats() if ctx.driver.cache is not None else {}
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "bugs": list(report.detected_bugs),
        "digest": campaign_digest(report, edges),
        "runs_executed": ctx.driver.runs_executed,
        "cache": {k: cache.get(k, 0) for k in ("hits", "misses", "stores")},
    }
    if tracer is not None:
        patches.restore()
        from .layers import pass_metrics

        worker_cpu_s = _children_cpu_seconds() - kids_before
        metrics = pass_metrics(tracer.spans, tracer.counts, campaign_s)
        workers = executor.max_workers
        metrics["executor.worker_cpu_s"] = worker_cpu_s
        metrics["executor.utilization"] = (
            worker_cpu_s / (workers * metrics["executor.map_s"])
            if metrics["executor.map_s"] and workers > 1
            else 0.0
        )
        metrics["cache.bytes_written"] = _dir_bytes(task.get("cache_dir")) - cache_bytes
        out["layers"] = metrics
        if task.get("trace_out"):
            with open(task["trace_out"], "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "run": tracer.run,
                        "backend": backend,
                        "campaign_s": campaign_s,
                        "counts": tracer.counts,
                        "spans": [s.to_obj() for s in tracer.spans],
                    },
                    fh,
                )
    return out


def main(argv) -> int:
    task = json.loads(argv[0])
    if task["mode"] == "instrument":
        from .layers import instrument_pass

        result = instrument_pass(WORKLOADS[task["workload"]].system)
    else:
        result = run_campaign(task)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
