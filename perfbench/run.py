"""The repository benchmark: whole CSnake campaigns, end to end and per layer.

    python3 perfbench/run.py --workload hdfs2-cold --seed 1 --seconds 30 --trace 0

Runs campaigns of one workload (``perfbench/workloads.py``) back to back,
each in a fresh interpreter, until ``--seconds`` have passed (at least
one), and checks every outcome against the recorded reference.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics: medians over the run's campaigns of wall time
(``campaign_s``), set-up time (``setup_s``, at least five samples), CPU
time with worker processes (``cpu_s``), peak RSS (``peak_rss_mb``) and
detected bugs (``bugs_detected``).  With ``--trace 1`` one untraced campaign
runs first, as the base of ``trace.overhead_pct``; then traced
passes and the instrument pass give the per-layer metrics
(``perfbench/layers.py``), and the spans are written to
``.bench_build/perfbench/``.  The exit code is 1 if any campaign failed
its check.

``--seed`` names the run.  The campaign inputs are fixed by the campaign
seed (``--campaign-seed``, default 7): a campaign's bug recall and run
count depend on it, so a run-to-run change of campaign seed would move
every metric by itself.

``--record-reference`` re-records ``perfbench/reference.json`` from cold
serial campaigns at the default and the held-out campaign seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / ".bench_build" / "perfbench"
#: Every run stays below the 180 s a run may take.
RUN_DEADLINE_S = 170.0
#: Set-up is sampled at least this many times per run.
SETUP_SAMPLES = 5

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("campaign_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bugs_detected", "count"),
)


class ChildFailed(Exception):
    pass


class Runner:
    """Starts child processes for one benchmark run and keeps its deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])

    def child(self, task: Dict[str, Any]) -> Dict[str, Any]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("run deadline reached")
        STATE.mkdir(parents=True, exist_ok=True)
        fd, out_path = tempfile.mkstemp(prefix="child-", suffix=".json", dir=STATE)
        os.close(fd)
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", json.dumps(task), out_path],
            cwd=str(ROOT),
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            # The whole session: worker processes of a campaign included.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            os.unlink(out_path)
            raise ChildFailed("%s timed out" % task["mode"])
        try:
            if proc.returncode != 0:
                tail = "\n".join(err.strip().splitlines()[-5:])
                raise ChildFailed("%s exited %d: %s" % (task["mode"], proc.returncode, tail))
            with open(out_path, encoding="utf-8") as fh:
                return json.load(fh)
        finally:
            os.unlink(out_path)


def _fresh_dir(prefix: str) -> str:
    STATE.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=STATE)


def source_digest() -> str:
    """sha256 over the program's sources and the workload definitions:
    what a campaign's cache entries depend on."""
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in files + [ROOT / "perfbench" / "workloads.py"]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def warm_cache(runner: Runner, workload: Any, seed: int, reference: Dict[str, Any]) -> str:
    """The experiment cache a cold serial campaign filled: preparation, not
    part of any run's metrics, and checked like a timed campaign.

    A fill is made once per checkout, campaign seed and source digest, so
    code that changes the program or its cache format is always replayed
    from entries it wrote itself.  Campaigns replay copies of the fill.
    """
    from perfbench.workloads import check_outcome

    prefix = "warm-%s-%d-" % (workload.family, seed)
    final = STATE / (prefix + source_digest()[:16])
    if final.is_dir():
        return str(final)
    tmp = _fresh_dir("fill-")
    try:
        outcome = runner.child(
            {"mode": "campaign", "workload": workload.name, "seed": seed,
             "cache_dir": tmp, "backend": "serial"}
        )
        problems = check_outcome(outcome, reference, warm=False)
        if problems:
            raise ChildFailed("cache fill: " + "; ".join(problems))
    except ChildFailed:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    for stale in STATE.glob(prefix + "*"):
        shutil.rmtree(stale, ignore_errors=True)
    os.replace(tmp, final)
    return str(final)


class Run:
    """Campaigns of one workload, with their correctness bookkeeping."""

    def __init__(self, runner: Runner, workload: Any, seed: int, reference: Dict[str, Any]) -> None:
        self.runner = runner
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failures: List[str] = []
        self.warm_dir: Optional[str] = None

    def campaign(self, mode: str = "campaign", **task: Any) -> Optional[Dict[str, Any]]:
        """One checked campaign (or set-up probe); None if it failed."""
        from perfbench.workloads import check_outcome

        cache_dir = None
        if self.workload.cache == "fresh":
            cache_dir = _fresh_dir("cache-")
        elif self.workload.cache == "warm":
            cache_dir = _fresh_dir("replay-")
            shutil.copytree(self.warm_dir, cache_dir, dirs_exist_ok=True)
        self.attempted += mode == "campaign"
        try:
            outcome = self.runner.child(
                dict(task, mode=mode, workload=self.workload.name, seed=self.seed,
                     cache_dir=cache_dir)
            )
        except ChildFailed as exc:
            self.attempted += mode != "campaign"  # a failed probe counts too
            self.failures.append(str(exc))
            return None
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
        if mode == "campaign":
            problems = check_outcome(outcome, self.reference, warm=self.workload.cache == "warm")
            if problems:
                self.failures.append("; ".join(problems))
                return None
        return outcome

    def measure(self, seconds: float) -> List[Dict[str, Any]]:
        """Untraced campaigns until ``seconds`` have passed (at least one)."""
        outcomes = []
        started = time.monotonic()
        while self.attempted == 0 or time.monotonic() - started < seconds:
            if time.monotonic() >= self.runner.deadline:
                break
            outcome = self.campaign()
            if outcome is not None:
                outcomes.append(outcome)
        return outcomes

    def setup_samples(self, outcomes: List[Dict[str, Any]]) -> List[float]:
        samples = [o["setup_s"] for o in outcomes]
        while len(samples) < SETUP_SAMPLES and time.monotonic() < self.runner.deadline:
            probe = self.campaign(mode="setup")
            if probe is None:
                break
            samples.append(probe["setup_s"])
        return samples


def end_to_end(run: Run, outcomes: List[Dict[str, Any]]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """End-to-end metrics and, for each, how it was aggregated."""
    if not outcomes:
        return {}, {}
    setup = run.setup_samples(outcomes)
    metrics = {
        "campaign_s": statistics.median(o["campaign_s"] for o in outcomes),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(o["cpu_s"] for o in outcomes),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outcomes),
        "bugs_detected": statistics.median(len(o["bugs"]) for o in outcomes),
    }
    source = {name: "median of %d campaigns" % len(outcomes) for name in metrics}
    source["campaign_s"] += ": " + " ".join("%.3f" % o["campaign_s"] for o in outcomes)
    source["setup_s"] = "median of %d set-ups" % len(setup)
    return metrics, source


def per_layer(run: Run, outcomes: List[Dict[str, Any]], seed_label: str) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer metrics and, for each, the pass it was taken from."""
    from perfbench.layers import PER_LAYER, WORKER_SIDE

    workload = run.workload
    traces = {}
    label = "traced-%s" % workload.backend
    passes = [(label, None)]
    if workload.backend != "serial":
        passes.append(("traced-serial", "serial"))
    for name, backend in passes:
        trace_out = str(STATE / ("trace-%s-%s-%s.json" % (workload.name, seed_label, name)))
        traced = run.campaign(trace=name, backend=backend, trace_out=trace_out)
        if traced is not None:
            traces[name] = traced
    if not outcomes or label not in traces:
        return {}, {}
    metrics = dict(traces[label]["layers"])
    source = {name: label for name in metrics}
    serial = traces.get("traced-serial")
    if serial is not None:
        for name, value in serial["layers"].items():
            if name.startswith(WORKER_SIDE):
                metrics[name] = value
                source[name] = "traced-serial"
    instrument = run.runner.child({"mode": "instrument", "workload": workload.name})
    metrics.update(instrument)
    source.update({name: "instrument-pass" for name in instrument})
    base = statistics.median(o["campaign_s"] for o in outcomes)
    metrics["trace.overhead_pct"] = (traces[label]["campaign_s"] - base) / base * 100.0
    source["trace.overhead_pct"] = "%s vs untraced median" % label
    missing = [name for name, _ in PER_LAYER if name not in metrics]
    if missing:
        raise ChildFailed("per-layer metrics missing: %s" % ", ".join(missing))
    return metrics, source


def record_reference(runner: Runner) -> None:
    from perfbench.workloads import (
        DEFAULT_CAMPAIGN_SEED,
        HELD_OUT_CAMPAIGN_SEED,
        REFERENCE_PATH,
        WORKLOADS,
    )

    families: Dict[str, Dict[str, Any]] = {}
    for workload in WORKLOADS.values():
        if workload.family in families:
            continue
        families[workload.family] = {}
        for seed in (DEFAULT_CAMPAIGN_SEED, HELD_OUT_CAMPAIGN_SEED):
            outcome = runner.child(
                {"mode": "campaign", "workload": workload.name, "seed": seed,
                 "cache_dir": None, "backend": "serial"}
            )
            families[workload.family][str(seed)] = {
                "digest": outcome["digest"],
                "bugs": sorted(outcome["bugs"]),
                "runs_executed": outcome["runs_executed"],
            }
            print("%s seed %d: %s %s" % (workload.family, seed, outcome["digest"][:12],
                                         ",".join(sorted(outcome["bugs"]))), file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "about": "Outcome of a cold serial campaign per family and campaign "
                "seed: sha256 of report + edges, detected bug ids, simulated runs.",
                "default_seed": DEFAULT_CAMPAIGN_SEED,
                "held_out_seed": HELD_OUT_CAMPAIGN_SEED,
                "families": families,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--campaign-seed", type=int, default=None)
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no repro sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import DEFAULT_CAMPAIGN_SEED, WORKLOADS, reference_for

    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    if args.record_reference:
        runner.deadline = time.monotonic() + 3600.0
        record_reference(runner)
        return 0
    if args.workload not in WORKLOADS:
        print("error: --workload must be one of %s" % ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    campaign_seed = args.campaign_seed if args.campaign_seed is not None else DEFAULT_CAMPAIGN_SEED
    run = Run(runner, workload, campaign_seed, reference_for(workload.family, campaign_seed))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics: Dict[str, float] = {}
    source: Dict[str, str] = {}
    try:
        if workload.cache == "warm":
            run.warm_dir = warm_cache(runner, workload, campaign_seed, run.reference)
        # A traced run needs only the base of trace.overhead_pct: one campaign.
        outcomes = run.measure(0.0 if args.trace else args.seconds)
        if args.trace:
            metrics, source = per_layer(run, outcomes, "s%d" % args.seed)
        else:
            metrics, source = end_to_end(run, outcomes)
    except ChildFailed as exc:
        run.failures.append(str(exc))
        metrics = {}
    for failure in run.failures:
        print("FAILED: %s" % failure)
    for name, unit in units.items():
        if name in metrics:
            print("%-28s %16.6g %-6s %s" % (name, metrics[name], unit, source[name]))
    correct = not run.failures and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, len(run.failures), 1),
                "failed": len(run.failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
