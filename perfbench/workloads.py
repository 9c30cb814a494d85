"""The benchmark's workloads and their reference outcomes.

Each workload is one whole CSnake campaign configuration.  Its outcome is a
deterministic function of the configuration, including the campaign seed,
so every run is checked against a recorded reference: the sha256 digest of
the report and edge set, and the set of detected bug ids.  References come
from a cold campaign on the serial backend (``run.py --record-reference``).

``repro`` is imported inside functions only, so that a campaign process can
time the import as part of its set-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: The campaign seed every timed run uses unless told otherwise.
DEFAULT_CAMPAIGN_SEED = 7
#: Recorded but never used by routine runs: a performance claim is
#: re-checked on it, and no change may be tuned against it.
HELD_OUT_CAMPAIGN_SEED = 4242
#: Worker processes of a non-serial backend: the host's core count.
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: Campaign family: workloads of one family run the same campaign and
    #: share its reference outcome.
    family: str
    system: str
    backend: str
    #: ``none``: no experiment cache; ``warm``: replay from a cache that a
    #: cold serial campaign filled beforehand; ``fresh``: an empty cache
    #: directory per campaign.
    cache: str
    why: str

    def config(self, seed: int, cache_dir: Optional[str] = None) -> Any:
        return campaign_config(self.family, seed, cache_dir)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hdfs2-cold",
            family="minihdfs2-classic",
            system="minihdfs2",
            backend="serial",
            cache="none",
            why="reference minihdfs2 campaign, serial, no cache: simulated runs, "
            "hooks, driver and FCA dominate, beam search is ~16%",
        ),
        Workload(
            name="hdfs2-warm",
            family="minihdfs2-classic",
            system="minihdfs2",
            backend="serial",
            cache="warm",
            why="same campaign replayed from a filled cache: zero simulated runs, "
            "cache reads plus beam search and cycle reporting (~97%)",
        ),
        Workload(
            name="dfs-env-process",
            family="minidfs-env",
            system="minidfs",
            backend="process",
            cache="fresh",
            why="minidfs, all fault kinds and schedules, adaptive budget, 2 worker "
            "processes, cache writes: the only multi-process, env-fault workload",
        ),
        # Not in BENCHMARK.json: the seconds-long campaign the harness's own
        # tests drive through every code path (process backend, fresh cache,
        # both traced passes).
        Workload(
            name="toy-smoke",
            family="toy-smoke",
            system="toy",
            backend="process",
            cache="fresh",
            why="harness self-test",
        ),
    )
}


def campaign_config(family: str, seed: int, cache_dir: Optional[str] = None) -> Any:
    """The ``CSnakeConfig`` of a campaign family at ``seed``."""
    from repro.bench.runners import bench_config
    from repro.config import FAST_DELAY_VALUES_MS, CSnakeConfig
    from repro.faults import expand_kinds, expand_schedules

    if family == "minihdfs2-classic":
        # 3 repeats, delays 250/1000/8000, 10 per fault, beam 30k, chains <= 5.
        return bench_config("minihdfs2", seed=seed, cache_dir=cache_dir)
    if family == "minidfs-env":
        return CSnakeConfig(
            repeats=3,
            delay_values_ms=FAST_DELAY_VALUES_MS,
            seed=seed,
            budget_per_fault=8,
            fault_kinds=expand_kinds("all"),
            schedules=expand_schedules("all"),
            adaptive_budget=True,
            cache_dir=cache_dir,
        )
    if family == "toy-smoke":
        return CSnakeConfig(
            repeats=2, delay_values_ms=(2000.0,), seed=seed, budget_per_fault=2, cache_dir=cache_dir
        )
    raise ValueError("unknown campaign family %r" % family)


def reference_for(family: str, seed: int) -> Dict[str, Any]:
    """``{"digest": ..., "bugs": [...]}`` recorded for (family, seed)."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        families = json.load(fh)["families"]
    try:
        return families[family][str(seed)]
    except KeyError:
        raise SystemExit(
            "no reference outcome recorded for %s at campaign seed %d" % (family, seed)
        ) from None


def check_outcome(outcome: Dict[str, Any], reference: Dict[str, Any], warm: bool) -> List[str]:
    """Why a campaign outcome fails its reference (empty list: it passes)."""
    problems = []
    if outcome["digest"] != reference["digest"]:
        problems.append(
            "report digest %s differs from reference %s"
            % (outcome["digest"][:12], reference["digest"][:12])
        )
    if sorted(outcome["bugs"]) != sorted(reference["bugs"]):
        problems.append(
            "detected bugs %s differ from reference %s"
            % (",".join(sorted(outcome["bugs"])), ",".join(sorted(reference["bugs"])))
        )
    if warm and outcome["cache"]["misses"]:
        problems.append("%d cache misses on a warm campaign" % outcome["cache"]["misses"])
    return problems
