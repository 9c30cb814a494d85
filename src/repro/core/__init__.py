"""CSnake's primary contribution: causal stitching of fault propagations.

The building blocks the stages of :class:`repro.pipeline.Pipeline` run::

    from repro.pipeline import Pipeline
    from repro.systems import get_system

    report = Pipeline(get_system("minihdfs2")).run().require("report")
    for match in report.bug_matches:
        print(match.bug.bug_id, match.detected)
"""

from .allocation import AllocationOutcome, ThreePhaseAllocator
from .beam import BeamSearch, BeamSearchResult
from .compat import CompatChecker
from .cycles import Cycle, CycleCluster, cluster_cycles
from .driver import ExperimentDriver, run_workload
from .edges import EdgeDB
from .fca import FaultCausalityAnalysis, FcaResult
from .idf import IdfVectorizer, cosine_distance
from .report import BugMatch, DetectionReport, build_report


__all__ = [
    "ExperimentDriver",
    "run_workload",
    "FaultCausalityAnalysis",
    "FcaResult",
    "EdgeDB",
    "ThreePhaseAllocator",
    "AllocationOutcome",
    "BeamSearch",
    "BeamSearchResult",
    "CompatChecker",
    "Cycle",
    "CycleCluster",
    "cluster_cycles",
    "IdfVectorizer",
    "cosine_distance",
    "BugMatch",
    "DetectionReport",
    "build_report",
]
