"""Per-phase cProfile instrumentation for ``repro bench --profile``.

Wraps every pipeline stage in its own :class:`cProfile.Profile` and
condenses each stage's stats into three views:

* ``top`` — the top-N functions by cumulative time, the "every saved
  second must be named by a function" table printed by the CLI and
  recorded in ``BENCH_campaign.json``;
* ``top_self`` — the top-N functions by self time (``tottime``): leaf
  costs spread over many callers (a small ``key()`` method, an enum
  attribute lookup) never rank by cumulative time but add up here;
* ``collapsed`` — folded call stacks in the standard ``a;b;c <value>``
  flamegraph format (values in integer microseconds), reconstructed from
  the profiler's caller tables: each function's own time is apportioned
  to the call paths reaching it, pro rata to per-edge cumulative time.
  The reconstruction is approximate where the call graph merges — exact
  per-path attribution would need tracing, which is precisely the
  overhead this keeps out of the timed benchmark runs.

The profiled campaign is an *extra* serial run: profiling inflates wall
times (typically 1.3-2x), so the timed entries that feed the regression
gate are never the instrumented ones.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Dict, List, Tuple

from ..config import CSnakeConfig
from ..pipeline import Pipeline, make_executor
from ..pipeline.stage import Stage
from ..pipeline.stages import default_stages
from ..systems import get_system

#: Functions reported per phase in the ``top`` and ``top_self`` tables.
DEFAULT_TOP_N = 15

#: Folded stacks kept per phase (largest first) and maximum stack depth.
MAX_COLLAPSED_LINES = 200
MAX_STACK_DEPTH = 48


class _ProfiledStage(Stage):
    """Delegates one wrapped stage, recording its ``run`` under cProfile."""

    def __init__(self, inner: Stage, sink: Dict[str, pstats.Stats]) -> None:
        self.inner = inner
        self.sink = sink
        self.name = inner.name
        self.requires = inner.requires
        self.uses = inner.uses
        self.provides = inner.provides

    def run(self, ctx) -> None:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            self.inner.run(ctx)
        finally:
            profiler.disable()
        self.sink[self.name] = pstats.Stats(profiler)

    def hydrate(self, ctx, artifacts) -> None:
        self.inner.hydrate(ctx, artifacts)


def _func_label(func: Tuple[str, int, str]) -> str:
    """``file:line:name`` with the path shortened to its basename."""
    filename, line, name = func
    if filename.startswith("~"):  # built-ins have no file
        return name
    return "%s:%d:%s" % (os.path.basename(filename), line, name)


def _top_functions(stats: pstats.Stats, top_n: int, column: int) -> List[Dict[str, Any]]:
    """The ``top_n`` heaviest functions by one stats ``column``
    (2 = self time, 3 = cumulative time), descending."""
    entries = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda item: (-item[1][column], _func_label(item[0])),
    )
    out = []
    for func, (cc, nc, tt, ct, _callers) in entries[:top_n]:
        out.append(
            {
                "function": _func_label(func),
                "ncalls": nc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            }
        )
    return out


def _collapsed_stacks(stats: pstats.Stats) -> List[str]:
    """Folded flamegraph lines from the profiler's caller tables."""
    entries: Dict[Tuple, Tuple] = stats.stats  # type: ignore[attr-defined]
    children: Dict[Tuple, List[Tuple[Tuple, float]]] = {}
    roots: List[Tuple] = []
    for func, (_cc, _nc, _tt, _ct, callers) in entries.items():
        if not callers:
            roots.append(func)
        for parent, edge in callers.items():
            # edge = (cc, nc, tt, ct) attributed to calls from ``parent``.
            children.setdefault(parent, []).append((func, edge[3]))
    lines: List[Tuple[str, int]] = []

    def walk(func: Tuple, path: Tuple[str, ...], on_path: frozenset, budget: float) -> None:
        total_ct = entries[func][3]
        frac = budget / total_ct if total_ct > 0 else 0.0
        stack = path + (_func_label(func),)
        own_us = int(round(entries[func][2] * frac * 1e6))
        if own_us > 0:
            lines.append((";".join(stack), own_us))
        if len(stack) >= MAX_STACK_DEPTH:
            return
        for child, edge_ct in sorted(
            children.get(func, ()), key=lambda item: _func_label(item[0])
        ):
            if child in on_path:  # recursion: attribute to the first visit
                continue
            walk(child, stack, on_path | {child}, edge_ct * frac)

    for root in sorted(roots, key=_func_label):
        walk(root, (), frozenset({root}), entries[root][3])
    lines.sort(key=lambda item: (-item[1], item[0]))
    return ["%s %d" % line for line in lines[:MAX_COLLAPSED_LINES]]


def profile_campaign(
    system: str, config: CSnakeConfig, top_n: int = DEFAULT_TOP_N
) -> Dict[str, Any]:
    """One serial campaign with every stage under cProfile.

    Returns ``{phase: {"top": [...], "top_self": [...], "collapsed":
    [...]}}`` plus a ``wall_s`` entry per phase (the *instrumented* wall
    time — compare shapes, not absolute seconds, against the timed
    entries).
    """
    sink: Dict[str, pstats.Stats] = {}
    stages = [_ProfiledStage(stage, sink) for stage in default_stages()]
    with make_executor(1, "serial") as executor:
        Pipeline(get_system(system), config, stages=stages, executor=executor).run()
    out: Dict[str, Any] = {}
    for phase, stats in sink.items():
        out[phase] = {
            "wall_s": round(stats.total_tt, 4),  # type: ignore[attr-defined]
            "top": _top_functions(stats, top_n, column=3),
            "top_self": _top_functions(stats, top_n, column=2),
            "collapsed": _collapsed_stacks(stats),
        }
    return out
