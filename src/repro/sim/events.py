"""Event loop and activity model of the virtual-time substrate."""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, List, Optional

from ..config import SimConfig
from ..errors import NodeCrashed, RpcTimeout, SimFault


class Event:
    """A scheduled handler invocation; cancellable."""

    __slots__ = ("time", "seq", "node", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, node: "Any", fn: Callable, args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.node = node
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class _Activity:
    """One handler execution: a time cursor charged to a node."""

    __slots__ = ("node", "cursor")

    def __init__(self, node: "Any", cursor: float) -> None:
        self.node = node
        self.cursor = cursor


class SimEnv:
    """The simulated world: clock, event heap, network parameters, RNG.

    One ``SimEnv`` corresponds to one run of one workload.  Nodes register
    themselves on construction; the workload schedules client operations and
    calls :meth:`run`.
    """

    #: Safety valve: a saturated cascade can schedule unbounded work.  Runs
    #: stop (with ``saturated = True``) after this many events.
    MAX_EVENTS = 250_000

    def __init__(self, sim_config: Optional[SimConfig] = None, seed: int = 0) -> None:
        self.cfg = sim_config or SimConfig()
        self.rng = random.Random(seed)
        self._heap: List[Event] = []
        self._seq = 0
        self._loop_time = 0.0
        self._activities: List[_Activity] = []
        self.nodes: List[Any] = []
        self.saturated = False
        self.events_processed = 0
        #: Set of frozensets({a, b}) of node names that cannot communicate.
        self._partitions: set = set()
        #: Per-link probabilistic datagram loss: frozenset({a, b}) ->
        #: (drop probability, dedicated seeded RNG).  Installed by the
        #: msg_drop fault model; empty in fault-free runs, so ``send``
        #: never draws from it (profile runs stay untouched).
        self._drop_rules: dict = {}
        #: Hook the instrumentation runtime installs to observe spins.
        self.runtime: Any = None

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current virtual time: the active handler's cursor, else loop time."""
        if self._activities:
            return self._activities[-1].cursor
        return self._loop_time

    @property
    def current_node(self) -> Optional[Any]:
        return self._activities[-1].node if self._activities else None

    def spin(self, ms: float) -> None:
        """Charge ``ms`` of processing cost to the current activity's node."""
        if ms < 0:
            raise ValueError("cannot spin a negative duration")
        if self._activities:
            self._activities[-1].cursor += ms
        else:  # outside any handler: advance the world clock
            self._loop_time += ms

    # ------------------------------------------------------------- scheduling

    def schedule_at(self, at: float, node: Any, fn: Callable, *args: Any) -> Event:
        ev = Event(max(at, 0.0), self._seq, node, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def after(self, node: Any, delay_ms: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn`` on ``node`` at ``now + delay_ms``."""
        return self.schedule_at(self.now + delay_ms, node, fn, *args)

    def cancel_events_for(self, node: Any) -> None:
        """Cancel every pending event targeting ``node`` (crash semantics:
        a crashed node's scheduled work is dropped, even work whose fire
        time falls beyond a later restart)."""
        for ev in self._heap:
            if ev.node is node:
                ev.cancel()

    def every(self, node: Any, interval_ms: float, fn: Callable, jitter_ms: float = 0.0) -> Event:
        """Fixed-delay periodic handler: the next firing is scheduled
        ``interval`` after the previous one *finishes*, so a busy node's
        period genuinely stretches (heartbeats fall behind under load)."""

        def tick() -> None:
            fn()
            delay = interval_ms
            if jitter_ms:
                delay += self.rng.uniform(0.0, jitter_ms)
            if not getattr(node, "crashed", False):
                self.after(node, delay, tick)

        return self.after(node, interval_ms, tick)

    # -------------------------------------------------------------- execution

    def run(self, until_ms: Optional[float] = None) -> None:
        """Process events in time order until the heap drains or ``until_ms``."""
        horizon = until_ms if until_ms is not None else self.cfg.run_duration_ms
        while self._heap:
            if self.events_processed >= self.MAX_EVENTS:
                self.saturated = True
                break
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            if ev.time > horizon:
                # Leave it for a later run() call with a larger horizon.
                heapq.heappush(self._heap, ev)
                break
            self._loop_time = max(self._loop_time, ev.time)
            if getattr(ev.node, "crashed", False):
                continue
            busy = getattr(ev.node, "busy_until", 0.0)
            if busy > ev.time + 1e-9:
                # The node is still busy: defer the handler in the heap so
                # world time stays consistent (running it "late" from here
                # would reserve other nodes' idle time out of order).
                ev.time = busy
                heapq.heappush(self._heap, ev)
                continue
            self.events_processed += 1
            self._execute(ev.node, ev.fn, ev.args, start_at=ev.time)
        self._loop_time = max(self._loop_time, horizon if not self._heap else self._loop_time)

    def _execute(self, node: Any, fn: Callable, args: tuple, start_at: float) -> None:
        start = start_at
        busy = getattr(node, "busy_until", 0.0)
        if busy > start:
            start = busy
        act = _Activity(node, start)
        self._activities.append(act)
        try:
            fn(*args)
        except SimFault:
            # An unhandled fault terminates the handler, nothing more: the
            # mini-systems model their own error handling explicitly.
            pass
        finally:
            self._activities.pop()
            if node is not None:
                node.busy_until = max(busy, act.cursor)

    # ---------------------------------------------------------------- network

    def partition(self, a: Any, b: Any) -> None:
        self._partitions.add(frozenset((a.name, b.name)))

    def heal(self, a: Any, b: Any) -> None:
        self._partitions.discard(frozenset((a.name, b.name)))

    def partition_names(self, a: str, b: str) -> None:
        """Name-based :meth:`partition` (environment fault models hold
        node names, not node objects)."""
        self._partitions.add(frozenset((a, b)))

    def heal_names(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))

    def node_named(self, name: str) -> Optional[Any]:
        """The registered node called ``name``, or ``None``."""
        for node in self.nodes:
            if node.name == name:
                return node
        return None

    def set_drop_rule(self, a: str, b: str, drop_p: float, seed: int) -> None:
        """Install probabilistic datagram loss on the ``{a, b}`` link.

        Draws come from a dedicated RNG seeded with ``seed`` — never from
        ``self.rng`` — so installing a rule does not perturb the latency
        and jitter stream shared with the fault-free counterfactual run.
        """
        self._drop_rules[frozenset((a, b))] = (drop_p, random.Random(seed))

    def reachable(self, src: Any, dst: Any) -> bool:
        if getattr(dst, "crashed", False) or getattr(src, "crashed", False):
            return False
        return frozenset((src.name, dst.name)) not in self._partitions

    def _latency(self) -> float:
        lat = self.cfg.network_latency_ms
        if self.cfg.network_jitter_ms:
            lat += self.rng.uniform(0.0, self.cfg.network_jitter_ms)
        return lat

    def send(self, dst: Any, fn: Callable, *args: Any) -> None:
        """One-way message: schedule ``fn`` on ``dst`` after network latency."""
        src = self.current_node
        if src is not None and not self.reachable(src, dst):
            return  # silently dropped, like a partitioned datagram
        if self._drop_rules and src is not None:
            rule = self._drop_rules.get(frozenset((src.name, dst.name)))
            if rule is not None and rule[1].random() < rule[0]:
                return  # injected datagram loss (msg_drop fault model)
        self.schedule_at(self.now + self._latency(), dst, fn, *args)

    def rpc(self, dst: Any, fn: Callable, *args: Any, timeout_ms: Optional[float] = None) -> Any:
        """Synchronous RPC with virtual-time accounting.

        The callee runs immediately (same Python stack) but is charged to the
        callee node starting at ``max(arrival, dst.busy_until)``; the caller's
        cursor jumps to the accounted reply time.  If the accounted round
        trip exceeds the timeout the caller sees :class:`RpcTimeout` — the
        callee's work still happened (it was merely too slow), which is the
        overload behaviour cascading failures exploit.
        """
        timeout = timeout_ms if timeout_ms is not None else self.cfg.rpc_timeout_ms
        if not self._activities:
            raise RuntimeError("rpc() must be called from inside a handler")
        caller = self._activities[-1]
        t_call = caller.cursor
        src = caller.node
        if not self.reachable(src, dst):
            caller.cursor = t_call + timeout
            raise RpcTimeout("%s -> %s unreachable" % (src.name, dst.name))
        arrival = t_call + self._latency()
        busy = getattr(dst, "busy_until", 0.0)
        dst_start = max(arrival, busy)
        act = _Activity(dst, dst_start)
        self._activities.append(act)
        error: Optional[SimFault] = None
        result: Any = None
        try:
            result = fn(*args)
        except NodeCrashed:
            error = None  # handled below as a timeout
            act.cursor = dst_start
        except SimFault as exc:
            error = exc
        finally:
            self._activities.pop()
            dst.busy_until = max(busy, act.cursor)
        reply_at = act.cursor + self._latency()
        if reply_at - t_call > timeout:
            caller.cursor = t_call + timeout
            raise RpcTimeout(
                "rpc %s -> %s took %.0fms (> %.0fms)" % (src.name, dst.name, reply_at - t_call, timeout)
            )
        caller.cursor = reply_at
        if error is not None:
            raise error
        return result
