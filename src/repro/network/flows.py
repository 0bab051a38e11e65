"""Event-driven flow-level transfer engine.

:class:`FlowNetwork` tracks the set of active flows and, whenever the set
changes, recomputes the max-min fair allocation and the next completion
instant.  Each flow's completion event fires exactly when its bytes are
drained at the prevailing (piecewise-constant) rates.

The allocation runs on an incremental
:class:`~repro.network.fairshare.FairShareState`: per-link flow
membership persists across churn, and only the connected component of
links/flows touched by an arrival, completion, abort, or cap change is
re-solved — untouched components keep their rates.  Completion timers
use the kernel's cancellable events: a superseded timer is
:meth:`~repro.simcore.Event.cancel`-led and the scheduler discards it at
pop time, instead of the timer firing as a stale-generation no-op.
Both changes are bit-neutral: rates, completion instants, and event
sequence numbers are identical to the batch engine they replaced (the
golden-output tests pin this).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.network.fairshare import FairShareState
from repro.network.links import Link
from repro.simcore import Environment, Event

#: Residual megabytes below which a flow counts as complete.
_DONE_EPS = 1e-9


class Flow:
    """One in-flight transfer across a path of links."""

    _ids = itertools.count()

    __slots__ = (
        "id", "links", "cap", "size_mb", "remaining_mb",
        "rate_mbps", "start_time", "done", "label",
        "_cap_key", "_eff_cap",
    )

    def __init__(
        self,
        env: Environment,
        links: Sequence[Link],
        size_mb: float,
        cap: Optional[float],
        label: str = "",
    ) -> None:
        self.id = next(Flow._ids)
        self.links = tuple(links)
        self.cap = cap
        self.size_mb = float(size_mb)
        self.remaining_mb = float(size_mb)
        self.rate_mbps = 0.0
        self.start_time = env.now
        self.done: Event = env.event()
        self.label = label
        #: Memo for the effective (hook-derived) cap, keyed by
        #: (cap-epoch, active-flow count) — see FlowNetwork._reschedule.
        self._cap_key: Optional[Tuple[int, int]] = None
        self._eff_cap: Optional[float] = None

    def __repr__(self) -> str:
        return (
            f"<Flow #{self.id} {self.label or 'transfer'}"
            f" {self.remaining_mb:.3g}/{self.size_mb:.3g} MB"
            f" @ {self.rate_mbps:.3g} MB/s>"
        )


class FlowNetwork:
    """Shared-bandwidth transfer scheduler over a link graph.

    Usage::

        net = FlowNetwork(env)
        flow = net.transfer([nic, uplink, server_nic], size_mb=1000)
        yield flow.done   # fires (with None) at completion

    ``dynamic_cap`` hooks allow services to impose a per-flow ceiling
    that depends on current concurrency (the storage front-end curves).
    Hook results are memoized per (cap-epoch, concurrency); call
    :meth:`poke` after a hook's inputs change so the epoch advances.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.flows: Set[Flow] = set()
        self._state = FairShareState()
        self._last_update = env.now
        self._timer: Optional[Event] = None
        self.completed_count = 0
        #: Per-flow cap hooks ``(flow, n_active) -> cap_or_None``; the
        #: effective cap is the min over all non-None results (services
        #: use these to impose concurrency-dependent front-end ceilings).
        self._cap_hooks: List[Callable[[Flow, int], Optional[float]]] = []
        #: Bumped whenever hook outputs may have changed for reasons
        #: other than concurrency (poke(), a new hook); invalidates the
        #: per-flow effective-cap memo.
        self._cap_epoch = 0

    # -- public API --------------------------------------------------------
    def transfer(
        self,
        links: Sequence[Link],
        size_mb: float,
        cap: Optional[float] = None,
        label: str = "",
    ) -> Flow:
        """Begin a transfer; returns the Flow whose ``done`` event fires
        (with ``None``) when the last byte arrives.  Firing with the flow
        itself would link the two both ways, one reference cycle per
        transfer for the cyclic collector to find."""
        if size_mb <= 0:
            raise ValueError(f"size_mb must be > 0, got {size_mb}")
        if not links and cap is None:
            raise ValueError("flow needs at least one link or a cap")
        self._advance_progress()
        flow = Flow(self.env, links, size_mb, cap, label)
        self.flows.add(flow)
        self._state.add_flow(flow, flow.links, cap)
        self._reschedule()
        return flow

    def abort(self, flow: Flow) -> None:
        """Cancel an in-flight transfer; its ``done`` event never fires."""
        if flow in self.flows:
            self._advance_progress()
            self.flows.discard(flow)
            self._state.remove_flow(flow)
            self._reschedule()

    @property
    def active_count(self) -> int:
        return len(self.flows)

    def current_rate(self, flow: Flow) -> float:
        return flow.rate_mbps

    def add_cap_hook(
        self, hook: Callable[[Flow, int], Optional[float]]
    ) -> None:
        """Register a dynamic per-flow rate-cap hook."""
        self._cap_hooks.append(hook)
        self._cap_epoch += 1
        if not self.flows:
            return  # nothing to re-rate; no timer to churn
        self._advance_progress()
        self._reschedule()

    def poke(self) -> None:
        """Force a rate recomputation (call after hook inputs change)."""
        self._cap_epoch += 1
        if not self.flows:
            return
        self._advance_progress()
        self._reschedule()

    # -- internals -----------------------------------------------------------
    def _advance_progress(self) -> None:
        """Drain bytes for time elapsed since the last recomputation."""
        elapsed = self.env.now - self._last_update
        if elapsed > 0:
            for flow in self.flows:
                flow.remaining_mb -= flow.rate_mbps * elapsed
        self._last_update = self.env.now

    def _effective_cap(self, flow: Flow, n: int) -> Optional[float]:
        cap = flow.cap
        for hook in self._cap_hooks:
            dyn = hook(flow, n)
            if dyn is not None:
                cap = dyn if cap is None else min(cap, dyn)
        return cap

    def _reschedule(self) -> None:
        """Recompute affected rates and arm a timer for the next completion."""
        timer = self._timer
        if timer is not None:
            if not timer._processed:
                timer.cancel()
            self._timer = None
        if not self.flows:
            return
        state = self._state
        if self._cap_hooks:
            key = (self._cap_epoch, len(self.flows))
            n = key[1]
            for flow in self.flows:
                if flow._cap_key != key:
                    flow._cap_key = key
                    flow._eff_cap = self._effective_cap(flow, n)
                state.set_cap(flow, flow._eff_cap)
        for flow in state.recompute():
            flow.rate_mbps = state.rates[flow]
        next_done = math.inf
        for flow in self.flows:
            rate = flow.rate_mbps
            if rate > 0:
                projected = flow.remaining_mb / rate
                if projected < next_done:
                    next_done = projected
        if math.isinf(next_done):
            # Every flow starved (all rates zero): nothing to schedule;
            # a future transfer()/abort() will recompute.
            return
        timer = self.env.timeout(max(next_done, 0.0))
        timer._cb1 = self._on_timer  # fresh private event: set directly
        self._timer = timer

    def _on_timer(self, _timer: Event) -> None:
        # Fused drain + finish detection: one pass updates every flow's
        # residual for the elapsed interval and collects the finished.
        now = self.env.now
        elapsed = now - self._last_update
        finished: List[Flow] = []
        if elapsed > 0:
            for flow in self.flows:
                remaining = flow.remaining_mb - flow.rate_mbps * elapsed
                flow.remaining_mb = remaining
                if remaining <= _DONE_EPS:
                    finished.append(flow)
        else:
            for flow in self.flows:
                if flow.remaining_mb <= _DONE_EPS:
                    finished.append(flow)
        self._last_update = now
        # Sort by flow id: self.flows is a set, and the succeed() order
        # below assigns event sequence numbers, which must not depend on
        # object addresses when several flows finish simultaneously.
        finished.sort(key=lambda f: f.id)
        state = self._state
        for flow in finished:
            self.flows.discard(flow)
            state.remove_flow(flow)
            flow.remaining_mb = 0.0
            self.completed_count += 1
            flow.done.succeed()
        self._reschedule()

    def snapshot(self) -> Dict[str, float]:
        """Current rate by flow label (diagnostics)."""
        return {f"{f.label}#{f.id}": f.rate_mbps for f in self.flows}
