"""The declarative base every typed storage client is built on.

The three 2009-style clients (blob, table, queue) share one call path:
an attempt factory (optionally hedged for idempotent reads) run through
:func:`repro.client.base.with_retries` — timeout race, bounded retry,
optional retry budget and circuit breaker.  :meth:`ServiceClient._call`
specifies that wiring once (the ``*_measured`` variants the benchmark
drivers use wrap it to return an outcome instead of raising); a typed
client is then just an op table::

    class QueueClient(ServiceClient):
        def peek(self, queue):
            result = yield from self._call(
                "queue.peek", lambda: self.service.peek(queue),
                hedgeable=True,
            )
            return result

Every client call additionally emits a call-level
:class:`~repro.service.tracing.RequestTrace` (op kind, latency, retry
count, outcome) into the service's :class:`RequestTracer` — the client
half of the per-request observability layer (the service half is
emitted by the request pipeline itself).  When the tracer carries a
:class:`~repro.observability.spans.SpanTracer`, every call opens a
``call:<op>`` span and every raw attempt (each retry, each hedge leg)
runs under its own ``attempt`` span bound as ambient context, so the
pipeline's server spans parent themselves into the right attempt.

Replica-aware routing
---------------------
A client built with a ``secondary`` service (usually via a
:class:`~repro.storage.account.GeoReplicatedAccount` helper) learns
three more behaviours, all governed by :class:`FailoverPolicy`:

* **routing** — ``self.service`` resolves per *attempt* to the replica
  the current leg targets (op-table lambdas bind the service at
  invocation time, so the same op tables serve both replicas);
* **failover** — when the whole first-replica pass fails with a
  transport failure (:func:`repro.storage.errors.is_transport_failure`)
  after the retry budget, the call runs one more full retry pass
  against the other replica before giving up;
* **hedged reads** — idempotent ops with a
  :class:`~repro.resilience.hedging.HedgePolicy` launch their hedge
  backup against the *other* replica, so a slow or dying region is
  raced against a healthy one.

Attempt spans carry a ``replica`` attribute on replica-aware clients,
so ``repro trace`` renders cross-region failover waterfalls.  Clients
without a secondary take exactly the seed code path: no extra events,
no extra span attributes, bit-identical golden outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from repro.client.base import OperationOutcome, with_retries
from repro.observability import spans as spanlib
from repro.observability.spans import Span, SpanTracer
from repro.resilience.backoff import RetryPolicy
from repro.resilience.hedging import HedgePolicy, hedged_call
from repro.service.tracing import OK, RequestTrace, RequestTracer
from repro.storage.errors import is_transport_failure


@dataclass(frozen=True)
class FailoverPolicy:
    """When and how a replica-aware client uses the other replica."""

    #: Master switch for the cross-replica failover pass.
    enabled: bool = True
    #: Hedge idempotent reads against the other replica (needs a
    #: :class:`HedgePolicy` on the client to actually launch hedges).
    hedge_secondary: bool = True
    #: After a successful failover to the secondary, keep routing there
    #: for this long (0 = re-resolve every call).  Ignored when a
    #: ``route_hint`` (an account's failover state machine) routes.
    pin_secondary_s: float = 0.0


class ServiceClient:
    """Shared retry/hedge/breaker/failover wiring for one storage service.

    Parameters
    ----------
    service:
        The (primary) service endpoint; must expose ``env`` and
        (optionally) a ``tracer`` the client inherits for call-level
        traces.
    timeout_s:
        Client-side operation timeout raced against every attempt
        (None disables the race — blob transfers stream instead).
    retry:
        :class:`RetryPolicy`; defaults to the 2009 StorageClient policy.
    budget / breaker:
        Optional resilience hooks (see :mod:`repro.resilience`).
    hedge:
        Optional :class:`HedgePolicy`, applied only to ops a subclass
        marks ``hedgeable=True`` (idempotent reads).
    secondary:
        Optional same-shaped replica endpoint; enables replica routing,
        the failover pass and cross-replica hedging.
    failover:
        :class:`FailoverPolicy` for the secondary (defaults on).
    route_hint:
        Optional callable returning ``"primary"``/``"secondary"``: which
        replica a fresh call should target (an account's failover state
        machine plugs in here).
    write_guard:
        Optional callable ``(kind, replica)`` raising a retryable error
        when the replica cannot accept a mutating op (read-only
        promotion windows, writes to the demoted replica).
    on_commit:
        Optional callable ``(kind, replica)`` invoked after a successful
        call (replication-lag accounting).
    """

    def __init__(
        self,
        service: Any,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        budget: Optional[Any] = None,
        breaker: Optional[Any] = None,
        hedge: Optional[HedgePolicy] = None,
        secondary: Optional[Any] = None,
        failover: Optional[FailoverPolicy] = None,
        route_hint: Optional[Callable[[], str]] = None,
        write_guard: Optional[Callable[[str, str], None]] = None,
        on_commit: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self._primary = service
        self.env = service.env
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.budget = budget
        self.breaker = breaker
        self.hedge = hedge
        self.secondary = secondary
        self.failover = failover if failover is not None else FailoverPolicy()
        self.route_hint = route_hint
        self.write_guard = write_guard
        self.on_commit = on_commit
        #: Calls that succeeded only via the cross-replica failover pass.
        self.failovers = 0
        self._route_override: Optional[str] = None
        self._pinned_until = float("-inf")
        self.tracer: Optional[RequestTracer] = getattr(
            service, "tracer", None
        )

    # -- replica routing ---------------------------------------------------
    @property
    def service(self) -> Any:
        """The replica this attempt (or a fresh call) targets.

        Op tables read ``self.service`` when an attempt factory is
        invoked, so each retry/hedge/failover leg re-resolves it; with
        no secondary this is always the primary, as in the seed.
        """
        replica = self._route_override
        if replica is None and self.secondary is not None:
            replica = self._default_replica()
        if replica == "secondary" and self.secondary is not None:
            return self.secondary
        return self._primary

    def _default_replica(self) -> str:
        if self.secondary is None:
            return "primary"
        if self.route_hint is not None:
            return (
                "secondary" if self.route_hint() == "secondary" else "primary"
            )
        if self.env.now < self._pinned_until:
            return "secondary"
        return "primary"

    def _routed(
        self, make: Callable[[], Generator], replica: str
    ) -> Callable[[], Generator]:
        """Pin ``self.service`` to ``replica`` while the op-table lambda
        builds its generator (service resolution is synchronous)."""

        def factory() -> Generator:
            previous = self._route_override
            self._route_override = replica
            try:
                return make()
            finally:
                self._route_override = previous

        return factory

    def _write_guarded(
        self, kind: str, make: Callable[[], Generator], replica: str
    ) -> Callable[[], Generator]:
        """Run the write guard inside the attempt generator, so a
        rejection surfaces through the retry/span machinery like any
        other per-attempt failure."""

        def guarded() -> Generator:
            assert self.write_guard is not None
            self.write_guard(kind, replica)
            result = yield from make()
            return result

        return lambda: guarded()

    def _leg(
        self,
        kind: str,
        make: Callable[[], Generator],
        hedgeable: bool,
        spans: Optional[SpanTracer],
        call_span: Optional[Span],
        counter: Optional[List[int]],
        replica: Optional[str],
    ) -> Callable[[], Generator]:
        """Compose one replica's attempt factory: routing, write guard,
        attempt span.  A single-replica client without a write guard or
        spans gets ``make`` back unwrapped."""
        inner = make
        if replica is not None:
            inner = self._routed(make, replica)
        if self.write_guard is not None and not hedgeable:
            inner = self._write_guarded(kind, inner, replica or "primary")
        if spans is not None and call_span is not None and counter is not None:
            inner = self._spanned(kind, inner, spans, call_span, counter,
                                  replica)
        return inner

    # -- the one call path -------------------------------------------------
    def _attempt(
        self,
        kind: str,
        make: Callable[[], Generator],
        hedgeable: bool,
        backup: Optional[Callable[[], Generator]] = None,
    ) -> Callable[[], Generator]:
        """Wrap the attempt factory with hedging where allowed."""
        if hedgeable and self.hedge is not None:
            hedge = self.hedge
            return lambda: hedged_call(
                self.env, make, hedge, kind, make_backup=backup
            )
        return make

    def _spanned(
        self,
        kind: str,
        make: Callable[[], Generator],
        spans: SpanTracer,
        call_span: Span,
        counter: List[int],
        replica: Optional[str] = None,
    ) -> Callable[[], Generator]:
        """Wrap the *raw* attempt factory so every invocation — each
        retry, each hedge leg, each failover leg — runs under its own
        attempt span, bound as the ambient context the server span will
        parent into.  ``counter`` is shared across a call's legs, so
        attempt indices stay globally ordered within the call."""

        def factory() -> Generator:
            index = counter[0]
            counter[0] += 1
            attrs: dict = {"attempt": index}
            if replica is not None:
                attrs["replica"] = replica
            attempt = spans.start(
                f"attempt:{kind} #{index}",
                spanlib.ATTEMPT,
                self.env.now,
                parent=call_span.context,
                **attrs,
            )
            return spans.bind(self.env, make(), attempt)

        return factory

    def _call(
        self,
        kind: str,
        make: Callable[[], Generator],
        hedgeable: bool = False,
        outcome: Optional[OperationOutcome] = None,
    ) -> Generator:
        """The one call path: attempts with retries (and hedging where
        allowed), the cross-replica failover pass, the commit hook, the
        call-level trace and the ``call:<op>`` span.

        Returns the result or raises the final (post-retry) error.  When
        ``outcome`` is given the call is recorded into it instead, and a
        failed call returns None (see :meth:`_call_measured`).
        """
        env = self.env
        spans = getattr(self.tracer, "spans", None)
        call_span: Optional[Span] = None
        counter: Optional[List[int]] = None
        if spans is not None and spans.enabled:
            call_span = spans.start(
                f"call:{kind}", spanlib.CLIENT, env.now,
                parent=spans.current, op=kind,
            )
            counter = [0]  # shared by the call's legs: attempts stay ordered
        started_at = env.now
        secondary = self.secondary
        failover = secondary is not None and self.failover.enabled
        first = None if secondary is None else self._default_replica()
        second = "secondary" if first == "primary" else "primary"
        backup = None
        if (
            failover and hedgeable and self.failover.hedge_secondary
            and self.hedge is not None
        ):
            backup = self._leg(kind, make, hedgeable, spans, call_span,
                               counter, second)
        factory = self._attempt(
            kind,
            self._leg(kind, make, hedgeable, spans, call_span, counter, first),
            hedgeable,
            backup,
        )
        result, error, retries = yield from with_retries(
            env, factory, self.retry, self.timeout_s, kind, self.budget,
            self.breaker,
        )
        used = first or "primary"
        if failover and error is not None and is_transport_failure(error):
            # The whole first-replica pass failed at transport level:
            # one more full retry pass, other replica.
            used = second
            result, error, more = yield from with_retries(
                env,
                self._leg(kind, make, hedgeable, spans, call_span, counter,
                          second),
                self.retry, self.timeout_s, kind, self.budget, self.breaker,
            )
            retries += more
            if error is None:
                self.failovers += 1
                pin_s = self.failover.pin_secondary_s
                if second == "secondary" and pin_s > 0:
                    self._pinned_until = env.now + pin_s
        if error is None and self.on_commit is not None:
            self.on_commit(kind, used)
        status = OK if error is None else type(error).__name__
        if self.tracer is not None:
            # Filed under the replica that served the call (on failure,
            # the last one tried).
            served = secondary if used == "secondary" else self._primary
            self.tracer.observe_call(RequestTrace(
                getattr(served, "name", "service"), kind, started_at,
                env.now, retries=retries, outcome=status,
            ))
        if call_span is not None:
            call_span.attributes["retries"] = retries
            if secondary is not None:
                call_span.attributes["replica"] = used
            spans.finish(call_span, env.now, status)
        if outcome is not None:
            outcome.finished_at = env.now
            outcome.error = error
            outcome.retries = retries
        if error is None or outcome is not None:
            return result  # None when the call failed
        try:
            raise error
        finally:
            # The traceback holds this frame: drop the local, or the
            # two keep each other alive as a cycle.
            del error

    def _call_measured(
        self,
        kind: str,
        make: Callable[[], Generator],
        hedgeable: bool = False,
    ) -> Generator:
        """Measured variant: ``(result_or_None, OperationOutcome)``."""
        now = self.env.now
        outcome = OperationOutcome(now, now)
        result = yield from self._call(kind, make, hedgeable, outcome)
        return result, outcome


__all__ = ["FailoverPolicy", "ServiceClient"]
