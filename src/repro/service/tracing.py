"""Per-request structured traces for the unified request path.

Every request that runs through :class:`repro.service.pipeline.RequestPipeline`
emits one :class:`RequestTrace` (op kind, payload size, queue wait,
transfer time, outcome); every client call that runs through
:class:`repro.client.service_client.ServiceClient` emits a second,
call-level record carrying the retry count.  Both land in a
:class:`RequestTracer`, which is a bounded window of recent records plus
exact running aggregates and per-``(service, op)`` streaming latency
histograms (:class:`repro.observability.histogram.Histogram`) — so a
full-scale experiment can keep tracing on without the window growing
with the run, and percentiles survive the window trimming.

The window stores each record as one flat tuple of atomic values (the
kind, then the :class:`RequestTrace` fields), not as the trace object:
the cyclic garbage collector untracks such a tuple the first time it
sees it, so a window of 10^5 records adds nothing to the collector's
per-collection work.  :meth:`RequestTracer.records` and
:meth:`RequestTracer.client_calls` rebuild the traces on demand.

The tracer is read back through :mod:`repro.monitoring`
(:func:`~repro.monitoring.attach_request_tracer`,
:func:`~repro.monitoring.request_summary`).  Span-level tracing rides
along: attach a :class:`repro.observability.spans.SpanTracer` as
:attr:`RequestTracer.spans` and the client/pipeline/partition layers
emit one causal span tree per request (see
:mod:`repro.observability`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.observability.histogram import Histogram

#: Outcome value recorded for a request that completed without error.
OK = "ok"


class RequestTrace:
    """One request (or one client call) through the unified pipeline.

    Times are simulation seconds.  ``outcome`` is :data:`OK` or the
    exception class name that terminated the request.  For server-side
    records ``retries`` is always 0; client-call records carry the
    retry count of the whole call.

    Slotted (one is built per request and per client call), with the
    construction, defaults, equality, repr and unhashability of a plain
    dataclass with these fields.
    """

    __slots__ = (
        "service", "op", "started_at", "finished_at", "size_mb",
        "base_latency_s", "queue_wait_s", "server_s", "transfer_s",
        "retries", "outcome",
    )

    def __init__(
        self,
        service: str,
        op: str,
        started_at: float,
        finished_at: float,
        size_mb: float = 0.0,
        base_latency_s: float = 0.0,
        queue_wait_s: float = 0.0,
        server_s: float = 0.0,
        transfer_s: float = 0.0,
        retries: int = 0,
        outcome: str = OK,
    ) -> None:
        self.service = service
        self.op = op
        self.started_at = started_at
        self.finished_at = finished_at
        self.size_mb = size_mb
        self.base_latency_s = base_latency_s
        self.queue_wait_s = queue_wait_s
        self.server_s = server_s
        self.transfer_s = transfer_s
        self.retries = retries
        self.outcome = outcome

    # Mutable and compared by value, so unhashable.
    __hash__ = None  # type: ignore[assignment]

    def _fields(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{self.__class__.__qualname__}({fields})"

    @property
    def ok(self) -> bool:
        return self.outcome == OK

    @property
    def latency_s(self) -> float:
        return self.finished_at - self.started_at


def _request_totals() -> Dict[str, float]:
    """Fresh running sums for one server-side ``(service, op)``."""
    return {
        "count": 0.0,
        "errors": 0.0,
        "latency_s": 0.0,
        "queue_wait_s": 0.0,
        "transfer_s": 0.0,
        "size_mb": 0.0,
    }


def _call_totals() -> Dict[str, float]:
    """Fresh running sums for one client-call ``(service, op)``."""
    return {"count": 0.0, "errors": 0.0, "retries": 0.0}


class RequestTracer:
    """Bounded per-request trace log with exact running aggregates.

    ``capacity`` bounds how many individual records are retained (the
    most recent ones win); the counters ``total``/``errors``/``dropped``,
    the per-``(service, op)`` tallies and the streaming latency
    histograms stay exact regardless of trimming.  Pass
    ``capacity=None`` to retain everything.
    """

    #: Record kinds, the first field of every window row.
    REQUEST_KIND = "request"
    CLIENT_KIND = "client_call"

    def __init__(
        self, capacity: Optional[int] = 100_000, enabled: bool = True
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None)")
        #: Ingestion switch: while False every ``observe*`` is a no-op.
        self.enabled = enabled
        self.capacity = capacity
        #: The retained window: ``(kind, *RequestTrace fields)`` rows.
        self._rows: List[Tuple[Any, ...]] = []
        self.dropped = 0
        self.total = 0
        self.errors = 0
        self.client_total = 0
        self.client_errors = 0
        self.retries = 0
        self._per_op: Dict[Tuple[str, str], Dict[str, float]] = {}
        self._latency: Dict[Tuple[str, str], Histogram] = {}
        self._client_per_op: Dict[Tuple[str, str], Dict[str, float]] = {}
        self._client_latency: Dict[Tuple[str, str], Histogram] = {}
        #: Optional span collector (see
        #: :mod:`repro.observability.spans`); when attached, the client
        #: and pipeline layers emit causal spans into it.
        self.spans = None  # type: Optional[object]

    # -- ingestion ---------------------------------------------------------
    def observe(self, trace: RequestTrace) -> None:
        """Record one server-side request trace: counters, the
        ``(service, op)`` sums and histogram, and the window row, in
        one pass."""
        if not self.enabled:
            return
        key = (trace.service, trace.op)
        latency = trace.finished_at - trace.started_at
        agg = self._per_op.get(key)
        if agg is None:
            agg = self._per_op[key] = _request_totals()
        self.total += 1
        agg["count"] += 1
        agg["latency_s"] += latency
        agg["queue_wait_s"] += trace.queue_wait_s
        agg["transfer_s"] += trace.transfer_s
        agg["size_mb"] += trace.size_mb
        if trace.outcome == OK:
            hist = self._latency.get(key)
            if hist is None:
                hist = self._latency[key] = Histogram(f"{trace.service}.{trace.op}")
            hist.observe(latency)
        else:
            self.errors += 1
            agg["errors"] += 1
        rows = self._rows
        rows.append((
            self.REQUEST_KIND, trace.service, trace.op, trace.started_at,
            trace.finished_at, trace.size_mb, trace.base_latency_s,
            trace.queue_wait_s, trace.server_s, trace.transfer_s,
            trace.retries, trace.outcome,
        ))
        cap = self.capacity
        if cap is not None and len(rows) >= cap + (cap // 4 or 1):
            self._trim(cap)

    def observe_call(self, trace: RequestTrace) -> None:
        """Record one client-call trace (whole retried operation)."""
        if not self.enabled:
            return
        key = (trace.service, trace.op)
        agg = self._client_per_op.get(key)
        if agg is None:
            agg = self._client_per_op[key] = _call_totals()
        self.client_total += 1
        self.retries += trace.retries
        agg["count"] += 1
        agg["retries"] += trace.retries
        if trace.outcome == OK:
            hist = self._client_latency.get(key)
            if hist is None:
                hist = self._client_latency[key] = Histogram(
                    f"{trace.service}.{trace.op}.call"
                )
            hist.observe(trace.finished_at - trace.started_at)
        else:
            self.client_errors += 1
            agg["errors"] += 1
        rows = self._rows
        rows.append((
            self.CLIENT_KIND, trace.service, trace.op, trace.started_at,
            trace.finished_at, trace.size_mb, trace.base_latency_s,
            trace.queue_wait_s, trace.server_s, trace.transfer_s,
            trace.retries, trace.outcome,
        ))
        cap = self.capacity
        if cap is not None and len(rows) >= cap + (cap // 4 or 1):
            self._trim(cap)

    def observe_batch(
        self,
        service: str,
        op: str,
        latencies: Sequence[float],
        *,
        queue_waits: Optional[Sequence[float]] = None,
        transfers: Optional[Sequence[float]] = None,
        sizes_mb: Optional[Sequence[float]] = None,
        errors: int = 0,
        client: bool = False,
    ) -> None:
        """Fold a whole batch of completed requests in one call.

        The cohort (fluid) client path completes many statistically
        identical requests per kernel event; this ingests them without
        per-request Python work: the exact counters, the per-``(service,
        op)`` aggregate sums and the streaming latency histogram all
        update vectorized.  ``latencies`` holds the *successful*
        latencies; ``errors`` adds failed requests to the error counters
        (their latencies are not histogrammed, matching the scalar
        path).  With ``client=True`` the batch folds into the
        client-call view instead of the server-side one.

        Individual :class:`RequestTrace` records are *not* appended —
        batch ingestion trades the bounded raw-record window for
        aggregate-only accounting, so ``records()`` stays empty under
        pure cohort traffic while totals, aggregates and percentiles
        remain exact.
        """
        if not self.enabled:
            return
        arr = np.asarray(latencies, dtype=float).reshape(-1)
        n = int(arr.size)
        total_n = n + errors
        if total_n == 0:
            return
        key = (service, op)
        if client:
            self.client_total += total_n
            self.client_errors += errors
            agg = self._client_per_op.get(key)
            if agg is None:
                agg = self._client_per_op[key] = _call_totals()
            agg["count"] += total_n
            agg["errors"] += errors
            if n:
                hist = self._client_latency.get(key)
                if hist is None:
                    hist = Histogram(f"{service}.{op}.call")
                    self._client_latency[key] = hist
                hist.observe_batch(arr)
            return
        self.total += total_n
        self.errors += errors
        agg = self._per_op.get(key)
        if agg is None:
            agg = self._per_op[key] = _request_totals()
        agg["count"] += total_n
        agg["errors"] += errors
        agg["latency_s"] += float(arr.sum())
        if queue_waits is not None:
            agg["queue_wait_s"] += float(np.sum(queue_waits))
        if transfers is not None:
            agg["transfer_s"] += float(np.sum(transfers))
        if sizes_mb is not None:
            agg["size_mb"] += float(np.sum(sizes_mb))
        if n:
            hist = self._latency.get(key)
            if hist is None:
                hist = Histogram(f"{service}.{op}")
                self._latency[key] = hist
            hist.observe_batch(arr)

    def _trim(self, cap: int) -> None:
        """Drop the oldest rows down to ``cap``.  The window is trimmed
        in blocks (at ``cap`` plus a quarter), so retention costs O(1)
        amortized per record."""
        drop = len(self._rows) - cap
        del self._rows[:drop]
        self.dropped += drop

    def _rebuild(self, kind: str) -> List[RequestTrace]:
        return [RequestTrace(*row[1:]) for row in self._rows if row[0] == kind]

    # -- retrieval ---------------------------------------------------------
    def records(self) -> List[RequestTrace]:
        """Retained server-side request traces, oldest first."""
        return self._rebuild(self.REQUEST_KIND)

    def client_calls(self) -> List[RequestTrace]:
        """Retained client-call traces, oldest first."""
        return self._rebuild(self.CLIENT_KIND)

    def of_op(self, op: str) -> List[RequestTrace]:
        return [t for t in self.records() if t.op == op]

    def per_service_op_totals(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Exact aggregate sums keyed by ``(service, op)`` (never trimmed).

        Each value maps ``count / errors / latency_s / queue_wait_s /
        transfer_s / size_mb`` to the running totals for that pair.
        """
        return {key: dict(agg) for key, agg in self._per_op.items()}

    def per_op_totals(self) -> Dict[str, Dict[str, float]]:
        """Compatibility view of :meth:`per_service_op_totals`, keyed by
        op kind alone (two services sharing an op name are summed —
        use the ``(service, op)``-keyed form to keep them apart)."""
        out: Dict[str, Dict[str, float]] = {}
        for (_service, op), agg in self._per_op.items():
            merged = out.get(op)
            if merged is None:
                out[op] = dict(agg)
            else:
                for field, value in agg.items():
                    merged[field] += value
        return out

    def client_per_op_totals(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Exact client-call aggregates keyed by ``(service, op)``
        (``count / errors / retries``)."""
        return {key: dict(agg) for key, agg in self._client_per_op.items()}

    def latency_histograms(self) -> Dict[Tuple[str, str], Histogram]:
        """Per-``(service, op)`` streaming histograms of *successful*
        server-side request latencies.  These survive capacity trimming,
        which makes them the percentile source of record."""
        return dict(self._latency)

    def client_latency_histograms(self) -> Dict[Tuple[str, str], Histogram]:
        """Per-``(service, op)`` histograms of successful client-call
        latencies (the client-observed view, through retries/hedging)."""
        return dict(self._client_latency)

    # -- serialization -----------------------------------------------------
    #: Joiner for ``(service, op)`` keys in snapshot dicts — service
    #: names and op kinds both contain dots ("account.blobs",
    #: "blob.download"), so a pipe keeps the pair splittable.
    _KEY_JOIN = "|"

    @classmethod
    def _snapshot_key(cls, key: Tuple[str, str]) -> str:
        return cls._KEY_JOIN.join(key)

    @classmethod
    def _parse_key(cls, key: str) -> Tuple[str, str]:
        service, _, op = key.partition(cls._KEY_JOIN)
        return service, op

    def snapshot(self) -> Dict[str, object]:
        """JSON-able aggregate state: counters, per-``(service, op)``
        totals, and every streaming histogram bucket-for-bucket.

        The bounded raw-record window is deliberately *not* serialized
        — aggregates and histograms are the exact, trim-proof science;
        the window is a debugging convenience.  Round-trips through
        :meth:`from_snapshot` (the catalog stores these per sweep cell).
        """
        return {
            "total": self.total,
            "errors": self.errors,
            "client_total": self.client_total,
            "client_errors": self.client_errors,
            "retries": self.retries,
            "dropped": self.dropped,
            "per_op": {
                self._snapshot_key(k): dict(v)
                for k, v in self._per_op.items()
            },
            "client_per_op": {
                self._snapshot_key(k): dict(v)
                for k, v in self._client_per_op.items()
            },
            "latency": {
                self._snapshot_key(k): h.to_dict()
                for k, h in self._latency.items()
            },
            "client_latency": {
                self._snapshot_key(k): h.to_dict()
                for k, h in self._client_latency.items()
            },
        }

    @classmethod
    def from_snapshot(cls, payload: Dict[str, object]) -> "RequestTracer":
        """Rebuild a tracer from :meth:`snapshot` output.  Aggregates,
        counters and histograms are restored exactly (percentiles and
        :func:`repro.monitoring.request_summary` render identically);
        the raw-record window starts empty."""
        tracer = cls()
        tracer.total = int(payload.get("total", 0))  # type: ignore[arg-type]
        tracer.errors = int(payload.get("errors", 0))  # type: ignore[arg-type]
        tracer.client_total = int(payload.get("client_total", 0))  # type: ignore[arg-type]
        tracer.client_errors = int(payload.get("client_errors", 0))  # type: ignore[arg-type]
        tracer.retries = int(payload.get("retries", 0))  # type: ignore[arg-type]
        tracer.dropped = int(payload.get("dropped", 0))  # type: ignore[arg-type]
        per_op = payload.get("per_op", {})
        for key, agg in per_op.items():  # type: ignore[union-attr]
            tracer._per_op[cls._parse_key(key)] = {
                str(f): float(v) for f, v in agg.items()
            }
        client_per_op = payload.get("client_per_op", {})
        for key, agg in client_per_op.items():  # type: ignore[union-attr]
            tracer._client_per_op[cls._parse_key(key)] = {
                str(f): float(v) for f, v in agg.items()
            }
        latency = payload.get("latency", {})
        for key, doc in latency.items():  # type: ignore[union-attr]
            tracer._latency[cls._parse_key(key)] = Histogram.from_dict(doc)
        client_latency = payload.get("client_latency", {})
        for key, doc in client_latency.items():  # type: ignore[union-attr]
            tracer._client_latency[cls._parse_key(key)] = (
                Histogram.from_dict(doc)
            )
        return tracer

    def clear(self) -> None:
        self._rows.clear()
        self.dropped = 0
        self.total = 0
        self.errors = 0
        self.client_total = 0
        self.client_errors = 0
        self.retries = 0
        self._per_op.clear()
        self._latency.clear()
        self._client_per_op.clear()
        self._client_latency.clear()

    def __repr__(self) -> str:
        return (
            f"<RequestTracer total={self.total} errors={self.errors}"
            f" client_calls={self.client_total} dropped={self.dropped}>"
        )


__all__ = ["OK", "RequestTrace", "RequestTracer"]
