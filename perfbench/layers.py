"""Per-layer metrics of a traced run.

Every metric here is read from a :class:`tracing.Tracer` after the run:
``*.self_s`` sums span self time, ``*.calls`` counts calls of the named
entry points (generator functions count the generators made, not their
resumes), and ``*.draws`` / ``*.values`` add up sizes seen by hooks.
The counts are exact: two traced runs at one seed must agree on them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from tracing import LAYERS, Tracer, import_all

ENGINE = "repro.simcore.engine:Environment"
RNG = "repro.simcore.rng:StreamRNG"
FAIRSHARE = "repro.network.fairshare:FairShareState"
TABLE = "repro.storage.table:TableService"
QUEUE = "repro.storage.queue:QueueService"
HISTOGRAM = "repro.observability.histogram:Histogram"
COHORT = "repro.workloads.cohort"

RNG_BATCH = [f"{RNG}.draw_batch", f"{RNG}.exponential_batch", f"{RNG}.uniform_batch"]

#: The op methods of the three typed clients, i.e. what a user of the
#: simulated storage calls.  ``*_measured`` variants return
#: ``(result, outcome)`` instead of raising.
CLIENT_OPS = [
    f"repro.client.table_client:TableClient.{op}"
    for op in (
        "insert", "query", "update", "delete", "query_by_property",
        "insert_measured", "query_measured", "update_measured",
        "delete_measured", "scan_measured",
    )
] + [
    f"repro.client.queue_client:QueueClient.{op}"
    for op in (
        "add", "peek", "receive", "receive_batch", "delete",
        "add_measured", "peek_measured", "receive_measured",
    )
] + [
    f"repro.client.blob_client:BlobClient.{op}"
    for op in (
        "upload", "download", "exists", "delete",
        "upload_measured", "download_measured",
    )
]

#: metric stem -> the entry points it covers; each gets ``.calls`` and,
#: when listed in ``TIMED``, ``.self_s``.
ENTRY_POINTS: Dict[str, List[str]] = {
    "simcore.run": [f"{ENGINE}.run"],
    "simcore.process": [f"{ENGINE}.process"],
    "simcore.rng.batch": RNG_BATCH,
    "simcore.rng.draw": [f"{RNG}.draw"],
    "network.transfer": ["repro.network.flows:FlowNetwork.transfer"],
    "network.fairshare.recompute": [f"{FAIRSHARE}.recompute"],
    "network.fairshare.add_flow": [f"{FAIRSHARE}.add_flow"],
    "network.fairshare.remove_flow": [f"{FAIRSHARE}.remove_flow"],
    "service.execute": ["repro.service.pipeline:RequestPipeline.execute"],
    "service.tracer.observe": ["repro.service.tracing:RequestTracer.observe"],
    "storage.partition.execute": ["repro.storage.partition:PartitionServer.execute"],
    **{
        f"storage.table.{op}": [f"{TABLE}.{op}"]
        for op in ("insert", "query", "update", "delete", "query_by_property")
    },
    **{f"storage.queue.{op}": [f"{QUEUE}.{op}"] for op in ("add", "receive", "delete")},
    "storage.table.seed_entity": [f"{TABLE}.seed_entity"],
    "storage.make_entity": ["repro.storage.table:make_entity"],
    "observability.histogram.observe": [f"{HISTOGRAM}.observe"],
    "workloads.cohort.draw_stationary_latencies": [f"{COHORT}:draw_stationary_latencies"],
    "workloads.cohort.solve_stationary": [f"{COHORT}:solve_stationary"],
    # ``resubmit`` goes through ``submit``, so this counts both once.
    "modis.submit": ["repro.modis.worker:WorkerPool.submit"],
}

TIMED = {
    "simcore.run", "simcore.rng.batch", "network.transfer",
    "network.fairshare.recompute", "service.execute",
    "service.tracer.observe", "storage.partition.execute",
    *(f"storage.table.{op}" for op in (
        "insert", "query", "update", "delete", "query_by_property")),
    *(f"storage.queue.{op}" for op in ("add", "receive", "delete")),
    "workloads.cohort.draw_stationary_latencies",
    "workloads.cohort.solve_stationary",
}

#: Entered a handful of times per workload: only its self time (the
#: kernel's event loop) is reported.
NO_CALLS = {"simcore.run"}


def install(tracer: Tracer) -> "Probes":
    """Wrap every ``repro`` module with ``tracer`` and attach the probes."""
    probes = Probes(tracer)
    tracer.install(import_all())
    from repro.simcore.engine import Environment

    tracer.wrap_instance_attrs(Environment, ("timeout", "process"))
    return probes


class Probes:
    """Hooks that count sizes the span table cannot show."""

    def __init__(self, tracer: Tracer) -> None:
        self.timeout_batch = 0
        self.rng_draws = 0
        self.histogram_values = 0
        self.client_failed = 0
        tracer.on_return(f"{ENGINE}.timeout_batch", self._on_timeout_batch)
        for name in RNG_BATCH:
            tracer.on_return(name, self._on_rng_batch)
        tracer.on_return(f"{HISTOGRAM}.observe_batch", self._on_observe_batch)
        for name in CLIENT_OPS:
            tracer.on_finish(name, self._on_client_finish)

    def _on_timeout_batch(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.timeout_batch += len(result)

    def _on_rng_batch(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.rng_draws += result.size

    def _on_observe_batch(self, args: tuple, kwargs: dict, result: Any) -> None:
        values = args[1] if len(args) > 1 else kwargs["values"]
        self.histogram_values += len(values)

    def _on_client_finish(self, value: Any, exc: Optional[BaseException]) -> None:
        if exc is not None:
            self.client_failed += 1
        elif (
            isinstance(value, tuple)
            and len(value) == 2
            and getattr(value[1], "ok", True) is False
        ):
            self.client_failed += 1


def metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names: List[str] = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.share"]
    for stem in ENTRY_POINTS:
        if stem not in NO_CALLS:
            names.append(f"{stem}.calls")
        if stem in TIMED:
            names.append(f"{stem}.self_s")
        if stem == "simcore.rng.batch":
            names.append("simcore.rng.batch.draws")
    names += [
        "simcore.timeout.calls",
        "client.calls", "client.failed_calls", "client.attempts_per_call",
        "observability.histogram.observe_batch.values",
        "unattributed.share",
    ]
    return names


def collect(tracer: Tracer, probes: Probes, traced_run_s: float) -> Dict[str, float]:
    """Fold the tracer's spans and counters into the per-layer metrics.

    ``traced_run_s`` is the wall time of the traced entry call; layer
    shares are fractions of it, and ``unattributed.share`` is the part
    no layer span covers (other packages' self time plus time outside
    every span).
    """
    self_t = tracer.self_times()
    out: Dict[str, float] = {}

    attributed = 0.0
    for layer in LAYERS:
        s = float(sum(t for t, l in zip(self_t, tracer.layers) if l == layer))
        attributed += s
        out[f"{layer}.self_s"] = s
        out[f"{layer}.share"] = s / traced_run_s

    def ids(names: List[str]) -> List[int]:
        return [tracer.name_id(n) for n in names]  # KeyError: entry point renamed

    for stem, entry in ENTRY_POINTS.items():
        nids = ids(entry)
        if stem not in NO_CALLS:
            out[f"{stem}.calls"] = sum(tracer.calls[i] for i in nids)
        if stem in TIMED:
            out[f"{stem}.self_s"] = float(sum(self_t[i] for i in nids))
    out["simcore.rng.batch.draws"] = probes.rng_draws
    out["simcore.timeout.calls"] = (
        tracer.calls[tracer.name_id(f"{ENGINE}.timeout")] + probes.timeout_batch
    )
    client_calls = sum(tracer.calls[i] for i in ids(CLIENT_OPS))
    out["client.calls"] = client_calls
    out["client.failed_calls"] = probes.client_failed
    out["client.attempts_per_call"] = (
        out["service.execute.calls"] / client_calls if client_calls else 0.0
    )
    out["observability.histogram.observe_batch.values"] = probes.histogram_values
    out["unattributed.share"] = max(traced_run_s - attributed, 0.0) / traced_run_s
    return {name: out[name] for name in metric_names()}


def count_metrics(metrics: Dict[str, float]) -> Dict[str, float]:
    """The exact work counts: every ``*calls``, ``*.draws``, ``*.values``."""
    return {
        k: v for k, v in metrics.items()
        if k.endswith(("calls", ".draws", ".values"))
    }
