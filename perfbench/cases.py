"""The benchmark's workloads: what each runs, and how its output is checked.

Each workload is one call into a public entry point of ``repro``, run
serially (``jobs=1``), or a suite: several such calls made one after the
other in one process.  Its output is reduced to a SHA-256 digest over
the canonical JSON of the result data (the same digest the repo's golden
tests use) plus a list of named shape checks.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: The repo checkout the benchmark runs in (this file's grandparent).
ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FILE = ROOT / "tests" / "experiments" / "golden_digests.json"
REFERENCE_FILE = Path(__file__).resolve().parent / "references.json"
DEFAULT_SEED = 3

Checks = List[Tuple[str, bool]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"experiment"`` (registry id, pinned by the repo's golden file),
    #: ``"scenario"`` (registered pack, pinned by ``references.json``) or
    #: ``"suite"`` (the workloads named in ``parts``, in order).
    kind: str
    #: Experiment id or scenario name the workload runs.
    target: str = ""
    #: Experiment scale, or the factor ``ScenarioSpec.scaled`` applies to
    #: the scenario's open-loop horizon.
    scale: float = 0.0
    #: Scenario client population (scenarios only).
    n_clients: int = 0
    #: Suites only: the workloads run, one after the other, per call.
    parts: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("table-mix", "experiment", "fig2", 0.05),
        Workload("blob-flows", "experiment", "fig1", 0.05),
        Workload("modis-ops", "experiment", "table2", 0.05),
        # 5,000 clients over 20 simulated hours rather than 100,000 over
        # one: the same batched code path and about as many requests, but
        # averaged over ~60 MMPP bursts instead of ~3, so the work done
        # varies by a few percent between seeds instead of by half.
        Workload("fleet-batched", "scenario", "block-storage", 20.0, 5_000),
        # The three above in one process, so one benchmark workload
        # covers the network, modis, workloads and scenarios layers.
        Workload("kernel-mix", "suite",
                 parts=("blob-flows", "modis-ops", "fleet-batched")),
    )
}


def combine(digests: Sequence[str]) -> str:
    """One digest for a suite: SHA-256 over its parts' digests, in order."""
    return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()


def load_references() -> Dict[str, str]:
    """Reference digests at ``DEFAULT_SEED``, keyed by workload name.

    The three paper experiments read the repo's golden digest file (it
    pins them at the scale and seed used here); the scenario workload
    reads the benchmark's own file.
    """
    golden = json.loads(GOLDEN_FILE.read_text())
    own = json.loads(REFERENCE_FILE.read_text())
    refs: Dict[str, str] = {}
    for w in WORKLOADS.values():
        if w.kind == "experiment":
            if golden["scale"] != w.scale or golden["seed"] != DEFAULT_SEED:
                raise ValueError(f"{GOLDEN_FILE} pins another scale or seed")
            refs[w.name] = golden["digests"][w.target]
        elif w.kind == "scenario":
            refs[w.name] = own["digests"][w.name]
    for w in WORKLOADS.values():
        if w.kind == "suite":
            refs[w.name] = combine([refs[part] for part in w.parts])
    return refs


def prepare(name: str) -> Callable[[int], Any]:
    """Resolve a workload to a one-argument call (the seed).

    Resolving loads the experiment registry or the scenario pack, so it
    belongs to set-up, not to the timed call.
    """
    w = WORKLOADS[name]
    if w.kind == "suite":
        calls = [prepare(part) for part in w.parts]
        return lambda seed: [call(seed) for call in calls]
    if w.kind == "experiment":
        from repro.experiments import registry

        registry.get_experiment(w.target)
        return lambda seed: registry.run_experiment(
            w.target, scale=w.scale, seed=seed, jobs=1
        )
    import repro.scenarios as scenarios

    spec = scenarios.get_scenario(w.target).scaled(w.scale)
    # Looked up at call time, so a traced run calls the traced function.
    return lambda seed: scenarios.run_scenario(
        spec, n_clients=w.n_clients, seed=seed, mode="batched"
    )


def _digest(data: Any) -> str:
    """SHA-256 of ``data`` as ``repro.experiments.golden`` digests it."""
    from repro.experiments.golden import canonical_data

    payload = json.dumps(canonical_data(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _scenario_checks(summary: Dict[str, Any]) -> Checks:
    ops, errors = summary["ops_completed"], summary["errors"]
    per_op = summary["per_op"].values()
    lat = [summary[k] for k in ("latency_p50_s", "latency_mean_s", "latency_p99_s")]
    lat += [row[k] for row in per_op for k in ("latency_p50_s", "latency_p99_s")]
    return [
        ("every op type served", bool(per_op) and all(row["ops"] > 0 for row in per_op)),
        ("per-op ops add up", sum(row["ops"] for row in per_op) == ops),
        ("per-op errors add up", sum(row["errors"] for row in per_op) == errors),
        ("window ops add up", summary["windows"]["ops"] == ops + errors),
        ("latencies finite and positive", all(math.isfinite(x) and x > 0 for x in lat)),
        ("p50 <= p99", all(
            row["latency_p50_s"] <= row["latency_p99_s"]
            for row in [summary, *per_op])),
    ]


def evaluate(name: str, result: Any) -> Tuple[str, Checks]:
    """Digest and shape checks of one workload result."""
    w = WORKLOADS[name]
    if w.kind == "suite":
        digests, checks = [], []
        for part, part_result in zip(w.parts, result):
            digest, part_checks = evaluate(part, part_result)
            digests.append(digest)
            checks += [(f"{part}: {check}", ok) for check, ok in part_checks]
        return combine(digests), checks
    if w.kind == "experiment":
        checks = [(c.name, c.passed) for c in result.checks.results]
        return _digest(result.data), checks
    summary = result.summary()
    return _digest(summary), _scenario_checks(summary)
