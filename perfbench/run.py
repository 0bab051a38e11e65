"""Benchmark: user-run simulations timed end to end, with a traced layer split.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table-mix [--seed 3] [--seconds 60] [--trace 0|1]
    python3 perfbench/run.py --workload all       # one summary line per workload

Every workload run happens in a fresh interpreter (``child.py``), one at
a time.  With ``--trace 0`` the benchmark runs the workload once per
program seed of :func:`program_seed`, each run after an interpreter that
times set-up alone (and warms the file cache), until the next pair would
likely end after ``--seconds`` (at least two runs), and reports medians:

* ``run_s``: wall seconds of the workload's entry call;
* ``setup_s``: seconds from spawning the interpreter until the inputs
  are ready (package import, registry / scenario-pack load, reference
  digests);
* ``peak_rss_mb``: peak resident memory of one run's process.

A run fails when it raises, when its digest differs from the reference
(at the reference seed) or from the other run at the same seed, or
when a shape check fails at the reference seed.  ``error_rate`` is
failed runs over attempted runs.  The paper-shape checks are statistical
claims tuned at the reference seed; elsewhere their failures are
printed but do not fail the run.

With ``--trace 1`` it makes one untraced run and two traced runs and
prints the per-layer metrics of ``layers.py``.  The traced digests must
equal the untraced one and the work counts must agree exactly between
the two traced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cases import DEFAULT_SEED, GOLDEN_FILE, ROOT, WORKLOADS  # noqa: E402
from layers import count_metrics, metric_names  # noqa: E402

#: Fewest timed runs per benchmark run: two, so the first program seed
#: is checked against a repeat.
MIN_RUNS = 2
#: Distance between the program seeds of one benchmark run.
SEED_STRIDE = 1000
#: A child that takes longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 170
SPAN_DIR = HERE / "out"


def spawn(workload: str, seed: int, mode: str, spans: Optional[Path] = None) -> Dict[str, Any]:
    """Run ``child.py`` once; return its JSON plus ``setup_s``."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}, no result line"}
    if "ready" in out:
        out["setup_s"] = out["ready"] - started
    return out


def verdict(sample: Dict[str, Any], first_digest: Optional[str]) -> Optional[str]:
    """Why a timed run failed, or None when it passed."""
    if "error" in sample:
        return sample["error"].strip().splitlines()[-1]
    if sample["reference"] is not None:
        if sample["digest"] != sample["reference"]:
            return f"digest {sample['digest'][:12]} != reference {sample['reference'][:12]}"
        if sample["shape_failed"]:
            return f"shape checks failed: {sample['shape_failed']}"
    elif first_digest is not None and sample["digest"] != first_digest:
        return f"digest {sample['digest'][:12]} differs from first run {first_digest[:12]}"
    return None


def judge(samples: List[Dict[str, Any]]) -> List[Optional[str]]:
    """One failure reason (or None) per timed run; at a seed with no
    reference, digests are compared with the first completed run at
    the same program seed."""
    first: Dict[int, str] = {}
    for s in samples:
        if "digest" in s:
            first.setdefault(s["seed"], s["digest"])
    return [verdict(s, first.get(s.get("seed"))) for s in samples]


def program_seed(seed: int, i: int) -> int:
    """The program seed of the ``i``-th timed run of a benchmark run.

    ``seed`` comes twice, so its output is checked against a repeat (or
    the reference, at seed 3); then ``seed + 1000``, ``seed + 2000``, ...
    The simulations' work varies with the seed (table2's event count by
    about 4%, the scenario's requests by about 2.5%), so a median over
    several seeds varies less from one benchmark seed to the next.
    """
    return seed + SEED_STRIDE * max(i - 1, 0)


def median_of(samples: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(s[key] for s in samples if key in s)


def result(workload: str, seed: int, reasons: List[Optional[str]],
           metrics: Dict[str, Any], **extra: Any) -> Dict[str, Any]:
    return {
        "workload": workload, "seed": seed,
        "attempted": len(reasons),
        "failed": sum(r is not None for r in reasons),
        "failures": [r for r in reasons if r is not None],
        "metrics": metrics, "shape_notes": [], **extra,
    }


def measure(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced run: a set-up probe and a timed run at each successive
    program seed until the next pair would likely end after ``seconds``
    (at least two pairs).  Spreading the probes over the whole run, rather
    than starting with them, lets both medians span the same stretch of
    the host's load."""
    start = time.monotonic()
    setups: List[Dict[str, Any]] = []
    samples: List[Dict[str, Any]] = []
    walls: List[float] = []
    while len(samples) < MIN_RUNS or (
        time.monotonic() - start + statistics.median(walls) <= seconds
    ):
        began = time.monotonic()
        setups.append(spawn(workload, seed, "setup"))
        samples.append(spawn(workload, program_seed(seed, len(samples)), "run"))
        walls.append(time.monotonic() - began)
    reasons = judge(samples)
    timed = [s for s in samples if "run_s" in s]
    if not timed:
        return result(workload, seed, reasons, {})
    metrics = {
        "run_s": (median_of(timed, "run_s"), "s"),
        "setup_s": (median_of(setups + samples, "setup_s"), "s"),
        "peak_rss_mb": (median_of(timed, "peak_rss_mb"), "MB"),
    }
    return result(
        workload, seed, reasons, metrics,
        shape_notes=sorted({c for s in timed for c in s["shape_failed"]}),
        samples=[f"{s['run_s']:.3f} (seed {s['seed']})" for s in timed],
    )


def trace(workload: str, seed: int) -> Dict[str, Any]:
    """One untraced run and two traced runs; per-layer metrics."""
    base = spawn(workload, seed, "run")
    traced = [
        spawn(workload, seed, "trace", SPAN_DIR / f"{workload}-seed{seed}-trace{i}.npz")
        for i in (1, 2)
    ]
    # Same seed throughout: judge() holds the traced digests to the
    # untraced one (and to the reference at seed 3).
    reasons = judge([base] + traced)
    if not all("layers" in t for t in traced) or "run_s" not in base:
        return result(workload, seed, reasons, {})
    one, two = (count_metrics(t["layers"]) for t in traced)
    if one != two:
        reasons[2] = "work counts differ between traced runs: " + ", ".join(
            sorted(k for k in one if one[k] != two[k]))
    # Counts are equal (or the run failed above): report the first's.
    metrics: Dict[str, Any] = {
        name: (one[name] if name in one else
               statistics.median(t["layers"][name] for t in traced), unit(name))
        for name in metric_names()
    }
    overhead = statistics.median(t["run_s"] for t in traced) / base["run_s"]
    metrics["trace.overhead"] = (overhead, "ratio")
    return result(workload, seed, reasons, metrics, spans=[t["spans"] for t in traced])


def unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("calls", ".draws", ".values")):
        return "count"
    return "ratio"


def summary_line(res: Dict[str, Any], metrics: Dict[str, Any]) -> str:
    err = res["failed"] / res["attempted"]
    parts = [f"{res['workload']} (seed {res['seed']}):"]
    parts += [f"{k}={v:.4g} {u}" for k, (v, u) in metrics.items()]
    parts.append(f"error_rate={err:.3g} ({res['failed']} of {res['attempted']} runs)")
    return "  ".join(parts)


def result_json(res: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    })


def report(res: Dict[str, Any], traced: bool) -> None:
    for why in res["failures"]:
        print(f"FAILED: {why}")
    if res["shape_notes"]:
        print(f"paper-shape checks not met at seed {res['seed']} "
              f"(statistical; required only at seed {DEFAULT_SEED}): {res['shape_notes']}")
    if traced and res["metrics"]:
        print(f"{res['workload']} (seed {res['seed']}) traced, spans per run {res['spans']}:")
        for k, (v, u) in res["metrics"].items():
            print(f"  {k:48s} {v:14.6g} {u}")
    if "samples" in res:
        print("run_s of each run: " + ", ".join(res["samples"]))
    print(summary_line(res, {} if traced else res["metrics"]))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not GOLDEN_FILE.is_file():
        print(f"error: {ROOT} is not a checkout of the repo (src/repro or "
              f"{GOLDEN_FILE.relative_to(ROOT)} missing)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        if args.trace:
            res = trace(name, args.seed)
        else:
            res = measure(name, args.seed, args.seconds)
        report(res, bool(args.trace))
        ok = ok and res["failed"] == 0
        if not res["metrics"]:
            return 1  # nothing completed: no figures to report
        if args.workload != "all":
            print(result_json(res))
    return 0 if ok or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
