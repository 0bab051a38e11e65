#!/usr/bin/env python
"""Interleaved A/B runs of the repo benchmark in two checkouts.

Usage, with a second checkout of the base commit next to this one::

    git worktree add ../base HEAD~1
    python tools/ab_perfbench.py --base ../base --change . \\
        --workload table-mix --seed 3 --seconds 60 --pairs 10

Each pair runs the unchanged ``perfbench/run.py --workload W --seed N
--seconds S --trace 0`` once in each checkout, one after the other.  The
side that runs first alternates from pair to pair, so drifting host load
falls on both sides alike.  For every end-to-end metric of
``BENCHMARK.json`` the tool prints each side's median and quartiles, the
change/base ratio of the medians and how many pairs the change won, and
whether a gain may be claimed: the change wins at least nine tenths of
the pairs (ties count for neither side) and the medians differ by more
than the distance between the base's quartiles.

Every run's raw values are printed as it finishes.  A run whose result
line says ``"correct": false`` (or that prints none) is reported, and
its values are left out of the comparison.  The last line of standard
output is one JSON object with the per-metric verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Share of the pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def parse_result(stdout: str) -> Dict[str, Any]:
    """The benchmark's result: the JSON object on its last output line,
    reduced to ``{"correct": bool, "metrics": {name: value}}``."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("benchmark printed nothing")
    doc = json.loads(lines[-1])
    if "correct" not in doc or "metrics" not in doc:
        raise ValueError("last line is not a benchmark result")
    metrics = {name: float(m["value"]) for name, m in doc["metrics"].items()}
    return {"correct": bool(doc["correct"]), "metrics": metrics}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between
    the sorted values; a single value is all three."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(
    base: Sequence[float], change: Sequence[float], better: str = "lower"
) -> Dict[str, Any]:
    """Verdict on one metric over pairs ``(base[i], change[i])``."""
    if len(base) != len(change):
        raise ValueError("base and change need one value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b_q = quartiles(base)
    c_q = quartiles(change)
    spread = b_q[2] - b_q[0]
    gain = sign * (b_q[1] - c_q[1])
    return {
        "pairs": len(base),
        "wins": wins,
        "losses": losses,
        "base": b_q,
        "change": c_q,
        "ratio": c_q[1] / b_q[1] if b_q[1] else float("nan"),
        "base_spread": spread,
        "claim": wins >= WIN_SHARE * len(base) and gain > spread,
    }


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One untraced benchmark run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    try:
        return parse_result(proc.stdout)
    except ValueError as exc:
        return {"correct": False, "metrics": {}, "error": f"exit {proc.returncode}: {exc}"}


def order(pair: int) -> Tuple[str, str]:
    """Which side runs first in the ``pair``-th pair (from 0)."""
    return ("base", "change") if pair % 2 == 0 else ("change", "base")


def end_to_end(bench_file: Path) -> List[Tuple[str, str]]:
    """``(metric, better)`` for each end-to-end metric of BENCHMARK.json."""
    doc = json.loads(bench_file.read_text())
    return [(m["name"], m["better"]) for m in doc["end_to_end"]]


def format_row(name: str, verdict: Dict[str, Any]) -> str:
    def side(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    return (
        f"{name:12s} base {side(verdict['base']):28s}"
        f" change {side(verdict['change']):28s}"
        f" ratio {verdict['ratio']:.3f}"
        f"  wins {verdict['wins']}/{verdict['pairs']}"
        f" (losses {verdict['losses']})"
        f"  base spread {verdict['base_spread']:.4g}"
        f"  claim {'yes' if verdict['claim'] else 'no'}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout of the base (parent) commit")
    parser.add_argument("--change", type=Path, default=Path("."),
                        help="checkout of the change (default: here)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    metrics = end_to_end(checkouts["change"] / "BENCHMARK.json")

    runs: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
    for pair in range(args.pairs):
        for side in order(pair):
            res = run_side(checkouts[side], args.workload, args.seed, args.seconds)
            runs[side].append(res)
            values = " ".join(f"{k}={v:.4g}" for k, v in sorted(res["metrics"].items()))
            status = "ok" if res["correct"] else f"NOT CORRECT {res.get('error', '')}"
            print(f"pair {pair + 1} {side:6s} {values} {status}", flush=True)

    # Only pairs in which both runs were correct are compared.
    good = [i for i in range(args.pairs)
            if runs["base"][i]["correct"] and runs["change"][i]["correct"]]
    summary: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "pairs": args.pairs, "correct_pairs": len(good), "metrics": {},
    }
    print(f"{args.workload} (seed {args.seed}): {len(good)} of {args.pairs}"
          " pairs correct on both sides; median [q1, q3]")
    for name, better in metrics:
        if not good:
            break
        verdict = compare(
            [runs["base"][i]["metrics"][name] for i in good],
            [runs["change"][i]["metrics"][name] for i in good],
            better,
        )
        print(format_row(name, verdict))
        summary["metrics"][name] = verdict
    print(json.dumps(summary))
    return 0 if len(good) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
