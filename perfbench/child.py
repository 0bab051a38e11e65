"""One workload run in a fresh interpreter; prints one JSON line.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python3 perfbench/child.py --workload NAME --seed N --mode run|setup|trace [--spans FILE]

``setup`` stops once the inputs are ready, so it times set-up alone;
``run`` also makes the timed entry call; ``trace`` makes it with the
layer tracer installed.  ``ready`` in the output is a ``time.monotonic``
reading, which the parent subtracts from the instant it spawned this
process to get the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout

from cases import DEFAULT_SEED, ROOT, WORKLOADS, evaluate, load_references, prepare


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    parser.add_argument("--spans", help="trace mode: write the span table here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    references = load_references()
    call = prepare(args.workload)
    out = {"ready": time.monotonic(), "seed": args.seed}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = probes = None
    if args.mode == "trace":
        from layers import install
        from tracing import Tracer

        tracer = Tracer()
        probes = install(tracer)
    try:
        # The program's own prints must not mix with the result line.
        with redirect_stdout(sys.stderr):
            t0 = time.perf_counter()
            result = call(args.seed)
            out["run_s"] = time.perf_counter() - t0
    except Exception:
        out["error"] = traceback.format_exc()
        print(json.dumps(out))
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest, checks = evaluate(args.workload, result)
    out["digest"] = digest
    out["shape_failed"] = [name for name, ok in checks if not ok]
    out["reference"] = references[args.workload] if args.seed == DEFAULT_SEED else None
    if tracer is not None:
        from layers import collect

        out["layers"] = collect(tracer, probes, out["run_s"])
        out["spans"] = tracer.span_count
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
