"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload skewed_ingest --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ``src/``
of the checkout this file sits in.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs half the rounds twice, untraced and with
outside-in span wrappers around the layers' public calls, prints the
per-layer metrics and writes the spans to ``perfbench/out/``.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

``--break NAME`` deliberately corrupts one correctness check's input
(``reference``: the parallel reference is built with another hash seed;
``checkpoint``: the restore check compares against another state) to
show that the check reports a failure.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--break", dest="breaks", action="append", default=[],
                        choices=("reference", "checkpoint"))
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process multiprocessing starts for
    shared memory, so no process of the run outlives it."""
    import gc
    from multiprocessing import resource_tracker

    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))

    import report
    from measure import Ledger
    from spans import SpanRecorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds, set(args.breaks))
    workload.prepare()
    ledger = Ledger()
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = SpanRecorder() if args.trace else None
    try:
        plain, traced = workload.run(ledger, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = report.per_layer(workload, plain, traced, tracer)
        out = HERE / "out" / f"{args.workload}-seed{args.seed}"
        tracer.dump(out.with_suffix(".spans.jsonl"))
        out.with_suffix(".layers.json").write_text(
            json.dumps({"summary": tracer.summary(), "metrics": metrics}, indent=2) + "\n"
        )
    else:
        metrics = report.end_to_end(plain, ledger, _peak_rss_mb())
    for line in report.describe(workload, plain, metrics):
        print(line)
    _stop_resource_tracker()
    for failure in ledger.failures:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
