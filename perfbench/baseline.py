"""Record one untraced and one traced run of every workload.

    python3 perfbench/baseline.py --seed 1 [--seconds 30]

Writes ``perfbench/baseline/seed<N>-baseline.json``: per workload, the
end-to-end result, the per-layer result and the traced span summary.
Run it from the root of a checkout, like ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ORDER = ("skewed_ingest", "flat_mixed", "parallel_2w")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    lines = out.stdout.strip().splitlines()
    return {"table": lines[:-1], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    document = {
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs, "
                   f"Python {platform.python_version()}",
        "workloads": {},
    }
    for workload in ORDER:
        plain = _run(workload, args.seed, args.seconds, 0)
        traced = _run(workload, args.seed, args.seconds, 1)
        layers = json.loads(
            (HERE / "out" / f"{workload}-seed{args.seed}.layers.json").read_text()
        )
        document["workloads"][workload] = {
            "end_to_end": plain,
            "per_layer": traced,
            "span_summary": layers["summary"],
        }
        print(workload, "correct" if plain["result"]["correct"] else "FAILED", flush=True)
    parallel = document["workloads"]["parallel_2w"]
    layers = parallel["per_layer"]["result"]["metrics"]
    document["notes"] = {
        # ROADMAP item 2 asks for >= 1.0: two workers at least as fast as
        # one process ingesting the same shards sequentially.
        "parallel_2w_throughput_vs_reference": layers["parallel.throughput_vs_reference"]["value"],
        "parallel_2w_ring_put_share": layers["parallel.ring_put_share"]["value"],
        "parallel_2w_ring_put_timeouts": layers["parallel.ring_put_timeouts"]["value"],
        "parallel_2w_chunk_ms_tail":
            parallel["end_to_end"]["result"]["metrics"]["chunk_ms_tail"]["value"],
    }
    path = HERE / "baseline" / f"seed{args.seed}-baseline.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
