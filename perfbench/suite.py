"""Run every workload, untraced then traced, and print one table.

    python3 perfbench/suite.py --seed 1 --seconds 20
    python3 perfbench/suite.py --seed 1 --seconds 20 --write perfbench/baseline.json

Each workload runs through ``run.run_once``, exactly as a single
``perfbench/run.py`` run does.  ``--write`` records the results with the
machine fingerprint.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, run_once  # noqa: E402

#: a seed not used while the benchmark was written, for later claims
HELD_OUT_SEED = 11


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    result, counts, lines = run_once(workload, seed, seconds, trace)
    print("\n".join(lines))
    result["decided"] = counts["decided"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--write", default=None, help="write the results to this JSON file")
    args = parser.parse_args()

    results = {}
    for workload in WORKLOADS:
        results[workload] = {
            "end_to_end": one_run(workload, args.seed, args.seconds, 0),
            "per_layer": one_run(workload, args.seed, args.seconds, 1),
        }

    names = list(next(iter(results.values()))["end_to_end"]["metrics"])
    print("\nend to end" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name in names:
        row = (results[w]["end_to_end"]["metrics"][name] for w in WORKLOADS)
        print(f"  {name:14s}" + "".join(f"{m['value']:16.5g}" for m in row))
    for label, key in (("failed_ratio", "failed"), ("decided_ratio", "decided")):
        values = []
        for w in WORKLOADS:
            e2e = results[w]["end_to_end"]
            count = e2e["failed"] if key == "failed" else e2e["decided"]
            values.append(count / e2e["attempted"])
        print(f"  {label:14s}" + "".join(f"{v:16.5g}" for v in values))

    layer_names = list(next(iter(results.values()))["per_layer"]["metrics"])
    print("\nper layer (traced run)" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name in layer_names:
        row = [results[w]["per_layer"]["metrics"][name]["value"] for w in WORKLOADS]
        if any(row):
            print(f"  {name:34s}" + "".join(f"{v:16.5g}" for v in row))

    failed = [w for w in WORKLOADS for part in results[w].values() if part["failed"]]
    if args.write:
        Path(args.write).write_text(json.dumps({
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds,
            "machine": fingerprint(),
            "results": results,
        }, indent=1, sort_keys=True) + "\n")
    if failed:
        print(f"runs with failed checks: {', '.join(sorted(set(failed)))}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
