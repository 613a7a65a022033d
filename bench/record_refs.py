#!/usr/bin/env python3
"""Record the reference outputs the benchmark compares every run against.

    python3 bench/record_refs.py --workload search2d

For every seed class and item it stores the digest of each output text (the
``sweep_csv`` text, each report's ``to_json()`` text, or the documented
exception) with a short gist.  Record at a commit whose outputs are trusted;
a later run that differs counts the item as failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def record(workload: str) -> dict:
    classes = {}
    for cls in range(workloads.SEED_CLASSES):
        entries = []
        for item in workloads.make_items(workload, cls):
            outputs = workloads.RUNNERS[workload](item, item.shape())
            for problem in workloads.structural_checks(workload, item, outputs):
                print(f"class {cls} item {item.index} ({item.label}): {problem}", file=sys.stderr)
            entries.append({"label": item.label, "out": workloads.fingerprint(outputs)})
        classes[str(cls)] = entries
        print(f"{workload}: class {cls} recorded", file=sys.stderr)
    return {"workload": workload, "params": workloads.workload_params(workload), "classes": classes}


def dumps(data: dict) -> str:
    """JSON with one item per line, so a re-recording diffs item by item."""
    classes = ",\n".join(
        f"{json.dumps(cls)}: [\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]"
        for cls, entries in data["classes"].items()
    )
    return (f'{{"workload": {json.dumps(data["workload"])},\n"params": {json.dumps(data["params"], sort_keys=True)},\n'
            f'"classes": {{\n{classes}\n}}}}\n')


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    args = parser.parse_args()
    data = record(args.workload)
    (BENCH / "refs" / f"{args.workload}.json").write_text(dumps(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
