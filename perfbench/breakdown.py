#!/usr/bin/env python3
"""Summarises a traced run's spans by name: count, total and self time.

    python3 perfbench/breakdown.py .bench_build/perfbench/work/trace-*.json

A span's self time is its duration minus the part its children cover; the
benchmark computes it when it writes the spans. Spans of one name are summed.
"""
import json
import sys
from collections import defaultdict


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as file:
            trace = json.load(file)
        spans = trace["spans"]
        names = {span["id"]: span["name"] for span in spans}
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for span in spans:
            parent = names.get(span["parent"], "-")
            entry = totals[(span["name"], parent)]
            entry[0] += 1
            entry[1] += span["end"] - span["start"]
            entry[2] += span["self"]
        print(f"{trace['run_id']}  ({path})")
        print(f"  {'span':26s} {'parent':14s} {'count':>6s} "
              f"{'total_s':>10s} {'self_s':>10s}")
        for (name, parent), (count, total, self) in sorted(
                totals.items(), key=lambda item: -item[1][1]):
            print(f"  {name:26s} {parent:14s} {count:6d} "
                  f"{total:10.4f} {self:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
