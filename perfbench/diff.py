#!/usr/bin/env python3
"""Per-layer diff of two sets of benchmark results (parent vs change).

    python3 perfbench/diff.py BASE CHANGE

BASE and CHANGE are result files written by perfbench/run.py
(.bench_build/perfbench/results/<workload>-seed<n>-trace<t>.json) or
directories of them. Results are grouped by workload and trace mode; with
several seeds the median of each metric is compared. For every workload
each metric prints as change/base with its base value, so a ratio is never
read without what it is relative to.
"""

import json
import os
import statistics
import sys


def load(path):
    """{(workload, trace): {metric: [values]}, plus units} from a result
    file or a directory of them."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    grouped, units = {}, {}
    for f in files:
        with open(f) as fh:
            record = json.load(fh)
        p = record["provenance"]
        key = (p["workload"], p["trace"])
        for name, m in record["metrics"].items():
            grouped.setdefault(key, {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return grouped, units


def ratio_text(base, change):
    if base == 0:
        return "   same" if change == 0 else "  (new)"
    return f"{change / base:7.3f}x"


def diff(base, change, units):
    """Rows of text comparing the medians of `base` and `change`."""
    lines = []
    for key in sorted(base.keys() & change.keys()):
        workload, trace = key
        kind = "per-layer" if trace else "end-to-end"
        lines.append(f"== {workload} ({kind})")
        lines.append(f"{'metric':34s} {'base':>14s} {'change':>14s} "
                     f"{'change/base':>11s}  unit")
        for name in base[key]:
            if name not in change[key]:
                continue
            b = statistics.median(base[key][name])
            c = statistics.median(change[key][name])
            lines.append(f"{name:34s} {b:14.4f} {c:14.4f} "
                         f"{ratio_text(b, c):>11s}  {units[name]}")
    for key in sorted(base.keys() ^ change.keys()):
        lines.append(f"== {key[0]} trace={key[1]}: only in one side")
    return lines


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, units = load(argv[1])
    change, change_units = load(argv[2])
    units.update(change_units)
    print("\n".join(diff(base, change, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
