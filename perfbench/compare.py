"""Compare two sets of traced outputs layer by layer.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a traced output (``perfbench/out/*.trace.json``,
written by ``run.py --trace 1``) or a directory of them.  For every
workload present on both sides it prints each layer's self time per op and
each per-layer metric, as the median over that side's runs, with the
delta.  A change that claims a saving uses it to show which layer the
saving sits in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> dict[str, list[dict]]:
    """Traced outputs under ``path``, grouped by workload."""
    root = Path(path)
    files = sorted(root.glob("*.trace.json")) if root.is_dir() else [root]
    runs: dict[str, list[dict]] = {}
    for file in files:
        data = json.loads(file.read_text())
        runs.setdefault(data["workload"], []).append(data)
    return runs


def medians(runs: list[dict]) -> dict[str, tuple[float, str]]:
    """Median over runs of every layer's self time and every metric."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for run in runs:
        for layer, ms in run["layers"].items():
            values.setdefault(f"layer {layer}", []).append(ms)
            units[f"layer {layer}"] = "ms/op"
        for name, (value, unit) in run["metrics"].items():
            values.setdefault(name, []).append(value)
            units[name] = unit
    return {name: (statistics.median(v), units[name]) for name, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    shared = sorted(base.keys() & new.keys())
    if not shared:
        print("no workload traced on both sides", file=sys.stderr)
        return 1
    for workload in shared:
        before, after = medians(base[workload]), medians(new[workload])
        print(f"== {workload}: base runs {len(base[workload])}, new runs {len(new[workload])}")
        print(f"{'metric':50s} {'base':>12s} {'new':>12s} {'delta':>12s} {'delta%':>8s}")
        names = before.keys() | after.keys()
        for name in sorted(names, key=lambda n: (not n.startswith("layer "), n)):
            b, unit = before.get(name, (0.0, after.get(name, (0, ""))[1]))
            a = after.get(name, (0.0, unit))[0]
            if b == 0 and a == 0:
                continue
            pct = f"{(a - b) / b:+8.1%}" if b else f"{'':>8s}"
            print(f"{name:50s} {b:12.4f} {a:12.4f} {a - b:+12.4f} {pct} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
