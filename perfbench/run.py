"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src`` directory.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it carries the per-layer metrics, and the spans plus the
per-layer report are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.harness import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
