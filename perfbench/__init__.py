"""End-to-end and per-layer benchmark of the two public front doors.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
replays one seeded workload through ``QueryService.ask``/``update`` or
``repro.solve`` with a single closed-loop client, checks every answer
against the benchmark's own oracle, and prints the metrics that
``BENCHMARK.json`` declares as the last line of standard output.
"""
