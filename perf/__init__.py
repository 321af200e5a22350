"""End-to-end and per-layer wall-clock benchmark of the spatial database.

Run ``python3 perf/run.py --help`` (or ``python -m perf.run``); see
``perf/README.md`` for the workloads, the metrics and how to read them.
"""
