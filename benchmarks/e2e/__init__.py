"""Whole-request benchmark of the serve stack (see README.md).

One command — ``python3 benchmarks/e2e/run.py`` (or ``PYTHONPATH=src:.
python -m benchmarks.e2e.run``) — spawns a fresh server child per
workload, drives it over real HTTP, checks every answer and prints
every metric named in the root ``BENCHMARK.json``.
"""
