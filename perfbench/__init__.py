"""Benchmark harness for evdemand: seeded workloads, a correctness gate,
end-to-end metrics with tracing off and per-layer metrics from a traced run.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; ``--workload all`` runs every workload and
prints a table. It uses the standard library only and imports the package
from ``src/`` of the checkout it sits in.
"""
