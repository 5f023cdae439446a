"""End-to-end and per-layer benchmark of the ``repro`` MOAS study.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.  ``BENCHMARK.json`` lists the
workloads and metrics; :mod:`perfbench.inputs` records the inputs and
the serve request mix, :mod:`perfbench.serve` the request rate, and
:data:`perfbench.layers.MOVES` which end-to-end metric each per-layer
metric should move.
"""
