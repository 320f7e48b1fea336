"""Repository benchmark: end-to-end workloads plus a layer-traced run.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see :mod:`perfbench.run` for the output contract.
"""
