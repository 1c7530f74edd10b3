"""End-to-end and per-layer benchmark of the repro control stack.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and ledger.
"""
