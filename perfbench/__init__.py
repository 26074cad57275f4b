"""The repository's benchmark: workloads, traced layer attribution, comparison.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
