"""Benchmark of the lgsim CLI; run ``python3 perfbench/run.py --help``."""
