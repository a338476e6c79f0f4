"""Seeded benchmark of the mavnav stack; run with ``python3 perfbench/run.py``."""
