"""Frozen copy of the adastream modules the session engine uses.

Copied unchanged from ``src/adastream`` at the commit that defined the
benchmark. Only the calibration kernels (``adabench/calibrate.py``) run
it, as fixed work of the same kind as the workloads; it is not the
program under test, and changes to the program do not touch it.
"""
