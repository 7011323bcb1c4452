"""End-to-end benchmark: seed → figures, four workloads, per-layer split.

Run ``PYTHONPATH=src python -m benchmarks.e2e`` from the repository root;
see ``README.md`` in this directory for the metrics, workloads and
calibration.  Importing this package imports nothing heavy: every trial
runs in a fresh subprocess (:mod:`benchmarks.e2e.trial`), so the program
under test is only ever imported there.
"""
