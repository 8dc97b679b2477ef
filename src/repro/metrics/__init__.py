"""Metrics collection and experiment reporting.

* :mod:`repro.metrics.collectors` — turn :class:`RunResult` /
  :class:`TrialsResult` objects into flat records (one dict per row).
* :mod:`repro.metrics.reporting` — render those records as aligned text
  tables, the format the benchmark harness prints and EXPERIMENTS.md records.
"""
