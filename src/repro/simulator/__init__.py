"""Synchronous message-passing simulator substrate.

This subpackage implements the execution model assumed by the paper:

* a complete network of ``n`` nodes with authenticated point-to-point links
  (:mod:`repro.simulator.network`),
* synchronous communication in discrete rounds driven by a scheduler that
  gives the adversary *rushing* power — the adversary observes every honest
  message of the current round, adaptively corrupts nodes, and substitutes
  arbitrary per-recipient messages before delivery
  (:mod:`repro.simulator.scheduler`),
* CONGEST-style per-edge bandwidth accounting
  (:mod:`repro.simulator.congest`),
* deterministic, per-node randomness derived from a single run seed
  (:mod:`repro.simulator.rng`), and
* execution traces and run results used by the metrics and analysis layers
  (:mod:`repro.simulator.trace`).

A faster NumPy-vectorised engine for large parameter sweeps lives in
:mod:`repro.simulator.vectorized`; its semantics are cross-validated against
this object-level simulator in the test suite.
"""
