"""The paper's primary contribution.

* :mod:`repro.core.parameters` — the committee count/size formula
  ``c = min{alpha * ceil(t^2/n) * log n, 3*alpha*t/log n}``, regime detection
  and round/message complexity predictions (Theorem 2, Section 1.2).
* :mod:`repro.core.committee` — the ID-based committee partition used by
  Algorithm 3.
* :mod:`repro.core.common_coin` — Algorithm 1 (all-node common coin) and
  Algorithm 2 (designated-committee common coin), both as standalone protocol
  nodes and as pure functions reused by the agreement protocol.
* :mod:`repro.core.agreement` — Algorithm 3, the committee-based Byzantine
  agreement protocol.
* :mod:`repro.core.las_vegas` — the Las Vegas variant sketched in Section 3.2
  (cycle through committees until termination).
* :mod:`repro.core.runner` — high-level entry points used by examples, tests
  and benchmarks.
"""
