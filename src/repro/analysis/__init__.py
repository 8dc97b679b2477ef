"""Analytic tools: anti-concentration bounds, complexity curves and statistics.

* :mod:`repro.analysis.paley_zygmund` — the Paley–Zygmund inequality (Lemma 1)
  and the exact/analytic version of the common-coin success bound of
  Theorem 3.
* :mod:`repro.analysis.bounds` — analytic round- and message-complexity curves
  for the paper's protocol, Chor–Coan, the deterministic ``t+1`` bound and the
  Bar-Joseph & Ben-Or lower bound, plus crossover computations.
* :mod:`repro.analysis.statistics` — empirical estimators (confidence
  intervals, rate estimation, log–log slope fits) used to compare measured
  sweeps against the analytic curves.
"""
