"""Baseline Byzantine agreement protocols the paper compares against.

Every baseline implements :class:`repro.simulator.node.ProtocolNode`, so all
of them run under the same synchronous simulator and the same adversaries as
the paper's protocol, which is what makes the round-complexity comparisons of
experiments E1/E9 apples-to-apples.

* :mod:`chor_coan` — Chor & Coan (1985): the same two-round-phase structure
  with committees of size ``Theta(log n)``; the long-standing
  ``O(t / log n)`` baseline the paper improves upon.
* :mod:`rabin` — Rabin (1983): phases resolved by a trusted dealer's shared
  coin; the idealised ancestor of both committee protocols (O(1) expected
  phases).
* :mod:`ben_or` — Ben-Or (1983): private local coins; exponential expected
  time for ``t = Theta(n)`` but simple and fully decentralised.
* :mod:`phase_king` — Berman–Garay–Perry phase king: deterministic,
  ``Theta(t)`` rounds, resilience ``t < n/4``.
* :mod:`eig` — exponential information gathering (Lamport–Pease–Shostak
  style): deterministic, ``t + 1`` rounds, resilience ``t < n/3``, exponential
  message size (only practical for very small ``n``).
* :mod:`sampling_majority` — the sampling/majority convergence dynamics of
  Augustine, Pandurangan & Robinson (2013), tolerating
  ``O(sqrt(n)/polylog n)`` Byzantine nodes.

Each baseline also has a batched multi-trial NumPy kernel: Chor–Coan, Rabin
and Ben-Or run on the two-round-phase engine of
:mod:`repro.simulator.vectorized`, the others in
:mod:`repro.baselines.kernels`; :func:`repro.engine.run_sweep`
dispatches between the kernels and these object implementations per
``(protocol, adversary)`` pair, which is what lets the baseline-landscape
experiment (E9) run at ``n`` in the hundreds instead of dozens.
"""
