"""Adversary framework.

The paper's adversary is *adaptive*, *rushing* and *full-information*:

* **adaptive** — it may decide which nodes to corrupt during the execution, as
  a function of everything that has happened so far, up to a total budget of
  ``t`` corruptions;
* **rushing** — in every round it observes the messages (and hence the random
  choices) of all currently honest nodes *before* choosing the messages the
  corrupted nodes send in that same round;
* **full-information** — it sees the complete internal state of every node and
  is computationally unbounded; there are no private channels and no
  cryptography.

:class:`repro.adversary.base.Adversary` captures this interface, and the
strategies under :mod:`repro.adversary.strategies` implement concrete attacks:
vote-splitting equivocation, adaptive committee-coin biasing, committee budget
allocation, adaptive crash scheduling, and simple noise/silence baselines.

:mod:`repro.adversary.kernels` holds the batched counterparts: the strategies
re-expressed as operations on ``(trials, n)`` planes for the vectorised
committee engine, registered under the strategies' own names so the engine
dispatch of :mod:`repro.engine` is capability-driven for adversaries exactly
as it is for protocols.
"""
