"""Concrete adversary strategies.

* :mod:`silence` — corrupted nodes never send anything (crash-at-start).
* :mod:`random_noise` — corrupted nodes send uniformly random garbage.
* :mod:`equivocate` — adaptive vote-splitting: keep honest value counts below
  the decision thresholds by sending different values to different nodes.
* :mod:`coin_attack` — the strongest implemented attack: a rushing, adaptive
  adversary that watches each phase's committee coin flips and spends just
  enough corruptions to make different honest nodes observe different coin
  values (the "straddle" attack the paper's anti-concentration argument is
  designed to survive).
* :mod:`committee_targeting` — a non-rushing variant that pre-corrupts members
  of each upcoming committee before their flip round.
* :mod:`crash` — adaptive *crash* faults in the spirit of the Bar-Joseph &
  Ben-Or lower bound: nodes whose coin shares would help agreement crash in
  the middle of their broadcast.
"""
