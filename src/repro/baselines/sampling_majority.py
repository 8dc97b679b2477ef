"""Sampling-majority convergence dynamics (Augustine, Pandurangan & Robinson).

The paper's related-work section describes the Byzantine agreement protocol
for dynamic/sparse networks of Augustine, Pandurangan and Robinson (PODC
2013), whose core is a *sampling majority* process: in every iteration each
node samples the values of two uniformly random nodes and replaces its own
value by the majority of its value and the two samples.  With at most
``O(sqrt(n)/polylog n)`` Byzantine nodes this converges to a common value in
``polylog(n)`` iterations.  The paper points out that this analysis, like its
own common-coin analysis, rests on an anti-concentration bound — which is why
the process is included here as a secondary baseline (experiment E9).

Each iteration costs two communication rounds in the simulator (sample
requests, then replies).  The protocol is a convergence dynamic rather than a
terminating agreement protocol, so it simply runs a fixed
``ceil(ITERATIONS_FACTOR * log2(n)^2)`` iterations and then outputs its value;
the experiment reports the empirical agreement rate.

Batched sweeps run on the ``sampling-majority`` kernel
(:mod:`repro.baselines.kernels.sampling_majority`), cross-validated
statistically against this node (samples come from per-node streams).
"""

from __future__ import annotations

import math

import numpy as np

from repro.simulator.messages import Message, SampleReply, SampleRequest
from repro.simulator.node import ProtocolNode

#: Multiplier on ``log2(n)^2`` for the number of iterations (shared with
#: the batched kernel).
ITERATIONS_FACTOR = 2.0

#: Number of peers sampled per iteration (2 in the paper's description; the
#: batched kernel samples as many).
SAMPLE_SIZE = 2


class SamplingMajorityNode(ProtocolNode):
    """One participant of the sampling-majority process."""

    protocol_name = "sampling-majority"

    def __init__(
        self,
        node_id: int,
        n: int,
        t: int,
        input_value: int,
        rng: np.random.Generator,
    ):
        super().__init__(node_id, n, t, input_value, rng)
        log_n = max(1.0, math.log2(max(2, n)))
        self.num_iterations = max(1, math.ceil(ITERATIONS_FACTOR * log_n * log_n))
        self._pending_requesters: list[int] = []

    @staticmethod
    def _iteration_of_round(round_index: int) -> tuple[int, int]:
        """Map a global round to ``(iteration, step)`` with step 1=request, 2=reply."""
        return round_index // 2 + 1, round_index % 2 + 1

    def generate(self, round_index: int) -> list[Message]:
        iteration, step = self._iteration_of_round(round_index)
        if iteration > self.num_iterations:
            self.decide(self.value)
            return []
        if step == 1:
            peers = self.rng.choice(self.n, size=SAMPLE_SIZE, replace=True)
            return [
                Message(self.node_id, int(peer), SampleRequest(phase=iteration))
                for peer in peers
            ]
        # Step 2: answer everyone who sampled us in step 1.
        return [
            Message(self.node_id, requester, SampleReply(phase=iteration, value=self.value))
            for requester in self._pending_requesters
        ]

    def deliver(self, round_index: int, inbox: list[Message]) -> None:
        iteration, step = self._iteration_of_round(round_index)
        if step == 1:
            self._pending_requesters = [
                message.sender
                for message in inbox
                if isinstance(message.payload, SampleRequest) and message.payload.phase == iteration
            ]
            return
        samples = [
            message.payload.value
            for message in inbox
            if isinstance(message.payload, SampleReply)
            and message.payload.phase == iteration
            and message.payload.value in (0, 1)
        ]
        votes = [self.value] + samples
        ones = sum(votes)
        self.value = 1 if 2 * ones > len(votes) else 0
        if iteration >= self.num_iterations:
            self.decide(self.value)
