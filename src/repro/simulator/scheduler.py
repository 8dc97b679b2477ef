"""Synchronous round scheduler.

:class:`SynchronousScheduler` drives an execution of any protocol built on
:class:`repro.simulator.node.ProtocolNode` against any adversary built on
:class:`repro.adversary.base.Adversary`.  The round structure implements the
strongest model in the paper — an adaptive, rushing, full-information
Byzantine adversary:

1. every honest, non-terminated node generates its round-``r`` messages
   (drawing any randomness it needs for the round);
2. the adversary is shown the full network state *and*, if it is rushing, all
   of those round-``r`` honest messages;
3. the adversary adaptively corrupts new nodes (within its total budget ``t``)
   and dictates the messages of every corrupted node for round ``r`` —
   possibly sending different values to different recipients; messages
   generated in step 1 by nodes corrupted in step 3 are discarded;
4. the network delivers all messages of round ``r`` simultaneously
   (authenticated links: the adversary cannot spoof honest senders);
5. every honest, non-terminated node processes its inbox and updates its
   state, possibly deciding and terminating.

The execution ends when every honest node has terminated, or when the
configured maximum number of rounds is exceeded (which raises
:class:`repro.exceptions.SimulationError` unless ``allow_timeout`` is set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.adversary.base import Adversary, AdversaryView
from repro.exceptions import (
    AgreementViolationError,
    ConfigurationError,
    SimulationError,
    ValidityViolationError,
)
from repro.simulator.congest import CongestModel
from repro.simulator.messages import Message
from repro.simulator.network import CompleteNetwork
from repro.simulator.node import ProtocolNode
from repro.simulator.trace import ExecutionTrace, RoundRecord


@dataclass
class RunResult:
    """Outcome of a single simulated execution.

    Attributes:
        outputs: Mapping from honest node id to its output bit.  Only nodes
            that were never corrupted appear here; a corrupted node's output
            is meaningless.
        rounds: Number of communication rounds executed.
        corrupted: Ids of the nodes the adversary corrupted, in no particular
            order.
        inputs: The original input assignment (all ``n`` nodes).
        message_count: Total messages delivered.
        bit_count: Total payload bits delivered.
        congest_violations: Number of per-edge CONGEST budget violations.
        timed_out: True when the run hit ``max_rounds`` before all honest
            nodes terminated (only possible with ``allow_timeout=True``).
        trace: Optional detailed execution trace.
        protocol_name: Name of the protocol that was executed.
        adversary_name: Name of the adversary strategy.
    """

    outputs: dict[int, int]
    rounds: int
    corrupted: set[int]
    inputs: list[int]
    message_count: int
    bit_count: int
    congest_violations: int
    timed_out: bool
    protocol_name: str
    adversary_name: str
    trace: ExecutionTrace | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Correctness predicates (Definition 1 in the paper)
    # ------------------------------------------------------------------
    @property
    def agreement(self) -> bool:
        """True when all honest nodes output the same value."""
        return len(set(self.outputs.values())) <= 1

    @property
    def decision(self) -> int | None:
        """The common output value, or ``None`` if agreement failed or timed out."""
        values = set(self.outputs.values())
        if len(values) == 1:
            return next(iter(values))
        return None

    @property
    def honest_inputs(self) -> list[int]:
        """Inputs of the nodes that remained honest for the whole execution."""
        return [b for i, b in enumerate(self.inputs) if i not in self.corrupted]

    @property
    def validity_applicable(self) -> bool:
        """True when all honest nodes started with the same input."""
        return len(set(self.honest_inputs)) == 1

    @property
    def validity(self) -> bool:
        """True when validity holds (vacuously true if honest inputs differ)."""
        if not self.validity_applicable:
            return True
        expected = self.honest_inputs[0]
        return all(value == expected for value in self.outputs.values())

    def check(self) -> None:
        """Raise if agreement or validity is violated.

        Raises:
            AgreementViolationError: When two honest nodes output different values.
            ValidityViolationError: When a unanimous honest input is not preserved.
        """
        if self.timed_out:
            raise SimulationError(
                f"run timed out after {self.rounds} rounds before all honest nodes terminated"
            )
        if not self.agreement:
            raise AgreementViolationError(self.outputs)
        if not self.validity:
            raise ValidityViolationError(self.honest_inputs[0], self.outputs)


class SynchronousScheduler:
    """Runs one execution of a protocol against an adversary.

    Args:
        nodes: One :class:`ProtocolNode` per node id; index ``i`` must have
            ``node_id == i``.
        adversary: The adversary controlling up to ``t`` nodes.
        max_rounds: Hard cap on the number of rounds.  The default of
            ``20 * n + 100`` is far beyond the bound of any protocol in this
            repository for legal parameters, so hitting it indicates a bug or
            an intentionally unbounded protocol (e.g. Ben-Or with large ``t``).
        context: Protocol metadata shared with the adversary (committee
            partition, phase schedule, ...).
        collect_trace: Whether to record a per-round :class:`ExecutionTrace`.
        strict_congest: Raise on CONGEST violations instead of recording them.
        allow_timeout: Return a timed-out :class:`RunResult` instead of
            raising when ``max_rounds`` is reached.
        adjacency: Optional ``(n, n)`` boolean topology (:mod:`repro.topology`).
            Directed pairs outside the graph are dropped every round — on top
            of whatever per-recipient drops the adversary's action carries —
            and never reach the CONGEST accounting.  ``None`` keeps the clique.
        loss: Per-edge i.i.d. message-loss probability; each round draws one
            ``(n, n)`` Bernoulli plane from ``loss_rng``.
        loss_rng: Generator for the loss model (the run's
            :meth:`repro.simulator.rng.RandomnessSource.network_stream`);
            required when ``loss > 0``.
    """

    def __init__(
        self,
        nodes: list[ProtocolNode],
        adversary: Adversary,
        *,
        max_rounds: int | None = None,
        context: Mapping[str, Any] | None = None,
        collect_trace: bool = False,
        strict_congest: bool = False,
        allow_timeout: bool = False,
        adjacency: np.ndarray | None = None,
        loss: float = 0.0,
        loss_rng: np.random.Generator | None = None,
    ):
        if not nodes:
            raise ConfigurationError("cannot run a simulation with zero nodes")
        for index, node in enumerate(nodes):
            if node.node_id != index:
                raise ConfigurationError(
                    f"node at position {index} has node_id {node.node_id}; "
                    "nodes must be supplied in id order"
                )
        self.nodes = nodes
        self.n = len(nodes)
        self.adversary = adversary
        self.max_rounds = max_rounds if max_rounds is not None else 20 * self.n + 100
        self.context = dict(context or {})
        self.collect_trace = collect_trace
        self.allow_timeout = allow_timeout
        from repro.topology.generators import validate_adjacency
        from repro.topology.loss import validate_loss

        self.loss = validate_loss(loss)
        self.adjacency = (
            validate_adjacency(adjacency, self.n) if adjacency is not None else None
        )
        if self.loss > 0.0 and loss_rng is None:
            raise ConfigurationError("a positive loss needs a loss_rng network stream")
        self.loss_rng = loss_rng
        self._topology_drops: set[tuple[int, int]] = set()
        if self.adjacency is not None:
            from repro.topology.loss import sample_drops

            # The static part of the drop set (loss-free: the whole of it).
            self._topology_drops = sample_drops(self.adjacency, 0.0, self.n, None)
        self.network = CompleteNetwork(
            n=self.n,
            congest=CongestModel(n=self.n, strict=strict_congest),
        )
        self.trace = ExecutionTrace() if collect_trace else None

    # ------------------------------------------------------------------
    def _honest_ids(self) -> list[int]:
        return [i for i in range(self.n) if i not in self.adversary.corrupted]

    def _all_honest_terminated(self) -> bool:
        return all(self.nodes[i].terminated for i in self._honest_ids())

    def _record_round(
        self,
        round_index: int,
        newly_corrupted: set[int],
        message_count: int,
        bit_count: int,
    ) -> None:
        if self.trace is None:
            return
        honest = self._honest_ids()
        self.trace.add(
            RoundRecord(
                round_index=round_index,
                newly_corrupted=tuple(sorted(newly_corrupted)),
                corrupted_total=len(self.adversary.corrupted),
                honest_decided=sum(1 for i in honest if self.nodes[i].decided),
                honest_terminated=sum(1 for i in honest if self.nodes[i].terminated),
                honest_values=tuple(self.nodes[i].value for i in honest),
                message_count=message_count,
                bit_count=bit_count,
                phase=self.context.get("current_phase"),
            )
        )

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the protocol to completion and return the result."""
        self.adversary.bind(self.n, self.context)
        rounds_executed = 0
        timed_out = False

        for round_index in range(self.max_rounds):
            if self._all_honest_terminated():
                break
            rounds_executed = round_index + 1

            # Step 1: honest nodes generate their messages (and randomness).
            honest_outgoing: dict[int, list[Message]] = {}
            for node_id in self._honest_ids():
                node = self.nodes[node_id]
                if node.terminated:
                    continue
                outgoing = node.generate(round_index)
                self.network.validate(outgoing, allowed_senders={node_id})
                honest_outgoing[node_id] = outgoing

            # Step 2: the adversary observes and acts (rushing sees step 1).
            view = AdversaryView(
                round_index=round_index,
                n=self.n,
                t=self.adversary.t,
                nodes=self.nodes,
                honest_outgoing=honest_outgoing if self.adversary.rushing else {},
                corrupted=frozenset(self.adversary.corrupted),
                remaining_budget=self.adversary.remaining_budget,
                context=self.context,
            )
            action = self.adversary.act(view)
            self.adversary.commit_corruptions(action.new_corruptions)
            corrupted_now = self.adversary.corrupted

            # Step 3: assemble the round's traffic.  Messages generated by
            # nodes corrupted this round are discarded (rushing replacement).
            traffic: list[Message] = []
            for node_id, outgoing in honest_outgoing.items():
                if node_id not in corrupted_now:
                    traffic.extend(outgoing)
            self.network.validate(action.messages, allowed_senders=set(corrupted_now))
            traffic.extend(action.messages)

            # Step 4: synchronous delivery.  Off-clique pairs and loss-sampled
            # pairs are dropped on top of the adversary's per-recipient drops.
            drops = action.drops
            if self.loss > 0.0:
                from repro.topology.loss import sample_drops

                network_drops = sample_drops(
                    self.adjacency, self.loss, self.n, self.loss_rng
                )
            else:
                network_drops = self._topology_drops
            if network_drops:
                drops = set(drops) | network_drops if drops else network_drops
            inboxes = self.network.deliver(round_index, traffic, drops=drops)

            # Step 5: honest nodes process their inboxes.
            for node_id in self._honest_ids():
                node = self.nodes[node_id]
                if node.terminated:
                    continue
                node.deliver(round_index, inboxes.get(node_id, []))

            report = self.network.deliveries[-1]
            self._record_round(round_index, action.new_corruptions, report.message_count, report.bit_count)
        else:
            if not self._all_honest_terminated():
                timed_out = True
                if not self.allow_timeout:
                    raise SimulationError(
                        f"protocol did not terminate within {self.max_rounds} rounds "
                        f"(n={self.n}, t={self.adversary.t}, "
                        f"protocol={self.nodes[0].protocol_name}, "
                        f"adversary={self.adversary.strategy_name})"
                    )

        honest = self._honest_ids()
        outputs = {
            i: self.nodes[i].output
            for i in honest
            if self.nodes[i].output is not None
        }
        if self.trace is not None:
            self.trace.node_snapshots = [self.nodes[i].record() for i in honest]

        assert self.network.congest is not None
        return RunResult(
            outputs=outputs,  # type: ignore[arg-type]
            rounds=rounds_executed,
            corrupted=set(self.adversary.corrupted),
            inputs=[node.input_value for node in self.nodes],
            message_count=self.network.total_messages,
            bit_count=self.network.total_bits,
            congest_violations=self.network.congest.violation_count,
            timed_out=timed_out,
            protocol_name=self.nodes[0].protocol_name,
            adversary_name=self.adversary.strategy_name,
            trace=self.trace,
        )
