"""Cross-validation of the batched baseline kernels against the object
simulator, and of the protocol-capability dispatch built on top of them.

The contract mirrors PR 1's adversary validation: kernels are *bit-identical*
to the object simulator wherever the per-trial randomness allows (Rabin's
public dealer stream, the deterministic phase-king and EIG protocols) and
*statistically consistent* where the object simulator consumes per-node
streams the kernels cannot replay (Ben-Or's private coins, sampling-majority
draws, the straddle adversary's share-dependent spending)."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.baselines.kernels import (
    run_coin_trials,
    run_eig_trials,
    run_phase_king_trials,
    run_sampling_majority_trials,
)
from repro.core.runner import ADVERSARIES, AgreementExperiment, TrialsResult, run_trials
from repro.engine import PROTOCOL_KERNELS, run_coin_sweep, run_sweep
from repro.exceptions import ConfigurationError, SimulationError


def _kernel_rows(protocol, n, t, **kwargs):
    """The rows of the protocol's registered batched kernel."""
    return PROTOCOL_KERNELS[protocol].run_trials(n, t, **kwargs)


def _object_summaries(protocol, adversary, n, t, inputs="split", trials=4, seed=11, **kwargs):
    experiment = AgreementExperiment(
        n=n, t=t, protocol=protocol, adversary=adversary, inputs=inputs, **kwargs
    )
    return run_trials(experiment, num_trials=trials, base_seed=seed).trials


def _stats(n, t, rows):
    """A kernel's rows with the statistics ``run_sweep`` reports for them."""
    return TrialsResult(AgreementExperiment(n=n, t=t), rows)


def _assert_identical(kernel_results, object_summaries):
    """Field-by-field equality (the per-trial seed labels legitimately differ:
    the object engine records ``base_seed + k``, the kernels record ``k``)."""
    assert len(kernel_results) == len(object_summaries)
    for vec, obj in zip(kernel_results, object_summaries):
        assert vec.rounds == obj.rounds
        assert vec.phases == obj.phases
        assert vec.agreement == obj.agreement
        assert vec.validity == obj.validity
        assert vec.decision == obj.decision
        assert vec.messages == obj.messages
        assert vec.bits == obj.bits
        assert vec.corrupted == obj.corrupted
        assert vec.timed_out == obj.timed_out


class TestRabinKernel:
    @pytest.mark.parametrize("adversary", ["null", "silent"])
    @pytest.mark.parametrize("n,t", [(19, 3), (25, 6)])
    def test_bit_identical_to_object_simulator(self, adversary, n, t):
        # The dealer stream is the only randomness that matters, and the
        # kernel replays it exactly (dealer seed = the trial's master seed).
        vec = _kernel_rows("rabin", n, t, adversary=adversary, inputs="split", trials=4,
                          seed=11)
        obj = _object_summaries("rabin", adversary, n, t)
        _assert_identical(vec, obj)

    def test_bit_identical_on_unanimous_inputs(self):
        vec = _kernel_rows("rabin", 16, 5, adversary="null", inputs="unanimous-1", trials=3,
                          seed=2)
        obj = _object_summaries("rabin", "null", 16, 5, inputs="unanimous-1", trials=3, seed=2)
        _assert_identical(vec, obj)
        assert _stats(16, 5, vec).validity_rate == 1.0

    def test_straddle_statistically_consistent_with_coin_attack(self):
        # The attack is futile against a public dealer coin in both engines:
        # a constant number of phases, full agreement, some corruptions spent.
        vec = _stats(25, 6, _kernel_rows("rabin", 25, 6, adversary="coin-attack", inputs="split",
                                         trials=20, seed=5))
        obj = run_trials(
            AgreementExperiment(n=25, t=6, protocol="rabin", adversary="coin-attack",
                                inputs="split"),
            num_trials=8, base_seed=5,
        )
        assert vec.agreement_rate == obj.agreement_rate == 1.0
        assert vec.mean_phases == pytest.approx(obj.mean_phases, abs=2.0)


#: The Rabin and Ben-Or grid whose rows were pinned at the commit before
#: their kernels were folded into ``run_vectorized_trials``: every adversary x
#: split/random inputs x the clique or a lossy ring x two sizes, at trial
#: offset 3.
PINNED_SIZES = ((13, 3), (64, 8))
PINNED_NETWORKS = (("clique", 0.0), ("ring", 0.05))

#: SHA-256 of the JSON list of every ``TrialSummary`` field of the grid's
#: rows, per protocol and adversary; identical under both loss-draw kernels.
PINNED_PHASE_BASELINE_DIGESTS = {
    "rabin": {
        "coin-attack": "b41b0daec484471ceef77d4c16e2d11f5eed1f3a1bce81d7165a8e3a67a58fd7",
        "committee-targeting": "537445fe7cebd8f31f7a7fd23d56d712c48535cfbecb9c51047ceb100c318fe8",
        "crash": "3cb95d3b539e97c6cdb10b781a555abc48c95a54a7d45979777aa6c6ce966dfc",
        "equivocate": "995bb1c7cb3ae7920b2cb4a208fa50301d22b42bc5aabc5573d508f018d11779",
        "null": "352ee2b3afc49c09fef0ab516f9e689962477637c4b19d9c95227e75a25de407",
        "random-noise": "633eb5cad1195422c47fc6166444e6e2245cd654a4fbe8731542efae75de61b0",
        "silent": "9e44459e2009a70f2495b5333a3f6a8d2f07b6a24301750082ee199c02afeb19",
        "static": "781e114e21e77dd8b0766c4b92728b17beaf7b43aa064da417403542ef3aff5e",
    },
    "ben-or": {
        "coin-attack": "cc4aba605b5252b3da59c47a6c887c0d8798e2b4a48442affd36dd44eb42548f",
        "committee-targeting": "e2c7067497d96df7e7b9a2438f9bcfc3b0e81482e4ce2b9e5d06fdc0fb8b87e6",
        "crash": "d0a685a72a70cefa01ddb5d1fc5bac59efdb604d08ca0bd4cff55ed48ed3dd1c",
        "equivocate": "c7d626cd9751a733f49c1cbcd3872544ac753e19ef0a3cc68c525e563b9a6578",
        "null": "d5cad9f88d028b6306a00929aabd67cce69930d411b3d40774d335e42a03f229",
        "random-noise": "df1615a1326c9c7f949bb6cba8da992f102e2832223cbb6eecf65eb0a65e87da",
        "silent": "2390ccc7f63ec5dfbdc917aff3a374b79e17417510b7a979609692e633d587a8",
        "static": "ff77006800238bbf4675d8a05cafb0fba7397afdb7d293d62e1a94f184f53867",
    },
}


def _pinned_rows_digest(protocol, adversary):
    rows = []
    for n, t in PINNED_SIZES:
        for inputs in ("split", "random"):
            for topology, loss in PINNED_NETWORKS:
                # Ben-Or runs to its default round cap only on the small
                # clique; a 40-round cap keeps its other censored runs short.
                capped = protocol == "ben-or" and (n, loss) != (13, 0.0)
                result = run_sweep(
                    n, t, protocol=protocol, adversary=adversary, inputs=inputs,
                    trials=4, base_seed=17, trial_offset=3, engine="vectorized",
                    topology=topology, loss=loss, allow_timeout=True,
                    max_rounds=40 if capped else None,
                )
                assert result.engine == "vectorized"
                rows.extend(tuple(row) for row in result.trials)
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


class TestPinnedPhaseBaselineDigests:
    @pytest.mark.parametrize("protocol", ["rabin", "ben-or"])
    def test_rows_match_the_digests_pinned_before_the_fold(self, protocol, native_kernel):
        got = {
            adversary: _pinned_rows_digest(protocol, adversary)
            for adversary in sorted(ADVERSARIES)
        }
        assert got == PINNED_PHASE_BASELINE_DIGESTS[protocol]


#: The object family's rows over every protocol x adversary, pinned before
#: the object network stopped copying every delivered message: split
#: inputs at n=13, t=3 (EIG at n=10, t=2), 2 trials from base seed 17.
PINNED_OBJECT_FAMILY_DIGESTS = {
    "ben-or": {
        "coin-attack": "f08162cca91dbb8701e9b5dd8792dbb200000547e4830d781d918feb68f2841a",
        "committee-targeting": "67ea66b7a65c4a91a430d9596a51f442340a4a85b45ba2c36c38b5b22966d008",
        "crash": "5220222c553e08d349c6201a7be07aba25f1e48156444df81401e0629076c884",
        "equivocate": "c9fbf07f9c955a8837ebb7cdce88b850806ae73621dbad7a695e42b202e2e92c",
        "null": "222f132bcf113f97a6fc9e44eb9deac88cff3e986d64afc481b2243f40efe3c8",
        "random-noise": "22e06e89720c5d1a7a859ea4322d40614a856229667d35a04d8af54119dde65e",
        "silent": "76959b0c35d5013f2454c6f7192858336c8dc87faef789ae75d74d3c6a050e75",
        "static": "771fad8e4880dbb1593e031491065f90d36ace7e2d3eb7b9f4dec7db95250a4a",
    },
    "chor-coan": {
        "coin-attack": "2a017b620942df3130bd1aea1cca1565ea07f84aee76086b08d829d807667f30",
        "committee-targeting": "e4b135a6658a9f463399489384ece1374527592eaa54d3b02fb81cf2b34f871c",
        "crash": "bad7576e7e9e89104c909040f322ad87907a58077f69505a5e0713adffcf9dd4",
        "equivocate": "d0476c6ac918e04e6cdc238ac847be7eb6592693f491e32b0c3244694dd24c8f",
        "null": "34b57894c4ef3123243569ec8cf0f0088ac82b384947cbcfeae2f1e993d2ee61",
        "random-noise": "3117a14a11fbbbf85f4fb8b3a7b03973f5d430e269c33a4261ad198d73211a37",
        "silent": "dfd2dfa6cb0e30396b73cb5d6bc88027c075da21dad0dd387b61069fa6c0ab20",
        "static": "2df4c18acef2eb6a1ca7c4791abde12dd9835c3a0076238945e5e04aa1b21fed",
    },
    "chor-coan-las-vegas": {
        "coin-attack": "2a017b620942df3130bd1aea1cca1565ea07f84aee76086b08d829d807667f30",
        "committee-targeting": "e4b135a6658a9f463399489384ece1374527592eaa54d3b02fb81cf2b34f871c",
        "crash": "bad7576e7e9e89104c909040f322ad87907a58077f69505a5e0713adffcf9dd4",
        "equivocate": "d0476c6ac918e04e6cdc238ac847be7eb6592693f491e32b0c3244694dd24c8f",
        "null": "34b57894c4ef3123243569ec8cf0f0088ac82b384947cbcfeae2f1e993d2ee61",
        "random-noise": "3117a14a11fbbbf85f4fb8b3a7b03973f5d430e269c33a4261ad198d73211a37",
        "silent": "dfd2dfa6cb0e30396b73cb5d6bc88027c075da21dad0dd387b61069fa6c0ab20",
        "static": "2df4c18acef2eb6a1ca7c4791abde12dd9835c3a0076238945e5e04aa1b21fed",
    },
    "committee-ba": {
        "coin-attack": "6e59d5f9034e4672a75ae887b665a2bcc4dff05c25dfa7de0133886b36ba09b2",
        "committee-targeting": "68535fee6af1f5cfe23124c11fa72f51a5b547df6485c5e9572d87ee8133f62e",
        "crash": "75fe30aae930fca2d88a737df911ebc2d32beb54bdedf702638b8affb39813bb",
        "equivocate": "23322791412bcfdc8aeb5614d9226fd63dcf5996855ff3ef08f4dadc5079e79e",
        "null": "4ce71fd353136d8ec54f7ac9a6f8bcffe36b062ca6ec500686fcca6b9ab1581f",
        "random-noise": "2df4c18acef2eb6a1ca7c4791abde12dd9835c3a0076238945e5e04aa1b21fed",
        "silent": "dfd2dfa6cb0e30396b73cb5d6bc88027c075da21dad0dd387b61069fa6c0ab20",
        "static": "3fe21c1e5a8f0f4128f40929062c814d4d4c8cc4a1a2861f0ddb74b9442cd02a",
    },
    "committee-ba-las-vegas": {
        "coin-attack": "6e59d5f9034e4672a75ae887b665a2bcc4dff05c25dfa7de0133886b36ba09b2",
        "committee-targeting": "68535fee6af1f5cfe23124c11fa72f51a5b547df6485c5e9572d87ee8133f62e",
        "crash": "75fe30aae930fca2d88a737df911ebc2d32beb54bdedf702638b8affb39813bb",
        "equivocate": "23322791412bcfdc8aeb5614d9226fd63dcf5996855ff3ef08f4dadc5079e79e",
        "null": "4ce71fd353136d8ec54f7ac9a6f8bcffe36b062ca6ec500686fcca6b9ab1581f",
        "random-noise": "2df4c18acef2eb6a1ca7c4791abde12dd9835c3a0076238945e5e04aa1b21fed",
        "silent": "dfd2dfa6cb0e30396b73cb5d6bc88027c075da21dad0dd387b61069fa6c0ab20",
        "static": "3fe21c1e5a8f0f4128f40929062c814d4d4c8cc4a1a2861f0ddb74b9442cd02a",
    },
    "eig": {
        "coin-attack": "ed7d4f153ec197a6a03fbb36a1519c4e092a276d3994c62c8fc22bf583bfab43",
        "committee-targeting": "ed7d4f153ec197a6a03fbb36a1519c4e092a276d3994c62c8fc22bf583bfab43",
        "crash": "ed7d4f153ec197a6a03fbb36a1519c4e092a276d3994c62c8fc22bf583bfab43",
        "equivocate": "eac705625457de15f3d0bddc89008c1e182a72bb9d112d552173a41cd863ec9e",
        "null": "ed7d4f153ec197a6a03fbb36a1519c4e092a276d3994c62c8fc22bf583bfab43",
        "random-noise": "4b3cd785aebe289a6a2c862fb883d45e4369f5e6a6121edbe838a4e18070dae3",
        "silent": "28700693af55f5689e9fdf6ab4ce6a27717cd1588ecf66ba8eb5237b69a81063",
        "static": "4b3cd785aebe289a6a2c862fb883d45e4369f5e6a6121edbe838a4e18070dae3",
    },
    "phase-king": {
        "coin-attack": "09c9dbab1bfe163d577fdc38a2581d39c8e4cbd082901d10842f6fc41e199461",
        "committee-targeting": "51c9aa4ed2b468e704c41930bd3cfd5f6d6ebe97e4a8d66707ed21c748cba2d5",
        "crash": "09c9dbab1bfe163d577fdc38a2581d39c8e4cbd082901d10842f6fc41e199461",
        "equivocate": "711987767437858802a51dd82832adb851b3526983ecda50fee0d57f040883fd",
        "null": "09c9dbab1bfe163d577fdc38a2581d39c8e4cbd082901d10842f6fc41e199461",
        "random-noise": "cb22119fd940a128c2992ad17c1799f9a073df5f6507c4b5ad58942ab16d4655",
        "silent": "6ba5f9213f677a852c96368be262b81492a54b19748db64c5168997ac6a3f530",
        "static": "29f4f5d36889e5c95ccbe9f0a8233a5ca803e0d5d3ada81b97d5bf9c508b0ff4",
    },
    "rabin": {
        "coin-attack": "45afb59490889db1bcf4c8cdc7fa59d809f31c0e32f969f73f54ca9048e51a27",
        "committee-targeting": "d9b460852bcf4904217e8393a0aa79014ec97b0a59650a44e72b6057c7c4f723",
        "crash": "4ce71fd353136d8ec54f7ac9a6f8bcffe36b062ca6ec500686fcca6b9ab1581f",
        "equivocate": "23322791412bcfdc8aeb5614d9226fd63dcf5996855ff3ef08f4dadc5079e79e",
        "null": "4ce71fd353136d8ec54f7ac9a6f8bcffe36b062ca6ec500686fcca6b9ab1581f",
        "random-noise": "87ddd2d90f5f483aeba721b253625511043b9f3e86a655ba195ce27a6e041831",
        "silent": "3c6ff121af84a0ae5f2c1bd76556997753f75b3ef3dc1228709c0318346f4fa2",
        "static": "3fe21c1e5a8f0f4128f40929062c814d4d4c8cc4a1a2861f0ddb74b9442cd02a",
    },
    "sampling-majority": {
        "coin-attack": "28085d22a542b0cb9bb4237e8a5f2d893723be6c8377f78802e1419eb663a5fc",
        "committee-targeting": "28085d22a542b0cb9bb4237e8a5f2d893723be6c8377f78802e1419eb663a5fc",
        "crash": "28085d22a542b0cb9bb4237e8a5f2d893723be6c8377f78802e1419eb663a5fc",
        "equivocate": "518a6a01e0bfc624a1e47f2300d7bd90e1dc0a2321a719a0dd4e9a9d2a8affb8",
        "null": "28085d22a542b0cb9bb4237e8a5f2d893723be6c8377f78802e1419eb663a5fc",
        "random-noise": "6f93c331606a1b879dc687894b64fc750c84cb6844c34c6d4dffce7600d1c7e6",
        "silent": "2d338bb2800c5f1d1cd30ee164cc73df53830cdc837177951deddc8632e4c173",
        "static": "5679de4ef6ca1ac51d833a7ddf71de5de0e7862b419b60b9d8508ac48ca29033",
    },
}


#: The same grid under ``random`` inputs (the one input pattern that draws
#: from the environment stream), pinned before the run configuration lost
#: its constructor-kwargs channel.
PINNED_OBJECT_FAMILY_RANDOM_DIGESTS = {
    "ben-or": {
        "coin-attack": "f08162cca91dbb8701e9b5dd8792dbb200000547e4830d781d918feb68f2841a",
        "committee-targeting": "67ea66b7a65c4a91a430d9596a51f442340a4a85b45ba2c36c38b5b22966d008",
        "crash": "5220222c553e08d349c6201a7be07aba25f1e48156444df81401e0629076c884",
        "equivocate": "c9fbf07f9c955a8837ebb7cdce88b850806ae73621dbad7a695e42b202e2e92c",
        "null": "222f132bcf113f97a6fc9e44eb9deac88cff3e986d64afc481b2243f40efe3c8",
        "random-noise": "f72b6263dfe140b417e03956f5127709102c378774e2533232c9d94985c8282b",
        "silent": "76959b0c35d5013f2454c6f7192858336c8dc87faef789ae75d74d3c6a050e75",
        "static": "fd7ed6dbb482b3dcfa5e73e6b3df608261b13cbe835eb95c438a0e57a62fd71d",
    },
    "chor-coan": {
        "coin-attack": "2a017b620942df3130bd1aea1cca1565ea07f84aee76086b08d829d807667f30",
        "committee-targeting": "e4b135a6658a9f463399489384ece1374527592eaa54d3b02fb81cf2b34f871c",
        "crash": "bad7576e7e9e89104c909040f322ad87907a58077f69505a5e0713adffcf9dd4",
        "equivocate": "d0476c6ac918e04e6cdc238ac847be7eb6592693f491e32b0c3244694dd24c8f",
        "null": "34b57894c4ef3123243569ec8cf0f0088ac82b384947cbcfeae2f1e993d2ee61",
        "random-noise": "3117a14a11fbbbf85f4fb8b3a7b03973f5d430e269c33a4261ad198d73211a37",
        "silent": "dfd2dfa6cb0e30396b73cb5d6bc88027c075da21dad0dd387b61069fa6c0ab20",
        "static": "3fe21c1e5a8f0f4128f40929062c814d4d4c8cc4a1a2861f0ddb74b9442cd02a",
    },
    "chor-coan-las-vegas": {
        "coin-attack": "2a017b620942df3130bd1aea1cca1565ea07f84aee76086b08d829d807667f30",
        "committee-targeting": "e4b135a6658a9f463399489384ece1374527592eaa54d3b02fb81cf2b34f871c",
        "crash": "bad7576e7e9e89104c909040f322ad87907a58077f69505a5e0713adffcf9dd4",
        "equivocate": "d0476c6ac918e04e6cdc238ac847be7eb6592693f491e32b0c3244694dd24c8f",
        "null": "34b57894c4ef3123243569ec8cf0f0088ac82b384947cbcfeae2f1e993d2ee61",
        "random-noise": "3117a14a11fbbbf85f4fb8b3a7b03973f5d430e269c33a4261ad198d73211a37",
        "silent": "dfd2dfa6cb0e30396b73cb5d6bc88027c075da21dad0dd387b61069fa6c0ab20",
        "static": "3fe21c1e5a8f0f4128f40929062c814d4d4c8cc4a1a2861f0ddb74b9442cd02a",
    },
    "committee-ba": {
        "coin-attack": "6e59d5f9034e4672a75ae887b665a2bcc4dff05c25dfa7de0133886b36ba09b2",
        "committee-targeting": "68535fee6af1f5cfe23124c11fa72f51a5b547df6485c5e9572d87ee8133f62e",
        "crash": "75fe30aae930fca2d88a737df911ebc2d32beb54bdedf702638b8affb39813bb",
        "equivocate": "23322791412bcfdc8aeb5614d9226fd63dcf5996855ff3ef08f4dadc5079e79e",
        "null": "4ce71fd353136d8ec54f7ac9a6f8bcffe36b062ca6ec500686fcca6b9ab1581f",
        "random-noise": "2df4c18acef2eb6a1ca7c4791abde12dd9835c3a0076238945e5e04aa1b21fed",
        "silent": "dfd2dfa6cb0e30396b73cb5d6bc88027c075da21dad0dd387b61069fa6c0ab20",
        "static": "3fe21c1e5a8f0f4128f40929062c814d4d4c8cc4a1a2861f0ddb74b9442cd02a",
    },
    "committee-ba-las-vegas": {
        "coin-attack": "6e59d5f9034e4672a75ae887b665a2bcc4dff05c25dfa7de0133886b36ba09b2",
        "committee-targeting": "68535fee6af1f5cfe23124c11fa72f51a5b547df6485c5e9572d87ee8133f62e",
        "crash": "75fe30aae930fca2d88a737df911ebc2d32beb54bdedf702638b8affb39813bb",
        "equivocate": "23322791412bcfdc8aeb5614d9226fd63dcf5996855ff3ef08f4dadc5079e79e",
        "null": "4ce71fd353136d8ec54f7ac9a6f8bcffe36b062ca6ec500686fcca6b9ab1581f",
        "random-noise": "2df4c18acef2eb6a1ca7c4791abde12dd9835c3a0076238945e5e04aa1b21fed",
        "silent": "dfd2dfa6cb0e30396b73cb5d6bc88027c075da21dad0dd387b61069fa6c0ab20",
        "static": "3fe21c1e5a8f0f4128f40929062c814d4d4c8cc4a1a2861f0ddb74b9442cd02a",
    },
    "eig": {
        "coin-attack": "ed7d4f153ec197a6a03fbb36a1519c4e092a276d3994c62c8fc22bf583bfab43",
        "committee-targeting": "ed7d4f153ec197a6a03fbb36a1519c4e092a276d3994c62c8fc22bf583bfab43",
        "crash": "ed7d4f153ec197a6a03fbb36a1519c4e092a276d3994c62c8fc22bf583bfab43",
        "equivocate": "eac705625457de15f3d0bddc89008c1e182a72bb9d112d552173a41cd863ec9e",
        "null": "ed7d4f153ec197a6a03fbb36a1519c4e092a276d3994c62c8fc22bf583bfab43",
        "random-noise": "4b3cd785aebe289a6a2c862fb883d45e4369f5e6a6121edbe838a4e18070dae3",
        "silent": "28700693af55f5689e9fdf6ab4ce6a27717cd1588ecf66ba8eb5237b69a81063",
        "static": "4b3cd785aebe289a6a2c862fb883d45e4369f5e6a6121edbe838a4e18070dae3",
    },
    "phase-king": {
        "coin-attack": "ed93525f6106e7463c8a83343dd479937c7e9afc89cfcdb71ba0f7c351e1b76f",
        "committee-targeting": "a5f4722d1c6046cb6bd8d016f9082072c3b0ac1812ef76967a5f18df1d06c586",
        "crash": "ed93525f6106e7463c8a83343dd479937c7e9afc89cfcdb71ba0f7c351e1b76f",
        "equivocate": "77e138d58ed7536764573dfd7682969f6714a65eb0fee3432d5f3bfe25d41071",
        "null": "ed93525f6106e7463c8a83343dd479937c7e9afc89cfcdb71ba0f7c351e1b76f",
        "random-noise": "7b6f158fdc2dff9474800c5c68729c2dc74ce41a0765a33452555bb7595ca4ae",
        "silent": "6ba5f9213f677a852c96368be262b81492a54b19748db64c5168997ac6a3f530",
        "static": "29f4f5d36889e5c95ccbe9f0a8233a5ca803e0d5d3ada81b97d5bf9c508b0ff4",
    },
    "rabin": {
        "coin-attack": "45afb59490889db1bcf4c8cdc7fa59d809f31c0e32f969f73f54ca9048e51a27",
        "committee-targeting": "d9b460852bcf4904217e8393a0aa79014ec97b0a59650a44e72b6057c7c4f723",
        "crash": "4ce71fd353136d8ec54f7ac9a6f8bcffe36b062ca6ec500686fcca6b9ab1581f",
        "equivocate": "23322791412bcfdc8aeb5614d9226fd63dcf5996855ff3ef08f4dadc5079e79e",
        "null": "4ce71fd353136d8ec54f7ac9a6f8bcffe36b062ca6ec500686fcca6b9ab1581f",
        "random-noise": "3fe21c1e5a8f0f4128f40929062c814d4d4c8cc4a1a2861f0ddb74b9442cd02a",
        "silent": "3c6ff121af84a0ae5f2c1bd76556997753f75b3ef3dc1228709c0318346f4fa2",
        "static": "3fe21c1e5a8f0f4128f40929062c814d4d4c8cc4a1a2861f0ddb74b9442cd02a",
    },
    "sampling-majority": {
        "coin-attack": "c40ce6ed9472015e0e18c5a0e57635b1ddf77124acb1a54dd423133a63a15c67",
        "committee-targeting": "c40ce6ed9472015e0e18c5a0e57635b1ddf77124acb1a54dd423133a63a15c67",
        "crash": "c40ce6ed9472015e0e18c5a0e57635b1ddf77124acb1a54dd423133a63a15c67",
        "equivocate": "436a5ad897a905e9807dd62993ed3cea421b4b9d0199d4e0e28fc1c1db27ab11",
        "null": "c40ce6ed9472015e0e18c5a0e57635b1ddf77124acb1a54dd423133a63a15c67",
        "random-noise": "457e0a25c92615c2386f00935ca3fb51c917fe8ebf33f29331d9fca90da176d8",
        "silent": "7d7e20762293cfa2170397a13449c3b358fa0ecaca336ffb468f570ebde42941",
        "static": "5679de4ef6ca1ac51d833a7ddf71de5de0e7862b419b60b9d8508ac48ca29033",
    },
}


def _object_rows_digest(protocol, adversary, inputs):
    n, t = (10, 2) if protocol == "eig" else (13, 3)
    result = run_sweep(
        n, t, protocol=protocol, adversary=adversary, inputs=inputs, trials=2,
        base_seed=17, engine="object", allow_timeout=True,
    )
    assert result.engine == "object"
    rows = [tuple(row) for row in result.trials]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


class TestPinnedObjectFamilyDigests:
    @pytest.mark.parametrize("protocol", sorted(PINNED_OBJECT_FAMILY_DIGESTS))
    def test_rows_match_the_pinned_digests(self, protocol):
        got = {
            adversary: _object_rows_digest(protocol, adversary, "split")
            for adversary in sorted(ADVERSARIES)
        }
        assert got == PINNED_OBJECT_FAMILY_DIGESTS[protocol]

    @pytest.mark.parametrize("protocol", sorted(PINNED_OBJECT_FAMILY_RANDOM_DIGESTS))
    def test_random_input_rows_match_the_pinned_digests(self, protocol):
        got = {
            adversary: _object_rows_digest(protocol, adversary, "random")
            for adversary in sorted(ADVERSARIES)
        }
        assert got == PINNED_OBJECT_FAMILY_RANDOM_DIGESTS[protocol]


class TestPhaseKingKernel:
    @pytest.mark.parametrize("adversary", ["null", "silent", "static"])
    @pytest.mark.parametrize("n,t", [(13, 3), (21, 5)])
    def test_bit_identical_to_object_simulator(self, adversary, n, t):
        for inputs in ("split", "unanimous-0"):
            vec = run_phase_king_trials(n, t, adversary=adversary, inputs=inputs, trials=3, seed=11)
            obj = _object_summaries("phase-king", adversary, n, t, inputs=inputs, trials=3)
            _assert_identical(vec, obj)

    def test_deterministic_round_schedule(self):
        vec = _stats(17, 4, run_phase_king_trials(17, 4, adversary="static", trials=5, seed=0))
        assert all(result.rounds == 2 * (4 + 1) for result in vec.trials)
        assert vec.agreement_rate == 1.0

    def test_resilience_bound_enforced(self):
        with pytest.raises(ConfigurationError):
            run_phase_king_trials(16, 4, adversary="null", trials=2)


class TestEIGKernel:
    @pytest.mark.parametrize("adversary", ["null", "silent", "static"])
    @pytest.mark.parametrize("n,t", [(7, 1), (10, 2), (13, 2)])
    def test_bit_identical_to_object_simulator(self, adversary, n, t):
        vec = run_eig_trials(n, t, adversary=adversary, inputs="split", trials=3, seed=11)
        obj = _object_summaries("eig", adversary, n, t, trials=3)
        _assert_identical(vec, obj)

    def test_tree_size_guard(self):
        with pytest.raises(ConfigurationError):
            run_eig_trials(512, 3, adversary="static", trials=2)

    def test_rounds_are_t_plus_one(self):
        vec = run_eig_trials(10, 2, adversary="silent", trials=2, seed=0)
        assert all(result.rounds == 3 for result in vec)


class TestBenOrKernel:
    def test_statistically_consistent_with_object_simulator(self):
        # Per-node coin streams cannot be replayed; the geometric phase-count
        # distribution must agree.  n=9/t=1 keeps the object runs affordable
        # (expected ~2^7 phases per trial).
        vec = _stats(9, 1, _kernel_rows("ben-or", 9, 1, adversary="silent", inputs="split",
                                        trials=200, seed=3, max_rounds=2000))
        obj = run_trials(
            AgreementExperiment(n=9, t=1, protocol="ben-or", adversary="silent",
                                inputs="split", max_rounds=2000, allow_timeout=True),
            num_trials=15, base_seed=3,
        )
        # Terminating runs always agree, and phase counts match within the
        # (wide) Monte-Carlo error of a heavy-tailed geometric distribution.
        assert vec.agreement_rate >= 0.9
        assert obj.agreement_rate >= 0.9
        assert vec.mean_phases == pytest.approx(obj.mean_phases, rel=0.8)

    def test_unanimous_inputs_decide_immediately(self):
        vec = _stats(16, 2, _kernel_rows("ben-or", 16, 2, adversary="null",
                                         inputs="unanimous-1", trials=4, seed=1))
        assert vec.agreement_rate == vec.validity_rate == 1.0
        assert vec.mean_phases <= 3

    def test_round_cap_censors_instead_of_running_forever(self):
        vec = _kernel_rows("ben-or", 64, 8, adversary="silent", inputs="split",
                           trials=4, seed=0, max_rounds=50)
        assert all(result.timed_out for result in vec)
        assert all(result.rounds == 50 for result in vec)


class TestSamplingMajorityKernel:
    def test_statistically_consistent_with_object_simulator(self):
        vec = _stats(32, 1, run_sampling_majority_trials(32, 1, adversary="silent",
                                                         inputs="random", trials=60, seed=5))
        obj = run_trials(
            AgreementExperiment(n=32, t=1, protocol="sampling-majority",
                                adversary="silent", inputs="random"),
            num_trials=15, base_seed=5,
        )
        # The iteration schedule is deterministic, so rounds match exactly;
        # message volume is stochastic (how many samples land on honest
        # peers) but concentrates tightly around the same mean.
        assert vec.mean_rounds == obj.mean_rounds
        assert vec.mean_messages == pytest.approx(obj.mean_messages, rel=0.05)
        assert vec.agreement_rate >= 0.9 and obj.agreement_rate >= 0.9

    def test_convergence_on_failure_free_runs(self):
        vec = _stats(64, 2, run_sampling_majority_trials(64, 2, adversary="null",
                                                         inputs="split", trials=20, seed=9))
        assert vec.agreement_rate >= 0.9
        expected_iterations = math.ceil(2.0 * math.log2(64) ** 2)
        assert all(result.rounds == 2 * expected_iterations for result in vec.trials)


class TestCoinKernel:
    def test_statistically_consistent_with_object_loop(self):
        n, budget = 36, 3
        vec = run_coin_trials(n, budget, trials=3000, seed=0)
        obj = run_coin_sweep(n, budget, trials=150, base_seed=0, engine="object")
        assert obj.engine == "object"
        assert vec.common_rate == pytest.approx(obj.common_rate, abs=0.12)

    def test_never_common_below_exact_never_straddled_regime(self):
        # With budget 0 the adversary can never straddle: always common.
        result = run_coin_trials(25, 0, trials=200, seed=1)
        assert result.common_rate == 1.0
        # With a budget covering any |S| the straddle always lands.
        result = run_coin_trials(25, 25, trials=200, seed=1)
        assert result.common_rate == 0.0

    def test_conditional_bias_is_bounded(self):
        result = run_coin_trials(64, 4, trials=5000, seed=2)
        p_one = result.ones_given_common / result.common_count
        assert 0.05 <= p_one <= 0.95

    def test_argument_validation(self):
        with pytest.raises(ConfigurationError):
            run_coin_trials(0, 1, trials=10)
        with pytest.raises(ConfigurationError):
            run_coin_trials(9, -1, trials=10)
        with pytest.raises(ConfigurationError):
            run_coin_trials(9, 1, trials=0)
        with pytest.raises(ConfigurationError):
            run_coin_sweep(9, 1, trials=10, engine="warp")


class TestKernelDispatch:
    """run_sweep routes baseline protocols through their kernels."""

    @pytest.mark.parametrize(
        "protocol,adversary,kwargs",
        [
            ("rabin", "coin-attack", {}),
            ("ben-or", "silent", {"max_rounds": 200, "allow_timeout": True}),
            ("phase-king", "static", {}),
            ("eig", "static", {}),
            ("sampling-majority", "silent", {}),
        ],
    )
    def test_auto_dispatch_uses_the_kernel(self, protocol, adversary, kwargs):
        n, t = (13, 2) if protocol == "eig" else (21, 2)
        sweep = run_sweep(n, t, protocol=protocol, adversary=adversary,
                          trials=3, base_seed=1, **kwargs)
        assert sweep.engine == "vectorized"
        assert sweep.num_trials == 3

    def test_exact_kernels_match_the_object_engine_through_run_sweep(self):
        # The acceptance check for the E9 landscape: where the kernel is
        # exact, the quick-mode table values are identical whichever engine
        # run_sweep dispatches to.
        from repro.experiments.e9_baselines import LANDSCAPE, QUICK_CONFIG, landscape_t

        n_quick, t_default, trials = QUICK_CONFIG
        compared = 0
        for index, (protocol, t_spec, adversary, extra) in enumerate(LANDSCAPE):
            spec = PROTOCOL_KERNELS.get(protocol)
            if spec is None or adversary not in spec.exact:
                continue
            n = min(n_quick, extra.get("n_cap", n_quick))
            t = landscape_t(t_spec, n, t_default)
            experiment = AgreementExperiment(
                n=n, t=t, protocol=protocol, adversary=adversary, inputs="split",
                max_rounds=extra.get("max_rounds"),
            )
            seed = 9000 + 100 * index
            fast = run_sweep(experiment=experiment, trials=trials, base_seed=seed,
                             engine="vectorized")
            slow = run_sweep(experiment=experiment, trials=trials, base_seed=seed,
                             engine="object")
            assert fast.summary() == slow.summary(), protocol
            compared += 1
        assert compared >= 2  # phase-king and eig at minimum

    def test_kernel_timeout_without_allow_timeout_raises(self):
        with pytest.raises(SimulationError):
            run_sweep(64, 8, protocol="ben-or", adversary="silent",
                      trials=3, base_seed=0, max_rounds=50)

    def test_registry_is_complete_and_well_formed(self):
        for protocol in ("rabin", "ben-or", "phase-king", "eig", "sampling-majority"):
            spec = PROTOCOL_KERNELS[protocol]
            assert spec.adversaries, protocol
            assert spec.exact <= spec.adversaries, protocol
