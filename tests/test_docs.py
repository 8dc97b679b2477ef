"""Docs-drift guard: the documentation must match the live registries.

The engine-support tables embedded in README.md and docs/architecture.md are
generated by ``python -m repro engines --markdown`` between
``<!-- engines:<name>:begin/end -->`` markers.  These tests re-generate the
blocks from the live :data:`repro.engine.PROTOCOL_KERNELS` registry and
require every embedded copy to be byte-identical, so adding (or dropping) a
kernel without regenerating the docs fails CI.  Structural checks keep the
rest of the docs suite honest: every experiment and every adversary strategy
must be documented.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.core.runner import ADVERSARIES, PROTOCOLS
from repro.engine import markdown_engine_tables
from repro.sweeps import SWEEP_LIBRARY, markdown_library_table

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Files allowed (and expected) to embed generated engine-table blocks, and
#: the block names each must carry.
EMBEDDED_BLOCKS = {
    "README.md": ["kernel-support"],
    "docs/architecture.md": ["kernel-support", "dispatch"],
    "docs/topologies.md": ["topology-support"],
}


def _find_blocks(text: str) -> dict[str, list[str]]:
    """Every marked block in ``text``, markers included, keyed by name."""
    blocks: dict[str, list[str]] = {}
    pattern = re.compile(
        r"<!-- engines:([a-z-]+):begin -->.*?<!-- engines:\1:end -->", re.DOTALL
    )
    for match in pattern.finditer(text):
        blocks.setdefault(match.group(1), []).append(match.group(0))
    return blocks


class TestGeneratedTablesDoNotDrift:
    @pytest.mark.parametrize("relative_path", sorted(EMBEDDED_BLOCKS))
    def test_embedded_blocks_are_byte_identical_to_the_generator(self, relative_path):
        generated = markdown_engine_tables()
        text = (REPO_ROOT / relative_path).read_text(encoding="utf-8")
        found = _find_blocks(text)
        for name in EMBEDDED_BLOCKS[relative_path]:
            assert name in found, (
                f"{relative_path} lost its '<!-- engines:{name}:begin -->' block"
            )
            for embedded in found[name]:
                assert embedded == generated[name], (
                    f"the {name!r} table embedded in {relative_path} has drifted "
                    "from the live registry; regenerate it with "
                    "`python -m repro engines --markdown`"
                )
        # No stray blocks of unknown names either.
        assert set(found) <= set(generated)

    def test_generator_emits_marked_blocks_for_every_table(self):
        generated = markdown_engine_tables()
        assert set(generated) == {"kernel-support", "dispatch", "topology-support"}
        for name, block in generated.items():
            assert block.startswith(f"<!-- engines:{name}:begin -->\n")
            assert block.endswith(f"<!-- engines:{name}:end -->")
            # One markdown header row, one separator, at least one data row.
            body = block.splitlines()[1:-1]
            assert body[0].startswith("| protocol")
            assert set(body[1]) <= {"|", "-"}
            assert len(body) >= 3


class TestSweepLibraryTableDoesNotDrift:
    """The `repro engines --markdown` drift-guard pattern, extended to the
    scenario-library listing: docs/sweeps.md embeds the block emitted by
    ``repro sweep library --markdown`` and must stay byte-identical to the
    live :data:`repro.sweeps.SWEEP_LIBRARY` registry."""

    def test_embedded_library_block_is_byte_identical_to_the_generator(self):
        text = (REPO_ROOT / "docs" / "sweeps.md").read_text(encoding="utf-8")
        pattern = re.compile(
            r"<!-- sweeps:library:begin -->.*?<!-- sweeps:library:end -->", re.DOTALL
        )
        found = pattern.findall(text)
        assert found, "docs/sweeps.md lost its '<!-- sweeps:library:begin -->' block"
        generated = markdown_library_table()
        for embedded in found:
            assert embedded == generated, (
                "the scenario-library table embedded in docs/sweeps.md has "
                "drifted from the live SWEEP_LIBRARY registry; regenerate it "
                "with `python -m repro sweep library --markdown`"
            )

    def test_generator_emits_one_marked_block_covering_every_spec(self):
        block = markdown_library_table()
        assert block.startswith("<!-- sweeps:library:begin -->\n")
        assert block.endswith("<!-- sweeps:library:end -->")
        body = block.splitlines()[1:-1]
        assert body[0].startswith("| name")
        assert len(body) == 2 + len(SWEEP_LIBRARY)
        for name in SWEEP_LIBRARY:
            assert f"| {name}" in block or f" {name} " in block


class TestAdaptivePlanDoesNotDrift:
    """docs/sweeps.md embeds the crossover-adaptive allocation-plan table
    emitted by :func:`repro.sweeps.markdown_adaptive_plan` and must stay
    byte-identical to the live spec (same pattern as the library table)."""

    def test_embedded_plan_block_is_byte_identical_to_the_generator(self):
        from repro.sweeps import markdown_adaptive_plan

        text = (REPO_ROOT / "docs" / "sweeps.md").read_text(encoding="utf-8")
        pattern = re.compile(
            r"<!-- sweeps:adaptive-plan:begin -->.*?<!-- sweeps:adaptive-plan:end -->",
            re.DOTALL,
        )
        found = pattern.findall(text)
        assert found, (
            "docs/sweeps.md lost its '<!-- sweeps:adaptive-plan:begin -->' block"
        )
        generated = markdown_adaptive_plan()
        for embedded in found:
            assert embedded == generated, (
                "the adaptive allocation plan embedded in docs/sweeps.md has "
                "drifted from the live crossover-adaptive spec; regenerate it "
                "from repro.sweeps.markdown_adaptive_plan()"
            )

    def test_generator_covers_every_point_of_the_spec(self):
        from repro.sweeps import get_spec, markdown_adaptive_plan

        block = markdown_adaptive_plan()
        assert block.startswith("<!-- sweeps:adaptive-plan:begin -->\n")
        assert block.endswith("<!-- sweeps:adaptive-plan:end -->")
        body = block.splitlines()[1:-1]
        assert body[0].startswith("| #")
        assert len(body) == 2 + len(get_spec("crossover-adaptive").expand())


class TestTopologyCatalogueDoesNotDrift:
    """docs/topologies.md embeds the catalogue emitted by ``repro topologies
    --markdown`` and must stay byte-identical to the live
    :data:`repro.topology.TOPOLOGIES` registry (same pattern as the
    engine-support and sweep-library blocks)."""

    def test_embedded_catalogue_block_is_byte_identical_to_the_generator(self):
        from repro.topology import markdown_topology_catalogue

        text = (REPO_ROOT / "docs" / "topologies.md").read_text(encoding="utf-8")
        pattern = re.compile(
            r"<!-- topologies:catalogue:begin -->.*?<!-- topologies:catalogue:end -->",
            re.DOTALL,
        )
        found = pattern.findall(text)
        assert found, (
            "docs/topologies.md lost its '<!-- topologies:catalogue:begin -->' block"
        )
        generated = markdown_topology_catalogue()
        for embedded in found:
            assert embedded == generated, (
                "the topology catalogue embedded in docs/topologies.md has "
                "drifted from the live TOPOLOGIES registry; regenerate it "
                "with `python -m repro topologies --markdown`"
            )

    def test_generator_covers_every_registered_topology(self):
        from repro.topology import TOPOLOGIES, markdown_topology_catalogue

        block = markdown_topology_catalogue()
        assert block.startswith("<!-- topologies:catalogue:begin -->\n")
        assert block.endswith("<!-- topologies:catalogue:end -->")
        body = block.splitlines()[1:-1]
        assert body[0].startswith("| name")
        assert len(body) == 2 + len(TOPOLOGIES)
        for name in TOPOLOGIES:
            assert f"| {name}" in block

    def test_topologies_doc_names_every_generator_and_both_engines(self):
        text = (REPO_ROOT / "docs" / "topologies.md").read_text(encoding="utf-8")
        from repro.topology import TOPOLOGIES

        for name in TOPOLOGIES:
            assert name in text, f"docs/topologies.md does not mention {name!r}"
        for token in ("sample_delivered", "sample_drops", "supports_topology",
                      "off-clique-ladder", "bit for bit"):
            assert token in text, f"docs/topologies.md lacks {token!r}"


class TestDocsSuiteStructure:
    def test_experiments_doc_covers_e1_through_e10(self):
        text = (REPO_ROOT / "docs" / "experiments.md").read_text(encoding="utf-8")
        for index in range(1, 11):
            assert re.search(rf"^## E{index} ", text, re.MULTILINE), (
                f"docs/experiments.md lacks a section for E{index}"
            )

    def test_adversaries_doc_names_every_registered_strategy(self):
        text = (REPO_ROOT / "docs" / "adversaries.md").read_text(encoding="utf-8")
        for adversary in ADVERSARIES:
            assert f"`{adversary}`" in text, (
                f"docs/adversaries.md does not document the {adversary!r} strategy"
            )

    def test_architecture_doc_mentions_every_engine_and_registry(self):
        text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
        for token in ("vectorized", "workers",
                      "PROTOCOL_KERNELS", "ADVERSARY_PLANE_KERNELS",
                      "trial_generator", "repro.sweeps", "trial_offset"):
            assert token in text

    def test_sweeps_doc_covers_the_orchestration_contract(self):
        text = (REPO_ROOT / "docs" / "sweeps.md").read_text(encoding="utf-8")
        for token in ("SweepSpec", "content key", "append-only", "resume",
                      "trial_offset", "workers", "seed", "TOML",
                      "Wilson", "variance-greedy", "precision", "max_trials",
                      "crossover-adaptive", "bit-identical"):
            assert token in text, f"docs/sweeps.md lacks {token!r}"

    def test_dispatch_block_covers_the_full_matrix(self):
        # The embedded dispatch table must have one row per protocol x
        # adversary pair — a registry growth without regeneration would
        # already fail the byte-identity test, but this pins the shape.
        block = markdown_engine_tables()["dispatch"]
        data_rows = block.splitlines()[3:-1]
        assert len(data_rows) == len(PROTOCOLS) * len(ADVERSARIES)
