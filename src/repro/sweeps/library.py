"""Named scenario specs — the sweep library.

Curated :class:`~repro.sweeps.spec.SweepSpec` instances runnable by name
(``repro sweep run <name>``).  Two entries re-express the quick grids of the
E1 and E5 experiment modules, points and seeds alike; two more run the
quick configurations of E6 and E9 under seeds of their own (by point); the
rest are cross-protocol scenario grids the E1–E10 suite does not cover.
The table rendered by :func:`markdown_library_table` is embedded in
``docs/sweeps.md`` between ``<!-- sweeps:library:begin/end -->`` markers and
kept drift-free by ``tests/test_docs.py`` (the same pattern as ``repro
engines --markdown``).
"""

from __future__ import annotations

from repro.sweeps.spec import SweepSpec

#: All library specs, by name.  Expansion of every entry is exercised by the
#: test suite, so a registry change that breaks a grid fails CI immediately.
SWEEP_LIBRARY: dict[str, SweepSpec] = {
    spec.name: spec
    for spec in (
        # -- CI / smoke -------------------------------------------------
        SweepSpec(
            name="smoke",
            description="Tiny two-protocol grid for CI cache/resume checks",
            protocols=("committee-ba", "phase-king"),
            adversaries=("null", "static"),
            inputs=("split",),
            n_values=(17,),
            t_specs=("quarter",),
            trials=2,
            seed_policy="by-point",
            base_seed=100,
        ),
        # -- E1/E5 quick grids; E6/E9 quick configurations, own seeds ---
        SweepSpec(
            name="e1-quick",
            description="E1 quick grid: ours vs Chor-Coan rounds across t under the straddle",
            protocols=("committee-ba-las-vegas", "chor-coan-las-vegas"),
            adversaries=("coin-attack",),
            inputs=("split",),
            n_values=(256,),
            t_specs=(4, 8, 16, 32, 64, 85),
            trials=8,
            seed_policy="by-t",
            base_seed=1000,
        ),
        SweepSpec(
            name="e5-quick",
            description="E5 quick grid: regime crossover under rushing and committee-targeting",
            protocols=("committee-ba-las-vegas", "chor-coan-las-vegas"),
            adversaries=("coin-attack", "committee-targeting"),
            inputs=("split",),
            n_values=(256,),
            t_specs=(4, 8, 16, 32, 48, 64, 85),
            trials=6,
            seed_policy="by-t",
            base_seed=4000,
        ),
        SweepSpec(
            name="e6-quick",
            description="E6 quick configurations (own seeds): adversary x input matrix at small n",
            protocols=("committee-ba",),
            adversaries=(
                "null", "static", "silent", "random-noise", "equivocate",
                "coin-attack", "committee-targeting", "crash",
            ),
            inputs=("split", "unanimous-0", "unanimous-1"),
            n_values=(19,),
            t_specs=(3, "third"),
            trials=3,
            seed_policy="by-point",
            base_seed=6000,
        ),
        SweepSpec(
            name="e9-quick",
            description="E9 quick configurations (own seeds): committee family under the straddle",
            protocols=(
                "committee-ba", "committee-ba-las-vegas", "chor-coan", "rabin",
            ),
            adversaries=("coin-attack",),
            inputs=("split",),
            n_values=(13,),
            t_specs=(3,),
            trials=4,
            seed_policy="by-point",
            base_seed=9000,
        ),
        # -- new cross-protocol scenario grids (not covered by E1-E10) --
        SweepSpec(
            name="input-matrix",
            description="Cross-protocol sensitivity to all four input patterns",
            protocols=("committee-ba", "chor-coan", "phase-king"),
            adversaries=("null", "static"),
            inputs=("split", "random", "unanimous-0", "unanimous-1"),
            n_values=(32,),
            t_specs=("quarter",),
            trials=5,
            seed_policy="by-point",
            base_seed=7100,
        ),
        SweepSpec(
            name="scale-ladder",
            description="Round/message scaling of three protocols across n under two adversaries",
            protocols=("committee-ba-las-vegas", "chor-coan-las-vegas", "rabin"),
            adversaries=("coin-attack", "silent"),
            inputs=("split",),
            n_values=(64, 128, 256),
            t_specs=("tenth",),
            trials=5,
            seed_policy="by-point",
            base_seed=7500,
        ),
        SweepSpec(
            name="off-clique-ladder",
            description="Committee family degradation off-clique: topology x loss ladder",
            protocols=("committee-ba", "chor-coan", "rabin"),
            adversaries=("null",),
            inputs=("split",),
            n_values=(24,),
            t_specs=("tenth",),
            topologies=("clique", "ring", "grid", "tree"),
            losses=(0.0, 0.01, 0.05),
            trials=3,
            seed_policy="by-point",
            base_seed=8300,
            allow_timeout=True,
        ),
        SweepSpec(
            name="crossover-adaptive",
            description="Adaptive precision run on the E5 crossover region (CI width <= 0.05)",
            protocols=("committee-ba-las-vegas", "chor-coan-las-vegas"),
            adversaries=("coin-attack",),
            inputs=("split",),
            n_values=(256,),
            t_specs=(16, 32, 48, 64, 85),
            trials=8,
            seed_policy="by-t",
            base_seed=4000,
            precision=0.05,
            batch_size=8,
            max_trials=512,
        ),
        SweepSpec(
            name="alpha-committee-grid",
            description="Committee-count constant alpha x budget grid for both committee protocols",
            protocols=("committee-ba", "chor-coan"),
            adversaries=("coin-attack",),
            inputs=("split",),
            n_values=(128,),
            t_specs=(8, 16, "tenth", "third"),
            alphas=(2.0, 4.0, 8.0),
            trials=4,
            seed_policy="by-point",
            base_seed=7900,
        ),
    )
}


def get_spec(name: str) -> SweepSpec:
    """Look up a library spec by name."""
    from repro.exceptions import ConfigurationError

    try:
        return SWEEP_LIBRARY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown library spec {name!r}; available: {sorted(SWEEP_LIBRARY)}"
        ) from None


def library_table() -> list[dict[str, object]]:
    """One row per library spec (rendered by ``repro sweep library``)."""
    rows = []
    for name in sorted(SWEEP_LIBRARY):
        spec = SWEEP_LIBRARY[name]
        points = spec.expand()
        rows.append(
            {
                "name": name,
                "points": len(points),
                "trials/point": (
                    f"{spec.trials}..{spec.max_trials or '*'} @ {spec.precision:g}"
                    if spec.adaptive
                    else spec.trials
                ),
                "protocols": ", ".join(spec.protocols),
                "adversaries": ", ".join(spec.adversaries),
                "n": ", ".join(str(n) for n in spec.n_values),
                "topology x loss": (
                    "clique"
                    if spec.topologies == ("clique",) and spec.losses == (0.0,)
                    else (
                        ", ".join(spec.topologies)
                        + " x loss {"
                        + ", ".join(f"{loss:g}" for loss in spec.losses)
                        + "}"
                    )
                ),
                "description": spec.description,
            }
        )
    return rows


def markdown_library_table() -> str:
    """The library table as a marked, embeddable markdown block.

    ``repro sweep library --markdown`` prints this block verbatim;
    ``docs/sweeps.md`` embeds it between the same markers and
    ``tests/test_docs.py`` asserts the embedded copy is byte-identical, so
    the documented scenario library can never drift from
    :data:`SWEEP_LIBRARY`.
    """
    from repro.metrics.reporting import format_markdown_table

    table = format_markdown_table(library_table())
    return (
        "<!-- sweeps:library:begin -->\n"
        f"{table}\n"
        "<!-- sweeps:library:end -->"
    )
