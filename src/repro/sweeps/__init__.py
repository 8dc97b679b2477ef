"""Sweep orchestration subsystem.

The layer above :func:`repro.engine.run_sweep`: declarative scenario grids
(:mod:`repro.sweeps.spec`), a persistent content-addressed results store with
caching and resume (:mod:`repro.sweeps.store`), a resumable executor with
trial-range sharding (:mod:`repro.sweeps.executor`), its precision-targeted
adaptive plan (:mod:`repro.sweeps.adaptive`) and a named scenario library
(:mod:`repro.sweeps.library`).  The ``repro sweep`` CLI subcommands are thin
wrappers over these five modules; see ``docs/sweeps.md`` for the spec format
and the caching/resume contract.
"""

from repro.sweeps.adaptive import (
    AdaptiveRunReport,
    BatchOutcome,
    PointEstimate,
    PrecisionTargets,
    adaptive_plan_table,
    adaptive_report_rows,
    adaptive_status,
    estimate_point,
    markdown_adaptive_plan,
    resolve_targets,
    run_adaptive,
)
from repro.sweeps.executor import (
    PointOutcome,
    SweepRunReport,
    report_rows,
    run_spec,
    spec_keys,
    status_spec,
)
from repro.sweeps.library import SWEEP_LIBRARY, get_spec, markdown_library_table
from repro.sweeps.spec import (
    SEED_POLICIES,
    SPEC_SCHEMA_VERSION,
    T_SPECS,
    SweepPoint,
    SweepSpec,
    canonical_json,
    expand_rows,
    resolve_t,
    spec_from_file,
)
from repro.sweeps.store import (
    STORE_SCHEMA_VERSION,
    ResultsStore,
    adaptive_key,
    adaptive_record,
    default_store_root,
    point_key,
    result_from_record,
    sweep_record,
)

__all__ = [
    "SEED_POLICIES",
    "SPEC_SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "SWEEP_LIBRARY",
    "T_SPECS",
    "AdaptiveRunReport",
    "BatchOutcome",
    "PointEstimate",
    "PointOutcome",
    "PrecisionTargets",
    "ResultsStore",
    "SweepPoint",
    "SweepRunReport",
    "SweepSpec",
    "adaptive_key",
    "adaptive_plan_table",
    "adaptive_record",
    "adaptive_report_rows",
    "adaptive_status",
    "canonical_json",
    "default_store_root",
    "estimate_point",
    "expand_rows",
    "get_spec",
    "markdown_adaptive_plan",
    "markdown_library_table",
    "point_key",
    "resolve_targets",
    "run_adaptive",
    "report_rows",
    "resolve_t",
    "result_from_record",
    "run_spec",
    "spec_from_file",
    "spec_keys",
    "status_spec",
    "sweep_record",
]
