"""The four benchmark workloads and their correctness checks.

Every workload runs through the public entry points
(:func:`repro.engine.run_sweep` and :func:`repro.sweeps.run_spec`) with
``engine="auto"``, no ``workers`` and the default plane backend.  A workload
exposes the same small surface to the runner:

* :meth:`prepare` — in-process set-up (spec expansion, store roots);
* :meth:`first_call` — a tiny call that finishes the program's lazy set-up;
* :meth:`pinned` — the untimed warm-up call on :data:`PINNED_BASE`, whose
  digest is pinned in ``digests.json`` and whose results feed the cache;
* :meth:`call` — one measured call on a seed-derived base seed;
* :meth:`warm` — one cached pass: reopen the store, re-run the same specs.

Calls never raise: each point or call runs under ``try``/``except`` and a
failure is kept, with its traceback, in the returned :class:`Outcome`.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

#: Base seed of the pinned warm-up call (measured calls never use it).
PINNED_BASE = 0

#: The per-trial fields the correctness digest covers.
DIGEST_FIELDS = ("rounds", "phases", "agreement", "validity", "decision", "messages")


def digest(rows: Iterable[Iterable[Any]]) -> str:
    """SHA-256 over the per-trial digest tuples, in trial order."""
    text = json.dumps([list(row) for row in rows], separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summary_rows(trials: Iterable[Any]) -> list[tuple[Any, ...]]:
    """Digest tuples of :class:`repro.core.runner.TrialSummary` objects."""
    return [tuple(getattr(trial, name) for name in DIGEST_FIELDS) for trial in trials]


def record_rows(record: dict[str, Any]) -> list[tuple[Any, ...]]:
    """Digest tuples of one stored sweep-point record."""
    index = [record["trial_fields"].index(name) for name in DIGEST_FIELDS]
    return [tuple(values[i] for i in index) for values in record["trials"]]


def measured_base(seed: int, call: int) -> int:
    """Base seed of measured call ``call`` of a run with ``--seed seed``."""
    return 1 + seed * 100_000 + call


@dataclass
class Outcome:
    """What one call (or pass) did: units attempted and failed, trials run."""

    attempted: int = 0
    failed: int = 0
    trials: int = 0
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    @property
    def digest(self) -> str:
        return digest(self.rows)


def _point_spec(point: Any, name: str) -> Any:
    """A one-point :class:`SweepSpec` reproducing ``point`` exactly."""
    from repro.sweeps import SweepSpec

    return SweepSpec(
        name=name,
        protocols=(point.protocol,),
        adversaries=(point.adversary,),
        inputs=(point.inputs,),
        n_values=(point.n,),
        t_specs=(point.t,),
        losses=(point.loss,),
        trials=point.trials,
        seed_policy="fixed",
        base_seed=point.base_seed,
        allow_timeout=point.allow_timeout,
    )


def _run_points(specs: list[Any], store: Any, outcome: Outcome, *, expect: str) -> list[str]:
    """``run_spec`` each one-point spec, isolating failures; returns keys."""
    from repro.sweeps import run_spec

    keys = []
    for spec in specs:
        try:
            report = run_spec(spec, store=store)
        except Exception:
            outcome.fail(f"{spec.name}: {traceback.format_exc()}")
            continue
        (point_outcome,) = report.outcomes
        if point_outcome.status != expect:
            outcome.fail(f"{spec.name}: status {point_outcome.status}, expected {expect}")
            continue
        keys.append(point_outcome.key)
    return keys


def _stored_rows(store: Any, keys: list[str]) -> list[tuple[Any, ...]]:
    records = {record["key"]: record for record in store.records()}
    return [row for key in keys for row in record_rows(records[key])]


def _cold_pass(specs: list[Any], root: Path) -> tuple[Outcome, list[str]]:
    """Compute every spec into a fresh store at ``root``; returns the keys."""
    from repro.sweeps import ResultsStore

    outcome = Outcome(attempted=len(specs))
    store = ResultsStore(root)
    keys = _run_points(specs, store, outcome, expect="computed")
    outcome.rows = _stored_rows(store, keys)
    outcome.trials = len(outcome.rows)
    return outcome, keys


class _Workload:
    """The pinned call and the cached passes, shared by both workload kinds.

    Subclasses set ``pinned_specs`` (one-point specs on :data:`PINNED_BASE`)
    and ``pinned_root`` in :meth:`prepare`.
    """

    pinned_specs: list[Any]
    pinned_root: Path

    def pinned(self) -> Outcome:
        """The pinned call, run through ``run_spec`` into a fresh store."""
        outcome, self.keys = _cold_pass(self.pinned_specs, self.pinned_root)
        return outcome

    def warm(self) -> Outcome:
        from repro.sweeps import ResultsStore

        outcome = Outcome(attempted=len(self.pinned_specs))
        store = ResultsStore(self.pinned_root)
        _run_points(self.pinned_specs, store, outcome, expect="cached")
        return outcome

    def stored_digest(self) -> str:
        """Digest of the pinned results as a freshly reopened store holds them."""
        from repro.sweeps import ResultsStore

        return digest(_stored_rows(ResultsStore(self.pinned_root), self.keys))


class SweepCallWorkload(_Workload):
    """One ``run_sweep`` call per measured unit; every trial must agree."""

    def __init__(self, name: str, *, backend_check: bool, **config: Any) -> None:
        self.name = name
        self.config = config
        self.backend_check = backend_check

    def prepare(self, tmp: Path) -> None:
        from repro.sweeps import SweepPoint

        config = self.config
        point = SweepPoint(
            protocol=config["protocol"], adversary=config["adversary"],
            inputs=config["inputs"], n=config["n"], t=config["t"],
            trials=config["trials"], base_seed=PINNED_BASE,
            loss=config.get("loss", 0.0),
        )
        self.pinned_specs = [_point_spec(point, self.name)]
        self.pinned_root = tmp / f"{self.name}-store"

    def first_call(self) -> None:
        import repro.engine as engine

        engine.run_sweep(**{**self.config, "n": 16, "t": 3, "trials": 1})

    def call(self, base_seed: int, backend: str | None = None) -> Outcome:
        import repro.engine as engine

        outcome = Outcome(attempted=1)
        try:
            result = engine.run_sweep(**self.config, base_seed=base_seed, backend=backend)
        except Exception:
            outcome.fail(f"{self.name} base_seed={base_seed}: {traceback.format_exc()}")
            return outcome
        outcome.trials = len(result.trials)
        outcome.rows = summary_rows(result.trials)
        bad = sum(not (t.agreement and t.validity) for t in result.trials)
        if bad:
            outcome.fail(
                f"{self.name} base_seed={base_seed}: {bad} trials broke "
                "agreement or validity"
            )
        return outcome


class SweepStoreWorkload(_Workload):
    """Every fast pair x four input patterns, one ``run_spec`` per point."""

    name = "sweep-store"
    backend_check = False

    def __init__(self, *, n: int, trials: int) -> None:
        self.n = n
        self.trials = trials

    def prepare(self, tmp: Path) -> None:
        from repro.core.runner import ADVERSARIES, INPUT_PATTERNS, PROTOCOLS
        from repro.sweeps import SweepSpec

        self.tmp = tmp
        grid = SweepSpec(
            name="sweep-store",
            protocols=tuple(sorted(PROTOCOLS)),
            adversaries=tuple(sorted(ADVERSARIES)),
            inputs=INPUT_PATTERNS,
            n_values=(self.n,),
            t_specs=("quarter",),
            trials=self.trials,
            fast_path_only=True,
            allow_timeout=True,
        )
        self.points = grid.expand()
        self.pinned_specs = self.specs(PINNED_BASE)
        self.pinned_root = tmp / "sweep-store-pinned"
        self.passes = 0

    def specs(self, base_seed: int) -> list[Any]:
        """One-point specs of the whole grid, point ``i`` on its own seed."""
        from dataclasses import replace

        return [
            _point_spec(replace(point, base_seed=base_seed * 1024 + index), f"p{index}")
            for index, point in enumerate(self.points)
        ]

    def first_call(self) -> None:
        _cold_pass(self.pinned_specs[:1], self.tmp / "sweep-store-first")

    def call(self, base_seed: int) -> Outcome:
        """One cold pass over the grid into a fresh store."""
        self.passes += 1
        root = self.tmp / f"sweep-store-pass-{self.passes}"
        specs = self.specs(base_seed)
        try:
            return _cold_pass(specs, root)[0]
        finally:
            shutil.rmtree(root, ignore_errors=True)


def build(name: str, *, smoke: bool = False) -> Any:
    """The named workload at benchmark size (or tiny smoke-test size)."""
    if name == "clique-attack":
        size = dict(n=64, t=8, trials=8) if smoke else dict(n=2000, t=250, trials=100)
        return SweepCallWorkload(
            name, protocol="committee-ba", adversary="coin-attack", inputs="split",
            backend_check=True, **size,
        )
    if name == "lossy":
        size = dict(n=96, t=12, trials=4) if smoke else dict(n=512, t=64, trials=64)
        return SweepCallWorkload(
            name, protocol="committee-ba", adversary="null", inputs="split", loss=0.05,
            backend_check=True, **size,
        )
    if name == "many-trials":
        size = dict(n=16, t=2, trials=200) if smoke else dict(n=64, t=8, trials=20_000)
        return SweepCallWorkload(
            name, protocol="committee-ba", adversary="null", inputs="split",
            backend_check=False, **size,
        )
    if name == "sweep-store":
        return SweepStoreWorkload(n=7 if smoke else 13, trials=2 if smoke else 8)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


WORKLOADS = ("clique-attack", "lossy", "many-trials", "sweep-store")
