"""Declarative sweep specifications.

A :class:`SweepSpec` describes a *grid* of experimental configurations — the
cross product of axes over protocol, adversary, input pattern, network size,
Byzantine-budget spec, committee constant and trial count — as plain data.
Expansion (:meth:`SweepSpec.expand`) materialises the grid into an ordered
list of :class:`SweepPoint` records, each of which maps 1:1 onto an
:class:`repro.core.runner.AgreementExperiment` plus the ``(trials,
base_seed)`` sweep arguments of :func:`repro.engine.run_sweep`.

Everything here is deliberately *engine-free*: specs validate against the
live registries (``PROTOCOLS``, ``ADVERSARIES``, ``INPUT_PATTERNS``,
``ENGINES`` and — for ``fast_path_only`` grids — the
``PROTOCOL_KERNELS``-backed :func:`repro.engine.vectorizable` predicate) but
never execute anything.  Execution and caching live in
:mod:`repro.sweeps.executor` and :mod:`repro.sweeps.store`.

Serialization is canonical and stable: :func:`canonical_json` renders any
spec or point with sorted keys and no incidental whitespace, so the same
logical configuration always hashes to the same content key no matter how
the input dict/JSON/TOML happened to be ordered.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.core.parameters import validate_alpha
from repro.core.runner import (
    AgreementExperiment,
    validate_configuration,
    validate_max_rounds,
    validate_names,
)
from repro.exceptions import ConfigurationError
from repro.simulator.draws import validate_seed
from repro.topology import validate_loss

#: Bumped whenever the meaning of a serialized spec/point changes
#: incompatibly; part of every content hash.
SPEC_SCHEMA_VERSION = 1

#: Named Byzantine-budget specs: each resolves to the largest legal ``t`` of
#: its family for a given ``n``.  ``third`` is the protocol-wide optimum
#: (``t < n/3``), ``quarter`` the phase-king limit (``n > 4t``), ``tenth`` a
#: low-budget regime point (``t ~ n/10``, where the paper's bound improves
#: most).
T_SPECS = {
    "third": lambda n: max(1, (n - 1) // 3),
    "quarter": lambda n: max(1, (n - 1) // 4),
    "tenth": lambda n: max(1, n // 10),
}

#: Seed-assignment policies for grid expansion.
#:
#: ``fixed``     every point uses ``base_seed`` verbatim;
#: ``by-point``  point ``i`` (in expansion order) uses ``base_seed + i`` —
#:               the default, giving every point an independent seed range;
#: ``by-t``      a point at budget ``t`` uses ``base_seed + t`` (the idiom
#:               the E1/E5 experiment modules established).
SEED_POLICIES = ("fixed", "by-point", "by-t")


def canonical_json(value: Any) -> str:
    """Render ``value`` as canonical JSON: sorted keys, compact, no NaNs.

    This is the serialization every content hash is computed over, so two
    dicts with the same entries in different order are guaranteed to render
    identically.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def resolve_t(t_spec: int | str, n: int) -> int:
    """Resolve one ``t`` axis entry (an int or a named spec) for size ``n``."""
    if isinstance(t_spec, bool):
        raise ConfigurationError(f"t spec must be an int or a name, got {t_spec!r}")
    if isinstance(t_spec, int):
        return t_spec
    if t_spec in T_SPECS:
        return T_SPECS[t_spec](n)
    raise ConfigurationError(
        f"unknown t spec {t_spec!r}; expected an int or one of {sorted(T_SPECS)}"
    )


def _integer(value: Any, field: str) -> int:
    """``value`` if it is an int (a bool is not), else a ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{field!r} must be an integer, got {value!r}")
    return value


def _number(value: Any, field: str) -> float:
    """``float(value)`` (a bool is not a number), or a ConfigurationError."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{field!r} must be a number, got {value!r}")


def _optional(convert: Callable[[Any, str], Any], value: Any, field: str) -> Any:
    """``convert(value, field)``, passing an absent (``None``) value through."""
    return None if value is None else convert(value, field)


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved configuration of a sweep grid.

    The fields mirror :class:`~repro.core.runner.AgreementExperiment` plus
    the multi-trial arguments of :func:`repro.engine.run_sweep`; a point is
    the unit of execution, caching and storage.
    """

    protocol: str
    adversary: str
    inputs: str
    n: int
    t: int
    trials: int
    base_seed: int
    alpha: float | None = None
    max_rounds: int | None = None
    allow_timeout: bool = False
    topology: str = "clique"
    loss: float = 0.0

    def __post_init__(self) -> None:
        validate_configuration(self)
        validate_seed(self.base_seed)
        if self.trials < 1:
            raise ConfigurationError(f"trials must be positive, got {self.trials}")

    def canonical(self) -> dict[str, Any]:
        """The point as a plain, canonically-ordered dict.

        The topology/loss axes are included *only when non-default*, so the
        canonical text — and therefore every stored content key — of a
        pre-axis clique point is unchanged and cached results stay valid.
        """
        data: dict[str, Any] = {
            "adversary": self.adversary,
            "allow_timeout": self.allow_timeout,
            "alpha": self.alpha,
            "base_seed": self.base_seed,
            "inputs": self.inputs,
            "max_rounds": self.max_rounds,
            "n": self.n,
            "protocol": self.protocol,
            "t": self.t,
            "trials": self.trials,
        }
        if self.topology != "clique":
            data["topology"] = self.topology
        if self.loss > 0.0:
            data["loss"] = self.loss
        return data

    def canonical_base(self) -> dict[str, Any]:
        """The point's canonical dict *without* the trial count.

        This is the identity the adaptive executor accumulates results under:
        an adaptive run grows a point's trial count batch by batch, so its
        store key must cover every configuration field except ``trials``
        (:func:`repro.sweeps.store.adaptive_key`).
        """
        data = self.canonical()
        del data["trials"]
        return data

    def experiment(self) -> AgreementExperiment:
        """The equivalent single-configuration experiment description."""
        return AgreementExperiment(
            n=self.n,
            t=self.t,
            protocol=self.protocol,
            adversary=self.adversary,
            inputs=self.inputs,
            alpha=self.alpha,
            max_rounds=self.max_rounds,
            allow_timeout=self.allow_timeout,
            topology=self.topology,
            loss=self.loss,
        )

    def label(self) -> str:
        label = (
            f"{self.protocol}/{self.adversary}/{self.inputs}/"
            f"n={self.n}/t={self.t}/trials={self.trials}"
        )
        if self.topology != "clique":
            label += f"/{self.topology}"
        if self.loss > 0.0:
            label += f"/loss={self.loss:g}"
        return label

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "SweepPoint":
        """Rebuild a point from a stored canonical dict (order-insensitive)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown sweep-point fields: {sorted(unknown)}")
        return cls(**{key: data[key] for key in known if key in data})


def _string_tuple(value: Any, *, what: str) -> tuple[str, ...]:
    if isinstance(value, str):
        value = (value,)
    result = tuple(value)
    if not result or any(not isinstance(item, str) for item in result):
        raise ConfigurationError(f"{what} axis must be a non-empty list of names")
    return result


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of sweep points.

    The grid is the cross product of the axes, expanded in a fixed
    deterministic order (protocol, adversary, inputs, n, t, alpha, topology,
    loss — last axis fastest; the topology/loss axes were appended last so
    pre-existing single-topology grids expand in their historical order); the
    seed policy assigns each point its ``base_seed``.  Validation happens at
    construction time, against the live protocol / adversary / input /
    topology / engine registries.
    """

    name: str
    protocols: tuple[str, ...]
    adversaries: tuple[str, ...]
    n_values: tuple[int, ...]
    t_specs: tuple[int | str, ...]
    inputs: tuple[str, ...] = ("split",)
    alphas: tuple[float | None, ...] = (None,)
    topologies: tuple[str, ...] = ("clique",)
    losses: tuple[float, ...] = (0.0,)
    trials: int = 10
    seed_policy: str = "by-point"
    base_seed: int = 0
    engine: str = "auto"
    fast_path_only: bool = False
    max_rounds: int | None = None
    allow_timeout: bool = False
    description: str = ""
    #: Adaptive-mode fields (see :mod:`repro.sweeps.adaptive`): when
    #: ``precision`` is set the spec asks for sequential, precision-targeted
    #: execution — ``trials`` becomes the initial batch per point,
    #: ``batch_size`` the increment (default: ``trials``) and ``max_trials``
    #: the per-point ceiling (default: 64 batches).
    precision: float | None = None
    batch_size: int | None = None
    max_trials: int | None = None

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ConfigurationError("a sweep spec needs a non-empty, slash-free name")
        validate_names(self.protocols, self.adversaries, self.inputs, self.topologies)
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ConfigurationError("the n axis must list sizes >= 2")
        if not self.t_specs:
            raise ConfigurationError("the t axis must not be empty")
        for t_spec in self.t_specs:
            if not isinstance(t_spec, int):
                resolve_t(t_spec, max(self.n_values))
        if not self.alphas:
            raise ConfigurationError("the alpha axis must not be empty")
        for alpha in self.alphas:
            validate_alpha(alpha)
        if not self.topologies:
            raise ConfigurationError("the topology axis must not be empty")
        if not self.losses:
            raise ConfigurationError("the loss axis must not be empty")
        for loss in self.losses:
            validate_loss(loss)
        if self.trials < 1:
            raise ConfigurationError(f"trials must be positive, got {self.trials}")
        validate_max_rounds(self.max_rounds)
        if self.seed_policy not in SEED_POLICIES:
            raise ConfigurationError(
                f"unknown seed policy {self.seed_policy!r}; "
                f"expected one of {SEED_POLICIES}"
            )
        from repro.engine import ENGINES

        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; available: {ENGINES}"
            )
        if self.precision is not None and not 0.0 < self.precision < 1.0:
            raise ConfigurationError(
                f"precision must lie in (0, 1), got {self.precision}"
            )
        if self.precision is None and (
            self.batch_size is not None or self.max_trials is not None
        ):
            raise ConfigurationError(
                "batch_size/max_trials are adaptive-mode fields; "
                "set precision to enable adaptive allocation"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.max_trials is not None and self.max_trials < self.trials:
            raise ConfigurationError(
                f"max_trials ({self.max_trials}) must be >= the initial "
                f"trials ({self.trials})"
            )

    @property
    def adaptive(self) -> bool:
        """True when the spec asks for precision-targeted execution."""
        return self.precision is not None

    def expand(self) -> list[SweepPoint]:
        """Materialise the grid, in deterministic order.

        ``fast_path_only`` grids silently drop configurations without a
        registered vectorised kernel (point indices — and therefore
        ``by-point`` seeds — are assigned *before* filtering, so adding a
        kernel later does not renumber the surviving points).
        """
        from repro.engine import vectorizable

        points: list[SweepPoint] = []
        combos = itertools.product(
            self.protocols, self.adversaries, self.inputs,
            self.n_values, self.t_specs, self.alphas,
            self.topologies, self.losses,
        )
        for index, (
            protocol, adversary, inputs, n, t_spec, alpha, topology, loss
        ) in enumerate(combos):
            t = resolve_t(t_spec, n)
            if self.seed_policy == "fixed":
                base_seed = self.base_seed
            elif self.seed_policy == "by-t":
                base_seed = self.base_seed + t
            else:  # by-point
                base_seed = self.base_seed + index
            if self.fast_path_only and not vectorizable(
                protocol,
                adversary,
                max_rounds=self.max_rounds,
                topology=topology,
                loss=loss,
            ):
                continue
            points.append(
                SweepPoint(
                    protocol=protocol,
                    adversary=adversary,
                    inputs=inputs,
                    n=n,
                    t=t,
                    trials=self.trials,
                    base_seed=base_seed,
                    alpha=alpha,
                    max_rounds=self.max_rounds,
                    allow_timeout=self.allow_timeout,
                    topology=topology,
                    loss=loss,
                )
            )
        if not points:
            raise ConfigurationError(
                f"sweep spec {self.name!r} expands to zero points "
                "(fast_path_only filtered everything out?)"
            )
        return points

    def canonical(self) -> dict[str, Any]:
        """The spec as a plain, canonically-ordered dict.

        Like :meth:`SweepPoint.canonical`, the topology/loss axes appear only
        when non-default, so pre-axis specs keep their canonical text.
        """
        axes: dict[str, Any] = {
            "protocol": list(self.protocols),
            "adversary": list(self.adversaries),
            "inputs": list(self.inputs),
            "n": list(self.n_values),
            "t": list(self.t_specs),
            "alpha": list(self.alphas),
        }
        if self.topologies != ("clique",):
            axes["topology"] = list(self.topologies)
        if self.losses != (0.0,):
            axes["loss"] = list(self.losses)
        data = {
            "schema": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "axes": axes,
            "trials": self.trials,
            "seed": {"policy": self.seed_policy, "base": self.base_seed},
            "engine": self.engine,
            "fast_path_only": self.fast_path_only,
            "max_rounds": self.max_rounds,
            "allow_timeout": self.allow_timeout,
        }
        # The adaptive block appears only when the mode is on, so every
        # pre-adaptive spec keeps its canonical text byte for byte.
        if self.precision is not None:
            adaptive: dict[str, Any] = {"precision": self.precision}
            if self.batch_size is not None:
                adaptive["batch_size"] = self.batch_size
            if self.max_trials is not None:
                adaptive["max_trials"] = self.max_trials
            data["adaptive"] = adaptive
        return data

    def to_json(self) -> str:
        """Canonical JSON serialization (stable across field ordering)."""
        return canonical_json(self.canonical())

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build a spec from a parsed JSON/TOML mapping.

        Accepts the :meth:`canonical` layout; scalar axis entries are
        promoted to single-element lists.  Unknown top-level or axis keys are
        rejected so typos fail loudly instead of silently shrinking a grid,
        and integer fields take only ints (not bools), so a mistyped value is
        a :class:`ConfigurationError` naming its field rather than a
        traceback or a silently truncated grid.
        """
        allowed = {
            "schema", "name", "description", "axes", "trials", "seed",
            "engine", "fast_path_only", "max_rounds", "allow_timeout",
            "adaptive",
        }
        unknown = set(data) - allowed
        if unknown:
            raise ConfigurationError(f"unknown sweep-spec fields: {sorted(unknown)}")
        schema = data.get("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported sweep-spec schema {schema!r} "
                f"(this build reads schema {SPEC_SCHEMA_VERSION})"
            )
        axes = data.get("axes")
        if not isinstance(axes, Mapping):
            raise ConfigurationError("a sweep spec needs an 'axes' mapping")
        axis_names = {
            "protocol", "adversary", "inputs", "n", "t", "alpha",
            "topology", "loss",
        }
        unknown_axes = set(axes) - axis_names
        if unknown_axes:
            raise ConfigurationError(f"unknown sweep axes: {sorted(unknown_axes)}")

        def axis(name: str, default: Any = None) -> Any:
            value = axes.get(name, default)
            if value is None:
                raise ConfigurationError(f"the {name!r} axis is required")
            return value if isinstance(value, (list, tuple)) else (value,)

        seed = data.get("seed", {})
        if not isinstance(seed, Mapping):
            raise ConfigurationError("'seed' must be a mapping {policy, base}")
        adaptive = data.get("adaptive", {})
        if not isinstance(adaptive, Mapping):
            raise ConfigurationError(
                "'adaptive' must be a mapping {precision, batch_size, max_trials}"
            )
        unknown_adaptive = set(adaptive) - {"precision", "batch_size", "max_trials"}
        if unknown_adaptive:
            raise ConfigurationError(
                f"unknown adaptive fields: {sorted(unknown_adaptive)}"
            )
        return cls(
            name=str(data.get("name", "")),
            description=str(data.get("description", "")),
            protocols=_string_tuple(axis("protocol"), what="protocol"),
            adversaries=_string_tuple(axis("adversary"), what="adversary"),
            inputs=_string_tuple(axis("inputs", ("split",)), what="inputs"),
            n_values=tuple(_integer(n, "n") for n in axis("n")),
            t_specs=tuple(
                t if isinstance(t, int) and not isinstance(t, bool) else str(t)
                for t in axis("t")
            ),
            alphas=tuple(
                _optional(_number, alpha, "alpha") for alpha in axis("alpha", (None,))
            ),
            topologies=_string_tuple(axis("topology", ("clique",)), what="topology"),
            losses=tuple(_number(loss, "loss") for loss in axis("loss", (0.0,))),
            trials=_integer(data.get("trials", 10), "trials"),
            seed_policy=str(seed.get("policy", "by-point")),
            base_seed=_integer(seed.get("base", 0), "seed.base"),
            engine=str(data.get("engine", "auto")),
            fast_path_only=bool(data.get("fast_path_only", False)),
            max_rounds=_optional(_integer, data.get("max_rounds"), "max_rounds"),
            allow_timeout=bool(data.get("allow_timeout", False)),
            precision=_optional(_number, adaptive.get("precision"), "adaptive.precision"),
            batch_size=_optional(_integer, adaptive.get("batch_size"), "adaptive.batch_size"),
            max_trials=_optional(_integer, adaptive.get("max_trials"), "adaptive.max_trials"),
        )


def spec_from_file(path: str | Path) -> SweepSpec:
    """Load a spec from a ``.json`` or ``.toml`` file.

    TOML needs the stdlib ``tomllib`` (Python 3.11+); on older interpreters a
    :class:`ConfigurationError` explains the gate — no third-party parser is
    ever imported.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"sweep spec file not found: {path}")
    if path.suffix == ".json":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid JSON in {path}: {error}") from error
    elif path.suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError as error:  # pragma: no cover - py3.10 only
            raise ConfigurationError(
                "TOML sweep specs need Python 3.11+ (stdlib tomllib); "
                "use the JSON form on this interpreter"
            ) from error
        try:
            data = tomllib.loads(path.read_text(encoding="utf-8"))
        except tomllib.TOMLDecodeError as error:
            raise ConfigurationError(f"invalid TOML in {path}: {error}") from error
    else:
        raise ConfigurationError(
            f"sweep specs are .json or .toml files, got {path.name!r}"
        )
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{path} must contain one sweep-spec mapping")
    spec = SweepSpec.from_mapping(data)
    if not spec.name:
        raise ConfigurationError(f"{path} is missing the spec 'name'")
    return spec


def expand_rows(points: Iterable[SweepPoint]) -> list[dict[str, Any]]:
    """Tabular view of expanded points (for ``repro sweep expand``)."""
    return [
        {
            "#": index,
            "protocol": point.protocol,
            "adversary": point.adversary,
            "inputs": point.inputs,
            "n": point.n,
            "t": point.t,
            "alpha": point.alpha,
            "topology": point.topology,
            "loss": point.loss,
            "trials": point.trials,
            "base_seed": point.base_seed,
        }
        for index, point in enumerate(points)
    ]
