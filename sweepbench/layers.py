"""Per-layer attribution from outside the program.

The traced run installs timing wrappers around the public functions of each
layer (module globals, class methods, the plane backend and the adversary
kernel objects) and activates a :class:`LayerTracer` — a
:class:`repro.observability.Tracer` whose spans land on the same frame stack
as the wrappers — so the spans and counters the program already emits fold
into one nesting-aware profile.  Nothing here edits ``src/``; every wrapper is
removed again by :meth:`Instrumentation.uninstall`.

Each profile key accumulates ``calls`` and ``cum`` (inclusive time) for its
outermost active frame only, so a layer calling itself is not counted twice,
and ``self`` time (inclusive minus the time of directly nested frames) for
every frame, so self times over all keys sum to the measured wall.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

import numpy as np

from repro.observability.tracer import Tracer
from repro.simulator.planes.base import Plane

#: Key of the harness frame around each measured workload call.
ROOT = "root"

#: Keys whose self time is glue no named stage explains: the harness and
#: run_spec loop around the program's calls, the phase loop between the
#: engine's stage spans, and run_spec's per-point record building.
UNATTRIBUTED = frozenset({ROOT, "phase_engine.run_batch", "span.sweep.point"})

#: Existing program spans that map onto a per-layer metric.
SPAN_KEYS = {
    "dispatch.select_engine": "engine.select",
    "engine.setup": "phase_engine.setup",
    "engine.round1": "phase_engine.round1",
    "engine.pre_coin": "phase_engine.pre_coin",
    "engine.round2": "phase_engine.round2",
    "engine.retally": "phase_engine.retally",
    "engine.compaction": "phase_engine.compaction",
}


class Profile:
    """A frame stack accumulating calls, inclusive and self time per key."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # key -> [calls, cum_ns, self_ns]
        self.stack: list[list[Any]] = []  # [key, start_ns, child_ns]
        self.depth: dict[str, int] = {}
        self.tallies: dict[str, int] = {}

    def enter(self, key: str) -> None:
        self.depth[key] = self.depth.get(key, 0) + 1
        self.stack.append([key, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        key, start, child = self.stack.pop()
        duration = end - start
        row = self.stats.get(key)
        if row is None:
            row = self.stats[key] = [0, 0, 0]
        depth = self.depth[key] - 1
        self.depth[key] = depth
        if depth == 0:
            row[0] += 1
            row[1] += duration
        row[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration

    def active(self, key: str) -> bool:
        return self.depth.get(key, 0) > 0

    def tally(self, key: str, amount: int) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0, 0, 0))[0]

    def cum_ms(self, key: str) -> float:
        return self.stats.get(key, (0, 0, 0))[1] / 1e6

    def self_ms(self, key: str) -> float:
        return self.stats.get(key, (0, 0, 0))[2] / 1e6

    def wall_ms(self) -> float:
        return self.cum_ms(ROOT)

    def unattributed_ms(self) -> float:
        return sum(self.self_ms(key) for key in UNATTRIBUTED)


class _Frame:
    """Context manager pushing one profile frame (also a span stand-in)."""

    __slots__ = ("_profile", "_key")

    def __init__(self, profile: Profile, key: str) -> None:
        self._profile = profile
        self._key = key

    def __enter__(self) -> "_Frame":
        self._profile.enter(self._key)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._profile.exit()
        return False

    def annotate(self, **meta: Any) -> None:
        pass


class LayerTracer(Tracer):
    """A :class:`Tracer` whose spans are frames of a :class:`Profile`.

    Counters keep the base class behaviour; spans are aggregated on the
    profile's stack instead of being kept as events, so a long traced run
    holds no per-span memory.
    """

    def __init__(self, profile: Profile) -> None:
        super().__init__(run_id="sweepbench")
        self.profile = profile

    def span(self, name: str, **meta: Any) -> _Frame:  # type: ignore[override]
        return _Frame(self.profile, SPAN_KEYS.get(name, "span." + name))

    def frame(self, key: str) -> _Frame:
        return _Frame(self.profile, key)


def _timing_wrapper(profile: Profile, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        profile.enter(key)
        try:
            return fn(*args, **kwargs)
        finally:
            profile.exit()

    return wrapper


class _KernelProxy:
    """Times the hooks of one adversary kernel; everything else delegates."""

    def __init__(self, kernel: Any, profile: Profile) -> None:
        self._kernel = kernel
        self._profile = profile

    def __getattr__(self, name: str) -> Any:
        return getattr(self._kernel, name)

    def _hook(self, name: str, ctx: Any, *args: Any) -> Any:
        profile = self._profile
        profile.enter("adversary.hook")
        try:
            return getattr(self._kernel, name)(ctx, *args)
        finally:
            profile.exit()

    def setup(self, ctx: Any) -> Any:
        return self._hook("setup", ctx)

    def round1(self, ctx: Any, *args: Any) -> Any:
        profile = self._profile
        if profile.active("phase_engine.run_batch"):
            # round1 runs once per phase on the working rows, so it sees
            # exactly the rows the phase processes and which of them live.
            running = np.asarray(ctx.running)
            profile.tally("phase_engine.rows", int(running.size))
            profile.tally("phase_engine.live_rows", int(np.count_nonzero(running)))
        return self._hook("round1", ctx, *args)

    def pre_coin(self, ctx: Any) -> Any:
        return self._hook("pre_coin", ctx)

    def round2(self, ctx: Any, *args: Any) -> Any:
        return self._hook("round2", ctx, *args)


class _PlaneProxy:
    """Times every op of one plane; planes in and out are (un)wrapped."""

    __slots__ = ("_inner", "_profile")

    def __init__(self, inner: Any, profile: Profile) -> None:
        self._inner = inner
        self._profile = profile

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        profile = self._profile

        def op(*args: Any) -> Any:
            args = tuple(a._inner if type(a) is _PlaneProxy else a for a in args)
            profile.enter("planes.op")
            try:
                result = attr(*args)
            finally:
                profile.exit()
            return _wrap_plane(result, profile)

        return op


def _wrap_plane(value: Any, profile: Profile) -> Any:
    return _PlaneProxy(value, profile) if isinstance(value, Plane) else value


class _BackendProxy:
    """The plane backend ``resolve_backend`` returned, handing out proxies."""

    def __init__(self, backend: Any, profile: Profile) -> None:
        self._backend = backend
        self._profile = profile

    def __getattr__(self, name: str) -> Any:
        return getattr(self._backend, name)

    def from_bools(self, array: np.ndarray) -> _PlaneProxy:
        return _PlaneProxy(self._backend.from_bools(array), self._profile)


class Instrumentation:
    """Installs and removes every layer wrapper around one :class:`Profile`."""

    def __init__(self, profile: Profile) -> None:
        self.profile = profile
        self._undo: list[Callable[[], None]] = []

    # -- patching helpers ------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name]
        # object.__setattr__ also reaches the frozen KernelSpec records.
        setter = setattr if isinstance(owner, type) else object.__setattr__
        setter(owner, name, value)
        self._undo.append(lambda: setter(owner, name, original))

    def _everywhere(self, original: Any, replacement: Any) -> None:
        """Rebind every ``repro`` module global that names ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, replacement)

    def _time_function(self, original: Callable[..., Any], key: str) -> None:
        self._everywhere(original, _timing_wrapper(self.profile, key, original))

    def _time_method(self, cls: type, name: str, key: str) -> None:
        self._set(cls, name, _timing_wrapper(self.profile, key, cls.__dict__[name]))

    # -- install / uninstall ---------------------------------------------
    def install(self) -> None:
        import repro.engine as engine
        import repro.simulator.phase_engine as phase_engine
        import repro.simulator.vectorized as vectorized
        import repro.sweeps.executor as executor
        from repro.adversary.kernels import build_adversary_kernel
        from repro.simulator.planes import resolve_backend
        from repro.sweeps.store import ResultsStore
        from repro.topology import counting, loss

        profile = self.profile
        self._time_function(engine.run_sweep, "engine.run_sweep")
        for protocol, spec in engine.PROTOCOL_KERNELS.items():
            timed = _timing_wrapper(profile, f"baselines.{protocol}", spec.run_trials)
            self._set(spec, "run_trials", timed)

        self._time_function(vectorized.trial_generator, "vectorized.rng_setup")
        self._time_function(vectorized._trial_inputs, "vectorized.inputs")
        self._time_function(vectorized._aggregate, "vectorized.aggregate")
        self._time_method(
            vectorized.VectorizedAgreementSimulator, "run_batch", "vectorized.run_batch"
        )

        self._time_method(phase_engine.PhaseEngine, "run_batch", "phase_engine.run_batch")
        self._time_function(phase_engine.draw_committee_shares, "phase_engine.share_draw")
        self._time_function(phase_engine.finalize_planes, "phase_engine.finalize")

        self._everywhere(
            resolve_backend,
            lambda choice=None: _BackendProxy(resolve_backend(choice), profile),
        )

        def build_kernel(*args: Any, **kwargs: Any) -> _KernelProxy:
            return _KernelProxy(build_adversary_kernel(*args, **kwargs), profile)

        self._everywhere(build_adversary_kernel, build_kernel)

        for sampler in (loss.sample_delivered, loss.sample_delivered_words):
            self._everywhere(sampler, self._loss_sampler(sampler))
        for channel in (
            counting.AdjacencyCounter,
            counting.DenseDeliveredChannel,
            counting.PackedDeliveredChannel,
        ):
            for name in (
                "receive_counts", "receive_counts_words", "signed_counts",
                "delivered_edges", "delivered_edges_words",
            ):
                if name in channel.__dict__:
                    self._time_method(channel, name, "topology.tally")

        self._time_function(executor.spec_keys, "sweeps.spec_keys")
        self._time_method(ResultsStore, "__init__", "sweeps.store_open")
        self._time_method(ResultsStore, "get", "sweeps.store_get")
        self._time_method(ResultsStore, "put", "sweeps.store_put")
        self._time_method(ResultsStore, "flush_index", "sweeps.index_flush")

    def _loss_sampler(self, sampler: Callable[..., Any]) -> Callable[..., Any]:
        profile = self.profile

        def wrapper(adjacency, loss, n, rngs, running, out=None):  # type: ignore[no-untyped-def]
            # One float64 (n, n) uniform plane per running trial.
            profile.tally("topology.loss_draw_bytes", int(np.count_nonzero(running)) * n * n * 8)
            profile.enter("topology.loss_draw")
            try:
                return sampler(adjacency, loss, n, rngs, running, out=out)
            finally:
                profile.exit()

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Instrumentation":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc: object) -> bool:
        self.uninstall()
        return False


def layer_metrics(
    cold: Profile,
    cold_counters: dict[str, int],
    warm: Profile,
    warm_counters: dict[str, int],
    cold_calls: int,
    warm_calls: int,
    protocols: list[str],
    overhead_frac: float,
) -> dict[str, tuple[float, str]]:
    """Fold the traced profiles into ``{metric: (value, unit)}``.

    ``cold`` covers the measured workload calls and ``warm`` the cached
    passes; times and counts are per call of the respective pass.
    """
    per = 1.0 / max(1, cold_calls)
    per_warm = 1.0 / max(1, warm_calls)

    def ms(key: str) -> tuple[float, str]:
        return cold.cum_ms(key) * per, "ms/call"

    def calls(key: str) -> tuple[float, str]:
        return cold.calls(key) * per, "count/call"

    def counter(name: str) -> tuple[float, str]:
        return cold_counters.get(name, 0) * per, "count/call"

    kernels_ms = sum(cold.cum_ms(f"baselines.{p}") for p in protocols)
    rows = cold.tallies.get("phase_engine.rows", 0)
    hits = warm_counters.get("store.cache_hit", 0)
    misses = warm_counters.get("store.cache_miss", 0)
    wall = cold.wall_ms()
    metrics: dict[str, tuple[float, str]] = {
        "engine.select_ms": ms("engine.select"),
        "engine.run_sweep_calls": calls("engine.run_sweep"),
        "engine.self_ms": ((cold.cum_ms("engine.run_sweep") - kernels_ms) * per, "ms/call"),
        "vectorized.rng_setup_ms": ms("vectorized.rng_setup"),
        "vectorized.rng_setup_calls": calls("vectorized.rng_setup"),
        "vectorized.inputs_ms": ms("vectorized.inputs"),
        "vectorized.results_ms": (cold.self_ms("vectorized.run_batch") * per, "ms/call"),
        "vectorized.aggregate_ms": ms("vectorized.aggregate"),
        "phase_engine.run_batch_ms": ms("phase_engine.run_batch"),
        "phase_engine.share_draw_ms": ms("phase_engine.share_draw"),
        "phase_engine.share_draw_calls": calls("phase_engine.share_draw"),
        "phase_engine.finalize_ms": ms("phase_engine.finalize"),
        **{
            f"phase_engine.{stage}_ms": ms(f"phase_engine.{stage}")
            for stage in ("setup", "round1", "pre_coin", "round2", "retally", "compaction")
        },
        "phase_engine.live_row_frac": (
            cold.tallies.get("phase_engine.live_rows", 0) / rows if rows else 0.0,
            "frac",
        ),
        "planes.op_ms": ms("planes.op"),
        "planes.op_calls": calls("planes.op"),
        "planes.pack_count": counter("plane.pack"),
        "planes.unpack_count": counter("plane.unpack"),
        "planes.bools_count": counter("plane.bools"),
        "adversary.hook_ms": ms("adversary.hook"),
        "adversary.hook_calls": calls("adversary.hook"),
        "topology.loss_draw_ms": ms("topology.loss_draw"),
        "topology.loss_draw_calls": calls("topology.loss_draw"),
        "topology.loss_draw_mb": (
            cold.tallies.get("topology.loss_draw_bytes", 0) / 2**20 * per,
            "MiB/call",
        ),
        "topology.tally_ms": ms("topology.tally"),
        "topology.masked_tally_packed": counter("masked_tally.packed"),
        "topology.masked_tally_sgemm": counter("masked_tally.sgemm"),
        **{f"baselines.{p}_ms": ms(f"baselines.{p}") for p in protocols},
        "sweeps.spec_keys_ms": ms("sweeps.spec_keys"),
        "sweeps.store_put_ms": ms("sweeps.store_put"),
        "sweeps.store_put_calls": calls("sweeps.store_put"),
        "sweeps.index_flush_ms": ms("sweeps.index_flush"),
        "sweeps.store_open_ms": (warm.cum_ms("sweeps.store_open") * per_warm, "ms/call"),
        "sweeps.store_get_ms": (warm.cum_ms("sweeps.store_get") * per_warm, "ms/call"),
        "sweeps.cache_hit_frac": (hits / (hits + misses) if hits + misses else 0.0, "frac"),
        "trace.overhead_frac": (overhead_frac, "frac"),
        "trace.wall_ms": (wall * per, "ms/call"),
        "trace.attributed_frac": (
            1.0 - cold.unattributed_ms() / wall if wall else 0.0,
            "frac",
        ),
        "trace.unattributed_ms": (cold.unattributed_ms() * per, "ms/call"),
    }
    return metrics
