"""The sweep-stack benchmark: one workload per run, from one process.

Run from the repository root::

    python3 sweepbench/run.py --workload clique-attack --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs each measured call untraced and then traced, and reports
the per-layer metrics (see ``layers.py``).  Every run first executes the pinned
warm-up call and checks its digest against ``digests.json`` (plus, for
``clique-attack`` and ``lossy``, the same call on the ``packed`` plane
backend), and checks every measured call.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--smoke`` runs every workload at tiny sizes (see ``test_smoke.py``);
``--print-pins`` prints the pinned digests of every workload.  See README.md
for why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for temporary stores and probe output, inside the checkout.
SCRATCH = ROOT / ".sweepbench_tmp"

#: Program switches cleared so no caller environment leaks into a run.
ISOLATED_ENV = ("REPRO_TRACE", "REPRO_PLANE_BACKEND", "REPRO_SWEEP_STORE")
#: Thread-count variables recorded in the fingerprint.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: Fresh-interpreter set-up probes per run (after one discarded probe that
#: fills the bytecode cache); setup_s is their median.
SETUP_PROBES = 9
#: Every timed loop makes at least this many calls, whatever --seconds says.
MIN_CALLS = 3
#: Share of --seconds spent on cached (warm) passes.
WARM_SHARE = 0.15
#: Cached passes are timed in groups of at least this many seconds, so the
#: fastest group of sub-millisecond passes is not a timer artefact.
WARM_SAMPLE_S = 0.02


class Tally:
    """Attempted and failed units of a whole run, with failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, outcome: Any) -> Any:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.errors.extend(outcome.errors)
        return outcome

    def check(self, ok: bool, message: str) -> None:
        """One correctness gate: an attempted unit that fails when not ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def _fs_type(path: Path) -> str | None:
    """Filesystem type of the mount holding ``path`` (Linux mountinfo)."""
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return None
    target = str(path.resolve())
    best, fs = "", None
    for line in lines:
        fields = line.split()
        if " - " not in line or len(fields) < 5:
            continue
        mount = fields[4]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fs = mount, line.split(" - ", 1)[1].split()[0]
    return fs


def _git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without leaving the root."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(isolated: dict[str, str | None], tmp: Path) -> dict[str, Any]:
    import numpy as np

    from repro.simulator.planes import resolve_backend

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "plane_backend": resolve_backend().name,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "store_fs": _fs_type(tmp),
        "git_commit": _git_commit(),
        "cleared_env": {name: value for name, value in isolated.items() if value is not None},
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class SetupProbes:
    """Fresh-interpreter set-up probes; ``setup_s`` is their median.

    One discarded probe first fills the bytecode cache.  The measured probes
    are spread over the timed loop (:meth:`due`), so one burst of machine
    noise cannot land on all of them.
    """

    def __init__(self, workload: str, smoke: bool, tmp: Path, tally: Tally) -> None:
        self.workload = workload
        self.smoke = smoke
        self.tmp = tmp
        self.tally = tally
        self.count = 1 if smoke else SETUP_PROBES
        self.values: list[float] = []
        self.runs = 0
        self._run()

    def _run(self) -> None:
        command = [
            sys.executable, str(HERE / "setup_probe.py"),
            "--workload", self.workload, "--tmp", str(self.tmp / f"setup-{self.runs}"),
        ] + (["--smoke"] if self.smoke else [])
        self.runs += 1
        try:
            probe = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=120
            )
        except subprocess.TimeoutExpired:
            self.tally.check(False, "set-up probe timed out")
            return
        self.tally.check(probe.returncode == 0, f"set-up probe failed:\n{probe.stderr}")
        if probe.returncode == 0 and self.runs > 1:
            self.values.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])

    def due(self, fraction: float) -> None:
        """Run the probes due once ``fraction`` of the timed loop has passed."""
        while self.runs - 1 < min(self.count, 1 + int(fraction * self.count)):
            self._run()

    def median(self) -> float:
        self.due(1.0)
        # Every failed probe already counts in `failed`; 0 keeps the line valid JSON.
        return statistics.median(self.values) if self.values else 0.0


def _timed(fn: Any, frame: Any) -> tuple[float, Any]:
    """Wall time and result of ``fn()``, inside ``frame()`` when given."""
    start = time.perf_counter()
    if frame is None:
        result = fn()
    else:
        with frame():
            result = fn()
    return time.perf_counter() - start, result


def timed_calls(
    workload: Any, seed: int, tally: Tally, seconds: float, probes: SetupProbes,
) -> tuple[float, float, float]:
    """Measured calls for ``seconds`` (at least MIN_CALLS).

    Returns the trials/s of all calls together, the points/s of the fastest
    group of cached passes and the peak RSS after the first call.  Cached
    passes follow each call until they took WARM_SHARE of the time; the
    set-up probes due by then run next.  Interleaving spreads every metric
    over the whole run.

    Neither rate is a median of single calls: on a shared host the speed of
    this code drops by up to 1.6x for stretches of seconds to minutes, and a
    median jumps between the two levels (see README.md).  The fastest group
    of cached passes, which repeat the same work, is the figure the slow
    stretches touch least.  The work of a measured call depends on its seed, so
    the fastest call would be the cheapest seed; the trials/s are the total
    over the run instead.  The peak is read before the first cached pass
    because the number of passes depends on timing, and so would the
    allocator's high-water mark.
    """
    trials, trials_wall, best_points = 0, 0.0, 0.0
    calls = 0
    start = time.perf_counter()
    while calls < MIN_CALLS or time.perf_counter() < start + seconds:
        base_seed = workloads.measured_base(seed, calls)
        wall, outcome = _timed(lambda: workload.call(base_seed), None)
        trials += tally.add(outcome).trials
        trials_wall += wall
        calls += 1
        if calls == 1:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        warm_time = 0.0
        while warm_time < wall * WARM_SHARE / (1.0 - WARM_SHARE):
            points, sample = 0, 0.0
            while sample < WARM_SAMPLE_S:
                pass_wall, outcome = _timed(workload.warm, None)
                points += tally.add(outcome).attempted
                sample += pass_wall
            best_points = max(best_points, points / sample)
            warm_time += sample
        probes.due((time.perf_counter() - start) / seconds)
    return trials / trials_wall, best_points, peak


def warm_passes(workload: Any, tally: Tally, seconds: float, frame: Any) -> int:
    """Traced cached passes for ``seconds`` (at least MIN_CALLS); returns the count."""
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes < MIN_CALLS or time.perf_counter() < deadline:
        tally.add(_timed(workload.warm, frame)[1])
        passes += 1
    return passes


def run_workload(args: argparse.Namespace, tmp: Path, tally: Tally) -> dict[str, tuple[float, str]]:
    """One benchmark run; returns ``{metric: (value, unit)}``."""
    workload = workloads.build(args.workload, smoke=args.smoke)
    if args.trace == 0:
        probes = SetupProbes(args.workload, args.smoke, tmp, tally)
    workload.prepare(tmp)

    # Untimed warm-up: the pinned call, then the same call on the packed
    # backend, which must be bit-identical.
    pinned = tally.add(workload.pinned())
    pins = json.loads((HERE / "digests.json").read_text())
    expected = pins["smoke" if args.smoke else "benchmark"].get(args.workload)
    tally.check(
        pinned.digest == expected,
        f"pinned digest {pinned.digest} != {expected} pinned in digests.json",
    )
    if workload.backend_check:
        packed = tally.add(workload.call(workloads.PINNED_BASE, backend="packed"))
        tally.check(
            packed.digest == pinned.digest,
            "packed-backend digest differs from the numpy-backend digest",
        )

    if args.trace == 0:
        trials, cached, peak = timed_calls(
            workload, args.seed, tally, args.seconds * (1.0 - WARM_SHARE), probes
        )
        tally.check(
            workload.stored_digest() == pinned.digest,
            "results reread from the reopened store differ from the computed ones",
        )
        return {
            "trials_per_s": (trials, "trials/s"),
            "cached_points_per_s": (cached, "points/s"),
            "setup_s": (probes.median(), "s"),
            "peak_rss_mb": (peak, "MiB"),
        }
    return traced_run(args, workload, tally)


def traced_run(
    args: argparse.Namespace, workload: Any, tally: Tally
) -> dict[str, tuple[float, str]]:
    """Each measured call untraced, then traced; returns the per-layer metrics.

    Pairing the two runs of one call keeps machine noise out of
    ``trace.overhead_frac`` and checks that tracing leaves results unchanged.
    """
    import layers

    import repro.engine as engine
    from repro.observability import activate

    cold, warm = layers.Profile(), layers.Profile()
    cold_tracer, warm_tracer = layers.LayerTracer(cold), layers.LayerTracer(warm)
    ratios: list[float] = []
    deadline = time.perf_counter() + args.seconds * (1.0 - WARM_SHARE)
    while len(ratios) < MIN_CALLS or time.perf_counter() < deadline:
        base_seed = workloads.measured_base(args.seed, len(ratios))
        plain_wall, plain = _timed(lambda: workload.call(base_seed), None)
        with layers.Instrumentation(cold), activate(cold_tracer):
            traced_wall, traced = _timed(
                lambda: workload.call(base_seed), lambda: cold_tracer.frame(layers.ROOT)
            )
        tally.add(plain)
        tally.add(traced)
        tally.check(
            plain.digest == traced.digest,
            f"base_seed={base_seed}: digest differs with tracing on",
        )
        ratios.append(traced_wall / plain_wall)
    with layers.Instrumentation(warm), activate(warm_tracer):
        warm_calls = warm_passes(
            workload, tally, args.seconds * WARM_SHARE,
            frame=lambda: warm_tracer.frame(layers.ROOT),
        )
    return layers.layer_metrics(
        cold, cold_tracer.counters, warm, warm_tracer.counters,
        cold_calls=len(ratios), warm_calls=warm_calls,
        protocols=sorted(engine.PROTOCOL_KERNELS),
        overhead_frac=statistics.median(ratios) - 1.0,
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def print_pins(tmp: Path) -> None:
    """Print the pinned-call digest of every workload at both sizes."""
    pins: dict[str, dict[str, str]] = {}
    for label, smoke in (("benchmark", False), ("smoke", True)):
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, smoke=smoke)
            workload.prepare(tmp / f"{label}-{name}")
            pins.setdefault(label, {})[name] = workload.pinned().digest
    print(json.dumps(pins, indent=2, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--print-pins", action="store_true")
    args = parser.parse_args(argv)
    if not args.print_pins and args.workload is None:
        parser.error("--workload is required")

    isolated = {name: os.environ.pop(name, None) for name in ISOLATED_ENV}
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    tally = Tally()
    try:
        if args.print_pins:
            print_pins(tmp)
            return 0
        print("# fingerprint " + json.dumps(fingerprint(isolated, tmp), sort_keys=True))
        metrics = run_workload(args, tmp, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    for error in tally.errors:
        print(f"# FAILED: {error}", file=sys.stderr)
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    for name, (value, unit) in [*metrics.items(), ("failed_frac", (failed_frac, "frac"))]:
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
