"""Build, cache and bind the compiled Philox draws (``_native.c``).

One C source holds Philox4x64-10 once and two entry points over it: the
fused loss-draw kernel, which writes a trial's plane as recipient-major
packed words (:mod:`repro.topology.loss`), and the coin-share bits of cursor
rows (:meth:`repro.simulator.draws.TrialStreams.draw_bits`).  :func:`load`
compiles it with the first C compiler on ``PATH`` (``cc``, ``gcc`` or
``clang``) as ``-O3 -shared -fPIC``, running the compiler from an argument
list, never a shell.  The library goes into one per-user cache,
``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` by default), named by a hash
of the source and the compile command.  It is published through a temporary
file and :func:`os.replace`, so processes that build at the same time (sweep
shards, fresh interpreters) never load a half-written file, and later
processes only load the cached build.

A process holds one handle (:func:`kernel`): built on the first draw that
wants it, then either the loaded :class:`Kernel` or the reason its build
failed.  Every failure — no compiler, a compile error (including a compiler
without ``unsigned __int128``), an unwritable cache, a library that will not
load — raises :class:`BuildError` carrying the reason, and both draws then
run on NumPy.  There is no switch: the draws are native exactly when this
build succeeds, and :func:`status` says which.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = ["BuildError", "Kernel", "cache_dir", "find_compiler", "kernel", "load", "status"]

SOURCE = Path(__file__).with_name("_native.c")

#: Compilers looked up on ``PATH``, in order.
COMPILERS = ("cc", "gcc", "clang")

#: Plain optimisation only: ``-march=native`` measured slower here and would
#: tie a cached build to one CPU model.
FLAGS = ("-O3", "-shared", "-fPIC")

#: Seconds a build may take before it counts as failed.
BUILD_TIMEOUT = 120

#: A stream position in NumPy's Philox state layout: counter word 0, buffer
#: position, the four buffered words.
_Position = ctypes.c_uint64 * 6

#: Counter blocks per Philox stream the kernel can address: it carries only
#: counter word 0.
_COUNTER_SPACE = 1 << 64

#: The dtypes of :meth:`Kernel.cursor_bits`' row-indexed arrays, in order.
_ROWED_DTYPES = (np.uint64, np.int64, np.bool_, np.int64, np.int64, np.int64)

#: The process's one handle: ``None`` until :func:`kernel` first runs, then
#: the loaded :class:`Kernel`, or the reason (a ``str``) its build failed.
_handle: Kernel | str | None = None
_handle_lock = threading.Lock()


class BuildError(RuntimeError):
    """The native draws are unavailable; the message says why."""


class Kernel:
    """The compiled draws, bound through ``ctypes``.

    ``ctypes`` releases the GIL for every call, so loss-draw threads run the
    kernel in parallel.
    """

    def __init__(self, library: ctypes.CDLL, compiler: str) -> None:
        #: The compiler that built the library.
        self.compiler = compiler
        self._library = library  # keeps the library mapped
        self._words = library.repro_loss_words
        self._words.argtypes = [
            ctypes.c_uint64, ctypes.c_uint64, ctypes.POINTER(ctypes.c_uint64), ctypes.c_int,
            ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
        ]
        self._words.restype = ctypes.c_int
        uint64s, int64s = ctypes.POINTER(ctypes.c_uint64), ctypes.POINTER(ctypes.c_int64)
        self._bits = library.repro_cursor_bits
        self._bits.argtypes = [
            ctypes.c_uint64, ctypes.c_int64, uint64s, int64s, ctypes.POINTER(ctypes.c_uint8),
            int64s, int64s, int64s, int64s, ctypes.c_int64, ctypes.POINTER(ctypes.c_int8),
            ctypes.c_int64,
        ]
        self._bits.restype = ctypes.c_int

    def loss_plane(
        self,
        source: tuple[int, int, int] | np.random.BitGenerator,
        n: int,
        threshold: int,
        adjacency: int | None,
        out: int,
        row_bytes: int,
    ) -> bool:
        """Draw one trial's ``(n, n)`` plane from ``source`` into ``out``.

        Args:
            source: A claimed cursor plane, ``(key0, key1, first word)``
                (:meth:`~repro.simulator.draws.TrialStreams.claim_raw`), or a
                Philox bit generator, drawn through a ``state`` read and
                write that leaves it as ``random_raw(n * n)`` would.
            n: Network size.
            threshold: The raw output at and above which an edge is kept.
            adjacency: Address of a C-contiguous ``(n, n)`` boolean topology,
                or ``None`` for the clique.
            out: Address of the trial's recipient-major packed words.
            row_bytes: Row stride of those words.

        Returns:
            ``False``, drawing nothing, for a source the kernel cannot draw:
            not Philox, or a counter that would leave its low word.

        Raises:
            MemoryError: When the kernel cannot allocate its row buffers.
        """
        if isinstance(source, tuple):
            key0, key1, word = source
            counter = (word + 3) // 4  # blocks a sequential walk generated
            position, state = _Position(counter, word + 4 - 4 * counter), None
        elif isinstance(source, np.random.Philox):
            state = source.state
            counter = state["state"]["counter"]
            if counter[1:].any() or int(counter[0]) + n * n // 4 + 2 >= _COUNTER_SPACE:
                return False
            key0, key1 = state["state"]["key"].tolist()
            position = _Position(int(counter[0]), state["buffer_pos"], *state["buffer"].tolist())
        else:
            return False
        refill = state is None  # a cursor carries no buffered block
        if self._words(key0, key1, position, refill, n, threshold, adjacency, out, row_bytes):
            raise MemoryError("the native loss kernel could not allocate its row buffers")
        if state is not None:
            state["state"]["counter"][0] = position[0]
            state["buffer_pos"] = position[1]
            state["buffer"] = np.array(position[2:], dtype=np.uint64)
            source.state = state
        return True

    def cursor_bits(
        self,
        key0: int,
        key1: np.ndarray,
        words: np.ndarray,
        has_half: np.ndarray,
        uinteger: np.ndarray,
        counts: np.ndarray,
        starts: np.ndarray,
        rows: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Draw cursor ``rows``' next ``counts[row]`` fair bits into ``out[starts[row]...]``.

        ``key1``, ``words``, ``has_half`` and ``uinteger`` are the cursor
        arrays of :class:`~repro.simulator.draws.TrialStreams`, indexed by
        row like ``counts`` and ``starts``; the kernel moves each drawn
        row's cursor in place, as ``integers(0, 2, size=count)`` moves its
        generator.

        Every array is passed as its first element viewed through
        ``from_buffer``: no copy, a ``TypeError`` for a read-only or
        non-contiguous array, and the view holds the array through the call
        (an address taken from a temporary would not).  That is several
        times cheaper per array than ``ndpointer`` or ``.ctypes.data``,
        which matters at ~165 draws of a few hundred bits per sweep call.

        Raises:
            ValueError: When an array has the wrong dtype, the row-indexed
                arrays differ in length, ``rows`` is empty, or a row, count
                or start reaches outside the arrays; nothing is drawn.
        """
        rowed = (key1, words, has_half, uinteger, counts, starts)
        if (
            not len(rows) or rows.dtype != np.int64 or out.dtype != np.int8
            or any(a.dtype != dtype or len(a) != len(counts)
                   for a, dtype in zip(rowed, _ROWED_DTYPES))
        ):
            raise ValueError(
                "cursor bits take uint64 keys, int64 words, bool halves, int64 halves, "
                "counts and starts of one length, non-empty int64 rows and int8 out"
            )
        u64, i64 = ctypes.c_uint64.from_buffer, ctypes.c_int64.from_buffer
        if self._bits(
            key0, len(counts), u64(key1), i64(words), ctypes.c_uint8.from_buffer(has_half),
            i64(uinteger), i64(counts), i64(starts), i64(rows), len(rows),
            ctypes.c_int8.from_buffer(out), len(out),
        ):
            raise ValueError("a row, count or start reaches outside the cursor bit arrays")


def find_compiler() -> str | None:
    """The path of the first of :data:`COMPILERS` on ``PATH``, or ``None``."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def cache_dir() -> Path:
    """The per-user build cache: ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "repro"


def kernel() -> Kernel | None:
    """The process's native draws, built on first call; ``None`` when the build failed."""
    global _handle
    if _handle is None:
        with _handle_lock:
            if _handle is None:
                try:
                    _handle = load()
                except BuildError as error:
                    _handle = str(error)
    return None if isinstance(_handle, str) else _handle


def status() -> tuple[str, str]:
    """Which draws run in this process, and why.

    ``("native", compiler)`` when the compiled draws are loaded, else
    ``("numpy", reason the build failed)``.  Builds them on first call.
    """
    loaded = kernel()
    return ("numpy", str(_handle)) if loaded is None else ("native", loaded.compiler)


def load() -> Kernel:
    """The compiled draws, built into the cache first unless a build is already there.

    Raises:
        BuildError: When no compiler is found, the build fails or the
            library does not load.
    """
    compiler = find_compiler()
    if compiler is None:
        raise BuildError(f"no C compiler ({', '.join(COMPILERS)}) on PATH")
    command = [compiler, *FLAGS]
    try:
        source = SOURCE.read_bytes()
    except OSError as error:
        raise BuildError(f"cannot read {SOURCE}: {error}") from None
    key = hashlib.sha256(source + "\0".join(command).encode()).hexdigest()[:16]
    library = cache_dir() / f"native-{key}.so"
    if not library.exists():
        _build(command, library)
    try:
        return Kernel(ctypes.CDLL(str(library)), compiler)
    except (OSError, AttributeError) as error:
        raise BuildError(f"cannot load {library}: {error}") from None


def _build(command: list[str], library: Path) -> None:
    """Compile into a temporary file beside ``library``, then rename it there."""
    try:
        library.parent.mkdir(parents=True, exist_ok=True)
        handle, partial = tempfile.mkstemp(
            prefix=f"{library.stem}-", suffix=".tmp", dir=library.parent
        )
        os.close(handle)
    except OSError as error:
        raise BuildError(f"build cache {library.parent} is not writable: {error}") from None
    try:
        done = subprocess.run(
            [*command, "-o", partial, str(SOURCE)],
            capture_output=True, text=True, timeout=BUILD_TIMEOUT,
        )
        if done.returncode != 0:
            raise BuildError(f"{Path(command[0]).name} failed: {_first_error(done.stderr)}")
        os.replace(partial, library)
    except subprocess.TimeoutExpired:
        raise BuildError(f"{Path(command[0]).name} took over {BUILD_TIMEOUT} s") from None
    except OSError as error:
        raise BuildError(f"cannot build {library}: {error}") from None
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _first_error(stderr: str) -> str:
    """The compiler's first error line (else its first line of output)."""
    lines = [line.strip() for line in stderr.splitlines() if line.strip()]
    errors = [line for line in lines if "error" in line]
    return (errors or lines or ["no diagnostics"])[0][:300]
