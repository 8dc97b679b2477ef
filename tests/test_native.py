"""How the native draws get built (:mod:`repro.native`), and how a failed
build sends both of them, loss planes and coin bits, back to NumPy.

Each test starts from an empty build cache and no loaded handle.  The draws
are checked through their spans: ``engine.draw.loss`` names the loss
kernel, ``engine.draw.bits`` the path of a bit draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.observability import Tracer, activate
from repro.simulator.draws import VECTOR_MIN_ROWS, TrialStreams, trial_generator
from repro.topology.loss import sample_delivered_words

ROWS = VECTOR_MIN_ROWS + 4


def _draw_kernels() -> tuple[str, str]:
    """The loss kernel and the bit-draw path of one bit draw, then one lossy round.

    The bits are checked against live reference generators.
    """
    streams = TrialStreams(3, 0, ROWS)
    counts = 1 + np.arange(ROWS) % 5
    tracer = Tracer(run_id="native-build")
    with activate(tracer):
        bits = streams.draw_bits(counts)
        sample_delivered_words(None, 0.05, 9, streams, np.ones(ROWS, dtype=bool))
    expected = [trial_generator(3, k).integers(0, 2, size=c) for k, c in enumerate(counts)]
    assert np.array_equal(bits, np.concatenate(expected))
    (loss,) = [e["meta"]["kernel"] for e in tracer.events() if e["name"] == "engine.draw.loss"]
    (path,) = [e["meta"]["path"] for e in tracer.events() if e["name"] == "engine.draw.bits"]
    return loss, path


class TestNativeBuild:
    """How the native draws get built, and how a failed build falls back."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, tmp_path, monkeypatch):
        if native.find_compiler() is None:
            pytest.skip("no C compiler on PATH to build the native draws")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(native, "_handle", None)
        return tmp_path / "cache" / "repro"

    def test_the_build_is_cached_by_source_and_command(self, empty_cache, monkeypatch):
        assert native.status() == ("native", native.find_compiler())
        assert _draw_kernels() == ("native", "native")
        (library,) = empty_cache.iterdir()

        def refuse(*args, **kwargs):
            raise OSError("the test runs no compiler")

        # A fresh handle loads the cached library without compiling again.
        monkeypatch.setattr(native.subprocess, "run", refuse)
        monkeypatch.setattr(native, "_handle", None)
        assert native.status()[0] == "native"
        # Other compile flags are another build, which would need the compiler.
        monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-DOTHER"))
        monkeypatch.setattr(native, "_handle", None)
        kind, reason = native.status()
        assert kind == "numpy" and "the test runs no compiler" in reason
        assert list(empty_cache.iterdir()) == [library]

    def test_a_compile_error_sends_both_draws_to_numpy_with_the_reason(self, tmp_path,
                                                                       monkeypatch):
        broken = tmp_path / "_native.c"
        broken.write_text('#error "this kernel does not build"\n')
        monkeypatch.setattr(native, "SOURCE", broken)
        kind, reason = native.status()
        assert kind == "numpy" and "this kernel does not build" in reason
        assert _draw_kernels() == ("numpy", "vector")

    def test_an_unwritable_cache_sends_both_draws_to_numpy_with_the_reason(self, tmp_path,
                                                                           monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        kind, reason = native.status()
        assert kind == "numpy" and "not writable" in reason
        assert _draw_kernels() == ("numpy", "vector")


class TestCursorBitsArguments:
    """The binding checks what the C loop cannot: dtypes, lengths and bounds."""

    @pytest.mark.parametrize("native_kernel", ["native"], indirect=True)
    def test_wrong_dtypes_and_stray_rows_draw_nothing(self, native_kernel):
        kernel = native.kernel()
        streams = TrialStreams(3, 0, 4)
        cursor = (streams._trial, streams._words, streams._has_half, streams._uinteger)
        before = [array.copy() for array in cursor]
        counts = np.full(4, 3, dtype=np.int64)
        starts = np.cumsum(counts) - counts
        out = np.zeros(12, dtype=np.int8)
        bad = [
            (counts.astype(np.int32), starts, np.arange(4), out),  # a narrower dtype
            (counts, starts, np.arange(4), out[:11]),  # the last row overruns out
            (counts, starts, np.array([0, 4]), out),  # a row past the arrays
            (counts, starts, np.zeros(0, dtype=np.int64), out),  # no rows
        ]
        for args in bad:
            with pytest.raises(ValueError):
                kernel.cursor_bits(3, *cursor, *args)
        assert all(np.array_equal(a, b) for a, b in zip(cursor, before)) and not out.any()
        kernel.cursor_bits(3, *cursor, counts, starts, np.arange(4), out)
        expected = [trial_generator(3, k).integers(0, 2, size=3) for k in range(4)]
        assert np.array_equal(out, np.concatenate(expected))
