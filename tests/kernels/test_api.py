"""The kernel-mode vocabulary shared by every consumer, and auto's choices."""

import pytest

from repro.kernels import KERNEL_MODES, resolve_kernel
from repro.obs.spans import SpanRecorder, use_recorder
from repro.partitions import DEFAULT_PRIMES, build_e_matrix, build_m_matrix, rank_mod_p
from repro.partitions.linalg import M4RI_ROW_THRESHOLD


class TestResolveKernel:
    def test_modes(self):
        assert KERNEL_MODES == ("auto", "reference")

    def test_auto(self):
        assert resolve_kernel("auto") == "auto"

    def test_reference(self):
        assert resolve_kernel("reference") == "reference"

    @pytest.mark.parametrize("bad", ["", "fast", "numpy", "AUTO", None])
    def test_unknown_raises(self, bad):
        with pytest.raises(ValueError):
            resolve_kernel(bad)

    @pytest.mark.parametrize("removed", ["packed", "four-russians", "sparse"])
    def test_removed_modes_raise(self, removed):
        with pytest.raises(ValueError):
            resolve_kernel(removed)


def _engine_run(matrix, p, kernel="auto"):
    """The engine ``rank_mod_p`` actually ran, read off its span."""
    rec = SpanRecorder()
    with use_recorder(rec):
        rank_mod_p(matrix, p, kernel=kernel)
    (root,) = rec.roots
    return root.attrs["engine"]


class TestAutoEngineChoice:
    """What ``auto`` runs on every matrix the ``ranks`` request builds."""

    @pytest.fixture(scope="class")
    def paper_matrices(self):
        ms = [build_m_matrix(n)[1] for n in range(4, 8)]
        es = [build_e_matrix(n)[1] for n in (4, 6, 8)]
        return ms + es

    def test_default_primes_run_the_batched_engine(self, paper_matrices):
        for matrix in paper_matrices:
            for p in DEFAULT_PRIMES:
                assert _engine_run(matrix, p) == "numpy-batched"

    def test_gf2_switches_to_m4ri_at_the_row_threshold(self):
        below = [[1] * 4 for _ in range(M4RI_ROW_THRESHOLD - 1)]
        at = [[1] * 4 for _ in range(M4RI_ROW_THRESHOLD)]
        assert _engine_run(below, 2) == "gf2-packed"
        assert _engine_run(at, 2) == "gf2-m4ri"
        assert rank_mod_p(at, 2) == rank_mod_p(at, 2, kernel="reference") == 1

    def test_reference_mode_runs_python(self):
        _parts, matrix = build_m_matrix(4)
        for p in (2,) + DEFAULT_PRIMES:
            assert _engine_run(matrix, p, kernel="reference") == "python"
