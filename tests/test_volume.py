import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmbpipe import volume
from cmbpipe.errors import ConfigError, DegenerateNormalizationWarning, RejectedInputError
from cmbpipe.volume import (
    LabelMask,
    ProbabilityVolume,
    Volume3D,
    WorldPoint,
    extrema,
    normalize_intensity,
    plane_blocks,
    run_blocks,
    thread_count,
    threads,
    world_to_voxel,
)


class TestVolume3D:
    def test_rejects_nan(self):
        arr = np.zeros((4, 4, 4))
        arr[1, 2, 3] = np.nan
        with pytest.raises(RejectedInputError):
            Volume3D(arr)

    def test_rejects_bad_spacing(self):
        with pytest.raises(RejectedInputError):
            Volume3D(np.zeros((4, 4, 4)), spacing=(1.0, 0.0, 1.0))

    def test_immutable(self, small_volume):
        with pytest.raises(ValueError):
            small_volume.intensities[0, 0, 0] = 1.0

    @pytest.mark.parametrize(
        "grid, name, dtype",
        [(Volume3D, "intensities", np.float64), (LabelMask, "labels", np.uint8), (ProbabilityVolume, "values", np.float32)],
    )
    def test_stores_a_read_only_view_of_the_callers_array(self, grid, name, dtype):
        a = np.zeros((2, 2, 2), dtype=dtype)
        stored = getattr(grid(a), name)
        assert a.flags.writeable and not stored.flags.writeable
        assert np.shares_memory(a, stored)


class TestNormalize:
    def test_affine_map_exact(self):
        vals = np.arange(101.0)[:, None, None] * np.ones((1, 3, 3))
        out = normalize_intensity(Volume3D(vals), 0.0, 100.0)
        assert np.allclose(out.intensities[:, 0, 0], np.arange(101) / 100.0, atol=1e-15)

    def test_constant_volume_degenerate(self):
        v = Volume3D(np.full((6, 6, 6), 3.0))
        with pytest.warns(DegenerateNormalizationWarning):
            out = normalize_intensity(v, 0.0, 100.0)
        assert np.all(out.intensities == 0.0)

    def test_full_range_attained(self, rng):
        v = Volume3D(rng.normal(0, 10, (20, 20, 20)))
        out = normalize_intensity(v, 1.0, 99.0)
        assert out.intensities.min() == 0.0
        assert out.intensities.max() == 1.0

    def test_monotone(self, rng):
        v = Volume3D(rng.normal(0, 10, (12, 12, 12)))
        out = normalize_intensity(v, 5.0, 95.0)
        flat_in = v.intensities.ravel()
        flat_out = out.intensities.ravel()
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order]) >= 0)

    def test_bad_percentiles(self, small_volume):
        with pytest.raises(ConfigError):
            normalize_intensity(small_volume, 50.0, 50.0)
        with pytest.raises(ConfigError):
            normalize_intensity(small_volume, -1.0, 99.0)


class TestCoordinates:
    def test_origin_maps_to_zero(self, small_volume):
        c, inside = world_to_voxel(small_volume, WorldPoint(*small_volume.origin))
        assert np.allclose(c, 0.0) and inside

    def test_identity_scale(self):
        v = Volume3D(np.zeros((40, 40, 40)), (1.0,) * 3, (0.0, 0.0, 0.0))
        c, inside = world_to_voxel(v, WorldPoint(10.0, 20.0, 30.0))
        assert np.allclose(c, (10.0, 20.0, 30.0)) and inside

    def test_round_trip_1000_points(self, small_volume, rng):
        for _ in range(1000):
            p = WorldPoint(*rng.uniform(-100, 100, 3))
            c, _ = world_to_voxel(small_volume, p)
            back = np.asarray(small_volume.origin) + c * np.asarray(small_volume.spacing)
            assert np.abs(np.asarray(back) - np.asarray(p)).max() < 1e-9

    def test_outside_flag(self, small_volume):
        _, inside = world_to_voxel(small_volume, WorldPoint(1e4, 0.0, 0.0))
        assert not inside


class TestBlockPool:
    def test_each_block_runs_once_under_contention(self):
        """More threads than CPUs and a short switch interval: no block is taken twice or lost."""
        seen = []

        def pool_of_8():
            with threads(8):
                run_blocks(seen.append, range(3000))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = threading.Thread(target=pool_of_8)
            pool.start()
            pool.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not pool.is_alive()
        assert sorted(seen) == list(range(3000))

    def test_error_of_a_block_is_raised(self):
        def fail_on_seven(block):
            if block == 7:
                raise ValueError("block 7")

        with threads(3), pytest.raises(ValueError, match="block 7"):
            run_blocks(fail_on_seven, range(20))

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_block_is_taken_after_an_error(self, n):
        """A failing first block of 50 stops the pool: each thread makes one call at most."""
        calls = []
        raised = []

        def fail_first(block):
            calls.append(block)
            if block == 0:
                raise ValueError("block 0")
            time.sleep(0.2)  # the thread that took block 0 has raised before this block ends

        def pool():
            with threads(n):
                try:
                    run_blocks(fail_first, range(50))
                except ValueError as exc:
                    raised.append(exc)

        worker = threading.Thread(target=pool)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert [str(exc) for exc in raised] == ["block 0"]
        assert 0 in calls and len(calls) <= n

    def test_pool_size_comes_from_the_setting(self):
        seen = set()
        barrier = threading.Barrier(3, timeout=10)

        def meet(block):  # three blocks can only pass the barrier together, on three threads
            seen.add(threading.get_ident())
            barrier.wait()

        with threads(3):
            run_blocks(meet, range(3))
        assert len(seen) == 3

    def test_setting_is_restored_on_exit_and_on_error(self):
        default = thread_count()
        with threads(5):
            assert thread_count() == 5
            with pytest.raises(RuntimeError), threads(2):
                assert thread_count() == 2
                raise RuntimeError
            assert thread_count() == 5
            with threads(None):
                assert thread_count() == default
        assert thread_count() == default

    def test_setting_belongs_to_the_thread_that_enters_it(self):
        """Two threads inside their own settings at once each see theirs, and each gets its own back."""
        both_inside = threading.Barrier(2, timeout=10)
        seen = {}

        def hold(n):
            outer = thread_count()
            with threads(n):
                both_inside.wait()
                seen[n] = thread_count()
                both_inside.wait()
            seen[n, "after"] = thread_count() == outer

        workers = [threading.Thread(target=hold, args=(n,)) for n in (3, 5)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
        assert seen == {3: 3, 5: 5, (3, "after"): True, (5, "after"): True}

    @pytest.mark.parametrize("n", [0, -2])
    def test_setting_below_one_rejected(self, n):
        default = thread_count()
        with pytest.raises(ConfigError, match="thread count"), threads(n):
            pass
        assert thread_count() == default

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_plane_blocks_cover_an_axis(self, monkeypatch, axis):
        shape = (7, 11, 13)
        monkeypatch.setattr("cmbpipe.volume.POOL_BLOCK_VOXELS", 3 * 7 * 11 * 13 // shape[axis])
        blocks = plane_blocks(shape, axis)
        assert all(b[:-1] == (slice(None),) * axis for b in blocks)
        starts = range(0, shape[axis], 3)
        assert [(b[-1].start, b[-1].stop) for b in blocks] == [(s, min(s + 3, shape[axis])) for s in starts]


@pytest.fixture
def small_steps(monkeypatch):
    """Steps of 64 bytes, and a pool for any array, so a small grid spans many steps and every thread."""
    monkeypatch.setattr("cmbpipe.volume.EXTREMA_STEP_BYTES", 64)
    monkeypatch.setattr("cmbpipe.volume.EXTREMA_POOL_BYTES", 0)


def values(dtype, shape, seed=3):
    rng = np.random.default_rng(seed)
    if np.dtype(dtype).kind == "u":
        return rng.integers(0, 256, shape).astype(dtype)
    return rng.normal(0.0, 100.0, shape).astype(dtype)


class TestExtrema:
    # 105 and 315 values: no step of 8, 16 or 64 values divides either
    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 5, 3), (9, 7, 5)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
    def test_equals_min_and_max(self, small_steps, dtype, shape):
        arr = values(dtype, shape)
        for n in (1, 2, 3):
            with threads(n):
                lo, hi = extrema(arr)
            assert (lo, hi) == (arr.min(), arr.max())
            assert lo.dtype == hi.dtype == arr.dtype

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
    def test_equals_min_and_max_at_the_default_step_and_pool(self, dtype):
        arr = values(dtype, (130, 128, 128))  # each ends in a short step; the float64 one is pooled
        for n in (1, 2, 3):
            with threads(n):
                assert extrema(arr) == (arr.min(), arr.max())

    def test_nan_anywhere_gives_nan_for_both(self, small_steps):
        arr = values(np.float64, (9, 7, 5))
        for at in (0, arr.size // 2, arr.size - 1):
            bad = arr.copy()
            bad.flat[at] = np.nan
            for n in (1, 2, 3):
                with threads(n):
                    assert all(np.isnan(extrema(bad)))

    def test_non_contiguous_and_empty(self, small_steps):
        arr = values(np.float32, (9, 7, 5)).transpose(2, 0, 1)[::2]
        assert extrema(arr) == (arr.min(), arr.max())
        with pytest.raises(ValueError):
            extrema(np.empty((0, 4, 4)))


def second_run_start(arr: np.ndarray) -> int:
    """The first flat index of the second thread's run of steps, under ``threads(2)``."""
    step = volume.EXTREMA_STEP_BYTES // arr.itemsize
    return (-(-arr.size // step) // 2) * step


# (grid type, dtype, bad value, message) for every value a grid check rejects
BAD_GRID_VALUES = [
    *[(Volume3D, np.float64, bad, "intensities contain NaN or Inf") for bad in (np.nan, np.inf, -np.inf)],
    *[(ProbabilityVolume, np.float32, bad, r"probabilities outside \[0, 1\]") for bad in (np.nan, np.inf, -np.inf)],
    (ProbabilityVolume, np.float32, 1.0000001, r"probabilities outside \[0, 1\]"),
    (LabelMask, np.uint8, 2, "labels must be binary"),
]


@pytest.mark.parametrize("where", ["last short step", "second thread's run"])
@pytest.mark.parametrize("grid, dtype, bad, message", BAD_GRID_VALUES)
def test_grid_check_finds_one_bad_value(small_steps, grid, dtype, bad, message, where):
    arr = np.zeros((9, 7, 5), dtype=dtype)
    arr.flat[arr.size - 1 if where == "last short step" else second_run_start(arr)] = bad
    with threads(2), pytest.raises(RejectedInputError, match=message):
        grid(arr)
    arr.flat[:] = 0
    with threads(2):
        grid(arr)  # the same grid without its one bad value passes


@settings(deadline=None, max_examples=25)
@given(
    lo=st.floats(0.0, 40.0),
    width=st.floats(10.0, 60.0),
)
def test_normalize_stays_in_unit_range(lo, width):
    arr = np.random.default_rng(0).normal(50, 20, (10, 10, 10))
    out = normalize_intensity(Volume3D(arr), lo, lo + width)
    assert out.intensities.min() >= 0.0
    assert out.intensities.max() <= 1.0
