import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_plane_view

from cmbpipe import volume
from cmbpipe.errors import ConfigError, GeometryMismatchError, RejectedInputError
from cmbpipe.phantom import CMBSpec, PhantomSpec, generate_phantom
from cmbpipe.segmenter import ExternalSegmenter, OracleSegmenter, ReferenceConfig, ReferenceSegmenter
from cmbpipe.triplanar import (
    VIEW_AXIS,
    VIEWS,
    SliceAdapter,
    ThickSlice,
    binarize_fused,
    fuse_views,
    predict,
    segment_view,
    segment_volume,
)
from cmbpipe.volume import LabelMask, ProbabilityVolume, Volume3D, WorldPoint, plane_blocks


@pytest.fixture
def cube(rng):
    return Volume3D(rng.uniform(0, 1, (32, 32, 32)))


class _Recorder:
    """Per-slice model that records each slice it scores and the thread it ran on."""

    def __init__(self):
        self.calls = []

    def segment(self, thick_slice):
        self.calls.append((thick_slice.view, thick_slice.index, threading.get_ident()))
        return np.zeros(thick_slice.central.shape, dtype=np.float32)


class TestExtract:
    def test_counts(self, cube):
        model = _Recorder()
        for view in VIEWS:
            segment_view(cube, view, SliceAdapter(model))
        assert [(view, k) for view, k, _ in model.calls] == [(view, k) for view in VIEWS for k in range(32)]
        assert len(model.calls) == 96  # 3 * n, equals 768 for a 256-cube

    def test_edge_replication(self, cube):
        first = ThickSlice("axial", 0, cube.intensities).channels
        assert np.array_equal(first[0], first[1])
        assert np.array_equal(first[2], cube.intensities[:, :, 1])
        last = ThickSlice("axial", 31, cube.intensities).channels
        assert np.array_equal(last[1], last[2])

    def test_central_channel_exact(self, cube):
        for view, axis in (("axial", 2), ("sagittal", 0), ("coronal", 1)):
            s = ThickSlice(view, 7, cube.intensities)
            assert np.array_equal(s.channels[1], np.take(cube.intensities, 7, axis=axis))
            assert np.array_equal(s.central, s.channels[1])

    def test_non_cubic_anisotropic_volume_is_cut_on_its_own_grid(self, rng):
        """A thick-slice grid is not resampled: each view gets one slice per plane of its own axis."""
        v = Volume3D(rng.uniform(0, 1, (16, 12, 8)), (0.8, 0.9, 2.5), (-3.0, 4.0, 10.0))
        model = _Recorder()
        for view in VIEWS:
            p = segment_view(v, view, SliceAdapter(model))
            assert (p.dims, p.spacing, p.origin) == (v.dims, v.spacing, v.origin)
        assert [(view, k) for view, k, _ in model.calls] == [
            (view, k) for view in VIEWS for k in range(v.dims[VIEW_AXIS[view]])
        ]

    def test_unknown_view_rejected(self, cube):
        model = _Recorder()
        with pytest.raises(ConfigError):
            SliceAdapter(model).segment(cube, "oblique")
        assert model.calls == []
        with pytest.raises(ConfigError):
            ReferenceSegmenter().segment(cube, "oblique")


class TestFuse:
    def test_product(self):
        mk = lambda x: ProbabilityVolume(np.full((4, 4, 4), x, dtype=np.float32))
        fused = fuse_views(mk(0.9), mk(0.8), mk(0.7))
        assert fused.values[0, 0, 0] == pytest.approx(0.504, abs=1e-6)

    def test_zero_vetoes(self, rng):
        a = ProbabilityVolume(rng.uniform(0, 1, (6, 6, 6)).astype(np.float32))
        b = ProbabilityVolume(rng.uniform(0, 1, (6, 6, 6)).astype(np.float32))
        z = ProbabilityVolume(np.zeros((6, 6, 6), dtype=np.float32))
        assert np.all(fuse_views(a, b, z).values == 0.0)

    def test_all_ones_identity(self):
        ones = ProbabilityVolume(np.ones((4, 4, 4), dtype=np.float32))
        assert np.all(fuse_views(ones, ones, ones).values == 1.0)

    def test_geometry_mismatch(self, rng):
        a = ProbabilityVolume(rng.uniform(0, 1, (6, 6, 6)).astype(np.float32))
        b = ProbabilityVolume(rng.uniform(0, 1, (8, 8, 8)).astype(np.float32))
        with pytest.raises(GeometryMismatchError):
            fuse_views(a, a, b)

    def test_symmetric_and_bounded_by_min(self, rng):
        vals = [rng.uniform(0, 1, (8, 8, 8)).astype(np.float32) for _ in range(3)]
        pvs = [ProbabilityVolume(v) for v in vals]
        f0 = fuse_views(pvs[0], pvs[1], pvs[2]).values
        f1 = fuse_views(pvs[2], pvs[0], pvs[1]).values
        f2 = fuse_views(pvs[1], pvs[2], pvs[0]).values
        assert np.array_equal(f0, f1) and np.array_equal(f0, f2)
        assert np.all(f0 <= np.minimum(np.minimum(vals[0], vals[1]), vals[2]))


def near_tau_probabilities(rng, shape):
    """Float32 views drawn from zeros, ones, 0.5 and its neighbours, so products land on and beside 0.125."""
    half = np.float32(0.5)
    pool = np.array(
        [0.0, 1.0, half, np.nextafter(half, np.float32(0)), np.nextafter(half, np.float32(1)), 0.37, 0.93],
        dtype=np.float32,
    )
    return rng.choice(pool, shape)


class TestBlockedFusion:
    SHAPE = (37, 11, 5)  # 37 planes: no block size used below divides it

    @pytest.mark.parametrize("block_voxels", [1, 4 * 11 * 5, None])
    def test_equals_whole_volume_float64_product(self, rng, monkeypatch, block_voxels):
        if block_voxels is not None:
            monkeypatch.setattr(volume, "POOL_BLOCK_VOXELS", block_voxels)
            assert len(plane_blocks(self.SHAPE, 0)) > 1
        a, b, c = (near_tau_probabilities(rng, self.SHAPE) for _ in range(3))
        want = (a.astype(np.float64) * b * c).astype(np.float32)
        for jobs in (1, 2):
            with volume.threads(jobs):
                got = fuse_views(ProbabilityVolume(a), ProbabilityVolume(b), ProbabilityVolume(c)).values
            assert got.dtype == np.float32
            assert np.array_equal(got, want)
        assert {0.0, 1.0, 0.125} <= set(np.unique(want).tolist())
        assert np.any((want > 0.12) & (want < 0.125)) and np.any((want > 0.125) & (want < 0.13))

        mask = binarize_fused(ProbabilityVolume(got), 0.125).labels
        assert mask.dtype == bool
        assert np.array_equal(mask, got > 0.125)


class TestBinarize:
    def test_strict_inequality_at_boundary(self):
        p = ProbabilityVolume(np.full((2, 2, 2), 0.125, dtype=np.float32))
        assert binarize_fused(p, 0.125).labels.sum() == 0

    def test_above_threshold(self):
        p = ProbabilityVolume(np.full((2, 2, 2), 0.6**3, dtype=np.float32))
        assert binarize_fused(p, 0.125).labels.sum() == 8

    def test_empty(self):
        p = ProbabilityVolume(np.zeros((4, 4, 4), dtype=np.float32))
        assert binarize_fused(p, 0.125).labels.sum() == 0

    def test_tau_validated(self):
        p = ProbabilityVolume(np.zeros((2, 2, 2), dtype=np.float32))
        for tau in (0.0, 1.0, -1.0, 2.0):
            with pytest.raises(ConfigError):
                binarize_fused(p, tau)


class _HalfSegmenter:
    def segment(self, thick_slice):
        return np.full(thick_slice.central.shape, 0.5, dtype=np.float32)


class _CentralSegmenter:
    """Per-slice identity: returns the central channel, so the view must reassemble the volume."""

    def segment(self, thick_slice):
        return thick_slice.channels[1]


class _ShapeOf:
    def __init__(self, shape):
        self.shape = shape

    def segment(self, v, view):
        return np.zeros(self.shape, dtype=np.float32)


class TestSegmentDriver:
    def test_jobs_do_not_change_output(self, cube, monkeypatch):
        monkeypatch.setattr(volume, "POOL_BLOCK_VOXELS", 5 * 32 * 32)  # 7 blocks, the last one short
        for seg in (SliceAdapter(_HalfSegmenter()), ReferenceSegmenter(ReferenceConfig())):
            for view in VIEWS:
                with volume.threads(1):
                    serial = segment_view(cube, view, seg)
                for jobs in (None, 2, 8):
                    with volume.threads(jobs):
                        assert np.array_equal(serial.values, segment_view(cube, view, seg).values)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_slice_adapter_assembles_the_same_volume(self, cube, jobs):
        with volume.threads(jobs):
            for view in VIEWS:
                half = segment_view(cube, view, SliceAdapter(_HalfSegmenter()))
                want = per_plane_view(lambda plane, k: np.full(plane.shape, 0.5), cube.intensities, view)
                assert np.array_equal(half.values, want)
                central = segment_view(cube, view, SliceAdapter(_CentralSegmenter()))
                assert np.array_equal(central.values, cube.intensities.astype(np.float32))

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_slice_adapter_stays_on_the_calling_thread(self, cube, jobs):
        """A model need not be thread-safe: every plane runs on the calling thread, whatever the setting."""
        model = _Recorder()
        with volume.threads(jobs):
            outer = volume.thread_count()
            for view in VIEWS:
                segment_view(cube, view, SliceAdapter(model))
            assert volume.thread_count() == outer  # the adapter's one thread ends with its call
        assert {ident for _, _, ident in model.calls} == {threading.get_ident()}

    def test_slice_adapter_rejects_wrong_plane_shape(self, cube):
        class Short:
            def segment(self, thick_slice):
                return np.zeros((32, 31))

        with pytest.raises(RejectedInputError, match="plane 0"):
            segment_view(cube, "axial", SliceAdapter(Short()))

    def test_wrong_view_shape_rejected(self, cube):
        with pytest.raises(RejectedInputError, match="axial probabilities have shape"):
            segment_view(cube, "axial", _ShapeOf((32, 32, 31)))

    def test_unknown_view_rejected(self, cube):
        with pytest.raises(ConfigError):
            segment_view(cube, "oblique", _ShapeOf(cube.dims))


@settings(deadline=None, max_examples=50)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_fusion_algebra_pointwise(a, b, c):
    mk = lambda x: ProbabilityVolume(np.full((1, 1, 1), x, dtype=np.float32))
    fused = fuse_views(mk(a), mk(b), mk(c)).values[0, 0, 0]
    eps = np.float32(max(a, b, c)) * 1e-6
    assert fused <= min(np.float32(a), np.float32(b), np.float32(c)) + eps
    assert fused == fuse_views(mk(c), mk(a), mk(b)).values[0, 0, 0]


def scan_and_truth(grid: str) -> tuple[Volume3D, LabelMask]:
    """A phantom with two CMBs on a 24^3 cube, or cut to a (24, 20, 12) thick-slice grid: every other axial plane."""
    cmbs = (CMBSpec(WorldPoint(8.0, 12.0, 8.0), 8.0, 0.8), CMBSpec(WorldPoint(16.0, 12.0, 16.0), 6.0, 0.8))
    vol, gt, _ = generate_phantom(PhantomSpec(dims=(24, 24, 24), cmbs=cmbs, seed=3))
    if grid == "cube":
        return vol, gt
    thick, spacing = np.s_[:, 2:22, ::2], (0.7, 0.9, 2.0)
    return Volume3D(vol.intensities[thick].copy(), spacing), LabelMask(gt.labels[thick].copy(), spacing)


def scan_and_segmenter(kind: str, grid: str):
    vol, gt = scan_and_truth(grid)
    if kind == "reference":
        return vol, ReferenceSegmenter()
    if kind == "external":
        rng = np.random.default_rng(8)
        maps = {view: rng.uniform(0.3, 0.7, vol.dims).astype(np.float32) for view in VIEWS}
        return vol, ExternalSegmenter({view: ProbabilityVolume(p, vol.spacing) for view, p in maps.items()})
    return vol, OracleSegmenter(gt, {"oracle": 0.0, "oracle-0.2": 0.2}[kind], seed=4)


class TestPredict:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("grid", ["cube", "thick"])
    @pytest.mark.parametrize("kind", ["oracle", "oracle-0.2", "reference", "external"])
    def test_equals_the_hand_chain(self, kind, grid, jobs):
        """``predict`` at its default tau is segment -> fuse -> binarize at 0.125, bit for bit."""
        vol, seg = scan_and_segmenter(kind, grid)
        with volume.threads(jobs):
            fused, mask = predict(vol, seg)
            views = segment_volume(vol, seg)
            want = fuse_views(views["axial"], views["sagittal"], views["coronal"])
            want_mask = binarize_fused(want, 0.125)
        assert (fused.values.dtype, mask.labels.dtype) == (np.float32, bool)
        assert fused.values.tobytes() == want.values.tobytes()
        assert mask.labels.tobytes() == want_mask.labels.tobytes()
        assert {(g.dims, g.spacing, g.origin) for g in (fused, mask)} == {(vol.dims, vol.spacing, vol.origin)}
        assert 0 < mask.labels.sum() < mask.labels.size

    @pytest.mark.parametrize("grid", ["cube", "thick"])
    @pytest.mark.parametrize("a, b", [(1 / 250, 0.1), (12.5, 300.0), (0.5, -40.0)])
    def test_reference_mask_is_the_same_under_a_positive_affine_map(self, grid, a, b):
        """The reference scores in noise units, so ``a * v + b`` (a > 0), raw scanner ranges too, keeps the mask."""
        vol, seg = scan_and_segmenter("reference", grid)
        _, want = predict(vol, seg)
        _, got = predict(vol.with_array(a * vol.intensities + b), seg)
        assert np.array_equal(got.labels, want.labels)
        assert want.labels.any()

    @pytest.mark.parametrize("tau", [0.0, 1.0, -1.0, 2.0, float("nan")])
    def test_tau_outside_the_unit_interval_is_rejected_before_any_view(self, cube, tau):
        model = _Recorder()
        with pytest.raises(ConfigError, match="tau must lie in"):
            predict(cube, SliceAdapter(model), tau)
        assert model.calls == []
