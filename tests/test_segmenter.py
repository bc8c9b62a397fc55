import numpy as np
import pytest

from cmbpipe.errors import ConfigError, GeometryMismatchError, RejectedInputError
from cmbpipe.phantom import generate_phantom, random_phantom_spec
from cmbpipe.scanio import read_probability, write_probability
from cmbpipe.segmenter import ExternalSegmenter, OracleSegmenter, ReferenceConfig, ReferenceSegmenter
from cmbpipe.triplanar import VIEWS, ThickSlice, binarize_fused, fuse_views, segment_volume
from cmbpipe.volume import LabelMask, ProbabilityVolume, Volume3D


def slice_of(arr, view="axial", index=None):
    arr = np.ascontiguousarray(arr)
    if index is None:
        index = arr.shape[2] // 2
    return ThickSlice(view, index, arr)


class TestOracle:
    def test_replays_ground_truth_plane(self, rng):
        labels = (rng.uniform(0, 1, (16, 16, 16)) > 0.8).astype(np.uint8)
        gt = LabelMask(labels)
        vol = rng.uniform(0, 1, (16, 16, 16))
        seg = OracleSegmenter(gt)
        for view, axis in (("axial", 2), ("sagittal", 0), ("coronal", 1)):
            plane = seg.segment(slice_of(vol, view, 7))
            assert np.array_equal(plane, np.take(labels, 7, axis=axis).astype(np.float32))

    def test_empty_gt_all_zero(self, rng):
        seg = OracleSegmenter(LabelMask(np.zeros((8, 8, 8), dtype=np.uint8)))
        assert seg.segment(slice_of(rng.uniform(0, 1, (8, 8, 8)))).sum() == 0

    def test_misaligned_gt_rejected(self, rng):
        seg = OracleSegmenter(LabelMask(np.zeros((9, 9, 9), dtype=np.uint8)))
        with pytest.raises(GeometryMismatchError):
            seg.segment(slice_of(rng.uniform(0, 1, (8, 8, 8))))

    def test_corruption_rate_validated(self, rng):
        with pytest.raises(ConfigError):
            OracleSegmenter(LabelMask(np.zeros((4, 4, 4), dtype=np.uint8)), corruption_rate=1.0)

    def test_corruption_deterministic(self, rng):
        gt = LabelMask((rng.uniform(0, 1, (16, 16, 16)) > 0.8).astype(np.uint8))
        vol = rng.uniform(0, 1, (16, 16, 16))
        a = OracleSegmenter(gt, 0.3, seed=5).segment(slice_of(vol))
        b = OracleSegmenter(gt, 0.3, seed=5).segment(slice_of(vol))
        c = OracleSegmenter(gt, 0.3, seed=6).segment(slice_of(vol))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_corrupted_view_vetoed_by_fusion(self, rng):
        """Corruption on one view cannot create detections where the others say 0."""
        gt = LabelMask(np.zeros((24, 24, 24), dtype=np.uint8))
        vol = Volume3D(rng.uniform(0, 1, (24, 24, 24)))
        clean = OracleSegmenter(gt)
        noisy = OracleSegmenter(gt, corruption_rate=0.4, seed=1)
        probs = segment_volume(vol, {"axial": noisy, "sagittal": clean, "coronal": clean})
        fused = fuse_views(probs["axial"], probs["sagittal"], probs["coronal"])
        assert fused.values.max() == 0.0


class TestReference:
    def test_constant_plane_uniform_below_fusion_threshold(self):
        cfg = ReferenceConfig()
        seg = ReferenceSegmenter(cfg)
        plane = seg.segment(slice_of(np.full((24, 24, 24), 0.5)))
        vals = np.unique(plane)
        assert len(vals) == 1
        expected = 1.0 / (1.0 + np.exp(cfg.logistic_gain * cfg.score_offset))
        assert vals[0] == pytest.approx(expected, rel=1e-12)
        assert vals[0] ** 3 <= 0.125

    def test_dark_disc_scores_high_bright_disc_low(self, rng):
        n = 64
        yy, xx = np.mgrid[0:n, 0:n]
        r = np.hypot(yy - n / 2, xx - n / 2)
        disc = 0.6 - 0.25 * np.exp(-(r**2) / (2 * 1.0**2))  # 4 mm disc
        noise = rng.normal(0, 0.01, (n, n))  # CNR 25
        plane = np.clip(disc + noise, 0, 1)
        vol = np.repeat(plane[:, :, None], 3, axis=2)
        seg = ReferenceSegmenter(ReferenceConfig())
        p_dark = seg.segment(ThickSlice("axial", 1, np.ascontiguousarray(vol)))
        assert p_dark[r < 2.0].max() >= 0.9
        inverted = np.clip(1.0 - plane, 0, 1)
        vol_inv = np.repeat(inverted[:, :, None], 3, axis=2)
        p_bright = seg.segment(ThickSlice("axial", 1, np.ascontiguousarray(vol_inv)))
        assert p_bright[r < 2.0].max() <= 0.1

    def test_rejects_out_of_range_intensities(self, rng):
        seg = ReferenceSegmenter(ReferenceConfig())
        with pytest.raises(RejectedInputError):
            seg.segment(slice_of(rng.normal(100, 10, (16, 16, 16))))

    def test_deterministic(self, rng):
        vol = rng.uniform(0, 1, (24, 24, 24))
        seg = ReferenceSegmenter(ReferenceConfig())
        assert np.array_equal(seg.segment(slice_of(vol)), seg.segment(slice_of(vol)))

    def test_scale_order_validated(self):
        with pytest.raises(ConfigError):
            ReferenceConfig(scale_min_mm=4.0, scale_max_mm=1.0)


class TestExternal:
    def test_replays_stored_planes(self, rng):
        stored = ProbabilityVolume(np.full((16, 16, 16), 0.5, dtype=np.float32))
        seg = ExternalSegmenter(stored)
        plane = seg.segment(slice_of(rng.uniform(0, 1, (16, 16, 16)), "coronal", 3))
        assert np.all(plane == 0.5)

    def test_misaligned_volume_rejected(self, rng):
        stored = ProbabilityVolume(np.zeros((128, 128, 128), dtype=np.float32))
        seg = ExternalSegmenter(stored)
        with pytest.raises(GeometryMismatchError):
            seg.segment(slice_of(rng.uniform(0, 1, (16, 16, 16))))

    def test_external_matches_oracle_run(self, rng, tmp_path):
        """Stored oracle outputs drive the pipeline to identical results."""
        spec = random_phantom_spec(31, dims=(48, 48, 48), n_cmbs=2, diameter_range=(5.0, 8.0))
        vol, gt, _ = generate_phantom(spec)
        oracle = OracleSegmenter(gt)
        probs = segment_volume(vol, {v: oracle for v in VIEWS})
        paths = {}
        for view in VIEWS:
            paths[view] = tmp_path / f"scan_{view}.nii.gz"
            write_probability(probs[view], paths[view])
        replay = segment_volume(vol, {v: ExternalSegmenter(read_probability(paths[v])) for v in VIEWS})
        for view in VIEWS:
            assert np.array_equal(replay[view].values, probs[view].values)


class TestOracleEndToEnd:
    def test_self_consistency_on_phantom(self):
        """Oracle + fusion + binarize reproduces the ground truth exactly."""
        spec = random_phantom_spec(17, dims=(64, 64, 64), n_cmbs=4, diameter_range=(5.0, 9.0))
        vol, gt, _ = generate_phantom(spec)
        seg = OracleSegmenter(gt)
        probs = segment_volume(vol, {v: seg for v in VIEWS})
        fused = fuse_views(probs["axial"], probs["sagittal"], probs["coronal"])
        pred = binarize_fused(fused, 0.125)
        assert np.array_equal(pred.labels, gt.labels)
