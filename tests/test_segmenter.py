import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import oracle_plane, per_plane_view, reference_plane_oracle

from cmbpipe import volume
from cmbpipe.errors import ConfigError, GeometryMismatchError, RejectedInputError
from cmbpipe.phantom import BackgroundSpec, generate_phantom, random_phantom_spec
from cmbpipe.scanio import read_probability, write_probability
from cmbpipe.segmenter import ExternalSegmenter, OracleSegmenter, ReferenceConfig, ReferenceSegmenter
from cmbpipe.triplanar import VIEW_AXIS, VIEWS, SliceAdapter, binarize_fused, fuse_views, segment_view, segment_volume
from cmbpipe.volume import LabelMask, ProbabilityVolume, Volume3D, normalize_intensity


def plane_of(seg, arr, view="axial", index=None):
    """Plane ``index`` (default: the middle axial one) of the view's probability volume."""
    values = seg.segment(Volume3D(arr), view)
    axis = VIEW_AXIS[view]
    return np.take(values, arr.shape[2] // 2 if index is None else index, axis=axis)


class TestOracle:
    def test_replays_ground_truth_plane(self, rng):
        labels = (rng.uniform(0, 1, (16, 16, 16)) > 0.8).astype(np.uint8)
        gt = LabelMask(labels)
        vol = rng.uniform(0, 1, (16, 16, 16))
        seg = OracleSegmenter(gt)
        for view, axis in (("axial", 2), ("sagittal", 0), ("coronal", 1)):
            plane = plane_of(seg, vol, view, 7)
            assert np.array_equal(plane, np.take(labels, 7, axis=axis).astype(np.float32))

    def test_empty_gt_all_zero(self, rng):
        seg = OracleSegmenter(LabelMask(np.zeros((8, 8, 8), dtype=np.uint8)))
        assert plane_of(seg, rng.uniform(0, 1, (8, 8, 8))).sum() == 0

    def test_misaligned_gt_rejected(self, rng):
        seg = OracleSegmenter(LabelMask(np.zeros((9, 9, 9), dtype=np.uint8)))
        with pytest.raises(GeometryMismatchError):
            plane_of(seg, rng.uniform(0, 1, (8, 8, 8)))

    def test_corruption_rate_validated(self, rng):
        with pytest.raises(ConfigError):
            OracleSegmenter(LabelMask(np.zeros((4, 4, 4), dtype=np.uint8)), corruption_rate=1.0)

    def test_corruption_deterministic(self, rng):
        gt = LabelMask((rng.uniform(0, 1, (16, 16, 16)) > 0.8).astype(np.uint8))
        vol = rng.uniform(0, 1, (16, 16, 16))
        a = plane_of(OracleSegmenter(gt, 0.3, seed=5), vol)
        b = plane_of(OracleSegmenter(gt, 0.3, seed=5), vol)
        c = plane_of(OracleSegmenter(gt, 0.3, seed=6), vol)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_clean_oracle_returns_one_read_only_array(self, rng):
        labels = (rng.uniform(0, 1, (37, 11, 5)) > 0.7).astype(np.uint8)
        vol = Volume3D(rng.uniform(0, 1, labels.shape))
        for n in (1, 2, 3):  # each thread casts its own run of planes
            with volume.threads(n):
                seg = OracleSegmenter(LabelMask(labels))
            outs = [seg.segment(vol, view) for view in VIEWS]
            for out in outs:
                assert out is outs[0]
                assert out.dtype == np.float32
                assert np.array_equal(out, labels.astype(np.float32))
            assert not outs[0].flags.writeable
            with pytest.raises(ValueError):
                outs[0][0, 0, 0] = 1.0

    @pytest.mark.parametrize("view", VIEWS)
    def test_corrupted_oracle_planes_on_non_cubic_grid(self, rng, view):
        labels = (rng.uniform(0, 1, (37, 11, 5)) > 0.7).astype(np.uint8)
        got = OracleSegmenter(LabelMask(labels), 0.3, seed=4).segment(Volume3D(rng.uniform(0, 1, labels.shape)), view)
        want = per_plane_view(lambda plane, k: oracle_plane(labels, view, k, 0.3, seed=4), labels, view)
        assert np.array_equal(got, want)

    def test_corrupted_view_vetoed_by_fusion(self, rng):
        """Corruption on one view cannot create detections where the others say 0."""
        gt = LabelMask(np.zeros((24, 24, 24), dtype=np.uint8))
        vol = Volume3D(rng.uniform(0, 1, (24, 24, 24)))
        clean = OracleSegmenter(gt)
        noisy = OracleSegmenter(gt, corruption_rate=0.4, seed=1)
        fused = fuse_views(
            segment_view(vol, "axial", noisy), segment_view(vol, "sagittal", clean), segment_view(vol, "coronal", clean)
        )
        assert fused.values.max() == 0.0


class TestReference:
    def test_constant_plane_uniform_below_fusion_threshold(self):
        cfg = ReferenceConfig()
        seg = ReferenceSegmenter(cfg)
        plane = plane_of(seg, np.full((24, 24, 24), 0.5))
        vals = np.unique(plane)
        assert len(vals) == 1
        expected = 1.0 / (1.0 + np.exp(cfg.logistic_gain * cfg.score_offset))
        assert vals[0] == np.float32(expected)  # the seam returns the stored float32 values
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
        p_dark = plane_of(seg, vol, "axial", 1)
        assert p_dark[r < 2.0].max() >= 0.9
        inverted = np.clip(1.0 - plane, 0, 1)
        vol_inv = np.repeat(inverted[:, :, None], 3, axis=2)
        p_bright = plane_of(seg, vol_inv, "axial", 1)
        assert p_bright[r < 2.0].max() <= 0.1

    def test_rejects_out_of_range_intensities(self, rng):
        seg = ReferenceSegmenter(ReferenceConfig())
        with pytest.raises(RejectedInputError):
            plane_of(seg, rng.normal(100, 10, (16, 16, 16)))

    @pytest.mark.parametrize("dims", [(16, 16, 1), (1, 16, 16), (16, 1, 16)])
    @pytest.mark.parametrize("view", VIEWS)
    def test_one_voxel_along_an_axis_rejected(self, rng, dims, view):
        """Every view of a grid one voxel thick has planes with no in-plane gradient along one axis."""
        vol = Volume3D(rng.uniform(0, 1, dims), (1.0, 1.0, 3.0))
        with pytest.raises(RejectedInputError, match=r"dims \(" + ", ".join(map(str, dims))):
            ReferenceSegmenter().segment(vol, view)

    def test_two_voxels_along_an_axis_score(self, rng):
        vol = Volume3D(rng.uniform(0, 1, (16, 16, 2)), (1.0, 1.0, 3.0))
        for view in VIEWS:
            assert segment_view(vol, view, ReferenceSegmenter()).dims == (16, 16, 2)

    def test_deterministic(self, rng):
        vol = rng.uniform(0, 1, (24, 24, 24))
        seg = ReferenceSegmenter(ReferenceConfig())
        assert np.array_equal(plane_of(seg, vol), plane_of(seg, vol))

    def test_scale_order_validated(self):
        with pytest.raises(ConfigError):
            ReferenceConfig(scale_min_mm=4.0, scale_max_mm=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [(f.name, bad) for f in fields(ReferenceConfig) for bad in (math.nan, math.inf, -math.inf)]
        + [("logistic_gain", -40.0), ("logistic_gain", 0.0)],
    )
    def test_non_finite_or_non_positive_gain_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ReferenceConfig(**{field: value})


class TestExternal:
    def test_replays_stored_planes(self, rng):
        """Each view replays its own stored map."""
        values = {"axial": 0.25, "sagittal": 0.5, "coronal": 0.75}
        seg = ExternalSegmenter({v: ProbabilityVolume(np.full((16,) * 3, x, np.float32)) for v, x in values.items()})
        vol = rng.uniform(0, 1, (16, 16, 16))
        for view, x in values.items():
            assert np.all(plane_of(seg, vol, view, 3) == x)

    def test_misaligned_volume_rejected(self, rng):
        stored = ProbabilityVolume(np.zeros((128, 128, 128), dtype=np.float32))
        seg = ExternalSegmenter(dict.fromkeys(VIEWS, stored))
        with pytest.raises(GeometryMismatchError):
            plane_of(seg, rng.uniform(0, 1, (16, 16, 16)))

    def test_external_matches_oracle_run(self, rng, tmp_path):
        """Stored oracle outputs drive the pipeline to identical results."""
        spec = random_phantom_spec(31, dims=(48, 48, 48), n_cmbs=2, diameter_range=(5.0, 8.0))
        vol, gt, _ = generate_phantom(spec)
        oracle = OracleSegmenter(gt)
        probs = segment_volume(vol, oracle)
        paths = {}
        for view in VIEWS:
            paths[view] = tmp_path / f"scan_{view}.nii.gz"
            write_probability(probs[view], paths[view])
        replay = segment_volume(vol, ExternalSegmenter({v: read_probability(paths[v]) for v in VIEWS}))
        for view in VIEWS:
            assert np.array_equal(replay[view].values, probs[view].values)


@pytest.mark.parametrize(
    "make",
    [
        lambda gt: OracleSegmenter(gt),
        lambda gt: OracleSegmenter(gt, 0.1, 3),
        lambda gt: ReferenceSegmenter(),
        lambda gt: ExternalSegmenter(dict.fromkeys(VIEWS, ProbabilityVolume(gt.labels))),
        lambda gt: SliceAdapter(SimpleNamespace(segment=lambda thick_slice: thick_slice.central)),
    ],
    ids=["clean-oracle", "corrupted-oracle", "reference", "external", "slice-adapter"],
)
def test_every_segmenter_rejects_an_unknown_view(make):
    gt = LabelMask(np.zeros((8, 8, 8), dtype=np.uint8))
    with pytest.raises(ConfigError, match="view must be one of"):
        make(gt).segment(Volume3D(np.zeros((8, 8, 8))), "oblique")


@pytest.mark.parametrize("views", [("axial",), ("axial", "sagittal", "oblique"), (*VIEWS, "oblique")])
def test_external_segmenter_needs_exactly_the_three_views(views):
    """A missing or unknown view is a config error when the segmenter is built, not a ``KeyError`` at its call."""
    stored = ProbabilityVolume(np.zeros((8, 8, 8), dtype=np.float32))
    with pytest.raises(ConfigError, match="keyed by the views"):
        ExternalSegmenter(dict.fromkeys(views, stored))


class TestOracleEndToEnd:
    def test_self_consistency_on_phantom(self):
        """Oracle + fusion + binarize reproduces the ground truth exactly."""
        spec = random_phantom_spec(17, dims=(64, 64, 64), n_cmbs=4, diameter_range=(5.0, 9.0))
        vol, gt, _ = generate_phantom(spec)
        seg = OracleSegmenter(gt)
        probs = segment_volume(vol, seg)
        fused = fuse_views(probs["axial"], probs["sagittal"], probs["coronal"])
        pred = binarize_fused(fused, 0.125)
        assert np.array_equal(pred.labels, gt.labels)


def reference_style_phantom(dims):
    """A ``reference-128``-style phantom (CMBs, vessel and calcification mimics), normalized to [0, 1]."""
    spec = random_phantom_spec(
        501,
        dims=(dims,) * 3,
        n_cmbs_range=(2, 6),
        diameter_range=(5.0, 9.0),
        contrast_range=(0.6, 0.9),
        n_vessels=2,
        n_calcifications=2,
        background=BackgroundSpec(100.0, 2.0, 4.0),
    )
    vol, gt, _ = generate_phantom(spec)
    return normalize_intensity(vol, 0.0, 100.0), gt


class TestWholeViewEqualsPerPlane:
    """Each whole-view segmenter against the per-plane definition it replaced, bit for bit."""

    CASES = {
        "random-24-px0.7": lambda rng: Volume3D(rng.uniform(0, 1, (24, 24, 24)), (0.7, 0.7, 0.7)),
        "constant-24": lambda rng: Volume3D(np.full((24, 24, 24), 0.5)),
        # a thick-slice grid: every view has its own non-square pixels
        "random-24x20x12-anisotropic": lambda rng: Volume3D(rng.uniform(0, 1, (24, 20, 12)), (0.7, 0.9, 2.0)),
    }

    @pytest.mark.parametrize("jobs", [None, 1, 2])
    @pytest.mark.parametrize("planes_per_block", [None, 1, 5])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("view", VIEWS)
    def test_reference(self, rng, monkeypatch, case, view, planes_per_block, jobs):
        v = self.CASES[case](rng)
        axis = VIEW_AXIS[view]
        if planes_per_block is not None:  # several blocks, the last one short at 5
            monkeypatch.setattr(volume, "POOL_BLOCK_VOXELS", planes_per_block * v.intensities.size // v.dims[axis])
        cfg = ReferenceConfig()
        with volume.threads(jobs):
            got = segment_view(v, view, ReferenceSegmenter(cfg)).values
        px = tuple(np.delete(v.spacing, axis))  # (h, w): the spacings of the two axes left in the plane
        want = per_plane_view(lambda plane, k: reference_plane_oracle(plane, cfg, px), v.intensities, view)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert np.array_equal(got, want)

    def test_reference_pixel_spacing_comes_from_the_volume(self, rng):
        """A default config scores a 0.5 mm volume with 0.5 mm pixels, not with 1 mm ones."""
        values = rng.uniform(0, 1, (20, 20, 20))
        seg = ReferenceSegmenter(ReferenceConfig())
        got = segment_view(Volume3D(values, (0.5, 0.5, 0.5)), "axial", seg).values
        want = per_plane_view(lambda plane, k: reference_plane_oracle(plane, seg.cfg, (0.5, 0.5)), values, "axial")
        assert np.array_equal(got, want)
        assert not np.array_equal(got, segment_view(Volume3D(values), "axial", seg).values)

    def test_reference_on_128_phantom(self):
        vol, _ = reference_style_phantom(128)
        cfg = ReferenceConfig()
        seg = ReferenceSegmenter(cfg)
        runs = []
        for jobs in (None, 1, 2):
            with volume.threads(jobs):
                runs.append(segment_volume(vol, seg))
        for view in VIEWS:
            want = per_plane_view(lambda plane, k: reference_plane_oracle(plane, cfg), vol.intensities, view)
            for probs in runs:  # every CPU, 1 and 2 threads
                assert np.array_equal(probs[view].values, want)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    @pytest.mark.parametrize("view", VIEWS)
    def test_oracle(self, rng, view, rate, jobs):
        labels = (rng.uniform(0, 1, (20, 20, 20)) > 0.8).astype(np.uint8)
        seg = OracleSegmenter(LabelMask(labels), rate, seed=11)
        with volume.threads(jobs):
            got = segment_view(Volume3D(rng.uniform(0, 1, (20, 20, 20))), view, seg).values
        want = per_plane_view(lambda plane, k: oracle_plane(labels, view, k, rate, seed=11), labels, view)
        assert np.array_equal(got, want)
