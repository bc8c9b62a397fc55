import numpy as np
import pytest

from cmbpipe.annotation import (
    CMBAnnotation,
    partition_subjects,
    synthesize_mask,
)
from cmbpipe.errors import (
    AnnotationSkippedWarning,
    ConfigError,
    DegenerateAnnotationWarning,
)
from cmbpipe.phantom import BackgroundSpec, CMBSpec, PhantomSpec, generate_phantom
from cmbpipe.volume import Volume3D, WorldPoint

from oracles import alpha_ball_voxels


def radial_linear_cmb(n=32, center_val=20.0, background=100.0, ramp_mm=3.0):
    """Spherical CMB with a linear radial profile hitting background at ramp_mm."""
    c = (n - 1) / 2.0
    ax = np.arange(n) - c
    r = np.sqrt(ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2)
    arr = center_val + (background - center_val) * np.clip(r / ramp_mm, 0.0, 1.0)
    return Volume3D(arr), (c, c, c)


class TestSynthesizeMask:
    def test_linear_profile_matches_analytic_isosurface(self):
        # alpha(r) = 1 - r/3 for the linear ramp, so alpha > 0.65 <=> r < 1.05
        vol, center = radial_linear_cmb()
        mask = synthesize_mask(vol, [CMBAnnotation(WorldPoint(*center))])
        analytic = alpha_ball_voxels(vol.dims, 1.0, center, 1.05)
        assert np.array_equal(mask.labels, analytic)
        # and stays within one voxel of the isosurface by construction
        ax = np.arange(32) - center[0]
        r = np.sqrt(ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2)
        disagree = mask.labels != analytic
        assert np.all(np.abs(r[disagree] - 1.05) <= 1.0)

    def test_constant_region_skipped_with_warning(self):
        vol = Volume3D(np.full((32, 32, 32), 50.0))
        with pytest.warns(DegenerateAnnotationWarning):
            mask = synthesize_mask(vol, [CMBAnnotation(WorldPoint(16.0, 16.0, 16.0))])
        assert mask.labels.sum() == 0

    def test_center_outside_volume_skipped_others_processed(self):
        vol, center = radial_linear_cmb()
        anns = [
            CMBAnnotation(WorldPoint(500.0, 0.0, 0.0)),
            CMBAnnotation(WorldPoint(*center)),
        ]
        with pytest.warns(AnnotationSkippedWarning):
            mask = synthesize_mask(vol, anns)
        assert mask.labels.sum() > 0

    def test_two_annotations_two_components(self):
        spec = PhantomSpec(
            dims=(64, 64, 64),
            background=BackgroundSpec(100.0, 0.0, 0.0),
            cmbs=(
                CMBSpec(WorldPoint(20.0, 20.0, 20.0), 6.0, 0.8),
                CMBSpec(WorldPoint(44.0, 44.0, 44.0), 6.0, 0.8),
            ),
            seed=0,
        )
        vol, _, entry = generate_phantom(spec)
        mask = synthesize_mask(vol, [CMBAnnotation(c) for c in entry.cmb_centers])
        from cmbpipe.detect import connected_components

        comps = connected_components(mask, 26)
        assert len(comps) == 2

    def test_center_snapping_finds_darkest(self):
        vol, center = radial_linear_cmb()
        offset = WorldPoint(center[0] + 0.9, center[1], center[2])  # imprecise click
        mask = synthesize_mask(vol, [CMBAnnotation(offset)])
        exact = synthesize_mask(vol, [CMBAnnotation(WorldPoint(*center))])
        assert np.array_equal(mask.labels, exact.labels)

    def test_component_retention_drops_disconnected_voxels(self):
        # a second dark spot inside the patch but away from the center must not be labeled
        vol, center = radial_linear_cmb()
        arr = np.asarray(vol.intensities).copy()
        arr[19, 15, 15] = 25.0  # isolated dark voxel, 4 mm away from the 1.05 mm component
        vol = vol.with_array(arr)
        mask = synthesize_mask(vol, [CMBAnnotation(WorldPoint(*center))])
        assert mask.labels[19, 15, 15] == 0
        assert mask.labels[15, 15, 15] == 1

    def test_raising_threshold_never_grows_mask(self):
        vol, _, entry = clean_multi_phantom(seed=3)
        lo = synthesize_mask(vol, [CMBAnnotation(c, 0.52) for c in entry.cmb_centers])
        hi = synthesize_mask(vol, [CMBAnnotation(c, 0.75) for c in entry.cmb_centers])
        assert np.all(hi.labels <= lo.labels)

    def test_component_contains_snapped_center(self):
        vol, _, entry = clean_multi_phantom(seed=4)
        mask = synthesize_mask(vol, [CMBAnnotation(c) for c in entry.cmb_centers])
        for c in entry.cmb_centers:
            i, j, k = (int(round(x)) for x in c)
            assert mask.labels[i, j, k] == 1


def clean_multi_phantom(seed):
    from cmbpipe.phantom import random_phantom_spec

    spec = random_phantom_spec(
        seed,
        dims=(72, 72, 72),
        n_cmbs=3,
        diameter_range=(4.0, 9.0),
        background=BackgroundSpec(100.0, 0.0, 0.0),
    )
    return generate_phantom(spec)


class TestParameters:
    """NaN and +-inf are outside every bound, so neither reaches the voxel arithmetic."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    @pytest.mark.parametrize("field", ["alpha_threshold", "patch_halfwidth_mm"])
    def test_annotation_rejects(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            CMBAnnotation(WorldPoint(1.0, 1.0, 1.0), **{field: bad})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"snap_radius_mm": float("nan")},
            {"snap_radius_mm": -1.0},
            {"shell_outer_mm": float("inf")},
            {"shell_inner_mm": float("nan")},
            {"shell_inner_mm": 7.0, "shell_outer_mm": 5.0},
        ],
        ids=lambda kwargs: " ".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_synthesize_mask_rejects(self, kwargs):
        vol, center = radial_linear_cmb()
        with pytest.raises(ConfigError):
            synthesize_mask(vol, [CMBAnnotation(WorldPoint(*center))], **kwargs)

    @pytest.mark.parametrize("fractions", [(0.7, float("nan"), 0.2), (1.5, -0.3, -0.2), (0.5, 0.5)])
    def test_partition_rejects(self, fractions):
        with pytest.raises(ConfigError):
            partition_subjects([f"s{i}" for i in range(10)], 0, fractions)


class TestPhantomLoopClosure:
    def test_mask_volume_within_one_shell_of_analytic(self):
        vol, gt, entry = clean_multi_phantom(seed=11)
        mask = synthesize_mask(vol, [CMBAnnotation(c) for c in entry.cmb_centers])
        assert np.array_equal(mask.labels, gt.labels)


class TestPartitionSubjects:
    def test_ten_subjects_split_7_1_2(self):
        train, val, test = partition_subjects([f"s{i}" for i in range(10)], seed=0)
        assert (len(train), len(val), len(test)) == (7, 1, 2)

    def test_deterministic(self):
        ids = [f"s{i}" for i in range(25)]
        assert partition_subjects(ids, seed=42) == partition_subjects(ids, seed=42)
        assert partition_subjects(ids, seed=42) != partition_subjects(ids, seed=43)

    def test_partition_property(self):
        ids = [f"subj{i:03d}" for i in range(100)]
        train, val, test = partition_subjects(ids, seed=9)
        assert train | val | test == set(ids)
        assert not (train & val) and not (train & test) and not (val & test)
        assert len(train) + len(val) + len(test) == 100

    def test_too_few_subjects(self):
        with pytest.raises(ConfigError):
            partition_subjects(["a", "b"], seed=0)

    def test_input_order_does_not_matter(self):
        ids = [f"s{i}" for i in range(12)]
        assert partition_subjects(ids, seed=5) == partition_subjects(list(reversed(ids)), seed=5)
