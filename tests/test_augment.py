import numpy as np
import pytest
from scipy import ndimage

from cmbpipe import volume
from cmbpipe.augment import (
    TRANSFORM_ORDER,
    AugmentSpec,
    _bspline_field,
    _rotation_matrix,
    apply_augmentation,
    bias_field,
    blur_volume,
    elastic_deform,
    flip_volume,
    gibbs_ringing,
    motion_ghost,
    noise_add_mult,
    rotate_volume,
)
from cmbpipe.errors import ConfigError, GeometryMismatchError
from cmbpipe.rng import derive_rng
from cmbpipe.phantom import BackgroundSpec, CMBSpec, PhantomSpec, generate_phantom
from cmbpipe.volume import LabelMask, Volume3D, WorldPoint

from oracles import (
    bias_field_expression,
    bias_field_oracle,
    blur_oracle,
    bspline_field_oracle,
    elastic_oracle,
    ghost_delta_1d,
    gibbs_ringing_oracle,
    motion_ghost_oracle,
    truncated_spectrum_1d,
)


# Spec JSON that must be rejected with ConfigError: unknown sections and keys,
# values of the wrong JSON type, and values outside their bounds.
BAD_SPECS = {
    "unknown-section": {"elastc": {}},
    "not-an-object": [],
    "section-not-an-object": {"blur": 3},
    "unknown-key": {"elastic": {"probabilty": 1}},
    "enabled-as-text": {"rotation": {"enabled": "false"}},
    "seed-bool": {"master_seed": True},
    "seed-float": {"master_seed": 2.7},
    "probability-as-text": {"rotation": {"probability": "0.5"}},
    "order-float": {"bias_field": {"order": 2.5}},
    "degrees-inf": {"rotation": {"max_degrees": float("inf")}},
    "displacement-inf": {"elastic": {"max_displacement_mm": float("inf")}},
    "sigma-nan": {"noise": {"max_additive_sigma": float("nan")}},
    "range-of-three": {"blur": {"sigma_range_mm": [0.5, 1.0, 1.5]}},
    "ghosts-float": {"motion_ghost": {"n_ghosts_range": [2.0, 4.0]}},
    "axes-repeated": {"flip": {"axes": [0, 0]}},
}

# What users write and the run record stores; a change here moves every spec file.
DEFAULT_SPEC_JSON = {
    "elastic": {"enabled": True, "probability": 0.5, "control_spacing_mm": 32.0, "max_displacement_mm": 3.0},
    "rotation": {"enabled": True, "probability": 0.5, "max_degrees": 10.0},
    "flip": {"enabled": True, "probability": 0.5, "axes": (0, 1, 2)},
    "bias_field": {"enabled": True, "probability": 0.5, "order": 3, "max_amplitude": 0.2},
    "blur": {"enabled": True, "probability": 0.5, "sigma_range_mm": (0.5, 1.5)},
    "motion_ghost": {"enabled": True, "probability": 0.5, "n_ghosts_range": (2, 4), "max_intensity": 0.3},
    "gibbs_ringing": {"enabled": True, "probability": 0.5, "retain_range": (0.6, 1.0)},
    "noise": {"enabled": True, "probability": 0.5, "max_additive_sigma": 0.05, "max_multiplicative_sigma": 0.05},
    "master_seed": 0,
}


def blob_pair(n=48, diameter=8.0, contrast=0.8):
    spec = PhantomSpec(
        dims=(n, n, n),
        background=BackgroundSpec(100.0, 0.0, 0.0),
        cmbs=(CMBSpec(WorldPoint(n / 2.0, n / 2.0, n / 2.0), diameter, contrast),),
        seed=3,
    )
    vol, gt, _ = generate_phantom(spec)
    return vol, gt


def dark_blob_region(vol, contrast=0.8, threshold=0.65):
    """Dark-blob isosurface of the multiplicative profile: alpha > t <=> I < base(1 - c*t).

    Restricted to the central half-box; small rotations and <= 3 mm elastic
    displacements cannot drag the out-of-field fill that deep.
    """
    dark = vol.intensities < 100.0 * (1.0 - contrast * threshold)
    keep = np.zeros(vol.dims, dtype=bool)
    q = [d // 4 for d in vol.dims]
    keep[q[0] : -q[0], q[1] : -q[1], q[2] : -q[2]] = True
    return dark & keep


def dice(a, b):
    a = a.astype(bool)
    b = b.astype(bool)
    denom = a.sum() + b.sum()
    return 1.0 if denom == 0 else 2.0 * np.logical_and(a, b).sum() / denom


class TestSpatialTransforms:
    def test_flip_involution(self, rng):
        v = Volume3D(rng.normal(0, 1, (10, 12, 14)))
        m = LabelMask((rng.uniform(0, 1, (10, 12, 14)) > 0.8).astype(np.uint8))
        v2, m2 = flip_volume(*flip_volume(v, m, (1,)), (1,))
        assert np.array_equal(v2.intensities, v.intensities)
        assert np.array_equal(m2.labels, m.labels)
        with pytest.raises(ConfigError, match=r"\(0, 2, 0\)"):
            flip_volume(v, m, (0, 2, 0))
        same_v, same_m = flip_volume(v, m, ())
        assert same_v is v and same_m is m

    def test_zero_rotation_identity(self, rng):
        v = Volume3D(rng.normal(0, 1, (16, 16, 16)))
        m = LabelMask((rng.uniform(0, 1, (16, 16, 16)) > 0.8).astype(np.uint8))
        out, out_m = rotate_volume(v, m, (0.0, 0.0, 0.0))
        assert np.abs(out.intensities - v.intensities).max() < 1e-6
        assert np.array_equal(out_m.labels, m.labels)

    def test_rotation_is_rigid_in_mm_on_an_anisotropic_grid(self):
        """A 10 mm-radius sphere on a 1x1x2 mm grid, turned 90 degrees about axis 0, still spans 20 mm per axis."""
        dims, spacing = (48, 48, 24), (1.0, 1.0, 2.0)
        mm = [(np.arange(n) - (n - 1) / 2.0) * s for n, s in zip(dims, spacing)]
        sphere = (mm[0][:, None, None] ** 2 + mm[1][None, :, None] ** 2 + mm[2] ** 2 <= 10.0**2).astype(np.uint8)
        _, m = rotate_volume(Volume3D(sphere, spacing), LabelMask(sphere, spacing), (90.0, 0.0, 0.0))
        for axis in range(3):
            along = np.flatnonzero(m.labels.any(axis=tuple(a for a in range(3) if a != axis)))
            assert abs((along[-1] - along[0] + 1) * spacing[axis] - 20.0) <= spacing[axis]

    def test_isotropic_rotation_turns_voxel_indices(self, rng):
        """On an isotropic grid the spacing ratios are exactly 1: the bytes of an index-space rotation by R^T."""
        v = Volume3D(rng.normal(0, 1, (12, 14, 10)), (0.7,) * 3)
        m = LabelMask((rng.uniform(0, 1, v.dims) > 0.8).astype(np.uint8), (0.7,) * 3)
        out, out_m = rotate_volume(v, m, (10.0, 7.0, -9.0))
        inv = _rotation_matrix((10.0, 7.0, -9.0)).T
        center = (np.asarray(v.dims, dtype=np.float64) - 1.0) / 2.0
        offset = center - inv @ center
        fill = v.intensities.min()
        want = ndimage.affine_transform(v.intensities, inv, offset=offset, order=1, mode="constant", cval=fill)
        assert out.intensities.tobytes() == want.tobytes()
        assert np.array_equal(out_m.labels, ndimage.affine_transform(m.labels, inv, offset=offset, order=0))

    def test_zero_elastic_identity(self, rng):
        v = Volume3D(rng.normal(0, 1, (16, 16, 16)))
        m = LabelMask(np.zeros((16, 16, 16), dtype=np.uint8))
        out, out_m, params = elastic_deform(v, m, 32.0, 0.0, seed=1)
        assert out is v and out_m is m
        assert params["displacement_mm"] == 0.0

    def test_rotation_moves_mask_with_image(self):
        vol, gt = blob_pair()
        v2, m2 = rotate_volume(vol, gt, (10.0, 7.0, -9.0))
        assert dice(dark_blob_region(v2), m2.labels) >= 0.8

    def test_elastic_moves_mask_with_image(self):
        vol, gt = blob_pair()
        v2, m2, params = elastic_deform(vol, gt, 24.0, 3.0, seed=7)
        assert params["displacement_mm"] == 3.0
        assert dice(dark_blob_region(v2), m2.labels) >= 0.8

    def test_geometry_mismatch_rejected(self, rng):
        v = Volume3D(rng.normal(0, 1, (8, 8, 8)))
        m = LabelMask(np.zeros((9, 9, 9), dtype=np.uint8))
        with pytest.raises(GeometryMismatchError):
            flip_volume(v, m, (0,))


class TestElasticField:
    @pytest.mark.parametrize(
        "dims, spacing, control_spacing_mm",
        [
            ((128, 128, 128), (1.0, 1.0, 1.0), 32.0),
            ((64, 80, 48), (1.0, 1.0, 2.5), 32.0),
            ((40, 3, 30), (1.0, 1.0, 1.0), 8.0),  # 2-point control axis
            ((20, 1, 16), (1.0, 1.0, 1.0), 6.0),  # axis of one voxel
            ((10, 12, 8), (1.0, 1.0, 1.0), 0.4),  # control grid larger than dims
        ],
    )
    def test_matches_per_voxel_spline_evaluation(self, dims, spacing, control_spacing_mm):
        """The separable field equals map_coordinates(order=3) to 1e-6 voxel once scaled as elastic_deform does."""
        grid = tuple(max(2, int(np.ceil((n - 1) * s / control_spacing_mm)) + 1) for n, s in zip(dims, spacing))
        control = np.random.default_rng(11).standard_normal((3,) + grid).astype(np.float32)
        expected = bspline_field_oracle(control, dims)
        got = _bspline_field(control, dims)
        assert got.shape == expected.shape and got.dtype == np.float32
        # mm per field unit for a largest displacement of 3 mm, then voxels per mm on each axis
        to_voxels = 3.0 / np.sqrt(np.sum(expected.astype(np.float64) ** 2, axis=0)).max()
        to_voxels /= np.asarray(spacing).reshape(3, 1, 1, 1)
        assert np.abs((got.astype(np.float64) - expected) * to_voxels).max() < 1e-6


class TestBiasField:
    @pytest.mark.parametrize("dims, order", [((24, 20, 16), 3), ((9, 1, 7), 1), ((16, 16, 16), 5)])
    def test_matches_outer_product_sum(self, dims, order):
        for seed in range(3):
            out = bias_field(Volume3D(np.ones(dims)), order=order, amplitude=0.2, seed=seed)
            expected = bias_field_oracle(dims, order, 0.2, seed)
            assert np.abs(out.intensities / expected - 1.0).max() < 1e-12

    @pytest.mark.parametrize("amplitude", [0.0, 0.17, 0.3])
    def test_same_bytes_as_out_of_place_expression(self, amplitude):
        v = Volume3D(np.random.default_rng(4).normal(100.0, 20.0, (64, 50, 37)))
        for seed in range(8):
            out = bias_field(v, order=3, amplitude=amplitude, seed=seed)
            assert_same_bytes(out.intensities, bias_field_expression(v.intensities, 3, amplitude, seed))

    def test_mean_preserved(self, rng):
        v = Volume3D(np.full((24, 24, 24), 50.0))
        out = bias_field(v, order=3, amplitude=0.2, seed=5)
        assert out.intensities.mean() == pytest.approx(50.0, rel=1e-2)
        # and the field itself has mean 1 to much tighter tolerance
        assert (out.intensities / 50.0).mean() == pytest.approx(1.0, abs=1e-12)

    def test_zero_amplitude_identity(self, rng):
        v = Volume3D(rng.normal(10, 1, (12, 12, 12)))
        out = bias_field(v, amplitude=0.0, seed=5)
        assert np.array_equal(out.intensities, v.intensities)

    def test_amplitude_bounds_field(self):
        v = Volume3D(np.full((16, 16, 16), 1.0))
        out = bias_field(v, order=3, amplitude=0.2, seed=2)
        # field normalized to peak deviation 0.2 before mean correction
        assert 0.7 < out.intensities.min() and out.intensities.max() < 1.3


class TestBlur:
    def test_zero_sigma_identity(self, rng):
        v = Volume3D(rng.normal(0, 1, (12, 12, 12)))
        assert np.array_equal(blur_volume(v, 0.0).intensities, v.intensities)

    def test_blur_reduces_variance(self, rng):
        v = Volume3D(rng.normal(0, 1, (24, 24, 24)))
        out = blur_volume(v, 1.0)
        assert out.intensities.std() < v.intensities.std()


class TestMotionGhost:
    def test_zero_intensity_identity(self, rng):
        v = Volume3D(rng.normal(0, 1, (16, 16, 16)))
        out = motion_ghost(v, 4, 0.0, axis=0)
        assert np.abs(out.intensities - v.intensities).max() < 1e-6

    def test_constant_volume_mean_preserved(self):
        v = Volume3D(np.full((16, 16, 16), 5.0))
        out = motion_ghost(v, 3, 0.5, axis=2)
        assert np.abs(out.intensities.mean() - 5.0) < 1e-6

    def test_delta_produces_equally_spaced_replicas(self):
        n = 64
        arr = np.zeros((8, 8, n))
        arr[4, 4, 10] = 1.0
        out = motion_ghost(Volume3D(arr), 4, 0.5, axis=2)
        expected = ghost_delta_1d(n, 10, 4, 0.5)
        assert np.abs(out.intensities[4, 4, :] - expected).max() < 1e-9
        # everything off the delta's line picks up only the uniform DC shift
        assert np.abs(out.intensities[0, 0, :] - 0.5 / n * 0).max() < 1e-9
        # exactly 4 positions deviate visibly from the uniform offset
        line = out.intensities[4, 4, :] - 0.5 / n
        assert sorted(np.nonzero(np.abs(line) > 1e-6)[0].tolist()) == [10, 26, 42, 58]

    def test_too_few_ghosts_rejected(self, rng):
        with pytest.raises(ConfigError):
            motion_ghost(Volume3D(rng.normal(0, 1, (8, 8, 8))), 1, 0.5)


class TestGibbsRinging:
    def test_full_retention_identity(self, rng):
        v = Volume3D(rng.normal(0, 1, (16, 16, 16)))
        assert np.abs(gibbs_ringing(v, 1.0).intensities - v.intensities).max() < 1e-6

    def test_constant_volume_unchanged(self):
        v = Volume3D(np.full((16, 16, 16), 3.0))
        assert np.abs(gibbs_ringing(v, 0.4).intensities - 3.0).max() < 1e-6

    def test_step_edge_overshoot_matches_partial_sum(self):
        n = 64
        step = np.zeros(n)
        step[n // 2 :] = 1.0
        arr = np.broadcast_to(step[None, None, :], (8, 8, n)).copy()
        out = gibbs_ringing(Volume3D(arr), 0.5)
        oracle = truncated_spectrum_1d(step, 0.5)
        assert np.abs(out.intensities[3, 3, :] - oracle).max() < 1e-9
        overshoot = out.intensities[3, 3, n // 2 :].max() - 1.0
        assert 0.05 <= overshoot <= 0.12

    def test_bad_fraction_rejected(self, rng):
        v = Volume3D(rng.normal(0, 1, (8, 8, 8)))
        with pytest.raises(ConfigError):
            gibbs_ringing(v, 0.0)
        with pytest.raises(ConfigError):
            gibbs_ringing(v, 1.5)


# Non-cubic grids with even and odd edges; spacing differs per axis so blur and elastic are anisotropic.
BLOCKED_GRIDS = [(16, 18, 20), (33, 40, 27), (17, 9, 26)]
SPACING = (0.9, 1.1, 1.3)


def assert_same_bytes(actual, expected):
    assert (actual.shape, actual.dtype) == (expected.shape, expected.dtype)
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("jobs", [1, 2, None])
@pytest.mark.parametrize("dims", BLOCKED_GRIDS, ids=lambda d: "x".join(map(str, d)))
@pytest.mark.parametrize("block_voxels", [None, 50], ids=["default-blocks", "small-blocks"])
class TestBlockedTransformsMatchWholeVolume:
    """Each blocked transform gives the bytes of its whole-volume definition for any thread count and block size."""

    @pytest.fixture
    def vol(self, dims, block_voxels, jobs, monkeypatch):
        if block_voxels is not None:
            monkeypatch.setattr(volume, "POOL_BLOCK_VOXELS", block_voxels)  # one or two planes per block
        with volume.threads(jobs):
            yield Volume3D(np.random.default_rng(sum(dims)).normal(100.0, 20.0, dims), SPACING)

    @pytest.mark.parametrize("retain_fraction", [0.61, 0.7, 0.95])
    def test_gibbs_ringing(self, vol, retain_fraction):
        out = gibbs_ringing(vol, retain_fraction)
        assert_same_bytes(out.intensities, gibbs_ringing_oracle(vol.intensities, retain_fraction))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_motion_ghost(self, vol, axis):
        out = motion_ghost(vol, 3, 0.27, axis)
        assert_same_bytes(out.intensities, motion_ghost_oracle(vol.intensities, 3, 0.27, axis))

    @pytest.mark.parametrize("sigma_mm", [0.7, 1.4])
    def test_blur(self, vol, sigma_mm):
        out = blur_volume(vol, sigma_mm)
        assert_same_bytes(out.intensities, blur_oracle(vol.intensities, [sigma_mm / s for s in SPACING]))

    @pytest.mark.parametrize("control_spacing_mm, displacement_mm", [(8.0, 4.0), (32.0, 3.0), (8.0, 0.0)])
    def test_elastic(self, vol, control_spacing_mm, displacement_mm):
        labels = vol.intensities > 110.0
        out_v, out_m, _ = elastic_deform(vol, LabelMask(labels, SPACING), control_spacing_mm, displacement_mm, 5)
        expected_v, expected_m = elastic_oracle(
            vol.intensities, labels, SPACING, control_spacing_mm, displacement_mm, 5
        )
        assert_same_bytes(out_v.intensities, expected_v)
        assert_same_bytes(out_m.labels, expected_m)


class TestNoise:
    def test_both_sigmas_zero_identity(self, rng):
        v = Volume3D(rng.normal(0, 1, (10, 10, 10)))
        assert np.array_equal(noise_add_mult(v, 0.0, 0.0, seed=3).intensities, v.intensities)

    def test_model_shape(self):
        v = Volume3D(np.full((20, 20, 20), 10.0))
        out = noise_add_mult(v, 0.01, 0.05, seed=3)
        # multiplicative part scales with intensity: std ~ sqrt((10*0.05)^2 + 0.01^2)
        assert out.intensities.std() == pytest.approx(np.hypot(10 * 0.05, 0.01), rel=0.1)

    @pytest.mark.parametrize("sigma_add, sigma_mult", [(0.02, 0.05), (0.02, 0.0), (0.0, 0.05)])
    def test_same_bytes_as_the_whole_volume_formula(self, rng, sigma_add, sigma_mult):
        """Applied in each draw's buffer: the bytes of ``I * (1 + eps_mult) + eps_add`` from the same draws."""
        v = Volume3D(rng.normal(100, 10, (24, 24, 24)))
        draws = derive_rng(5, "noise")
        want = v.intensities
        if sigma_mult > 0:
            want = want * (1.0 + draws.normal(0.0, sigma_mult, v.dims))
        if sigma_add > 0:
            want = want + draws.normal(0.0, sigma_add, v.dims)
        assert_same_bytes(noise_add_mult(v, sigma_add, sigma_mult, seed=5).intensities, want)


class TestTransformParameters:
    """Every transform checks its numeric parameters against one interval each: NaN and +-inf are outside."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda v, m, bad: elastic_deform(v, m, bad, 3.0),
            lambda v, m, bad: elastic_deform(v, m, 32.0, bad),
            lambda v, m, bad: bias_field(v, 3, bad),
            lambda v, m, bad: blur_volume(v, bad),
            lambda v, m, bad: motion_ghost(v, 2, bad),
            lambda v, m, bad: gibbs_ringing(v, bad),
            lambda v, m, bad: noise_add_mult(v, bad, 0.0),
            lambda v, m, bad: noise_add_mult(v, 0.0, bad),
        ],
        ids=["control_spacing", "displacement", "bias_amplitude", "blur", "ghost_intensity", "retain", "add", "mult"],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_non_finite_or_negative_rejected(self, call, bad):
        v = Volume3D(np.full((8, 8, 8), 10.0))
        with pytest.raises(ConfigError):
            call(v, LabelMask(np.zeros((8, 8, 8), dtype=np.uint8)), bad)


class TestApplyAugmentation:
    def test_disabled_spec_bit_identity(self, rng):
        v = Volume3D(rng.normal(100, 10, (20, 20, 20)))
        m = LabelMask((rng.uniform(0, 1, (20, 20, 20)) > 0.9).astype(np.uint8))
        out_v, out_m, record = apply_augmentation(v, m, AugmentSpec.disabled(), "scan-x")
        assert np.array_equal(out_v.intensities, v.intensities)
        assert np.array_equal(out_m.labels, m.labels)
        assert all(not r["applied"] for r in record)

    def test_deterministic_per_scan_id(self, rng):
        v = Volume3D(rng.normal(100, 10, (24, 24, 24)))
        m = LabelMask((rng.uniform(0, 1, (24, 24, 24)) > 0.9).astype(np.uint8))
        spec = AugmentSpec(master_seed=11)
        a1 = apply_augmentation(v, m, spec, "scan-1")
        a2 = apply_augmentation(v, m, spec, "scan-1")
        b = apply_augmentation(v, m, spec, "scan-2")
        assert np.array_equal(a1[0].intensities, a2[0].intensities)
        assert a1[2] == a2[2]
        assert not np.array_equal(a1[0].intensities, b[0].intensities)

    @pytest.mark.parametrize(
        "sections",
        [{}, {name: {"probability": 1.0} for name in TRANSFORM_ORDER}],
        ids=["default", "every-transform"],
    )
    def test_record_replays_exactly(self, rng, sections):
        v = Volume3D(np.clip(rng.normal(0.5, 0.1, (24, 24, 24)), 0, 1))
        m = LabelMask((rng.uniform(0, 1, (24, 24, 24)) > 0.9).astype(np.uint8))
        spec = AugmentSpec.from_json({**sections, "master_seed": 21})
        out_v, out_m, record = apply_augmentation(v, m, spec, "scan-replay")
        if sections:
            assert all(step["applied"] for step in record)
        rv, rm = v, m
        for step in record:
            if not step["applied"]:
                continue
            p = step["params"]
            name = step["transform"]
            if name == "elastic":
                rv, rm, _ = elastic_deform(rv, rm, p["control_spacing_mm"], p["displacement_mm"], p["seed"])
            elif name == "rotation":
                rv, rm = rotate_volume(rv, rm, p["angles_deg"])
            elif name == "flip":
                rv, rm = flip_volume(rv, rm, tuple(p["axes"]))
            elif name == "bias_field":
                rv = bias_field(rv, p["order"], p["amplitude"], p["seed"])
            elif name == "blur":
                rv = blur_volume(rv, p["sigma_mm"])
            elif name == "motion_ghost":
                rv = motion_ghost(rv, p["n_ghosts"], p["intensity"], p["axis"])
            elif name == "gibbs_ringing":
                rv = gibbs_ringing(rv, p["retain_fraction"])
            elif name == "noise":
                rv = noise_add_mult(rv, p["sigma_add"], p["sigma_mult"], p["seed"])
        assert np.array_equal(rv.intensities, out_v.intensities)
        assert np.array_equal(rm.labels, out_m.labels)

    def test_intensity_transforms_leave_mask_untouched(self, rng):
        v = Volume3D(rng.normal(100, 10, (20, 20, 20)))
        m = LabelMask((rng.uniform(0, 1, (20, 20, 20)) > 0.9).astype(np.uint8))
        spatial = ("elastic", "rotation", "flip")
        spec = AugmentSpec.from_json(
            {
                **{name: {"enabled": False} for name in spatial},
                **{name: {"probability": 1.0} for name in TRANSFORM_ORDER if name not in spatial},
                "master_seed": 2,
            }
        )
        out_v, out_m, record = apply_augmentation(v, m, spec, "scan-int")
        assert any(r["applied"] for r in record)
        assert not np.array_equal(out_v.intensities, v.intensities)
        assert np.array_equal(out_m.labels, m.labels)

    def test_spec_json_round_trip(self):
        spec = AugmentSpec(master_seed=77)
        back = AugmentSpec.from_json(spec.to_json())
        assert back == spec

    def test_spec_json_format_frozen(self):
        assert AugmentSpec().to_json() == DEFAULT_SPEC_JSON
        disabled = {name: {**DEFAULT_SPEC_JSON[name], "enabled": False} for name in TRANSFORM_ORDER}
        assert AugmentSpec.disabled(4).to_json() == {**disabled, "master_seed": 4}

    def test_spec_validates_ranges(self):
        for section in (
            {"rotation": {"probability": 1.5}},
            {"rotation": {"max_degrees": -1.0}},
            {"blur": {"sigma_range_mm": [2.0, 1.0]}},
            {"motion_ghost": {"n_ghosts_range": [1, 4]}},
            {"gibbs_ringing": {"retain_range": [0.0, 1.0]}},
        ):
            with pytest.raises(ConfigError):
                AugmentSpec.from_json(section)

    @pytest.mark.parametrize("rec", BAD_SPECS.values(), ids=BAD_SPECS.keys())
    def test_spec_rejects_bad_json(self, rec):
        with pytest.raises(ConfigError):
            AugmentSpec.from_json(rec)
