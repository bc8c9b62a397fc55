import hashlib
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from cmbpipe.detect import connected_components
from cmbpipe.errors import PhantomSpecError
from cmbpipe.phantom import (
    BackgroundSpec,
    CalcificationSpec,
    CMBSpec,
    PhantomSpec,
    VesselSpec,
    _smooth_field,
    generate_phantom,
    gt_radius_mm,
    random_phantom_spec,
)
from cmbpipe.rng import derive_rng
from cmbpipe.volume import WorldPoint, plane_blocks, threads

from oracles import alpha_ball_voxels


def test_no_cmbs_empty_ground_truth():
    spec = PhantomSpec(dims=(32, 32, 32), seed=1)
    _, gt, entry = generate_phantom(spec)
    assert gt.labels.sum() == 0
    assert entry.cmb_centers == ()
    assert entry.dataset_tag == "PHANTOM"


def test_same_seed_bit_identical():
    spec = random_phantom_spec(5, dims=(48, 48, 48), n_cmbs=3, n_vessels=1, n_calcifications=1)
    v1, m1, _ = generate_phantom(spec)
    v2, m2, _ = generate_phantom(spec)
    assert np.array_equal(v1.intensities, v2.intensities)
    assert np.array_equal(m1.labels, m2.labels)


@pytest.mark.parametrize("dims, spacing", [((12, 40, 40), 1.0), ((40, 40, 40), 0.35)])
def test_vessel_that_cannot_fit_is_skipped(dims, spacing):
    """An axis under 16 mm leaves no room for a vessel 8 mm inside both faces."""
    spec = random_phantom_spec(4, dims=dims, spacing=spacing, n_cmbs=0, n_vessels=2)
    assert spec.vessels == ()


def test_vessel_fits_a_16mm_grid():
    spec = random_phantom_spec(4, dims=(16, 16, 16), n_cmbs=0, n_vessels=1)
    assert len(spec.vessels) == 1


def test_2mm_cmb_gt_matches_analytic_isosurface():
    center = WorldPoint(16.0, 16.0, 16.0)
    spec = PhantomSpec(
        dims=(32, 32, 32),
        background=BackgroundSpec(100.0, 0.0, 0.0),
        cmbs=(CMBSpec(center, 2.0, 0.8),),
        seed=0,
    )
    _, gt, _ = generate_phantom(spec)
    analytic = alpha_ball_voxels((32, 32, 32), 1.0, center, gt_radius_mm(2.0))
    assert np.array_equal(gt.labels, analytic)
    # the radius places exactly the center voxel inside for a 2 mm CMB
    assert gt.labels.sum() == 1


def test_gt_volume_within_one_shell_of_analytic():
    for diameter in (2.0, 5.0, 8.0, 10.0):
        center = WorldPoint(24.0, 24.0, 24.0)
        spec = PhantomSpec(
            dims=(48, 48, 48),
            background=BackgroundSpec(100.0, 0.0, 0.0),
            cmbs=(CMBSpec(center, diameter, 0.7),),
            seed=0,
        )
        _, gt, _ = generate_phantom(spec)
        r = gt_radius_mm(diameter)
        inner = alpha_ball_voxels((48, 48, 48), 1.0, center, max(r - 1.0, 0.0)).sum()
        outer = alpha_ball_voxels((48, 48, 48), 1.0, center, r + 1.0).sum()
        assert inner <= gt.labels.sum() <= outer


def test_planted_count_equals_component_count():
    for seed in range(5):
        spec = random_phantom_spec(seed, dims=(96, 96, 96), n_cmbs=6, diameter_range=(5.0, 9.0))
        assert len(spec.cmbs) == 6, "placement must succeed at this density"
        _, gt, _ = generate_phantom(spec)
        assert len(connected_components(gt, 26)) == 6


def test_profile_depth_matches_contrast():
    center = WorldPoint(24.0, 24.0, 24.0)
    spec = PhantomSpec(
        dims=(48, 48, 48),
        background=BackgroundSpec(100.0, 0.0, 0.0),
        cmbs=(CMBSpec(center, 8.0, 0.6),),
        seed=0,
    )
    vol, _, _ = generate_phantom(spec)
    assert vol.intensities[24, 24, 24] == pytest.approx(100.0 * (1 - 0.6), rel=1e-9)
    assert vol.intensities[0, 0, 0] == pytest.approx(100.0, rel=1e-6)


def test_cmb_separation_enforced():
    spec = PhantomSpec(
        dims=(64, 64, 64),
        cmbs=(
            CMBSpec(WorldPoint(30.0, 30.0, 30.0), 8.0, 0.7),
            CMBSpec(WorldPoint(38.0, 30.0, 30.0), 8.0, 0.7),  # 0 mm surface gap
        ),
        seed=0,
    )
    with pytest.raises(PhantomSpecError, match="surface-to-surface"):
        generate_phantom(spec)


def test_diameter_range_enforced():
    spec = PhantomSpec(
        dims=(64, 64, 64),
        cmbs=(CMBSpec(WorldPoint(30.0, 30.0, 30.0), 12.0, 0.7),),
        seed=0,
    )
    with pytest.raises(PhantomSpecError, match="diameter"):
        generate_phantom(spec)


@pytest.mark.parametrize(
    "ranges, match",
    [
        ({"contrast_range": (2.0, 5.0)}, r"contrast_range must lie in \(0, 1\], got 2.0"),
        ({"contrast_range": (0.0, 0.5)}, r"contrast_range must lie in \(0, 1\], got 0.0"),
        ({"contrast_range": (0.5, 1.5)}, r"contrast_range must lie in \(0, 1\], got 1.5"),
        ({"diameter_range": (1.0, 5.0)}, r"diameter_range must lie in \[2.0, 10.0\], got 1.0"),
        ({"diameter_range": (5.0, 12.0)}, r"diameter_range must lie in \[2.0, 10.0\], got 12.0"),
    ],
)
def test_random_spec_ranges_checked_before_any_draw(ranges, match):
    """A range reaching outside what ``generate_phantom`` accepts is rejected by the call itself."""
    with pytest.raises(PhantomSpecError, match=match):
        random_phantom_spec(1, dims=(32, 32, 32), n_cmbs=1, **ranges)


def test_mimic_overlap_rejected():
    spec = PhantomSpec(
        dims=(64, 64, 64),
        cmbs=(CMBSpec(WorldPoint(30.0, 30.0, 30.0), 6.0, 0.7),),
        calcifications=(CalcificationSpec(WorldPoint(32.0, 30.0, 30.0), 4.0, 0.7),),
        seed=0,
    )
    with pytest.raises(PhantomSpecError, match="overlaps"):
        generate_phantom(spec)


GOOD_CALC = CalcificationSpec(WorldPoint(8.0, 8.0, 8.0), 3.0, 0.5)
GOOD_VESSEL = VesselSpec(WorldPoint(2.0, 2.0, 2.0), WorldPoint(2.0, 2.0, 14.0), 1.0, 0.5)


@pytest.mark.parametrize(
    "mimics, match",
    [
        ({"calcifications": (replace(GOOD_CALC, contrast=5.0),)}, "calcification 0: contrast"),
        ({"calcifications": (replace(GOOD_CALC, diameter_mm=0.0),)}, "calcification 0: diameter"),
        ({"vessels": (replace(GOOD_VESSEL, diameter_mm=0.0),)}, "vessel 0: diameter"),
        ({"vessels": (replace(GOOD_VESSEL, contrast=0.0),)}, "vessel 0: contrast"),
        ({"calcifications": (replace(GOOD_CALC, center=WorldPoint(80.0, 8.0, 8.0)),)}, "calcification 0: center"),
        ({"vessels": (replace(GOOD_VESSEL, end=WorldPoint(2.0, float("nan"), 14.0)),)}, "vessel 0: end"),
        ({"vessels": (replace(GOOD_VESSEL, start=WorldPoint(-1.0, 2.0, 2.0)),)}, "vessel 0: start"),
    ],
)
def test_bad_mimic_rejected_before_rendering(mimics, match):
    """A mimic's contrast, diameter and placement are checked like a CMB's, as a spec error (exit 1)."""
    spec = PhantomSpec(dims=(16, 16, 16), **mimics)
    with pytest.raises(PhantomSpecError, match=match):
        generate_phantom(spec)
    generate_phantom(PhantomSpec(dims=(16, 16, 16), calcifications=(GOOD_CALC,), vessels=(GOOD_VESSEL,)))


def test_mimics_darken_image_but_not_ground_truth():
    base_spec = dict(dims=(64, 64, 64), background=BackgroundSpec(100.0, 0.0, 0.0), seed=0)
    clean = PhantomSpec(**base_spec)
    with_mimics = PhantomSpec(
        **base_spec,
        vessels=(VesselSpec(WorldPoint(8.0, 20.0, 20.0), WorldPoint(56.0, 20.0, 20.0), 2.0, 0.5),),
        calcifications=(CalcificationSpec(WorldPoint(40.0, 40.0, 40.0), 4.0, 0.6),),
    )
    v_clean, gt_clean, _ = generate_phantom(clean)
    v_mim, gt_mim, _ = generate_phantom(with_mimics)
    assert gt_mim.labels.sum() == gt_clean.labels.sum() == 0
    assert v_mim.intensities[20, 20, 20] < v_clean.intensities[20, 20, 20]  # vessel axis
    assert v_mim.intensities[40, 40, 40] < v_clean.intensities[40, 40, 40]  # calcification


def test_vessel_is_a_tube():
    spec = PhantomSpec(
        dims=(48, 48, 48),
        background=BackgroundSpec(100.0, 0.0, 0.0),
        vessels=(VesselSpec(WorldPoint(8.0, 24.0, 24.0), WorldPoint(40.0, 24.0, 24.0), 2.0, 0.5),),
        seed=0,
    )
    vol, _, _ = generate_phantom(spec)
    on_axis = vol.intensities[10:39, 24, 24]
    assert np.all(on_axis < 60.0)
    assert vol.intensities[24, 24, 40] == pytest.approx(100.0, rel=1e-6)


def test_vessel_from_a_point_to_itself_is_a_blob():
    """A vessel whose start is its end dips like a calcification of its diameter and contrast at that point."""
    point, base = WorldPoint(20.0, 17.5, 23.0), dict(dims=(40, 40, 40), background=BackgroundSpec(100.0, 0.0, 0.0))
    vessel, _, _ = generate_phantom(PhantomSpec(**base, vessels=(VesselSpec(point, point, 3.0, 0.6),)))
    blob, _, _ = generate_phantom(PhantomSpec(**base, calcifications=(CalcificationSpec(point, 3.0, 0.6),)))
    assert vessel.intensities.min() < 60.0
    assert np.array_equal(vessel.intensities, blob.intensities)


def test_random_spec_respects_separation():
    spec = random_phantom_spec(9, dims=(128, 128, 128), n_cmbs=8)
    for i, a in enumerate(spec.cmbs):
        for b in spec.cmbs[i + 1 :]:
            gap = (
                float(np.linalg.norm(np.asarray(a.center) - np.asarray(b.center)))
                - a.diameter_mm / 2
                - b.diameter_mm / 2
            )
            assert gap >= 4.0


BLOCKED_DIMS = (37, 11, 5)  # 37 planes: no block size used below divides it


@pytest.mark.parametrize("block_voxels", [1, 4 * 11 * 5, None])
def test_noise_is_one_draw_per_plane(monkeypatch, block_voxels):
    """Plane k of the noise is sigma times a draw from the stream ``derive_rng(seed, "noise", k)``."""
    if block_voxels is not None:
        monkeypatch.setattr("cmbpipe.volume.POOL_BLOCK_VOXELS", block_voxels)
        assert len(plane_blocks(BLOCKED_DIMS)) > 1
    spec = PhantomSpec(
        dims=BLOCKED_DIMS,
        background=BackgroundSpec(100.0, 2.0, 3.0),
        cmbs=(CMBSpec(WorldPoint(18.0, 5.0, 2.0), 3.0, 0.7),),
        seed=5,
    )
    draws = np.stack([derive_rng(5, "noise", k).standard_normal(BLOCKED_DIMS[1:]) for k in range(BLOCKED_DIMS[0])])
    for jobs in (1, 2):
        with threads(jobs):
            vol, _, _ = generate_phantom(spec)
            clean, _, _ = generate_phantom(replace(spec, background=BackgroundSpec(100.0, 2.0, 0.0)))
        assert np.array_equal(vol.intensities, clean.intensities + 3.0 * draws)


def test_smooth_field_scaled_by_its_largest_magnitude(monkeypatch):
    monkeypatch.setattr("cmbpipe.volume.POOL_BLOCK_VOXELS", 4 * 11 * 5)
    blocks = [planes for (planes,) in plane_blocks(BLOCKED_DIMS)]
    peak_signs = set()
    for seed in range(8):
        spec = PhantomSpec(dims=BLOCKED_DIMS, background=BackgroundSpec(100.0, 2.5, 0.0), seed=seed)
        raw, pooled = np.empty(BLOCKED_DIMS), np.empty(BLOCKED_DIMS)
        with threads(1):
            scale = _smooth_field(spec, blocks, raw)
        with threads(2):  # the pooled peak pass agrees across thread counts
            assert _smooth_field(spec, blocks, pooled) == scale
        assert np.array_equal(pooled, raw)
        assert scale == 2.5 / np.abs(raw).max()
        vol, _, _ = generate_phantom(spec)
        assert np.array_equal(vol.intensities, raw * (2.5 / np.abs(raw).max()) + 100.0)
        peak_signs.add(bool(raw.max() > -raw.min()))
    assert peak_signs == {True, False}  # the peak came from the maximum and from the minimum


def test_phantom_bytes_hold_under_contention(monkeypatch):
    """One-plane blocks, more threads than CPUs and a short switch interval: the bytes of one thread."""
    monkeypatch.setattr("cmbpipe.volume.POOL_BLOCK_VOXELS", 1)
    spec = random_phantom_spec(5, dims=(64,) * 3, n_cmbs=3, background=BackgroundSpec(100.0, 2.0, 3.0))
    with threads(1):
        want = generate_phantom(spec)[0].intensities
    got = []

    def generate():
        with threads(8):
            got.extend(generate_phantom(spec)[0].intensities for _ in range(20))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=generate)
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not worker.is_alive()
    assert len(got) == 20 and all(np.array_equal(g, want) for g in got)


class FailingNoise:
    """The noise stream of one plane, which raises when it is drawn."""

    def standard_normal(self, *args, **kwargs):
        raise FloatingPointError("noise plane 3")


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_noise_draw_is_raised(monkeypatch, jobs):
    """A plane whose draw fails is raised through the block pool, and no thread waits for it."""
    monkeypatch.setattr("cmbpipe.volume.POOL_BLOCK_VOXELS", 4 * 11 * 5)
    monkeypatch.setattr(
        "cmbpipe.phantom.derive_rng",
        lambda seed, *keys: FailingNoise() if keys == ("noise", 3) else derive_rng(seed, *keys),
    )
    spec = PhantomSpec(dims=BLOCKED_DIMS, background=BackgroundSpec(100.0, 2.0, 3.0), seed=5)
    raised = []

    def generate():
        with threads(jobs):
            try:
                generate_phantom(spec)
            except FloatingPointError as exc:
                raised.append(exc)

    worker = threading.Thread(target=generate)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert [str(exc) for exc in raised] == ["noise plane 3"]


# sha256 of the intensities and labels of cubic phantoms with every ingredient, at noise sigma 2 and 0.
# The labels and the noiseless intensities were frozen from the whole-volume renderer that the blocked
# one replaced; the noisy intensities from the renderer that draws one noise stream per plane.
FROZEN_DIGESTS = {
    (64, 11, 2.0): (
        "a95ecd29906ccc2be96dcb74a477ba364874119b845ffe847d5b365e14fd0d2e",
        "34917cb2a18ce08a3af4c9edd82796784873c44f370472bb2f7f4f5c4a476439",
    ),
    (128, 12, 2.0): (
        "dbedfd7cbf1bfe12383ffd0eef6b70587010ee595cfac6ec10616257fed130ae",
        "0c7405ec739a57e529706bfc8400e488a6465f7d581f724f8a0d4c6f61796cfb",
    ),
    (256, 13, 2.0): (
        "49876106a3179b2025c6cb9ec46506aa6aae52838255092c778159373207def1",
        "7ec86e53566abaa7ff2ab55d61f7a70dd5dd4cc120fbd3ebef8d7dcad8781897",
    ),
    (64, 21, 0.0): (
        "d576d5ee2ec1cd44f0264940b3d9a5f3bf14be39bf5cc264f753b2a363826f5f",
        "b0b34747597e1f8a679f6a9d3f94d85dba7ef36a8901bb1c81e174cec2e27b4f",
    ),
    (96, 23, 0.0): (
        "72b0b3912d8ac708f2cd571d3cb8a56ec6bac636cd732499d4e70cd37a11d6ac",
        "0735303e87a25496eb4554c26ef2698a147cce36a6e4fcffcc1ee684ae973abe",
    ),
    (128, 22, 0.0): (
        "baba29341bf305ee1cb2ffffdfa3d02ca3e6f0e3b28a09ad0ad7f03ffcb0a630",
        "f58cd43fecf8da7821e712e107bd2609766cd2d6090a2eed4394f648f77777eb",
    ),
}


@pytest.mark.parametrize("block_voxels", [1, None], ids=["one-plane-blocks", "default-blocks"])
@pytest.mark.parametrize("n, seed, noise_sigma", list(FROZEN_DIGESTS))
def test_cubic_phantom_digests_frozen(monkeypatch, n, seed, noise_sigma, block_voxels):
    if block_voxels is not None:
        monkeypatch.setattr("cmbpipe.volume.POOL_BLOCK_VOXELS", block_voxels)
    background = BackgroundSpec(100.0, 2.0, noise_sigma)
    spec = random_phantom_spec(seed, dims=(n,) * 3, n_cmbs=6, n_vessels=2, n_calcifications=2, background=background)
    assert (len(spec.vessels), len(spec.calcifications)) == (2, 2)
    for jobs in (1, 2):
        with threads(jobs):
            vol, gt, _ = generate_phantom(spec)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (vol.intensities, gt.labels))
        assert digests == FROZEN_DIGESTS[n, seed, noise_sigma]
