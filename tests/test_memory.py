"""Allocation guards for the whole-volume steps of a scan.

Each guard traces one call with ``tracemalloc``, which sees numpy's array
allocations, and bounds its peak in units of the volume it works on. The
call runs once untraced first, so lazy imports (``scipy.spatial``) and
first-call caches are not counted. Arrays the call returns are counted:
they are allocated while tracing.
"""

import gzip
import tracemalloc

import numpy as np
import pytest

from cmbpipe.augment import bias_field, blur_volume, elastic_deform, gibbs_ringing, motion_ghost
from cmbpipe.detect import evaluate_scan
from cmbpipe.phantom import BackgroundSpec, CMBSpec, PhantomSpec, generate_phantom
from cmbpipe.scanio import read_mask, read_probability, read_volume, write_mask, write_probability, write_volume
from cmbpipe.segmenter import REFERENCE_WINDOW, ReferenceSegmenter
from cmbpipe.triplanar import binarize_fused, fuse_views, predict
from cmbpipe.volume import LabelMask, ProbabilityVolume, Volume3D, WorldPoint, normalize_intensity, threads


def traced_peak_bytes(fn) -> int:
    """Peak bytes traced while ``fn()`` runs, after one warm-up call."""
    fn()
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_evaluate_scan_labels_only_the_foreground_box():
    n = 128
    arr = np.zeros((n,) * 3, dtype=np.uint8)
    arr[100:110, 100:110, 100:110] = 1  # far from the origin, so a box from (0, 0, 0) is most of the grid
    mask = LabelMask(arr)
    peak = traced_peak_bytes(lambda: evaluate_scan(mask, mask, min_volume_mm3=4.2))
    assert peak < 0.25 * n**3 * np.dtype(np.int32).itemsize


def test_evaluate_scan_labels_a_packed_grid():
    """Blobs at opposite corners: their bounding box is the whole grid, the packed grid 11 voxels a side."""
    n = 128
    arr = np.zeros((n,) * 3, dtype=np.uint8)
    arr[:5, :5, :5] = 1
    arr[-5:, -5:, -5:] = 1
    mask = LabelMask(arr)
    peak = traced_peak_bytes(lambda: evaluate_scan(mask, mask, min_volume_mm3=4.2))
    assert peak < 0.05 * n**3 * np.dtype(np.int32).itemsize


def test_evaluate_scan_returns_detections_as_columns():
    """What the kept detections hold per component, from a mask of about 15k one-voxel components."""
    arr = np.zeros((128,) * 3, dtype=np.uint8)
    arr[::5, ::5, ::5] = 1
    pred, gt = LabelMask(arr, (0.5, 0.6, 0.7)), LabelMask(arr[::-1].copy(), (0.5, 0.6, 0.7))
    evaluate_scan(pred, gt, min_volume_mm3=0.0)
    tracemalloc.start()
    try:
        _, kept_pred, kept_gt = evaluate_scan(pred, gt, min_volume_mm3=0.0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = len(kept_pred) + len(kept_gt)
    assert n == 2 * 26**3
    assert held < 160 * n


def test_generate_phantom_adds_noise_in_blocks():
    n = 96
    spec = PhantomSpec(
        dims=(n,) * 3,
        background=BackgroundSpec(100.0, 2.0, 2.0),
        cmbs=(CMBSpec(WorldPoint(48.0, 48.0, 48.0), 6.0, 0.8),),
        seed=3,
    )
    peak = traced_peak_bytes(lambda: generate_phantom(spec))
    assert peak < 1.5 * n**3 * np.dtype(np.float64).itemsize


def test_fuse_views_writes_float32_in_blocks():
    n = 96
    views = [ProbabilityVolume(np.full((n,) * 3, p, dtype=np.float32)) for p in (0.9, 0.6, 0.3)]
    peak = traced_peak_bytes(lambda: fuse_views(*views))
    assert peak < 1.0 * n**3 * np.dtype(np.float64).itemsize


def test_binarize_fused_makes_one_byte_mask():
    n = 96
    fused = ProbabilityVolume(np.linspace(0, 1, n**3, dtype=np.float32).reshape((n,) * 3))
    peak = traced_peak_bytes(lambda: binarize_fused(fused, 0.125))
    assert peak < 1.5 * n**3


def test_predict_drops_the_views_before_the_mask():
    """The three float32 views and the fused volume are 2x the float64 volume: the views go before the mask is made."""
    n = 96
    spec = PhantomSpec(
        dims=(n,) * 3,
        background=BackgroundSpec(100.0, 2.0, 4.0),
        cmbs=(CMBSpec(WorldPoint(48.0, 48.0, 48.0), 6.0, 0.8),),
        seed=3,
    )
    v = normalize_intensity(generate_phantom(spec)[0], *REFERENCE_WINDOW)
    with threads(1):
        peak = traced_peak_bytes(lambda: predict(v, ReferenceSegmenter()))
    assert peak < 2.1 * n**3 * np.dtype(np.float64).itemsize


def _noise_volume(n):
    return Volume3D(np.random.default_rng(5).normal(100.0, 20.0, (n,) * 3))


def test_write_volume_casts_once_and_streams_the_gzip(tmp_path):
    n = 128
    v = _noise_volume(n)
    peak = traced_peak_bytes(lambda: write_volume(v, tmp_path / "vol.nii.gz", "float32"))
    assert peak < 1.5 * n**3 * np.dtype(np.float32).itemsize


def test_write_mask_writes_its_uint8_labels(tmp_path):
    n = 128
    arr = np.zeros((n,) * 3, dtype=np.uint8)
    arr[40:60, 50:80, 30:90] = 1
    mask = LabelMask(arr)
    peak = traced_peak_bytes(lambda: write_mask(mask, tmp_path / "mask.nii.gz"))
    assert peak < 3.0 * n**3


def test_read_volume_casts_and_reorients_in_one_copy(tmp_path):
    n = 128
    path = tmp_path / "vol.nii.gz"
    write_volume(_noise_volume(n), path, "float32")
    peak = traced_peak_bytes(lambda: read_volume(path))
    assert peak < 1.55 * n**3 * np.dtype(np.float64).itemsize


def test_read_volume_inflates_a_foreign_member_into_one_buffer(tmp_path):
    """A single gzip member of another writer is inflated a chunk at a time into one buffer of its ISIZE."""
    n = 128
    ours, path = tmp_path / "ours.nii.gz", tmp_path / "vol.nii.gz"
    write_volume(_noise_volume(n), ours, "float32")
    path.write_bytes(gzip.compress(gzip.decompress(ours.read_bytes())))
    peak = traced_peak_bytes(lambda: read_volume(path))
    assert peak < 1.55 * n**3 * np.dtype(np.float64).itemsize


def test_read_mask_inflates_into_one_buffer(tmp_path):
    n = 128
    arr = np.zeros((n,) * 3, dtype=np.uint8)
    arr[40:60, 50:80, 30:90] = 1
    path = tmp_path / "mask.nii.gz"
    write_mask(LabelMask(arr), path)
    peak = traced_peak_bytes(lambda: read_mask(path))
    assert peak < 2.1 * n**3


def test_read_probability_casts_float32_once(tmp_path):
    """A float32 payload is reoriented straight into the float32 grid: the decoded file and the output, no float64."""
    n = 128
    arr = np.zeros((n,) * 3, dtype=np.float32)
    arr[40:80, 50:90, 30:70] = np.random.default_rng(5).uniform(0.0, 1.0, (40,) * 3)
    path = tmp_path / "prob.nii.gz"
    write_probability(ProbabilityVolume(arr), path)
    peak = traced_peak_bytes(lambda: read_probability(path))
    assert peak < 2.15 * n**3 * np.dtype(np.float32).itemsize


@pytest.mark.parametrize("retain_fraction", [0.61, 0.8])
def test_gibbs_ringing_transforms_only_the_kept_lines(retain_fraction):
    """Two complex views of one buffer of kept lines plus the output, not a whole complex spectrum."""
    n = 96
    v = _noise_volume(n)
    peak = traced_peak_bytes(lambda: gibbs_ringing(v, retain_fraction))
    assert peak < 3.0 * n**3 * np.dtype(np.float64).itemsize


@pytest.mark.parametrize("axis", [0, 2])
def test_motion_ghost_runs_in_blocks(axis):
    n = 96
    v = _noise_volume(n)
    peak = traced_peak_bytes(lambda: motion_ghost(v, 3, 0.3, axis))
    assert peak < 2.0 * n**3 * np.dtype(np.float64).itemsize


def test_blur_volume_filters_in_its_output():
    n = 96
    v = _noise_volume(n)
    peak = traced_peak_bytes(lambda: blur_volume(v, 1.2))
    assert peak <= 1.5 * n**3 * np.dtype(np.float64).itemsize


def test_bias_field_scales_its_field_in_place():
    """One float64 field, scaled and multiplied in place: no second volume for |field| or the product."""
    n = 96
    v = _noise_volume(n)
    peak = traced_peak_bytes(lambda: bias_field(v, 3, 0.2, seed=7))
    assert peak < 1.25 * n**3 * np.dtype(np.float64).itemsize


def test_elastic_deform_builds_no_coordinate_volume():
    n = 96
    v = _noise_volume(n)
    m = LabelMask((v.intensities > 130.0).view(np.uint8))
    peak = traced_peak_bytes(lambda: elastic_deform(v, m, 32.0, 3.0, seed=7))
    assert peak < 3.0 * n**3 * np.dtype(np.float64).itemsize


def test_reference_block_working_set():
    """One reference block's working set, in units of its float64 size: every thread holds one at a time."""
    block = np.random.default_rng(7).uniform(0.0, 1.0, (4, 128, 128))  # a gradient at almost every pixel
    segmenter = ReferenceSegmenter()
    peak = traced_peak_bytes(lambda: segmenter._probability(block, (1.0, 1.0)))
    assert peak < 13.5 * block.nbytes
