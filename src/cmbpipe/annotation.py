"""Volumetric ground-truth masks from CMB center-point annotations.

A microbleed annotated only by its center point is grown into a mask by
estimating, for every voxel of a small patch around the center, the
partial-volume fraction

    alpha = (I_pixel - I_mean) / (I_center - I_mean)

where I_center is the (snapped) center intensity and I_mean the mean
background intensity sampled on a thin spherical shell just outside the
patch. Voxels with alpha above a dataset-dependent threshold are labeled,
and only the connected component containing the center is kept so that a
vessel crossing the patch cannot leak into the label.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (
    AnnotationSkippedWarning,
    ConfigError,
    DegenerateAnnotationWarning,
    require,
)
from .rng import derive_rng
from .volume import LabelMask, Volume3D, VoxelIndex, WorldPoint, extrema, world_to_voxel

DEFAULT_ALPHA_THRESHOLD = 0.65
DEFAULT_PATCH_HALFWIDTH_MM = 5.0
SNAP_RADIUS_MM = 1.0
SHELL_INNER_MM = 5.0
SHELL_OUTER_MM = 7.0
ALPHA_BOUND = "(0, 1)"
RADIUS_BOUND = "(0, inf)"  # mm, of the patch and the shell
SNAP_RADIUS_BOUND = "[0, inf)"  # mm
FRACTION_BOUND = "[0, 1]"


@dataclass(frozen=True)
class CMBAnnotation:
    """One point-annotated microbleed."""

    center: WorldPoint
    alpha_threshold: float = DEFAULT_ALPHA_THRESHOLD
    patch_halfwidth_mm: float = DEFAULT_PATCH_HALFWIDTH_MM

    def __post_init__(self):
        require(self.alpha_threshold, ALPHA_BOUND, "alpha_threshold")
        require(self.patch_halfwidth_mm, RADIUS_BOUND, "patch_halfwidth_mm")


def _offsets_within(radius_mm: float, spacing) -> np.ndarray:
    """Integer voxel offsets whose physical length is <= radius_mm."""
    half = [int(np.floor(radius_mm / s)) for s in spacing]
    axes = [np.arange(-h, h + 1) for h in half]
    oi, oj, ok = np.meshgrid(*axes, indexing="ij")
    offs = np.stack([oi.ravel(), oj.ravel(), ok.ravel()], axis=1)
    dist = np.linalg.norm(offs * np.asarray(spacing), axis=1)
    return offs[dist <= radius_mm]


def _snap_to_darkest(v: Volume3D, center_vox: np.ndarray, snap_radius_mm: float) -> VoxelIndex:
    """Darkest voxel within snap_radius_mm of the clicked center."""
    base = np.rint(center_vox).astype(int)
    offs = _offsets_within(snap_radius_mm, v.spacing)
    cand = base + offs
    dims = np.asarray(v.dims)
    ok = np.all((cand >= 0) & (cand < dims), axis=1)
    cand = cand[ok]
    vals = v.intensities[cand[:, 0], cand[:, 1], cand[:, 2]]
    best = cand[int(np.argmin(vals))]
    return VoxelIndex(*(int(x) for x in best))


def _shell_mean(v: Volume3D, center: VoxelIndex, inner_mm: float, outer_mm: float) -> float:
    """Mean intensity over the spherical shell (inner_mm, outer_mm] around center."""
    offs = _offsets_within(outer_mm, v.spacing)
    dist = np.linalg.norm(offs * np.asarray(v.spacing), axis=1)
    offs = offs[dist > inner_mm]
    cand = np.asarray(center) + offs
    dims = np.asarray(v.dims)
    ok = np.all((cand >= 0) & (cand < dims), axis=1)
    cand = cand[ok]
    if len(cand) == 0:
        return float(v.intensities.mean())
    return float(v.intensities[cand[:, 0], cand[:, 1], cand[:, 2]].mean())


def _component_containing(candidate: np.ndarray, start: tuple[int, int, int]) -> np.ndarray:
    """26-connected component of a boolean array containing ``start`` (empty if ``start`` is unset)."""
    labeled, _ = ndimage.label(candidate, structure=np.ones((3, 3, 3), dtype=bool))
    return (labeled == labeled[start]) & candidate


def synthesize_mask(
    v: Volume3D,
    annotations,
    snap_radius_mm: float = SNAP_RADIUS_MM,
    shell_inner_mm: float = SHELL_INNER_MM,
    shell_outer_mm: float = SHELL_OUTER_MM,
) -> LabelMask:
    """Grow volumetric labels from point annotations; union over annotations.

    Per annotation: snap the click to the darkest voxel within
    ``snap_radius_mm``, measure the background mean on the
    (shell_inner_mm, shell_outer_mm] shell, threshold alpha inside the
    patch cube, keep the component containing the center. Degenerate or
    out-of-volume annotations are skipped with a warning; the rest are
    still processed.
    """
    require(snap_radius_mm, SNAP_RADIUS_BOUND, "snap_radius_mm")
    require(shell_inner_mm, RADIUS_BOUND, "shell_inner_mm")
    require(shell_outer_mm, RADIUS_BOUND, "shell_outer_mm")
    if shell_inner_mm >= shell_outer_mm:
        raise ConfigError(f"need shell_inner_mm < shell_outer_mm, got ({shell_inner_mm}, {shell_outer_mm})")
    labels = np.zeros(v.dims, dtype=bool)
    dims = np.asarray(v.dims)
    darkest, brightest = extrema(v.intensities)
    dynamic_range = float(brightest - darkest)
    for idx, ann in enumerate(annotations):
        coords, inside = world_to_voxel(v, ann.center)
        if not inside:
            warnings.warn(
                f"annotation {idx} at {tuple(ann.center)} mm is outside the volume; skipped",
                AnnotationSkippedWarning,
                stacklevel=2,
            )
            continue
        center = _snap_to_darkest(v, coords, snap_radius_mm)
        mean_intensity = _shell_mean(v, center, shell_inner_mm, shell_outer_mm)

        i_center = float(v.intensities[tuple(center)])
        if abs(i_center - mean_intensity) < 1e-9 * max(dynamic_range, 1e-300):
            warnings.warn(
                f"annotation {idx} at {tuple(ann.center)} mm has no contrast; skipped",
                DegenerateAnnotationWarning,
                stacklevel=2,
            )
            continue

        half = np.array([int(np.floor(ann.patch_halfwidth_mm / s)) for s in v.spacing])
        lo = np.maximum(np.asarray(center) - half, 0)
        hi = np.minimum(np.asarray(center) + half + 1, dims)
        patch = v.intensities[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
        alpha = (patch - mean_intensity) / (i_center - mean_intensity)
        candidate = alpha > ann.alpha_threshold
        local_center = tuple(np.asarray(center) - lo)
        component = _component_containing(candidate, local_center)
        labels[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] |= component
    return LabelMask(labels, v.spacing, v.origin)


def partition_subjects(subject_ids, seed: int, fractions=(0.7, 0.1, 0.2)):
    """Randomly split subjects into (train, validation, test) id sets.

    The split is by subject, deterministic for a given seed, and independent
    of the input ordering. Sizes are the rounded fractions; the remainder
    goes to train.
    """
    subject_ids = list(subject_ids)
    ids = sorted(set(subject_ids))
    if len(ids) != len(subject_ids):
        raise ConfigError("subject_ids contains duplicates")
    if len(ids) < 3:
        raise ConfigError(f"need at least 3 subjects to partition, got {len(ids)}")
    for f in fractions:
        require(f, FRACTION_BOUND, "fractions")
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must be 3 values summing to 1, got {fractions}")

    n = len(ids)
    n_val = int(np.floor(fractions[1] * n + 0.5))
    n_test = int(np.floor(fractions[2] * n + 0.5))
    n_train = n - n_val - n_test
    if n_train < 0:
        raise ConfigError(f"rounded fractions exceed the subject count ({n_val} + {n_test} > {n})")

    order = derive_rng(seed, "partition").permutation(n)
    shuffled = [ids[i] for i in order]
    train = set(shuffled[:n_train])
    val = set(shuffled[n_train : n_train + n_val])
    test = set(shuffled[n_train + n_val :])
    return train, val, test
