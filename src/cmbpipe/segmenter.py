"""Slice segmenters: ground-truth oracle, classical reference, external maps.

These stand in for the trained per-view networks behind the SliceSegmenter
contract. The oracle replays ground truth (optionally corrupted) and is
the pipeline's self-consistency probe; the reference segmenter is a
deterministic classical detector of dark round blobs, good enough to
exercise detection, metrics and statistics with a real imperfect signal;
the external segmenter replays stored probability volumes so externally
trained models can be evaluated through the same pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError, GeometryMismatchError, RejectedInputError
from .rng import derive_rng
from .triplanar import ThickSlice
from .volume import LabelMask, ProbabilityVolume

# Gain and offset tuned on a held-out phantom batch (dark discs, CNR >= 5):
# gain 40 pushes a 4 mm disc's peak probability above 0.9 while the offset
# keeps featureless background near logistic(-gain*offset) ~ 0.12, far
# below the 0.5 that would put fused background at the 0.125 threshold.
DEFAULT_LOGISTIC_GAIN = 40.0
DEFAULT_SCORE_OFFSET = 0.05
DEFAULT_DARKNESS_WEIGHT = 1.0
DEFAULT_SYMMETRY_WEIGHT = 1.0
SYMMETRY_RADII_MM = (1.0, 2.0, 3.0, 4.0, 5.0)


@dataclass(frozen=True)
class ReferenceConfig:
    scale_min_mm: float = 1.0
    scale_max_mm: float = 4.0
    darkness_weight: float = DEFAULT_DARKNESS_WEIGHT
    symmetry_weight: float = DEFAULT_SYMMETRY_WEIGHT
    logistic_gain: float = DEFAULT_LOGISTIC_GAIN
    score_offset: float = DEFAULT_SCORE_OFFSET
    pixel_spacing_mm: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.scale_min_mm < self.scale_max_mm):
            raise ConfigError(
                f"need 0 < scale_min < scale_max, got ({self.scale_min_mm}, {self.scale_max_mm})"
            )
        if self.score_offset < 0:
            raise ConfigError("score_offset must be non-negative")
        if self.pixel_spacing_mm <= 0:
            raise ConfigError("pixel_spacing_mm must be positive")


class OracleSegmenter:
    """Replays the ground-truth mask, flipping each pixel with ``corruption_rate``."""

    def __init__(self, gt: LabelMask, corruption_rate: float = 0.0, seed: int = 0):
        if not (0.0 <= corruption_rate < 1.0):
            raise ConfigError(f"corruption_rate must be in [0, 1), got {corruption_rate}")
        self.gt = gt
        self.corruption_rate = corruption_rate
        self.seed = seed

    def segment(self, thick_slice: ThickSlice) -> np.ndarray:
        if self.gt.dims != thick_slice.parent.shape:
            raise GeometryMismatchError(
                f"ground truth dims {self.gt.dims} do not match volume dims {thick_slice.parent.shape}"
            )
        sel: list = [slice(None)] * 3
        sel[thick_slice.axis] = thick_slice.index
        plane = self.gt.labels[tuple(sel)].astype(np.float32)
        if self.corruption_rate > 0.0:
            rng = derive_rng(self.seed, "oracle", thick_slice.view, thick_slice.index)
            flips = rng.uniform(size=plane.shape) < self.corruption_rate
            plane = np.where(flips, 1.0 - plane, plane)
        return plane


def _radial_symmetry(plane: np.ndarray, radii_px) -> np.ndarray:
    """Antisymmetric dark-center vote map (fast-radial-symmetry flavor).

    Each pixel votes +|grad| one radius against its gradient (towards a dark
    center) and -|grad| one radius along it, so inverting the image flips
    the sign of the response exactly.
    """
    gi, gj = np.gradient(plane)
    mag = np.hypot(gi, gj)
    nz = mag > 0
    if not nz.any():
        return np.zeros_like(plane)
    ii, jj = np.nonzero(nz)
    m = mag[ii, jj]
    ui = gi[ii, jj] / m
    uj = gj[ii, jj] / m
    h, w = plane.shape
    acc = np.zeros_like(plane)
    for r in radii_px:
        votes = np.zeros_like(plane)
        for sign in (-1.0, 1.0):
            ti = np.clip(np.rint(ii + sign * r * ui).astype(int), 0, h - 1)
            tj = np.clip(np.rint(jj + sign * r * uj).astype(int), 0, w - 1)
            np.add.at(votes, (ti, tj), -sign * m)
        # normalize by ring size so the response tracks contrast, not radius
        acc += ndimage.gaussian_filter(votes, sigma=max(r / 2.0, 0.5)) / (2.0 * np.pi * r)
    return acc / len(radii_px)


class ReferenceSegmenter:
    """Deterministic classical detector of dark round blobs.

    Score = darkness_weight * band-pass hypointensity (difference of two
    in-plane smoothings, sign-flipped so dark scores high) +
    symmetry_weight * radial-symmetry response over 1-5 mm radii, mapped
    through a logistic centered at ``score_offset`` so featureless
    background lands well below 0.5 and cannot ride the fusion threshold.
    Inverting the image maps the score to its negative about zero, so
    bright blobs score symmetrically low.
    """

    def __init__(self, cfg: ReferenceConfig = ReferenceConfig()):
        self.cfg = cfg

    def segment(self, thick_slice: ThickSlice) -> np.ndarray:
        plane = thick_slice.central.astype(np.float64)
        lo, hi = float(plane.min()), float(plane.max())
        if lo < 0.0 or hi > 1.0:
            raise RejectedInputError(f"reference segmenter needs intensities in [0, 1], got [{lo}, {hi}]")
        px = self.cfg.pixel_spacing_mm
        band = ndimage.gaussian_filter(plane, self.cfg.scale_max_mm / px) - ndimage.gaussian_filter(
            plane, self.cfg.scale_min_mm / px
        )
        radii_px = [max(r / px, 1.0) for r in SYMMETRY_RADII_MM]
        symmetry = _radial_symmetry(plane, radii_px)
        score = self.cfg.darkness_weight * band + self.cfg.symmetry_weight * symmetry
        return 1.0 / (1.0 + np.exp(-self.cfg.logistic_gain * (score - self.cfg.score_offset)))


class ExternalSegmenter:
    """Replays planes of a stored per-view probability volume."""

    def __init__(self, prob: ProbabilityVolume):
        self.prob = prob

    def segment(self, thick_slice: ThickSlice) -> np.ndarray:
        if self.prob.dims != thick_slice.parent.shape:
            raise GeometryMismatchError(
                f"stored probability dims {self.prob.dims} do not match volume dims {thick_slice.parent.shape}"
            )
        sel: list = [slice(None)] * 3
        sel[thick_slice.axis] = thick_slice.index
        return self.prob.values[tuple(sel)]
