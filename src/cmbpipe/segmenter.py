"""Whole-view segmenters: ground-truth oracle, classical reference, external maps.

These stand in for the trained per-view networks behind the ViewSegmenter
contract: one call turns a volume and a view into that view's whole
probability volume. The oracle replays ground truth (optionally
corrupted) and is the pipeline's self-consistency probe; the reference
segmenter is a deterministic classical detector of dark round blobs, good
enough to exercise detection, metrics and statistics with a real
imperfect signal; the external segmenter replays stored probability
volumes so externally trained models can be evaluated through the same
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError, RejectedInputError, require
from .rng import derive_rng
from .triplanar import VIEWS, map_plane_blocks, view_axis
from .volume import (
    LabelMask,
    ProbabilityVolume,
    Volume3D,
    cast,
    require_same_geometry,
    require_unit_interval,
)

# Gain 40 pushes the band-pass of a 4 mm dark disc at CNR 25 to a peak
# probability above 0.9 (about 0.91), while the offset keeps featureless
# background at logistic(-gain*offset) ~ 0.12, far below the 0.5 that would
# put fused background at the 0.125 threshold.
DEFAULT_LOGISTIC_GAIN = 40.0
DEFAULT_SCORE_OFFSET = 0.05
# The percentile window of volume.normalize_intensity for the reference's input: the full range, which the
# offset was tuned for (on the CLI's own 96^3 phantoms a 1/99 window gives about 2,800 false positives per scan).
REFERENCE_WINDOW = (0.0, 100.0)
CORRUPTION_RATE_BOUND = "[0, 1)"
REFERENCE_BOUNDS = {  # each ReferenceConfig field's bound; the scales must also be in order
    "scale_min_mm": "(0, inf)", "scale_max_mm": "(0, inf)", "logistic_gain": "(0, inf)", "score_offset": "[0, inf)",
}


@dataclass(frozen=True)
class ReferenceConfig:
    scale_min_mm: float = 1.0
    scale_max_mm: float = 4.0
    logistic_gain: float = DEFAULT_LOGISTIC_GAIN
    score_offset: float = DEFAULT_SCORE_OFFSET

    def __post_init__(self):
        for name, bound in REFERENCE_BOUNDS.items():
            require(getattr(self, name), bound, name)
        if self.scale_min_mm >= self.scale_max_mm:
            raise ConfigError(f"need scale_min_mm < scale_max_mm, got ({self.scale_min_mm}, {self.scale_max_mm})")


class OracleSegmenter:
    """Replays the ground-truth mask, flipping each pixel with ``corruption_rate``.

    A clean oracle (rate 0) converts the ground truth to float32 once, with
    :func:`volume.cast`, and returns that one read-only array for every view.
    """

    def __init__(self, gt: LabelMask, corruption_rate: float = 0.0, seed: int = 0):
        require(corruption_rate, CORRUPTION_RATE_BOUND, "corruption_rate")
        self.gt = gt
        self.corruption_rate = corruption_rate
        self.seed = seed
        self._clean = None
        if corruption_rate == 0.0:
            self._clean = cast(gt.labels, np.float32)
            self._clean.flags.writeable = False

    def segment(self, v: Volume3D, view: str) -> np.ndarray:
        axis = view_axis(view)
        require_same_geometry(self.gt, v, "ground truth and volume")
        if self._clean is not None:
            return self._clean
        flips = np.empty(np.moveaxis(self.gt.labels, axis, 0).shape, dtype=bool)
        # one stream per plane of the view, so each plane's flips are fixed by (seed, view, plane)
        for k, flip in enumerate(flips):
            np.less(derive_rng(self.seed, "oracle", view, k).uniform(size=flip.shape), self.corruption_rate, out=flip)
        # On {0, 1}, 1 - x where flipped is x XOR flip: one pass in grid order, then one contiguous cast.
        return np.not_equal(self.gt.labels, np.moveaxis(flips, 0, axis)).astype(np.float32)


def _smooth(planes: np.ndarray, sigma: tuple[float, float]) -> np.ndarray:
    """In-plane Gaussian, ``sigma`` = (h, w) pixels, of each plane of a ``(b, h, w)`` block."""
    return ndimage.gaussian_filter(planes, (0.0, *sigma))


class ReferenceSegmenter:
    """Deterministic classical detector of dark round blobs.

    Score = band-pass hypointensity: the difference of two in-plane
    smoothings, sign-flipped so dark scores high, mapped through a logistic
    centered at ``score_offset`` so featureless background lands well below
    0.5 and cannot ride the fusion threshold. Inverting the image maps the
    band-pass to its negative, so bright blobs score symmetrically low. The
    volume is scored on its own grid: each mm scale is converted to pixels
    with the spacing of each in-plane axis of the view, so thick-slice scans
    keep their non-square pixels. Every plane of the view is scored on its
    own, and the threads of :func:`volume.run_blocks` share the view's
    blocks of planes.
    """

    def __init__(self, cfg: ReferenceConfig = ReferenceConfig()):
        self.cfg = cfg

    def segment(self, v: Volume3D, view: str) -> np.ndarray:
        require_unit_interval(v.intensities, "reference segmenter intensities")
        if min(v.dims) < 2:  # two of the three views of a scan one voxel thick are lines, not planes
            raise RejectedInputError(f"reference segmenter needs at least 2 voxels along each axis, got dims {v.dims}")
        axis = view_axis(view)
        px = [s for a, s in enumerate(v.spacing) if a != axis]
        return map_plane_blocks(lambda planes: self._probability(planes, px), v, view)

    def _probability(self, planes: np.ndarray, px: list[float]) -> np.ndarray:
        """Probabilities of a ``(b, h, w)`` block of planes whose pixels are ``px`` = (h, w) mm."""
        cfg = self.cfg
        planes = np.ascontiguousarray(planes)
        score = _smooth(planes, tuple(cfg.scale_max_mm / p for p in px))
        score -= _smooth(planes, tuple(cfg.scale_min_mm / p for p in px))
        # 1 / (1 + exp(-gain * (score - offset))), in place
        score -= cfg.score_offset
        score *= -cfg.logistic_gain
        np.exp(score, out=score)
        score += 1.0
        return np.divide(1.0, score, out=score)


class ExternalSegmenter:
    """Replays stored probability volumes, one per view, keyed by view; each of ``VIEWS`` must have one."""

    def __init__(self, probs: dict[str, ProbabilityVolume]):
        if sorted(probs) != sorted(VIEWS):
            raise ConfigError(f"stored probabilities must be keyed by the views {VIEWS}, got {tuple(probs)}")
        self.probs = probs

    def segment(self, v: Volume3D, view: str) -> np.ndarray:
        view_axis(view)
        prob = self.probs[view]
        require_same_geometry(prob, v, "stored probabilities and volume")
        return prob.values
