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
from .volume import LabelMask, ProbabilityVolume, Volume3D, cast, plane_blocks, require_same_geometry, run_blocks

# The reference scores each view's band-pass in noise units, z = (band - median) / (MAD_TO_SIGMA * MAD): the
# gain is per noise unit and the offset a z threshold. Chosen on phantoms no test or benchmark uses (seeds
# 100-105): every CMB was found at gains 2-8 and offsets 3-7, and 5 is the smallest offset that left no noise
# speckle in the unfiltered masks of 64^3 scans with 2-3 mm CMBs at noise sigma 2 and 4.
DEFAULT_LOGISTIC_GAIN = 4.0
DEFAULT_SCORE_OFFSET = 5.0
MAD_TO_SIGMA = 1.4826  # 1.4826 * MAD is the standard deviation of Gaussian noise
# The median and MAD are read from every NOISE_STRIDE-th voxel along each axis, from index 1: the reflected border
# planes have a larger band-pass variance (on 128^3 white noise, samples from index 0 read 1.6 % above the
# closed-form scale, from index 1 0.3 % below). On six 128^3 phantoms with mimics at noise sigma 4 (2-vCPU VM), a
# stride of 4 came within 2.1 % of the whole view's scale in 1.0 ms per view, a stride of 2 within 0.4 % in 8.5 ms;
# the whole view took 72 ms.
NOISE_STRIDE = 4
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


class ReferenceSegmenter:
    """Deterministic classical detector of dark round blobs.

    Score = band-pass hypointensity: the difference of two in-plane
    smoothings, sign-flipped so dark scores high, in each view's own noise
    units (:func:`noise_scale`), through a logistic centred at
    ``score_offset`` so background lands far below 0.5. The kernel sums to
    0, so no intensity window is needed and a positive affine map of the
    intensities moves no mask; a view whose band-pass has MAD 0 (a
    constant scan) is a :class:`RejectedInputError`. Each mm scale becomes
    pixels with the spacing of each in-plane axis of the view, so
    thick-slice scans keep their non-square pixels. Each plane's band-pass
    is its own, and the threads of :func:`volume.run_blocks` share the
    view's blocks of planes.
    """

    def __init__(self, cfg: ReferenceConfig = ReferenceConfig()):
        self.cfg = cfg

    def band_pass(self, v: Volume3D, view: str) -> np.ndarray:
        """The view's float32 band-pass volume, in ``v``'s layout."""
        if min(v.dims) < 2:  # two of the three views of a scan one voxel thick are lines, not planes
            raise RejectedInputError(f"reference segmenter needs at least 2 voxels along each axis, got dims {v.dims}")
        axis = view_axis(view)
        px = [s for a, s in enumerate(v.spacing) if a != axis]
        return map_plane_blocks(lambda planes: self._band(planes, px), v, view)

    def segment(self, v: Volume3D, view: str) -> np.ndarray:
        score = self.band_pass(v, view)
        centre, scale = noise_scale(score)
        if not scale > 0.0:
            raise RejectedInputError(f"reference segmenter: the {view} band-pass has no noise to scale by (MAD 0)")
        # logistic(gain * (z - offset)) = (1 + tanh(gain / 2 * (z - offset))) / 2, which cannot overflow, in place;
        # z - offset = (band - edge) / scale, with edge the band-pass at z = offset
        edge, slope = centre + self.cfg.score_offset * scale, 0.5 * self.cfg.logistic_gain / scale

        def one_block(b: tuple) -> None:
            t = score[b]
            t -= edge
            t *= slope
            np.tanh(t, out=t)
            t *= 0.5
            t += 0.5

        run_blocks(one_block, plane_blocks(score.shape))
        return score

    def _band(self, planes: np.ndarray, px: list[float]) -> np.ndarray:
        """Band-pass of a ``(b, h, w)`` block of planes whose pixels are ``px`` = (h, w) mm."""
        planes = np.ascontiguousarray(planes)
        band = ndimage.gaussian_filter(planes, (0.0, *(self.cfg.scale_max_mm / p for p in px)))
        band -= ndimage.gaussian_filter(planes, (0.0, *(self.cfg.scale_min_mm / p for p in px)))
        return band


def noise_scale(band: np.ndarray) -> tuple[float, float]:
    """``(median, MAD_TO_SIGMA * MAD)`` of every ``NOISE_STRIDE``-th voxel of ``band`` along each axis, from index 1."""
    sample = band[1::NOISE_STRIDE, 1::NOISE_STRIDE, 1::NOISE_STRIDE]
    centre = float(np.median(sample))
    return centre, MAD_TO_SIGMA * float(np.median(np.abs(sample - centre)))


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
