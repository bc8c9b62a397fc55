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
    require_same_geometry,
    require_unit_interval,
    run_blocks,
    thread_runs,
)

# Gain and offset tuned on a held-out phantom batch (dark discs, CNR >= 5):
# gain 40 pushes a 4 mm disc's peak probability above 0.9 while the offset
# keeps featureless background near logistic(-gain*offset) ~ 0.12, far
# below the 0.5 that would put fused background at the 0.125 threshold.
DEFAULT_LOGISTIC_GAIN = 40.0
DEFAULT_SCORE_OFFSET = 0.05
SYMMETRY_RADII_MM = (1.0, 2.0, 3.0, 4.0, 5.0)
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

    A clean oracle (rate 0) converts the ground truth to float32 once, each
    thread of :func:`volume.run_blocks` casting one :func:`volume.thread_runs`
    run of planes, and returns that one read-only array for every view.
    """

    def __init__(self, gt: LabelMask, corruption_rate: float = 0.0, seed: int = 0):
        require(corruption_rate, CORRUPTION_RATE_BOUND, "corruption_rate")
        self.gt = gt
        self.corruption_rate = corruption_rate
        self.seed = seed
        self._clean = None
        if corruption_rate == 0.0:
            self._clean = np.empty(gt.dims, dtype=np.float32)
            run_blocks(lambda planes: np.copyto(self._clean[planes], gt.labels[planes]), thread_runs(gt.dims[0]))
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


def _smooth(planes: np.ndarray, sigma: tuple[float, float], out: np.ndarray | None = None) -> np.ndarray:
    """In-plane Gaussian, ``sigma`` = (h, w) pixels, of each plane of a ``(b, h, w)`` block, into ``out`` if given."""
    return ndimage.gaussian_filter(planes, (0.0, *sigma), output=out)


def _vote_coordinate(pos: np.ndarray, unit: np.ndarray, step: float, size: int, out: np.ndarray) -> np.ndarray:
    """``clip(rint(pos + step * unit), 0, size - 1)`` in float64, written to ``out`` with the same rounding."""
    np.multiply(unit, step, out=out)
    out += pos
    np.rint(out, out=out)
    return np.clip(out, 0, size - 1, out=out)


def _radial_symmetry(planes: np.ndarray, radii_px) -> np.ndarray:
    """Antisymmetric dark-center vote maps of a ``(b, h, w)`` block (fast-radial-symmetry flavor).

    Each radius is a pair ``(r_h, r_w)`` of pixels along h and w, so one
    radius in mm spans the same distance on non-square pixels. Each pixel
    votes +|grad| one radius against its pixel-space gradient (towards a
    dark center) and -|grad| one radius along it, each axis's offset
    scaled by that axis's radius, so inverting the image flips the sign of
    the response exactly. Votes stay in their own plane. Each radius is
    one ``bincount`` over the block with every
    +|grad| vote before every -|grad| vote, so each bin adds its votes in
    the order of the per-plane ``np.add.at`` definition. Every radius
    refills one vote-target buffer, so about 12 block-sized arrays are live.
    """
    _, h, w = planes.shape
    gi, gj = np.gradient(planes, axis=(1, 2))
    mag = np.hypot(gi, gj)
    src = np.flatnonzero(mag)
    n = src.size
    if n == 0:
        return np.zeros_like(planes)  # no pixel votes (bincount of nothing would be an int array)
    weights = np.empty(2 * n)  # +|grad| for the votes against the gradient, then -|grad|
    m = np.take(mag.ravel(), src, out=weights[:n])
    np.negative(m, out=weights[n:])
    ui, uj = gi.ravel()[src] / m, gj.ravel()[src] / m
    del gi, gj, mag
    row, jj = np.divmod(src, w)
    plane_start, ii = np.divmod(row, h)
    plane_start *= h * w
    del src, row
    targets = np.empty(2 * n, dtype=np.intp)
    scratch = np.empty(n)
    acc = np.zeros_like(planes)
    for rh, rw in radii_px:
        for half, sign in ((slice(None, n), -1.0), (slice(n, None), 1.0)):
            # flat target = i * w + j + plane start; every term is an exact integer
            np.multiply(_vote_coordinate(ii, ui, sign * rh, h, scratch), w, out=targets[half], casting="unsafe")
            np.add(targets[half], _vote_coordinate(jj, uj, sign * rw, w, scratch), out=targets[half], casting="unsafe")
            targets[half] += plane_start
        votes = np.bincount(targets, weights, minlength=planes.size).reshape(planes.shape)
        # normalize by ring size so the response tracks contrast, not radius (2 * pi * r on square pixels)
        votes = _smooth(votes, (max(rh / 2.0, 0.5), max(rw / 2.0, 0.5)), out=votes)
        votes /= np.pi * (rh + rw)
        acc += votes
        del votes  # before the next radius's bincount
    acc /= len(radii_px)
    return acc


class ReferenceSegmenter:
    """Deterministic classical detector of dark round blobs.

    Score = band-pass hypointensity (difference of two in-plane
    smoothings, sign-flipped so dark scores high) + radial-symmetry
    response over 1-5 mm radii, mapped through a logistic
    centered at ``score_offset`` so featureless background lands well below
    0.5 and cannot ride the fusion threshold. Inverting the image maps the
    score to its negative about zero, so bright blobs score symmetrically
    low. The volume is scored on its own grid: each mm scale and radius
    is converted to pixels with the spacing of each in-plane axis of the
    view, so thick-slice scans keep their non-square pixels. Every plane
    of the view is scored on its own, and the threads of
    :func:`volume.run_blocks` share the view's blocks of planes.
    """

    def __init__(self, cfg: ReferenceConfig = ReferenceConfig()):
        self.cfg = cfg

    def segment(self, v: Volume3D, view: str) -> np.ndarray:
        require_unit_interval(v.intensities, "reference segmenter intensities")
        if min(v.dims) < 2:  # an in-plane gradient needs two pixels along each axis of every view
            raise RejectedInputError(f"reference segmenter needs at least 2 voxels along each axis, got dims {v.dims}")
        axis = view_axis(view)
        px = [s for a, s in enumerate(v.spacing) if a != axis]
        return map_plane_blocks(lambda planes: self._probability(planes, px), v, view)

    def _probability(self, planes: np.ndarray, px: list[float]) -> np.ndarray:
        """Probabilities of a ``(b, h, w)`` block of planes whose pixels are ``px`` = (h, w) mm."""
        cfg = self.cfg
        planes = np.ascontiguousarray(planes)
        # the symmetry map first, so its peak working set is not stacked on the band-pass
        score = _radial_symmetry(planes, [tuple(max(r / p, 1.0) for p in px) for r in SYMMETRY_RADII_MM])
        band = _smooth(planes, tuple(cfg.scale_max_mm / p for p in px))
        band -= _smooth(planes, tuple(cfg.scale_min_mm / p for p in px))
        score += band
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
