"""Thickened-slice decomposition and multiplicative three-view fusion.

A volume is cut, on its own grid, into thickened 2D slices — each plane
stacked with its two neighbors as 3 channels — along the axial, sagittal
and coronal views. The grid need not be cubic or isotropic: a view's
planes are the axis planes of any grid, and on a thick-slice scan some of
them have non-square pixels. A segmenter turns each view into one
probability volume in a single call (a per-slice model plugs in through
:class:`SliceAdapter`), and the three are fused voxel-wise by
multiplication: a detection survives only where all three views agree, so
any view near zero vetoes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .errors import ConfigError, RejectedInputError, require
from .volume import LabelMask, ProbabilityVolume, Volume3D, plane_blocks, require_same_geometry, run_blocks

VIEWS = ("axial", "sagittal", "coronal")
VIEW_AXIS = {"axial": 2, "sagittal": 0, "coronal": 1}
TAU_BOUND = "(0, 1)"
DEFAULT_TAU = 0.5**3  # each of the three views at 0.5


def view_axis(view: str) -> int:
    """The array axis that ``view``'s planes are cut across; an unknown view is a :class:`ConfigError`."""
    if view not in VIEW_AXIS:
        raise ConfigError(f"view must be one of {VIEWS}, got '{view}'")
    return VIEW_AXIS[view]


@dataclass(frozen=True)
class ThickSlice:
    """One plane plus its two neighbors, stacked as 3 channels.

    ``channels[1]`` is plane ``index``; channels 0 and 2 are the planes
    below and above with edge replication at the boundary. Channels are
    materialized on access so a full volume's worth of slices stays cheap.
    """

    view: str
    index: int
    parent: np.ndarray = field(repr=False)

    @property
    def _planes(self) -> np.ndarray:
        return np.moveaxis(self.parent, VIEW_AXIS[self.view], 0)

    @property
    def central(self) -> np.ndarray:
        return self._planes[self.index]  # a view; callers copy if they mutate

    @property
    def channels(self) -> np.ndarray:
        k, last = self.index, len(self._planes) - 1
        return self._planes[[max(k - 1, 0), k, min(k + 1, last)]]


def fuse_views(p_ax: ProbabilityVolume, p_sag: ProbabilityVolume, p_cor: ProbabilityVolume) -> ProbabilityVolume:
    """Per-voxel product of the three view probabilities (full-agreement fusion).

    The product is accumulated in float64 so the result is exactly
    symmetric in its arguments; any zero vetoes the voxel. It is computed
    in the blocks of planes of :func:`volume.plane_blocks`, which the
    threads of :func:`volume.run_blocks` share. Each block goes
    through its own float64 buffer and is rounded into one float32 volume,
    with the same arithmetic as ``(a.astype(float64) * b * c).astype(float32)``.
    """
    require_same_geometry(p_ax, p_sag, "view probability volumes")
    require_same_geometry(p_ax, p_cor, "view probability volumes")
    a, b, c = p_ax.values, p_sag.values, p_cor.values
    fused = np.empty(a.shape, dtype=np.float32)

    def one_block(block: tuple) -> None:
        prod = np.multiply(a[block], b[block], dtype=np.float64)
        np.multiply(prod, c[block], out=prod)
        fused[block] = prod

    run_blocks(one_block, plane_blocks(a.shape, 0))
    return ProbabilityVolume(fused, p_ax.spacing, p_ax.origin)


def binarize_fused(p: ProbabilityVolume, tau: float = DEFAULT_TAU) -> LabelMask:
    """Label voxels with fused probability strictly above tau."""
    require(tau, TAU_BOUND, "tau")
    return LabelMask(np.greater(p.values, tau), p.spacing, p.origin)


class ViewSegmenter(Protocol):
    """Contract for per-view probability predictors (the trained-model seam)."""

    def segment(self, v: Volume3D, view: str) -> np.ndarray:
        """Probability volume of one view, in ``v``'s own (i, j, k) layout, values in [0, 1]."""
        ...


class SliceSegmenter(Protocol):
    """Contract for per-slice predictors such as a 2D model; plug one in with :class:`SliceAdapter`."""

    def segment(self, thick_slice: ThickSlice) -> np.ndarray:
        """Probability plane for the central slice, same in-plane dims, values in [0, 1]."""
        ...


def map_plane_blocks(fn, v: Volume3D, view: str) -> np.ndarray:
    """Float32 volume, in ``v``'s layout, of ``fn`` applied to consecutive blocks of a view's planes.

    ``fn(planes)`` gets one of the view's blocks of planes from
    :func:`volume.plane_blocks` as one ``(b, H, W)`` array, plane axis
    first, and returns values of that shape, which are written straight
    into one preallocated output. The blocks are shared by the threads of
    :func:`volume.run_blocks`. Each block writes only its own planes, so the
    output is the same for any thread count.
    """
    axis = view_axis(view)
    out = np.empty(v.dims, dtype=np.float32)

    def one_block(b: tuple) -> None:
        np.moveaxis(out[b], axis, 0)[...] = fn(np.moveaxis(v.intensities[b], axis, 0))

    run_blocks(one_block, plane_blocks(v.dims, axis))
    return out


class SliceAdapter:
    """Runs a per-slice segmenter (``segment(ThickSlice) -> plane``) behind the whole-view seam.

    The planes run on the calling thread, since a model need not be safe
    to call from several threads at once.
    """

    def __init__(self, slice_segmenter: SliceSegmenter):
        self.slice_segmenter = slice_segmenter

    def segment(self, v: Volume3D, view: str) -> np.ndarray:
        out = np.empty(v.dims, dtype=np.float32)
        for k, dst in enumerate(np.moveaxis(out, view_axis(view), 0)):
            plane = np.asarray(self.slice_segmenter.segment(ThickSlice(view, k, v.intensities)))
            if plane.shape != dst.shape:
                raise RejectedInputError(f"plane {k} has shape {plane.shape}, expected {dst.shape}")
            dst[...] = plane
        return out


def segment_view(v: Volume3D, view: str, segmenter: ViewSegmenter) -> ProbabilityVolume:
    """One view's probability volume, on ``v``'s own grid, from one whole-view segmenter call."""
    view_axis(view)
    values = np.asarray(segmenter.segment(v, view))
    if values.shape != v.dims:
        raise RejectedInputError(f"{view} probabilities have shape {values.shape}, expected {v.dims}")
    return ProbabilityVolume(values, v.spacing, v.origin)


def segment_volume(v: Volume3D, segmenter: ViewSegmenter) -> dict:
    """Per-view probability volumes, keyed by view, from one segmenter that is told each view."""
    return {view: segment_view(v, view, segmenter) for view in VIEWS}
