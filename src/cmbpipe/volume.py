"""3D volume representation and intensity operations.

Volumes are axis-aligned scalar grids in a fixed axis order
(sagittal-index, coronal-index, axial-index), i.e. array axis 0 runs along
world x, axis 1 along world y, axis 2 along world z. Orientation is
normalized at load time (see ``cmbpipe.scanio``), so nothing here handles
rotation matrices. A grid may have any dims and a different spacing per
axis; every stage runs on the scan's own grid, so nothing here resamples.
All operations are pure: inputs are never mutated and the stored arrays
are read-only.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateNormalizationWarning,
    GeometryMismatchError,
    NonFiniteDataError,
    RejectedInputError,
    require,
)

Triple = tuple[float, float, float]

SPACING_BOUND = "(0, inf)"  # mm
PERCENTILE_BOUND = "[0, 100]"


class VoxelIndex(NamedTuple):
    i: int
    j: int
    k: int


class WorldPoint(NamedTuple):
    """A position in world millimeters."""

    x: float
    y: float
    z: float


def _freeze(arr: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous view of ``arr`` (a copy only if it is not C-contiguous); ``arr`` stays writable."""
    arr = np.ascontiguousarray(arr).view()
    arr.flags.writeable = False
    return arr


# Block pools share blocks of about this many voxels, so that each thread's working set stays small:
# 0.5 MiB of complex128 lines per FFT block in ``augment``, and about 3 times its float64 size for a
# reference segmenter block (2 planes at 128^3: its contiguous copy and the two smoothings). On a 2-vCPU
# VM at 128^3 on two threads (median of 7), the three reference views took 0.35 s with blocks of 32k,
# 64k or 128k voxels and 0.41-0.49 s with 16k; 128k held 4 MiB more peak RSS than 32k.
# The phantom renders and draws its noise in these blocks too; on two threads a 256^3 phantom took
# 0.25-0.30 s (median of 8) with blocks of 2^14 to 2^18 voxels and 0.39-0.44 s with blocks of 2^20 or
# 2^22, too few blocks to share evenly. A 128^3 phantom with vessels and calcifications took 43-55 ms
# (median of 30) with blocks of 2^14 to 2^18 voxels and 68-81 ms with blocks of 2^20 or 2^22. The
# phantom's smooth-field pass runs in the same blocks: each writes its unscaled field into its planes of
# the output and takes their min and max there, and the render pass scales the field in place. Range
# reductions (:func:`extrema`) do not use these blocks: on two threads at 128^3 (median of 40) they
# took 1.70 ms against 1.45 ms for ``arr.min(); arr.max()`` on float64, 1.75 against 0.69 on float32
# and 0.90 against 0.11 on uint8.
POOL_BLOCK_VOXELS = 1 << 15

# :func:`extrema` takes the min and then the max of steps of this many bytes, so the max reads a step
# the min has just brought into cache. At 256^3 on a 2-vCPU VM (median of 30), a float64 range took
# 24.5 ms as ``arr.min(); arr.max()``, 16.8 ms in these steps on one thread and 11.2 ms on two; 128 KiB
# steps took 25.3 ms on two threads and 2 MiB steps 11.8 ms. A float32 range took 12.4 against 5.8 ms.
EXTREMA_STEP_BYTES = 1 << 19
# Arrays below this size are reduced on the calling thread, where a thread start costs more than the
# second CPU saves: in steps on one thread against two (medians of 60), 8 MiB took 0.78-0.80 against
# 0.85-0.92 ms, 12 MiB 1.14-1.19 against 1.13-1.23 ms and 16 MiB of float64 1.59-1.62 against
# 1.37-1.41 ms.
EXTREMA_POOL_BYTES = 16 << 20


def plane_blocks(shape: tuple[int, ...], axis: int = 0) -> list[tuple[slice, ...]]:
    """Index tuples of consecutive blocks of planes across ``axis`` of ``shape``, about ``POOL_BLOCK_VOXELS`` each.

    The blocks together cover the grid; the last slice of each tuple picks
    the block's planes of ``axis``.
    """
    n = shape[axis]
    step = max(POOL_BLOCK_VOXELS // (int(np.prod(shape)) // n), 1)
    return [(slice(None),) * axis + (slice(start, min(start + step, n)),) for start in range(0, n, step)]


_THREADS: ContextVar[int | None] = ContextVar("threads", default=None)  # None: one per CPU
THREADS_BOUND = "[1, inf)"


def thread_count() -> int:
    """Threads per block pool and ``.nii.gz`` read or write: the :func:`threads` setting, else one per usable CPU."""
    n = _THREADS.get()
    if n is not None:
        return n
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextmanager
def threads(n: int | None):
    """Give every pool started inside a ``with`` block ``n`` threads (``None``: one per CPU).

    The setting holds for the thread that enters the block; a thread started
    elsewhere keeps its own. The previous setting comes back on exit, also
    on an error. Outputs do not depend on the setting.
    """
    if n is not None:
        require(n, THREADS_BOUND, "thread count")
    token = _THREADS.set(n)
    try:
        yield
    finally:
        _THREADS.reset(token)


def run_blocks(fn, blocks) -> None:
    """Call ``fn(block)`` once for each of ``blocks``, shared among :func:`thread_count` threads.

    The calling thread is one of them, and no more threads run than there
    are blocks. Each thread takes the next block as it finishes one, in the
    order of ``blocks``. Once a block has raised, no thread takes another,
    and the error is raised here when every thread has stopped. ``fn`` must
    write only what its own block owns; the result is then the same for any
    thread count.
    """
    todo = iter(blocks)
    lock = threading.Lock()
    failed = threading.Event()

    def drain() -> None:
        while True:
            with lock:
                block = None if failed.is_set() else next(todo, None)
            if block is None:
                return
            try:
                fn(block)
            except BaseException:
                failed.set()
                raise

    workers = min(thread_count(), len(blocks))
    # The calling thread drains blocks too: each thread allocates from its own malloc arena, which
    # keeps its high-water mark, so every extra thread holds about one more block working set.
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:  # starts no thread for one worker
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
    for helper in helpers:
        helper.result()  # re-raises a block's error


def thread_runs(n: int) -> list[slice]:
    """``n`` items cut into one contiguous run per :func:`thread_count` thread, as even as they come.

    For a single pass over a whole array that reads or writes memory no
    cache holds, where a thread running through its own stretch beats
    threads taking turns at small blocks: on two threads of a 2-vCPU VM,
    the clean oracle's cast of a 256^3 uint8 mask into a new float32 array
    took 12.5 ms in two runs, 18.4 ms in ``plane_blocks`` and 21.1 ms as
    one ``astype`` (medians of 21).
    """
    runs = min(thread_count(), n)
    return [slice(r * n // runs, (r + 1) * n // runs) for r in range(runs)]


def extrema(arr: np.ndarray) -> tuple:
    """``(arr.min(), arr.max())``, each NaN if ``arr`` holds a NaN; an empty array raises as ``min`` does.

    The values are read in ``EXTREMA_STEP_BYTES`` steps, and each thread
    takes one :func:`thread_runs` run of steps; an array under
    ``EXTREMA_POOL_BYTES`` is one run on the calling thread. A
    non-contiguous array is copied first.
    """
    flat = arr.reshape(-1)
    step = max(EXTREMA_STEP_BYTES // flat.itemsize, 1)
    n_steps = -(-flat.size // step)
    lows, highs = np.empty(n_steps, flat.dtype), np.empty(n_steps, flat.dtype)

    def reduce(run: slice) -> None:
        for s in range(run.start, run.stop):
            values = flat[s * step : (s + 1) * step]
            lows[s], highs[s] = values.min(), values.max()

    run_blocks(reduce, thread_runs(n_steps) if flat.nbytes >= EXTREMA_POOL_BYTES else [slice(0, n_steps)])
    return lows.min(), highs.max()


def cast(src: np.ndarray, dtype) -> np.ndarray:
    """``np.ascontiguousarray(src, dtype)``, copied by the pool threads in one :func:`thread_runs` run each.

    The runs split the axis of ``src`` with the largest stride, so each
    thread reads one stretch of its memory however the copy transposes it.
    """
    out = np.empty(src.shape, dtype)
    axis = int(np.argmax(np.abs(src.strides)))

    def copy(run: slice) -> None:
        block = (slice(None),) * axis + (run,)
        np.copyto(out[block], src[block], casting="unsafe")

    run_blocks(copy, thread_runs(src.shape[axis]))
    return out


def require_unit_interval(arr: np.ndarray, what: str) -> None:
    """Raise :class:`RejectedInputError` unless every value of ``arr`` lies in [0, 1]; NaN or Inf raises :class:`NonFiniteDataError`."""
    lo, hi = (float(x) for x in extrema(arr))
    if not (lo >= 0.0 and hi <= 1.0):
        error = RejectedInputError if np.isfinite((lo, hi)).all() else NonFiniteDataError
        raise error(f"{what} outside [0, 1]: min {lo}, max {hi}")


class Grid:
    """A non-empty 3D array with physical voxel spacing and world origin.

    Each grid type is a frozen dataclass whose first field holds the array.
    The array is read as the type's ``_dtype`` (``None``: as given), and
    the type's ``_checked`` rejects bad values and returns the array to
    store read-only. ``origin`` is the world position (mm) of the center of
    voxel (0,0,0).
    """

    _dtype = None
    spacing: Triple
    origin: Triple

    def __post_init__(self):
        name = fields(self)[0].name
        arr = np.asarray(getattr(self, name), dtype=self._dtype)
        if arr.ndim != 3 or arr.size == 0:
            raise RejectedInputError(f"{name} must be a non-empty 3D array, got shape {arr.shape}")
        arr = self._checked(np.ascontiguousarray(arr))
        spacing = tuple(float(s) for s in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        if len(spacing) != 3 or len(origin) != 3:
            raise RejectedInputError("spacing and origin must have 3 components")
        if any(not np.isfinite(s) or s <= 0 for s in spacing):
            raise RejectedInputError(f"spacing must be positive and finite, got {spacing}")
        if any(not np.isfinite(o) for o in origin):
            raise RejectedInputError(f"origin must be finite, got {origin}")
        object.__setattr__(self, name, _freeze(arr))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def dims(self) -> tuple[int, int, int]:
        return getattr(self, fields(self)[0].name).shape

    @property
    def voxel_volume_mm3(self) -> float:
        return float(np.prod(self.spacing))

    def with_array(self, arr: np.ndarray):
        """New grid of the same type and geometry holding ``arr``."""
        return type(self)(arr, self.spacing, self.origin)


@dataclass(frozen=True)
class Volume3D(Grid):
    """Dense scalar grid; ``intensities`` is stored float64."""

    intensities: np.ndarray
    spacing: Triple = (1.0, 1.0, 1.0)
    origin: Triple = (0.0, 0.0, 0.0)
    _dtype = np.float64

    def _checked(self, arr: np.ndarray) -> np.ndarray:
        if not np.isfinite(extrema(arr)).all():  # NaN propagates; Inf is an extreme
            raise NonFiniteDataError("intensities contain NaN or Inf")
        return arr


@dataclass(frozen=True)
class LabelMask(Grid):
    """Binary label grid sharing geometry with its parent volume, stored bool.

    A bool array is stored as given. A uint8 array, such as a mask file's,
    must hold only 0 and 1 and is stored as a bool view of its memory; any
    other array must hold only 0 and 1 and is cast.
    """

    labels: np.ndarray
    spacing: Triple = (1.0, 1.0, 1.0)
    origin: Triple = (0.0, 0.0, 0.0)

    def _checked(self, arr: np.ndarray) -> np.ndarray:
        if arr.dtype == bool:
            return arr
        if arr.dtype == np.uint8:
            if extrema(arr)[1] > 1:
                raise RejectedInputError("labels must be binary")
            return arr.view(bool)
        uniq = np.unique(arr)
        if not np.isin(uniq, (0, 1)).all():
            raise RejectedInputError(f"labels must be binary, got values {uniq[:8]}")
        return arr.astype(bool)


@dataclass(frozen=True)
class ProbabilityVolume(Grid):
    """Per-voxel probability in [0, 1], float32, geometry of the parent volume."""

    values: np.ndarray
    spacing: Triple = (1.0, 1.0, 1.0)
    origin: Triple = (0.0, 0.0, 0.0)
    _dtype = np.float32

    def _checked(self, arr: np.ndarray) -> np.ndarray:
        require_unit_interval(arr, "probabilities")
        return arr


def require_same_geometry(a: Grid, b: Grid, what: str = "grids") -> None:
    if a.dims != b.dims or not np.allclose((*a.spacing, *a.origin), (*b.spacing, *b.origin), rtol=0.0, atol=1e-9):
        raise GeometryMismatchError(
            f"{what} disagree: dims {a.dims} vs {b.dims}, spacing {a.spacing} vs "
            f"{b.spacing}, origin {a.origin} vs {b.origin}"
        )


def world_to_voxel(v: Grid, p: WorldPoint) -> tuple[np.ndarray, bool]:
    """Map a world point (mm) to a continuous voxel coordinate.

    Returns ``(coords, inside)``; out-of-grid coordinates are legal, the
    boolean says whether the point lies within the voxel-center span
    ``[0, dim-1]`` on every axis.
    """
    coords = (np.asarray(p, dtype=np.float64) - np.asarray(v.origin)) / np.asarray(v.spacing)
    inside = bool(np.all(coords >= 0.0) and np.all(coords <= np.asarray(v.dims) - 1.0))
    return coords, inside


def normalize_intensity(v: Volume3D, lo_pct: float, hi_pct: float) -> Volume3D:
    """Clamp to the [lo_pct, hi_pct] percentile window and map affinely to [0, 1].

    A collapsed window (constant volume) returns all zeros and emits a
    :class:`DegenerateNormalizationWarning`.
    """
    require(lo_pct, PERCENTILE_BOUND, "lo_pct")
    require(hi_pct, PERCENTILE_BOUND, "hi_pct")
    if lo_pct >= hi_pct:
        raise ConfigError(f"need lo_pct < hi_pct, got ({lo_pct}, {hi_pct})")
    p_lo, p_hi = np.percentile(v.intensities, [lo_pct, hi_pct])
    if p_hi <= p_lo:
        warnings.warn(
            f"percentile window collapsed (P{lo_pct} = P{hi_pct} = {p_lo}); returning zeros",
            DegenerateNormalizationWarning,
            stacklevel=2,
        )
        return v.with_array(np.zeros(v.dims))
    out = (np.clip(v.intensities, p_lo, p_hi) - p_lo) / (p_hi - p_lo)
    return v.with_array(out)
