"""Synthetic SWI-like phantoms with planted microbleeds and mimics.

Phantoms provide verifiable ground truth: every planted CMB is a radially
symmetric Gaussian hypointensity whose alpha-fraction isosurface is known
in closed form, so the ground-truth mask can be computed analytically
rather than traced by hand. Mimics (dark vessel tubes and calcification
blobs) are planted the same way but excluded from the ground truth — they
exist to create false positives.

A phantom is rendered in blocks of axis-0 planes, in two passes that
:func:`volume.run_blocks` pools share. In the first, each block writes
its unscaled smooth field into its own planes of the output and keeps
their min and max, which give the field's scale. In the second, each
block scales its field, adds the base, applies the dips, then adds
``noise_sigma`` times the noise of each of its planes: plane ``k`` draws
from its own stream, ``derive_rng(seed, "noise", k)``. The output
depends on neither the thread count nor the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, PhantomSpecError, require
from .rng import derive_rng
from .scanio import Acquisition, ScanManifestEntry
from .volume import SPACING_BOUND, LabelMask, Volume3D, WorldPoint, plane_blocks, run_blocks

DIAMETER_RANGE_MM = (2.0, 10.0)  # clinical CMB size range
DIAMETER_BOUND = "[{}, {}]".format(*DIAMETER_RANGE_MM)
MIN_CMB_SEPARATION_MM = 4.0  # surface-to-surface
ALPHA_GT_THRESHOLD = 0.65
CONTRAST_BOUND = "(0, 1]"  # fractional dip depth
BACKGROUND_BOUNDS = {"base": "(-inf, inf)", "smooth_amplitude": "[0, inf)", "noise_sigma": "[0, inf)"}

# alpha(r) = exp(-r^2 / (2 sigma^2)) for the planted profile, so the
# alpha > t isosurface is the sphere r < sigma * sqrt(2 ln(1/t)).
GT_RADIUS_FACTOR = math.sqrt(2.0 * math.log(1.0 / ALPHA_GT_THRESHOLD))


def profile_sigma_mm(diameter_mm: float) -> float:
    """Gaussian width of a planted CMB: the visible dip spans ~ the nominal diameter."""
    return diameter_mm / 4.0


def gt_radius_mm(diameter_mm: float) -> float:
    """Radius of the analytic alpha > 0.65 ground-truth sphere."""
    return profile_sigma_mm(diameter_mm) * GT_RADIUS_FACTOR


@dataclass(frozen=True)
class CMBSpec:
    center: WorldPoint
    diameter_mm: float
    contrast: float  # fractional dip depth in CONTRAST_BOUND


@dataclass(frozen=True)
class VesselSpec:
    start: WorldPoint
    end: WorldPoint
    diameter_mm: float
    contrast: float


@dataclass(frozen=True)
class CalcificationSpec:
    center: WorldPoint
    diameter_mm: float
    contrast: float


@dataclass(frozen=True)
class BackgroundSpec:
    base: float = 100.0
    smooth_amplitude: float = 2.0
    noise_sigma: float = 2.0


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = (256, 256, 256)
    spacing: float = 1.0
    background: BackgroundSpec = field(default_factory=BackgroundSpec)
    cmbs: tuple[CMBSpec, ...] = ()
    vessels: tuple[VesselSpec, ...] = ()
    calcifications: tuple[CalcificationSpec, ...] = ()
    seed: int = 0


def _segment_point_distance(p0: np.ndarray, p1: np.ndarray, x: np.ndarray) -> float:
    seg = p1 - p0
    denom = float(seg @ seg)
    t = 0.0 if denom == 0 else float(np.clip((x - p0) @ seg / denom, 0.0, 1.0))
    return float(np.linalg.norm(x - (p0 + t * seg)))


def validate_spec(spec: PhantomSpec) -> None:
    """Raise :class:`PhantomSpecError` unless the grid, the background and every CMB and mimic are valid."""
    if len(spec.dims) != 3 or min(spec.dims) < 1:
        raise PhantomSpecError(f"dims must be 3 positive integers, got {spec.dims}")
    require(spec.spacing, SPACING_BOUND, "spacing")
    for name, bound in BACKGROUND_BOUNDS.items():
        require(getattr(spec.background, name), bound, name)
    extent = np.asarray(spec.dims) * spec.spacing
    for idx, cmb in enumerate(spec.cmbs):
        if not (DIAMETER_RANGE_MM[0] <= cmb.diameter_mm <= DIAMETER_RANGE_MM[1]):
            raise PhantomSpecError(
                f"cmb {idx}: diameter {cmb.diameter_mm} mm outside the clinical range {DIAMETER_RANGE_MM}"
            )
    objects = [(f"cmb {i}", c, {"center": c.center}) for i, c in enumerate(spec.cmbs)]
    objects += [(f"calcification {i}", c, {"center": c.center}) for i, c in enumerate(spec.calcifications)]
    objects += [(f"vessel {i}", v, {"start": v.start, "end": v.end}) for i, v in enumerate(spec.vessels)]
    for name, obj, points in objects:
        try:
            require(obj.contrast, CONTRAST_BOUND, f"{name}: contrast")
            require(obj.diameter_mm, "(0, inf)", f"{name}: diameter_mm")
        except ConfigError as exc:
            raise PhantomSpecError(str(exc)) from None
        for where, p in points.items():
            if not np.all((np.asarray(p) >= 0) & (np.asarray(p) <= extent)):  # NaN fails too
                raise PhantomSpecError(f"{name}: {where} {tuple(p)} outside the volume")
    for i, a in enumerate(spec.cmbs):
        for j in range(i + 1, len(spec.cmbs)):
            b = spec.cmbs[j]
            gap = (
                float(np.linalg.norm(np.asarray(a.center) - np.asarray(b.center)))
                - a.diameter_mm / 2.0
                - b.diameter_mm / 2.0
            )
            if gap < MIN_CMB_SEPARATION_MM:
                raise PhantomSpecError(
                    f"cmbs {i} and {j} are {gap:.2f} mm apart surface-to-surface "
                    f"(minimum {MIN_CMB_SEPARATION_MM} mm)"
                )
    # Mimics must not overlap CMBs (or each other, for blobs).
    blobs = [(np.asarray(c.center), c.diameter_mm / 2.0, f"cmb {i}") for i, c in enumerate(spec.cmbs)]
    calcs = [(np.asarray(c.center), c.diameter_mm / 2.0, f"calcification {i}") for i, c in enumerate(spec.calcifications)]
    for i, (cc, cr, cname) in enumerate(calcs):
        for oc, orad, oname in blobs + calcs[:i]:
            if float(np.linalg.norm(cc - oc)) - cr - orad <= 0.0:
                raise PhantomSpecError(f"{cname} overlaps {oname}")
    for vi, vessel in enumerate(spec.vessels):
        p0, p1 = np.asarray(vessel.start, float), np.asarray(vessel.end, float)
        vr = vessel.diameter_mm / 2.0
        for oc, orad, oname in blobs + calcs:
            if _segment_point_distance(p0, p1, oc) - vr - orad <= 0.0:
                raise PhantomSpecError(f"vessel {vi} overlaps {oname}")


def _axis_coords(spec: PhantomSpec):
    return [np.arange(n, dtype=np.float64) * spec.spacing for n in spec.dims]


def _smooth_field(spec: PhantomSpec, blocks: list[slice], arr: np.ndarray) -> float:
    """Write the unscaled low-frequency field into ``arr``; return the factor that scales it to ``smooth_amplitude``.

    The factor takes the field's largest magnitude to ``smooth_amplitude``
    (0 when that is 0, 1 for a flat field). The field is a 3x3x3 cosine
    series. Its p and q sums are taken once into an (I, J, 3) table, and
    each of the axis-0 ``blocks``, which one pool shares, is one matmul of
    its rows against the k basis, written into its planes of ``arr``
    while their min and max are taken.
    """
    amp = spec.background.smooth_amplitude
    if amp == 0.0:
        run_blocks(lambda planes: arr[planes].fill(0.0), blocks)
        return 0.0
    rng = derive_rng(spec.seed, "background")
    coeff = rng.standard_normal((3, 3, 3))
    coeff[0, 0, 0] = 0.0  # DC belongs to `base`
    xs = _axis_coords(spec)
    basis = []
    for axis in range(3):
        extent = spec.dims[axis] * spec.spacing
        freq = np.arange(3)[:, None] * np.pi / extent
        basis.append(np.cos(freq * xs[axis][None, :]))
    pq = np.tensordot(basis[0], coeff, axes=(0, 0))  # (I, q, r): the sum over p
    table = np.tensordot(pq, basis[1], axes=(1, 0)).transpose(0, 2, 1).copy()  # (I, J, r): then over q
    lows, highs = np.empty(len(blocks)), np.empty(len(blocks))

    def field(b: int) -> None:
        planes = blocks[b]
        out = arr[planes]
        np.matmul(table[planes].reshape(-1, 3), basis[2], out=out.reshape(-1, spec.dims[2]))
        lows[b], highs[b] = out.min(), out.max()

    run_blocks(field, range(len(blocks)))
    peak = max(highs.max(), -lows.min())  # the largest |value|, without an np.abs copy
    return amp / peak if peak > 0 else 1.0


def _box(spec: PhantomSpec, lo_mm, hi_mm) -> tuple[slice, ...] | None:
    """Voxels whose centers may lie in world [lo_mm, hi_mm], within the grid; None if none."""
    box = []
    for lo, hi, n in zip(lo_mm, hi_mm, spec.dims):
        start, stop = max(math.floor(lo / spec.spacing), 0), min(math.ceil(hi / spec.spacing) + 1, n)
        if start >= stop:
            return None
        box.append(slice(start, stop))
    return tuple(box)


def _box_coords(spec: PhantomSpec, box: tuple[slice, ...]) -> list[np.ndarray]:
    """World coordinates of the box's voxel centers along each axis, shaped to broadcast against the others."""
    shapes = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
    return [(np.arange(s.start, s.stop, dtype=np.float64) * spec.spacing).reshape(sh) for s, sh in zip(box, shapes)]


# A dip is a pair ``(box, factor)``: the box of voxels it reaches, and ``factor(rows)``, the factor
# that multiplies the box's axis-0 ``rows`` (counted from the box's first plane). Both are set up
# once per dip, and each block of planes evaluates only its own rows.


def _gaussian_dip(spec: PhantomSpec, blob: CMBSpec | CalcificationSpec) -> tuple | None:
    """The blob's dip (1 - contrast * exp(-r^2 / 2 sigma^2)), sigma its profile width; None if it reaches no voxel."""
    sigma = profile_sigma_mm(blob.diameter_mm)
    reach = 4.0 * sigma
    box = _box(spec, [c - reach for c in blob.center], [c + reach for c in blob.center])
    if box is None:
        return None
    sq = [(x - c) ** 2 for x, c in zip(_box_coords(spec, box), blob.center)]

    def factor(rows: slice) -> np.ndarray:
        return 1.0 - blob.contrast * np.exp(-(sq[0][rows] + sq[1] + sq[2]) / (2.0 * sigma**2))

    return box, factor


def _tube_dip(spec: PhantomSpec, vessel: VesselSpec) -> tuple | None:
    """The vessel's tube profile, a Gaussian of the distance to its segment; None if it reaches no voxel."""
    sigma = profile_sigma_mm(vessel.diameter_mm)
    reach = 4.0 * sigma
    ends = list(zip(vessel.start, vessel.end))
    box = _box(spec, [min(e) - reach for e in ends], [max(e) + reach for e in ends])
    if box is None:
        return None
    xs = _box_coords(spec, box)
    p0 = np.asarray(vessel.start, dtype=np.float64)
    seg = np.asarray(vessel.end, dtype=np.float64) - p0
    denom = float(seg @ seg)

    def factor(rows: slice) -> np.ndarray:
        x = (xs[0][rows], *xs[1:])
        terms = [(x[a] - p0[a]) * seg[a] for a in range(3)]
        t = np.clip(sum(terms[1:], terms[0]) / denom, 0.0, 1.0) if denom > 0 else 0.0  # start == end: a point
        nearest = [p0[a] + t * seg[a] for a in range(3)]
        d2 = (x[0] - nearest[0]) ** 2 + (x[1] - nearest[1]) ** 2 + (x[2] - nearest[2]) ** 2
        return 1.0 - vessel.contrast * np.exp(-d2 / (2.0 * sigma**2))

    return box, factor


def _gt_sphere(labels: np.ndarray, spec: PhantomSpec, cmb: CMBSpec) -> None:
    radius = gt_radius_mm(cmb.diameter_mm)
    c = np.asarray(cmb.center, dtype=np.float64)
    box = _box(spec, c - radius, c + radius)
    if box is None:
        return
    xs = [x - c[a] for a, x in enumerate(_box_coords(spec, box))]
    r2 = xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2
    labels[box] |= r2 < radius**2


def generate_phantom(
    spec: PhantomSpec, scan_id: str = "phantom-0000", subject_id: str | None = None, path: str = ""
) -> tuple[Volume3D, LabelMask, ScanManifestEntry]:
    """Deterministically render a phantom, its analytic ground truth, and a manifest entry."""
    validate_spec(spec)
    arr = np.empty(spec.dims)
    blocks = [planes for (planes,) in plane_blocks(spec.dims)]
    base, sigma = float(spec.background.base), spec.background.noise_sigma
    scale = _smooth_field(spec, blocks, arr)
    dips = [_gaussian_dip(spec, blob) for blob in spec.cmbs + spec.calcifications]
    dips = [dip for dip in dips + [_tube_dip(spec, v) for v in spec.vessels] if dip is not None]

    def render(planes: slice) -> None:
        """Scale the block's field in ``arr``, add the base and dips, then add ``sigma`` times each plane's own draw."""
        out = arr[planes]
        out *= scale
        out += base
        for box, factor in dips:
            lo, hi = max(box[0].start, planes.start), min(box[0].stop, planes.stop)
            if lo < hi:
                out[(slice(lo - planes.start, hi - planes.start), *box[1:])] *= factor(
                    slice(lo - box[0].start, hi - box[0].start)
                )
        if sigma > 0:
            noise = np.empty_like(out)
            for k, plane in zip(range(planes.start, planes.stop), noise):
                derive_rng(spec.seed, "noise", k).standard_normal(out=plane)
            noise *= sigma
            out += noise

    run_blocks(render, blocks)

    labels = np.zeros(spec.dims, dtype=bool)
    for cmb in spec.cmbs:
        _gt_sphere(labels, spec, cmb)

    spacing3 = (spec.spacing,) * 3
    volume = Volume3D(arr, spacing3, (0.0, 0.0, 0.0))
    mask = LabelMask(labels, spacing3, (0.0, 0.0, 0.0))
    entry = ScanManifestEntry(
        scan_id=scan_id,
        subject_id=subject_id if subject_id is not None else scan_id,
        dataset_tag="PHANTOM",
        path=path,
        cmb_centers=tuple(c.center for c in spec.cmbs),
        p_cmb=None,
        acquisition=Acquisition(3.0, 20.0, spec.spacing, "PHANTOM-SIM"),
    )
    return volume, mask, entry


def random_phantom_spec(
    seed: int,
    dims: tuple[int, int, int] = (256, 256, 256),
    spacing: float = 1.0,
    n_cmbs: int | None = None,
    n_cmbs_range: tuple[int, int] = (1, 10),
    diameter_range: tuple[float, float] = (2.0, 10.0),
    contrast_range: tuple[float, float] = (0.5, 0.9),
    n_vessels: int = 0,
    n_calcifications: int = 0,
    background: BackgroundSpec = BackgroundSpec(),
) -> PhantomSpec:
    """Place non-overlapping objects by seeded rejection sampling.

    Centers snap to voxel centers so the analytic ground truth of even a 2 mm
    CMB contains the voxel it was planted in. Every parameter is checked first.
    """
    grid = PhantomSpec(dims=tuple(dims), spacing=spacing, background=background, seed=seed)
    validate_spec(grid)
    ranges = {
        "n_cmbs_range": (n_cmbs_range, "[0, inf)"),
        "diameter_range": (diameter_range, DIAMETER_BOUND),
        "contrast_range": (contrast_range, CONTRAST_BOUND),
    }
    for name, ((lo, hi), bound) in ranges.items():
        try:
            require(lo, bound, name)
            require(hi, bound, name)
        except ConfigError as exc:
            raise PhantomSpecError(str(exc)) from None
        if lo > hi:
            raise PhantomSpecError(f"{name} must be ascending, got ({lo}, {hi})")
    if min(n_vessels, n_calcifications, 0 if n_cmbs is None else n_cmbs) < 0:
        raise PhantomSpecError(f"object counts must be non-negative, got {n_cmbs}, {n_vessels}, {n_calcifications}")
    rng = derive_rng(seed, "placement")
    if n_cmbs is None:
        n_cmbs = int(rng.integers(n_cmbs_range[0], n_cmbs_range[1] + 1))
    extent = np.asarray(dims) * spacing

    placed: list[tuple[np.ndarray, float]] = []

    def try_place(radius: float, margin: float) -> np.ndarray | None:
        if np.any(extent - 2.0 * margin <= 0):
            return None  # object cannot fit this volume at all
        for _ in range(200):
            c = np.rint(rng.uniform(margin, extent - margin) / spacing) * spacing
            if all(np.linalg.norm(c - pc) - radius - pr >= MIN_CMB_SEPARATION_MM for pc, pr in placed):
                return c
        return None

    cmbs = []
    for _ in range(n_cmbs):
        d = float(rng.uniform(*diameter_range))
        c = try_place(d / 2.0, d / 2.0 + 8.0)
        if c is None:
            break
        placed.append((c, d / 2.0))
        cmbs.append(CMBSpec(WorldPoint(*(float(x) for x in c)), d, float(rng.uniform(*contrast_range))))

    calcs = []
    for _ in range(n_calcifications):
        d = float(rng.uniform(2.0, 6.0))
        c = try_place(d / 2.0, d / 2.0 + 8.0)
        if c is None:
            continue
        placed.append((c, d / 2.0))
        calcs.append(CalcificationSpec(WorldPoint(*(float(x) for x in c)), d, float(rng.uniform(*contrast_range))))

    vessels = []
    fits = bool(np.all(extent >= 16.0))  # a vessel keeps 8 mm from every face, like the blobs' margin
    for _ in range(n_vessels if fits else 0):
        d = float(rng.uniform(1.0, 2.0))
        axis = int(rng.integers(0, 3))
        for _ in range(200):
            p0 = rng.uniform(8.0, extent - 8.0)
            p1 = p0.copy()
            p1[axis] = extent[axis] - 8.0
            p0a = p0.copy()
            p0a[axis] = 8.0
            clear = all(
                _segment_point_distance(p0a, p1, pc) - d / 2.0 - pr >= MIN_CMB_SEPARATION_MM
                for pc, pr in placed
            )
            if clear:
                vessels.append(
                    VesselSpec(
                        WorldPoint(*(float(x) for x in p0a)),
                        WorldPoint(*(float(x) for x in p1)),
                        d,
                        float(rng.uniform(0.4, 0.7)),
                    )
                )
                break

    return replace(grid, cmbs=tuple(cmbs), vessels=tuple(vessels), calcifications=tuple(calcs))
