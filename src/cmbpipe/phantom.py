"""Synthetic SWI-like phantoms with planted microbleeds and mimics.

Phantoms provide verifiable ground truth: every planted CMB is a radially
symmetric Gaussian hypointensity whose alpha-fraction isosurface is known
in closed form, so the ground-truth mask can be computed analytically
rather than traced by hand. Mimics (dark vessel tubes and calcification
blobs) are planted the same way but excluded from the ground truth — they
exist to create false positives.

Every planted object is a capsule: a segment, with a Gaussian profile of
the distance to it. A vessel's segment runs between its ends, and a blob's
from its center to itself. The same distance measures the clearance that
:func:`validate_spec` and :func:`random_phantom_spec` keep between objects.

A phantom is rendered in blocks of axis-0 planes, in two passes that
:func:`volume.run_blocks` pools share. In the first, each block writes
its unscaled smooth field into its own planes of the output and keeps
their min and max, which give the field's scale. In the second, each
block scales its field, adds the base, applies the dips and writes each
CMB's ground truth from the squared distance of its dip, then adds
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
FACE_MARGIN_MM = 8.0  # every randomly placed object keeps this far inside each face

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


def _segment(obj) -> tuple[np.ndarray, np.ndarray]:
    """The ends of the object's segment: a vessel's start and end, or a blob's center twice."""
    ends = (obj.start, obj.end) if isinstance(obj, VesselSpec) else (obj.center, obj.center)
    return tuple(np.asarray(p, dtype=np.float64) for p in ends)


def _segment_point_distance(p0: np.ndarray, p1: np.ndarray, x: np.ndarray) -> float:
    """Distance from ``x`` to the segment p0-p1, a point when p0 is p1."""
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
    objects = [("cmb", i, c) for i, c in enumerate(spec.cmbs)]
    objects += [("calcification", i, c) for i, c in enumerate(spec.calcifications)]
    objects += [("vessel", i, v) for i, v in enumerate(spec.vessels)]
    for kind, i, obj in objects:
        name = f"{kind} {i}"
        if kind == "cmb" and not (DIAMETER_RANGE_MM[0] <= obj.diameter_mm <= DIAMETER_RANGE_MM[1]):
            raise PhantomSpecError(
                f"{name}: diameter {obj.diameter_mm} mm outside the clinical range {DIAMETER_RANGE_MM}"
            )
        try:
            require(obj.contrast, CONTRAST_BOUND, f"{name}: contrast")
            require(obj.diameter_mm, "(0, inf)", f"{name}: diameter_mm")
        except ConfigError as exc:
            raise PhantomSpecError(str(exc)) from None
        points = {"start": obj.start, "end": obj.end} if kind == "vessel" else {"center": obj.center}
        for where, p in points.items():
            if not np.all((np.asarray(p) >= 0) & (np.asarray(p) <= extent)):  # NaN fails too
                raise PhantomSpecError(f"{name}: {where} {tuple(p)} outside the volume")
    # Each object against every blob listed before it: vessels come last, so vessel pairs go unchecked.
    for b, (kind_b, j, obj_b) in enumerate(objects):
        for kind_a, i, obj_a in objects[:b]:
            if kind_a == "vessel":
                break
            distance = _segment_point_distance(*_segment(obj_b), np.asarray(obj_a.center, dtype=np.float64))
            gap = distance - obj_b.diameter_mm / 2.0 - obj_a.diameter_mm / 2.0
            if kind_b == "cmb" and gap < MIN_CMB_SEPARATION_MM:
                raise PhantomSpecError(
                    f"cmbs {i} and {j} are {gap:.2f} mm apart surface-to-surface "
                    f"(minimum {MIN_CMB_SEPARATION_MM} mm)"
                )
            if gap <= 0.0:
                raise PhantomSpecError(f"{kind_b} {j} overlaps {kind_a} {i}")


def _smooth_field(spec: PhantomSpec, blocks: list[slice], arr: np.ndarray) -> float:
    """Write the unscaled low-frequency field into ``arr``; return the factor that scales it to ``smooth_amplitude``.

    The factor takes the field's largest magnitude to ``smooth_amplitude``
    (1 for a field that is 0 everywhere). The field is a 3x3x3 cosine
    series. Its p and q sums are taken once into an (I, J, 3) table, and
    each of the axis-0 ``blocks``, which one pool shares, is one matmul of
    its rows against the k basis, written into its planes of ``arr``
    while their min and max are taken.
    """
    rng = derive_rng(spec.seed, "background")
    coeff = rng.standard_normal((3, 3, 3))
    coeff[0, 0, 0] = 0.0  # DC belongs to `base`
    xs = _box_coords(spec, tuple(slice(0, n) for n in spec.dims))
    basis = []
    for axis in range(3):
        extent = spec.dims[axis] * spec.spacing
        freq = np.arange(3)[:, None] * np.pi / extent
        basis.append(np.cos(freq * xs[axis].reshape(1, -1)))
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
    return spec.background.smooth_amplitude / peak if peak > 0 else 1.0


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


def _dip(spec: PhantomSpec, obj: CMBSpec | VesselSpec | CalcificationSpec) -> tuple | None:
    """The object's dip ``(box, factor)``; None if it reaches no voxel.

    The dip is 1 - contrast * exp(-d^2 / 2 sigma^2), d the distance to the
    object's segment and sigma its profile width, out to 4 sigma: ``box``.
    ``factor(rows)`` gives the dip of the box's axis-0 ``rows`` (counted
    from its first plane) and, for a CMB, its ground truth d < gt radius
    (None for a mimic). The box and coordinates are set up once per dip;
    each block of planes evaluates only its own rows.
    """
    p0, p1 = _segment(obj)
    sigma = profile_sigma_mm(obj.diameter_mm)
    reach = 4.0 * sigma
    box = _box(spec, np.minimum(p0, p1) - reach, np.maximum(p0, p1) + reach)
    if box is None:
        return None
    xs = _box_coords(spec, box)
    seg = p1 - p0
    denom = float(seg @ seg)
    gt_r2 = gt_radius_mm(obj.diameter_mm) ** 2 if isinstance(obj, CMBSpec) else None

    def factor(rows: slice) -> tuple[np.ndarray, np.ndarray | None]:
        x = (xs[0][rows], *xs[1:])
        nearest = p0  # a blob's segment is its center
        if denom > 0:
            terms = [(x[a] - p0[a]) * seg[a] for a in range(3)]
            t = np.clip(sum(terms[1:], terms[0]) / denom, 0.0, 1.0)
            nearest = [p0[a] + t * seg[a] for a in range(3)]
        d2 = (x[0] - nearest[0]) ** 2 + (x[1] - nearest[1]) ** 2 + (x[2] - nearest[2]) ** 2
        return 1.0 - obj.contrast * np.exp(-d2 / (2.0 * sigma**2)), None if gt_r2 is None else d2 < gt_r2

    return box, factor


def generate_phantom(
    spec: PhantomSpec, scan_id: str = "phantom-0000", subject_id: str | None = None, path: str = ""
) -> tuple[Volume3D, LabelMask, ScanManifestEntry]:
    """Deterministically render a phantom, its analytic ground truth, and a manifest entry."""
    validate_spec(spec)
    arr = np.empty(spec.dims)
    blocks = [planes for (planes,) in plane_blocks(spec.dims)]
    base, sigma = float(spec.background.base), spec.background.noise_sigma
    scale = _smooth_field(spec, blocks, arr)
    labels = np.zeros(spec.dims, dtype=bool)
    dips = [_dip(spec, obj) for obj in spec.cmbs + spec.calcifications + spec.vessels]
    dips = [dip for dip in dips if dip is not None]

    def render(planes: slice) -> None:
        """Scale the block's field, add the base, apply the dips and their ground truth, then add each plane's noise."""
        out = arr[planes]
        out *= scale
        out += base
        for box, factor in dips:
            lo, hi = max(box[0].start, planes.start), min(box[0].stop, planes.stop)
            if lo < hi:
                here = (slice(lo, hi), *box[1:])
                dip, inside = factor(slice(lo - box[0].start, hi - box[0].start))
                arr[here] *= dip
                if inside is not None:
                    labels[here] |= inside
        if sigma > 0:
            noise = np.empty_like(out)
            for k, plane in zip(range(planes.start, planes.stop), noise):
                derive_rng(spec.seed, "noise", k).standard_normal(out=plane)
            noise *= sigma
            out += noise

    run_blocks(render, blocks)

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

    placed: list[tuple[np.ndarray, float]] = []  # the center and radius of each blob placed so far

    def clear(p0: np.ndarray, p1: np.ndarray, radius: float) -> bool:
        """Whether a capsule of ``radius`` on the segment p0-p1 keeps the CMB separation from every placed blob."""
        return all(_segment_point_distance(p0, p1, pc) - radius - pr >= MIN_CMB_SEPARATION_MM for pc, pr in placed)

    def place_blob(kind, d: float):
        """A ``kind`` of diameter ``d`` on a clear voxel center; None if it cannot fit or 200 draws find none."""
        margin = d / 2.0 + FACE_MARGIN_MM
        if np.any(extent - 2.0 * margin <= 0):
            return None
        for _ in range(200):
            c = np.rint(rng.uniform(margin, extent - margin) / spacing) * spacing
            if clear(c, c, d / 2.0):
                placed.append((c, d / 2.0))
                return kind(WorldPoint(*map(float, c)), d, float(rng.uniform(*contrast_range)))
        return None

    cmbs = []
    for _ in range(n_cmbs):
        cmb = place_blob(CMBSpec, float(rng.uniform(*diameter_range)))
        if cmb is None:
            break
        cmbs.append(cmb)
    calcs = [place_blob(CalcificationSpec, float(rng.uniform(2.0, 6.0))) for _ in range(n_calcifications)]
    calcs = [c for c in calcs if c is not None]

    vessels = []
    for _ in range(n_vessels if np.all(extent >= 2.0 * FACE_MARGIN_MM) else 0):
        d = float(rng.uniform(1.0, 2.0))
        axis = int(rng.integers(0, 3))
        for _ in range(200):
            p0 = rng.uniform(FACE_MARGIN_MM, extent - FACE_MARGIN_MM)
            p1 = p0.copy()
            p0[axis], p1[axis] = FACE_MARGIN_MM, extent[axis] - FACE_MARGIN_MM
            if clear(p0, p1, d / 2.0):
                ends = (WorldPoint(*map(float, p0)), WorldPoint(*map(float, p1)))
                vessels.append(VesselSpec(*ends, d, float(rng.uniform(0.4, 0.7))))
                break

    return replace(grid, cmbs=tuple(cmbs), vessels=tuple(vessels), calcifications=tuple(calcs))
