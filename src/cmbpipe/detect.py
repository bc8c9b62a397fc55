"""Connected-component detection, clinical size filtering, and metrics.

A fused binary mask becomes a table of discrete detections (connected
components with centroid, volume and bounding box, one column per field),
detections are matched one-to-one against ground-truth components, and
per-scan TP/FP/FN/DSC roll up into per-dataset rows: TP/FP/FN per scan
are means, DSC is the mean of per-scan DSC, and sensitivity/precision are
pooled over scans (sum TP / (sum TP + sum FN), sum TP / (sum TP + sum FP)).
Undefined values render as "NA" and never enter a mean.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError, is_json_number, require
from .volume import LabelMask, _freeze, require_same_geometry

DEFAULT_MIN_VOLUME_MM3 = 4.2  # minimum clinical CMB size (2 mm diameter sphere)
DEFAULT_MATCH_DISTANCE_MM = 2.5  # radius of the largest "small" CMB
SIZE_BOUND = "[0, inf)"  # of a size threshold in mm^3; NaN would silently keep nothing
MATCH_DISTANCE_BOUND = "[0, inf)"  # mm; NaN would silently match nothing
_NO_PAIRS = _freeze(np.empty((0, 2), dtype=np.int64))  # no (pred id, gt id) overlap pairs
NA = "NA"


# Column name -> (record key, dtype, shape of one row).
_COLUMNS = {
    "ids": ("id", np.int64, ()),
    "centroid_mm": ("centroid_mm", np.float64, (3,)),
    "volume_mm3": ("volume_mm3", np.float64, ()),
    "voxel_count": ("voxel_count", np.int64, ()),
    "bbox": ("bbox", np.int64, (2, 3)),
}
_KEYS = [key for key, _, _ in _COLUMNS.values()]


@dataclass(frozen=True, eq=False)
class Detections:
    """Connected components as read-only columns, one row per component.

    Row ``r`` is component ``ids[r]``: its finite world centroid ``centroid_mm[r]``
    (x, y, z), finite positive ``volume_mm3[r]``, ``voxel_count[r]`` >= 1 and
    inclusive bounding box ``bbox[r] = ((i, j, k) low, (i, j, k) high)``. As a
    record, a row is one dict keyed by each column's record key (``ids`` is
    ``"id"``). Two tables are equal when their columns are.
    """

    ids: np.ndarray
    centroid_mm: np.ndarray
    volume_mm3: np.ndarray
    voxel_count: np.ndarray
    bbox: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        for name, (_, dtype, row) in _COLUMNS.items():
            col = np.asarray(getattr(self, name), dtype=dtype)
            if col.shape != (n, *row):
                raise ConfigError(f"detection column {name} has shape {col.shape}, expected {(n, *row)}")
            object.__setattr__(self, name, _freeze(col))
        if n and self.voxel_count.min() < 1:
            raise ConfigError("a detection must contain at least one voxel")
        if not np.isfinite(self.centroid_mm).all():
            raise ConfigError("a detection centroid must be finite")
        if not (np.isfinite(self.volume_mm3) & (self.volume_mm3 > 0)).all():
            raise ConfigError("a detection volume must be finite and positive")

    @classmethod
    def from_records(cls, records: list) -> "Detections":
        """The table of one record per row; a missing or unknown key, a misshapen or impossible value or a
        number not of its column's JSON type (``errors.is_json_number``; an integer for int64) raises."""
        unknown = sorted(set().union(*records) - set(_KEYS))
        if unknown:
            raise ConfigError(f"unknown detection keys {unknown}")
        columns = {}
        for name, (key, dtype, row) in _COLUMNS.items():
            values = np.array([record[key] for record in records], dtype=object)
            columns[name] = values.astype(dtype) if len(values) else np.zeros((0, *row), dtype=dtype)
            kind = int if np.dtype(dtype).kind == "i" else float
            bad = [x for x in values.ravel() if not is_json_number(x, kind)]
            if bad:
                raise ConfigError(f"detection {key} {bad[0]!r} is not a JSON {'integer' if kind is int else 'number'}")
        return cls(**columns)

    def to_records(self) -> list[dict]:
        """One dict of plain numbers and lists per row, keyed by each column's record key."""
        return [dict(zip(_KEYS, row)) for row in zip(*(getattr(self, name).tolist() for name in _COLUMNS))]

    def select(self, keep: np.ndarray) -> "Detections":
        """The rows where the boolean array ``keep`` is true, in order."""
        return Detections(*(getattr(self, name)[keep] for name in _COLUMNS))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, Detections):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)


@dataclass(frozen=True)
class MatchResult:
    tp: int
    fp: int
    fn: int
    pairing: tuple  # (pred_id, gt_id) pairs


@dataclass(frozen=True)
class ScanMetrics:
    """One scan's metrics; ``dataclasses.asdict`` gives them in its row of ``per_scan_metrics.jsonl``."""

    tp: int
    fp: int
    fn: int
    dsc: float
    sensitivity: float | None  # None marks NA (no ground-truth components)
    precision: float | None  # None marks NA (no predictions)


def _packed(coords: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Positions of ``coords`` (on an axis of ``n`` planes) once empty planes are dropped, and the planes left.

    The planes before the first and after the last occupied one go, and
    each run of empty planes between occupied ones shrinks to one plane.
    So two coordinates are equal, adjacent or further apart exactly when
    their positions are.
    """
    occupied = np.zeros(n, dtype=bool)
    occupied[coords] = True
    planes = np.flatnonzero(occupied)
    position = np.zeros(n, dtype=np.intp)
    position[planes] = np.arange(len(planes))
    position[planes[1:]] += np.cumsum(np.diff(planes) > 1)
    return position[coords], int(position[planes[-1]]) + 1


def _label(m: LabelMask, connectivity: int) -> tuple[Detections, np.ndarray, np.ndarray]:
    """Components of ``m`` plus its foreground voxels and the component id of each.

    ``ndimage.label`` runs on the packed grid: the foreground with every
    empty plane of each axis dropped, except one between occupied runs,
    so which voxels touch is unchanged. Its labels are read back at the
    foreground voxels, and every field is taken from full-grid coordinates.
    """
    if connectivity not in (6, 26):
        raise ConfigError(f"connectivity must be 6 or 26, got {connectivity}")
    structure = ndimage.generate_binary_structure(3, 1 if connectivity == 6 else 3)
    fg = np.flatnonzero(m.labels)
    if len(fg) == 0:
        return Detections.from_records([]), fg, np.zeros(0, dtype=np.int64)

    ijk = np.stack(np.unravel_index(fg, m.dims), axis=1)
    packed, shape = zip(*(_packed(ijk[:, a], m.dims[a]) for a in range(3)))
    grid = np.zeros(shape, dtype=bool)
    grid[packed] = True
    labeled, n = ndimage.label(grid, structure=structure)
    lab = labeled[packed]
    del grid, labeled
    order = np.argsort(lab, kind="stable")
    counts = np.bincount(lab, minlength=n + 1)[1:]
    starts = np.cumsum(counts) - counts
    grouped = ijk[order]
    lo = np.minimum.reduceat(grouped, starts, axis=0)
    hi = np.maximum.reduceat(grouped, starts, axis=0)
    # Integer sums are exact, so this is bit-identical to a per-component mean.
    centroid_vox = np.add.reduceat(grouped, starts, axis=0).astype(np.float64) / counts[:, None]
    centroid_mm = np.asarray(m.origin) + centroid_vox * np.asarray(m.spacing)
    # The smallest Fortran-order flat index of a component is its smallest (k, j, i) voxel.
    first = np.minimum.reduceat(np.ravel_multi_index(grouped.T, m.dims, order="F"), starts)
    rank = np.argsort(first)
    ids = np.zeros(n + 1, dtype=np.int64)
    ids[1 + rank] = np.arange(1, n + 1)

    counts = counts[rank]
    dets = Detections(
        ids=np.arange(1, n + 1),
        centroid_mm=centroid_mm[rank],
        # the same float64 product as count * voxel_volume_mm3 for one component
        volume_mm3=counts * m.voxel_volume_mm3,
        voxel_count=counts,
        bbox=np.stack((lo[rank], hi[rank]), axis=1),
    )
    return dets, fg, ids[lab]


def connected_components(m: LabelMask, connectivity: int = 26) -> Detections:
    """Maximal connected sets of the mask under 6- or 26-connectivity.

    Components are ordered by the lexicographically smallest (k, j, i)
    voxel they contain, so the listing is independent of how the mask was
    produced or traversed.
    """
    return _label(m, connectivity)[0]


def filter_by_size(dets: Detections, min_volume_mm3: float = DEFAULT_MIN_VOLUME_MM3) -> Detections:
    """Keep components at least as large as the minimum clinical size."""
    require(min_volume_mm3, SIZE_BOUND, "min_volume_mm3")
    return dets.select(dets.volume_mm3 >= min_volume_mm3)


def _positions(ids: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index in ``ids`` of each value of ``wanted``, -1 where it is absent."""
    if len(ids) == 0:
        return np.full(len(wanted), -1)
    sorter = np.argsort(ids)
    at = sorter[np.minimum(np.searchsorted(ids, wanted, sorter=sorter), len(ids) - 1)]
    return np.where(ids[at] == wanted, at, -1)


def match_detections(
    pred: Detections,
    gt_components: Detections,
    max_dist_mm: float = DEFAULT_MATCH_DISTANCE_MM,
    overlaps: np.ndarray = _NO_PAIRS,
) -> MatchResult:
    """One-to-one greedy matching in ascending centroid distance.

    A prediction may match a ground-truth component if their centroids lie
    within ``max_dist_mm`` or the pair ``(pred.id, gt.id)`` is a row of
    ``overlaps``, an (n, 2) integer array (the components share a voxel;
    ``evaluate_scan`` finds these). Ties in
    distance go to the smaller prediction id, then the smaller ground-truth
    id. Unmatched predictions count as FP, unmatched ground truth as FN.
    """
    require(max_dist_mm, MATCH_DISTANCE_BOUND, "max_dist_mm")
    pred_xyz, pred_ids = pred.centroid_mm, pred.ids
    gt_xyz, gt_ids = gt_components.centroid_mm, gt_components.ids
    n_gt = len(gt_ids)

    # Imported here so that CLI commands that never match do not pay
    # scipy.spatial's import time and memory.
    from scipy.spatial import cKDTree

    # The tree only prunes: its radius is padded so that rounding in its
    # own distance arithmetic cannot drop a pair the exact test accepts.
    hits = cKDTree(pred_xyz).query_ball_tree(cKDTree(gt_xyz), max_dist_mm * (1.0 + 1e-9))
    pi = np.repeat(np.arange(len(hits)), [len(h) for h in hits])
    gi = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.int64, count=len(pi))
    near = pi * n_gt + gi
    op, og = _positions(pred_ids, overlaps[:, 0]), _positions(gt_ids, overlaps[:, 1])
    found = (op >= 0) & (og >= 0)
    shared = op[found] * n_gt + og[found]

    pair = np.union1d(near, shared)
    pi, gi = np.divmod(pair, max(n_gt, 1))
    diff = pred_xyz[pi] - gt_xyz[gi]
    # np.vecdot runs the same dot kernel as np.linalg.norm on one pair, so
    # distances, ties and the boundary test match the all-pairs definition bit for bit.
    dist = np.sqrt(np.vecdot(diff, diff))
    keep = (dist <= max_dist_mm) | np.isin(pair, shared)
    dist, pid, gid = dist[keep], pred_ids[pi[keep]], gt_ids[gi[keep]]
    order = np.lexsort((gid, pid, dist))

    used_p, used_g, pairs = set(), set(), []
    for p, g in zip(pid[order].tolist(), gid[order].tolist()):
        if p in used_p or g in used_g:
            continue
        used_p.add(p)
        used_g.add(g)
        pairs.append((p, g))
    tp = len(pairs)
    return MatchResult(tp=tp, fp=len(pred) - tp, fn=n_gt - tp, pairing=tuple(pairs))


def scan_metrics(pred_mask: LabelMask, gt_mask: LabelMask, match: MatchResult) -> ScanMetrics:
    """Voxel-level DSC plus the component counts of a match.

    Both masks empty is a correct negative: DSC = 1.0 and sensitivity /
    precision undefined (NA).
    """
    require_same_geometry(pred_mask, gt_mask, "prediction and ground-truth masks")
    p = int(pred_mask.labels.sum())
    g = int(gt_mask.labels.sum())
    inter = int(np.logical_and(pred_mask.labels, gt_mask.labels).sum())
    return _metrics(p, g, inter, match)


def _metrics(p: int, g: int, inter: int, match: MatchResult) -> ScanMetrics:
    """Metrics from the predicted, ground-truth and shared foreground voxel counts and a match."""
    dsc = 1.0 if p + g == 0 else 2.0 * inter / (p + g)
    sens, prec = pooled_sensitivity(match.tp, match.fn), pooled_precision(match.tp, match.fp)
    return ScanMetrics(tp=match.tp, fp=match.fp, fn=match.fn, dsc=dsc, sensitivity=sens, precision=prec)


def evaluate_scan(
    pred_mask: LabelMask,
    gt_mask: LabelMask,
    connectivity: int = 26,
    min_volume_mm3: float = DEFAULT_MIN_VOLUME_MM3,
    max_dist_mm: float = DEFAULT_MATCH_DISTANCE_MM,
):
    """Component detection + size filter + matching + metrics for one scan.

    The size filter is applied to both predictions and ground-truth
    components, so a perfect segmenter scores perfectly: sub-clinical
    ground-truth components are excluded from the task rather than counted
    as misses. A predicted and a ground-truth component overlap when they
    share a foreground voxel. Returns the metrics and the kept predicted
    and ground-truth ``Detections``.
    """
    require_same_geometry(pred_mask, gt_mask, "prediction and ground-truth masks")
    require(max_dist_mm, MATCH_DISTANCE_BOUND, "max_dist_mm")
    require(min_volume_mm3, SIZE_BOUND, "min_volume_mm3")
    pred, pred_fg, pred_ids = _label(pred_mask, connectivity)
    gt, gt_fg, gt_ids = _label(gt_mask, connectivity)
    shared, in_pred, in_gt = np.intersect1d(pred_fg, gt_fg, assume_unique=True, return_indices=True)
    overlaps = np.unique(np.stack((pred_ids[in_pred], gt_ids[in_gt]), axis=1), axis=0)
    pred = filter_by_size(pred, min_volume_mm3)
    gt = filter_by_size(gt, min_volume_mm3)
    match = match_detections(pred, gt, max_dist_mm, overlaps)
    return _metrics(len(pred_fg), len(gt_fg), len(shared), match), pred, gt


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def pooled_sensitivity(tp, fn) -> float | None:
    """Pooled recall: totals (or per-scan means) in, single rate out."""
    return tp / (tp + fn) if tp + fn > 0 else None


def pooled_precision(tp, fp) -> float | None:
    return tp / (tp + fp) if tp + fp > 0 else None


@dataclass(frozen=True)
class DatasetRow:
    """One row of the metrics table; ``dataclasses.asdict`` gives its record in ``metrics_rows.jsonl``."""

    dataset: str
    n_scans: int
    tp_per_scan: float
    fp_per_scan: float
    fn_per_scan: float
    dsc: float
    sensitivity: float | None
    precision: float | None


def _make_row(tag: str, metrics: list[ScanMetrics]) -> DatasetRow:
    n = len(metrics)
    tp = sum(m.tp for m in metrics)
    fp = sum(m.fp for m in metrics)
    fn = sum(m.fn for m in metrics)
    return DatasetRow(
        dataset=tag,
        n_scans=n,
        tp_per_scan=tp / n,
        fp_per_scan=fp / n,
        fn_per_scan=fn / n,
        dsc=sum(m.dsc for m in metrics) / n,
        sensitivity=pooled_sensitivity(tp, fn),
        precision=pooled_precision(tp, fp),
    )


def aggregate_metrics(per_scan: list[ScanMetrics], tags: list[str]) -> list[DatasetRow]:
    """Per-dataset rows plus an "All" row pooling every scan.

    Rows are ordered by tag alphabetically with "All" last, so the table is
    bit-stable across runs.
    """
    if not per_scan:
        raise ConfigError("aggregate_metrics needs at least one scan")
    if len(per_scan) != len(tags):
        raise ConfigError(f"{len(per_scan)} metric records vs {len(tags)} tags")
    groups: dict[str, list[ScanMetrics]] = {}
    for m, tag in zip(per_scan, tags):
        groups.setdefault(tag, []).append(m)
    rows = [_make_row(tag, group) for tag, group in sorted(groups.items())]
    rows.append(_make_row("All", list(per_scan)))
    return rows


def _fmt(value: float | None) -> str:
    return NA if value is None else f"{value:.2f}"


def format_table(header: tuple[str, ...], body: list[tuple[str, ...]]) -> str:
    """Left-aligned columns two spaces apart, each as wide as its widest cell; only the header for no rows."""
    widths = [max(map(len, column)) for column in zip(header, *body)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in (header, *body))


def format_metrics_table(rows: list[DatasetRow]) -> str:
    header = ("Dataset", "Scans", "TP/scan", "FP/scan", "FN/scan", "DSC", "Sensitivity", "Precision")
    body = [
        (
            r.dataset,
            str(r.n_scans),
            f"{r.tp_per_scan:.2f}",
            f"{r.fp_per_scan:.2f}",
            f"{r.fn_per_scan:.2f}",
            f"{r.dsc:.2f}",
            _fmt(r.sensitivity),
            _fmt(r.precision),
        )
        for r in rows
    ]
    return format_table(header, body)
