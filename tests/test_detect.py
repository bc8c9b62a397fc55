import numpy as np
import pytest
from scipy import ndimage

from cmbpipe.detect import (
    Detections,
    aggregate_metrics,
    DatasetRow,
    connected_components,
    evaluate_scan,
    filter_by_size,
    format_metrics_table,
    match_detections,
    pooled_precision,
    pooled_sensitivity,
    scan_metrics,
    ScanMetrics,
    _packed,
)
from cmbpipe.errors import ConfigError, GeometryMismatchError
from cmbpipe.volume import LabelMask

from oracles import components_oracle, match_oracle, sphere_voxel_volume


def mask_from_voxels(voxels, dims=(16, 16, 16), spacing=(1.0, 1.0, 1.0)):
    arr = np.zeros(dims, dtype=np.uint8)
    for v in voxels:
        arr[v] = 1
    return LabelMask(arr, spacing, (0.0, 0.0, 0.0))


class TestConnectedComponents:
    def test_face_adjacent_one_component_both_ways(self):
        m = mask_from_voxels([(3, 3, 3), (3, 3, 4)])
        assert len(connected_components(m, 6)) == 1
        assert len(connected_components(m, 26)) == 1

    def test_corner_diagonal_depends_on_connectivity(self):
        m = mask_from_voxels([(3, 3, 3), (4, 4, 4)])
        assert len(connected_components(m, 26)) == 1
        assert len(connected_components(m, 6)) == 2

    def test_empty_mask(self):
        assert len(connected_components(mask_from_voxels([]))) == 0

    def test_fields(self):
        m = mask_from_voxels([(2, 3, 4), (2, 3, 5)], spacing=(0.5, 0.5, 2.0))
        dets = connected_components(m)
        assert len(dets) == 1
        assert dets.voxel_count.tolist() == [2]
        assert dets.volume_mm3[0] == pytest.approx(2 * 0.5 * 0.5 * 2.0)
        assert dets.centroid_mm[0] == pytest.approx((1.0, 1.5, 9.0))
        assert dets.bbox.tolist() == [[[2, 3, 4], [2, 3, 5]]]

    def test_ordering_deterministic_and_layout_independent(self, rng):
        arr = (rng.uniform(0, 1, (24, 24, 24)) > 0.93).astype(np.uint8)
        m = LabelMask(arr)
        ref = connected_components(m)
        alt = connected_components(LabelMask(np.asfortranarray(arr)))
        assert np.array_equal(ref.centroid_mm, alt.centroid_mm) and np.array_equal(ref.voxel_count, alt.voxel_count)
        assert ref.ids.tolist() == list(range(1, len(ref) + 1))

    def test_bad_connectivity(self):
        with pytest.raises(ConfigError):
            connected_components(mask_from_voxels([]), 18)


class TestDetections:
    def columns(self, n=3):
        return dict(
            ids=np.arange(1, n + 1),
            centroid_mm=np.arange(3.0 * n).reshape(n, 3),
            volume_mm3=np.full(n, 2.5),
            voxel_count=np.full(n, 2),
            bbox=np.zeros((n, 2, 3), dtype=np.int64),
        )

    def test_equality_compares_columns(self):
        dets = Detections(**self.columns())
        assert len(dets) == 3
        assert dets == Detections(**self.columns())
        assert dets != Detections(**self.columns(2)) and dets != dets.select(np.array([True, True, False]))
        assert dets != dets.to_records()

    def test_records_round_trip(self):
        dets = Detections(**self.columns(2))
        records = dets.to_records()
        box = [[0, 0, 0], [0, 0, 0]]
        assert records == [
            {"id": 1, "centroid_mm": [0.0, 1.0, 2.0], "volume_mm3": 2.5, "voxel_count": 2, "bbox": box},
            {"id": 2, "centroid_mm": [3.0, 4.0, 5.0], "volume_mm3": 2.5, "voxel_count": 2, "bbox": box},
        ]
        assert type(records[0]["id"]) is int and type(records[0]["volume_mm3"]) is float
        assert Detections.from_records(records) == dets
        empty = Detections.from_records([])
        assert len(empty) == 0 and empty.centroid_mm.shape == (0, 3) and empty.bbox.shape == (0, 2, 3)
        assert empty.to_records() == []

    @pytest.mark.parametrize(
        "key, value, error",
        [
            ("bbox", [0, 0, 0], ConfigError),
            ("centroid_mm", [1.0, 2.0], ConfigError),
            ("id", "one", ValueError),
            ("voxel_count", None, TypeError),
        ],
    )
    def test_misshapen_record_rejected(self, key, value, error):
        records = Detections(**self.columns(2)).to_records()
        with pytest.raises(error):
            Detections.from_records([{**r, key: value} for r in records])
        with pytest.raises(KeyError):
            Detections.from_records([{k: v for k, v in records[0].items() if k != key}])

    def test_columns_are_read_only(self):
        dets = Detections(**self.columns())
        with pytest.raises(ValueError):
            dets.volume_mm3[0] = 100.0

    def test_callers_columns_stay_writable_and_are_not_copied(self):
        columns = self.columns()
        dets = Detections(**columns)
        for name, column in columns.items():
            assert column.flags.writeable and not getattr(dets, name).flags.writeable
            assert np.shares_memory(column, getattr(dets, name))

    @pytest.mark.parametrize(
        "column, value",
        [("ids", np.arange(2)), ("centroid_mm", np.zeros((3, 2))), ("bbox", np.zeros((3, 3, 2)))],
    )
    def test_columns_must_agree(self, column, value):
        with pytest.raises(ConfigError):
            Detections(**{**self.columns(), column: value})

    def test_empty_component_rejected(self):
        with pytest.raises(ConfigError):
            Detections(**{**self.columns(), "voxel_count": np.array([2, 0, 2])})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_centroid_rejected(self, bad):
        centroid = np.zeros((3, 3))
        centroid[1, 2] = bad
        with pytest.raises(ConfigError, match="centroid"):
            Detections(**{**self.columns(), "centroid_mm": centroid})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_volume_rejected(self, bad):
        with pytest.raises(ConfigError, match="volume"):
            Detections(**{**self.columns(), "volume_mm3": np.array([2.5, bad, 2.5])})


class TestFilterBySize:
    def test_three_voxel_component_removed_at_clinical_threshold(self):
        m = mask_from_voxels([(3, 3, 3), (3, 3, 4), (3, 3, 5)])
        dets = connected_components(m)
        assert len(dets) == 1 and len(filter_by_size(dets, 4.2)) == 0

    def test_five_voxel_component_kept(self):
        m = mask_from_voxels([(3, 3, k) for k in range(3, 8)])
        dets = connected_components(m)
        assert len(filter_by_size(dets, 4.2)) == 1

    def test_two_mm_sphere_sits_below_clinical_minimum(self):
        # minimum clinical size: a 2 mm diameter sphere, 4/3 pi ~ 4.19 mm^3
        analytic = 4.0 / 3.0 * np.pi * 1.0**3
        assert analytic < 4.2
        measured = sphere_voxel_volume(1.0, 0.05)
        assert measured == pytest.approx(analytic, abs=0.02)
        assert measured < 4.2
        det = Detections(
            ids=[1],
            centroid_mm=[(0.0, 0.0, 0.0)],
            volume_mm3=[measured],
            voxel_count=[int(round(measured / 0.05**3))],
            bbox=[((0, 0, 0), (1, 1, 1))],
        )
        assert len(filter_by_size(det, 4.2)) == 0

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_threshold_rejected(self, bad):
        m = mask_from_voxels([(3, 3, k) for k in range(3, 8)])
        with pytest.raises(ConfigError):
            filter_by_size(connected_components(m), bad)
        with pytest.raises(ConfigError):
            evaluate_scan(m, m, min_volume_mm3=bad)


class TestMatching:
    def mk(self, rows):
        """A table of one-voxel detections from ``(id, centroid)`` rows."""
        n = len(rows)
        return Detections(
            ids=[det_id for det_id, _ in rows],
            centroid_mm=np.array([centroid for _, centroid in rows], dtype=np.float64).reshape(n, 3),
            volume_mm3=np.ones(n),
            voxel_count=np.ones(n, dtype=np.int64),
            bbox=np.zeros((n, 2, 3), dtype=np.int64),
        )

    def test_centroid_distance_match(self):
        res = match_detections(self.mk([(1, (1.0, 0, 0))]), self.mk([(1, (0, 0, 0))]), 2.5)
        assert (res.tp, res.fp, res.fn) == (1, 0, 0)

    def test_counting(self):
        gt = self.mk([(i, (10.0 * i, 0, 0)) for i in range(1, 6)])
        preds = [(i, (10.0 * i + 1.0, 0, 0)) for i in range(1, 5)]
        preds += [(5, (200.0, 0, 0)), (6, (300.0, 0, 0))]
        res = match_detections(self.mk(preds), gt, 2.5)
        assert (res.tp, res.fp, res.fn) == (4, 2, 1)

    def test_one_to_one_greedy_prefers_nearer(self):
        gt = self.mk([(1, (0.0, 0, 0))])
        preds = self.mk([(1, (2.0, 0, 0)), (2, (1.0, 0, 0))])
        res = match_detections(preds, gt, 2.5)
        assert res.tp == 1 and res.fp == 1
        assert res.pairing == ((2, 1),)

    def test_overlap_matches_beyond_distance(self):
        # two rods sharing voxel (9, 3, 3); centroids 9.5 mm apart
        pred = mask_from_voxels([(i, 3, 3) for i in range(10)], dims=(24, 8, 8))
        gt = mask_from_voxels([(i, 3, 3) for i in range(9, 20)], dims=(24, 8, 8))
        res, p, g = evaluate_scan(pred, gt, min_volume_mm3=0.0, max_dist_mm=2.5)
        assert len(p) == 1 and len(g) == 1
        assert abs(p.centroid_mm[0, 0] - g.centroid_mm[0, 0]) > 2.5
        assert (res.tp, res.fp, res.fn) == (1, 0, 0)
        assert match_detections(p, g, 2.5, overlaps=np.array([[p.ids[0], g.ids[0]]])).tp == 1
        assert match_detections(p, g, 2.5).tp == 0

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_match_distance_rejected(self, bad):
        with pytest.raises(ConfigError):
            match_detections(self.mk([(1, (0.0, 0, 0))]), self.mk([(1, (1.0, 0, 0))]), bad)
        mask = mask_from_voxels([(3, 3, 3)])
        with pytest.raises(ConfigError):
            evaluate_scan(mask, mask, max_dist_mm=bad)

    def test_matches_all_pairs_oracle(self, rng):
        # dense enough for several candidates per detection, plus planted
        # exact ties and a pair exactly at the match distance
        pred = [(i + 1, tuple(rng.uniform(0, 40, 3))) for i in range(300)]
        gt = [(i + 1, tuple(rng.uniform(0, 40, 3))) for i in range(300)]
        pred += [(301, (100.0, 100.0, 100.0)), (302, (104.0, 100.0, 100.0))]
        gt += [(301, (102.0, 100.0, 100.0))]  # equidistant from preds 301 and 302
        pred += [(303, (200.0, 200.0, 200.0))]
        gt += [(302, (198.0, 201.0, 200.0)), (303, (202.0, 199.0, 200.0))]  # equidistant from pred 303
        pred += [(304, (10.5, 300.0, 300.0))]
        gt += [(304, (12.0, 302.0, 300.0))]  # exactly 2.5 mm apart
        overlaps = {(int(p), int(g)) for p, g in rng.integers(1, 301, (40, 2))}
        preds, gts = self.mk(pred), self.mk(gt)
        for max_dist, ov in ((0.0, set()), (2.5, set()), (2.5, overlaps), (6.0, overlaps)):
            # the (n, 2) array that evaluate_scan passes
            res = match_detections(preds, gts, max_dist, overlaps=np.array(sorted(ov), dtype=np.int64).reshape(-1, 2))
            assert res.pairing == match_oracle(pred, gt, max_dist, ov)
            assert res.tp == len(res.pairing)
        pairing = set(match_detections(preds, gts, 2.5).pairing)
        assert {(301, 301), (303, 302), (304, 304)} <= pairing

    def test_invariant_counts(self, rng):
        for _ in range(20):
            n_gt, n_pred = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            gt = self.mk([(i + 1, tuple(rng.uniform(0, 30, 3))) for i in range(n_gt)])
            preds = self.mk([(i + 1, tuple(rng.uniform(0, 30, 3))) for i in range(n_pred)])
            res = match_detections(preds, gt, 2.5)
            assert res.tp + res.fn == n_gt
            assert res.tp + res.fp == n_pred


NO_DETECTIONS = Detections.from_records([])


class TestScanMetrics:
    def test_empty_empty_convention(self):
        empty = mask_from_voxels([])
        match = match_detections(NO_DETECTIONS, NO_DETECTIONS, 2.5)
        m = scan_metrics(empty, empty, match)
        assert m.dsc == 1.0
        assert m.sensitivity is None and m.precision is None

    def test_identical_masks(self):
        mask = mask_from_voxels([(3, 3, 3), (3, 3, 4)])
        dets = connected_components(mask)
        m = scan_metrics(mask, mask, match_detections(dets, dets, 2.5))
        assert m.dsc == 1.0 and m.sensitivity == 1.0 and m.precision == 1.0

    def test_dsc_formula(self):
        pred = mask_from_voxels([(i, j, k) for i in range(4) for j in range(5) for k in range(5)])
        gt_vox = [(i, j, k) for i in range(2) for j in range(5) for k in range(5)]
        gt_vox += [(i + 10, j, k) for i in range(2) for j in range(5) for k in range(5)]
        gt = mask_from_voxels(gt_vox)
        m = scan_metrics(pred, gt, match_detections(NO_DETECTIONS, NO_DETECTIONS, 2.5))
        assert m.dsc == pytest.approx(0.5)  # |P|=|G|=100, overlap 50

    def test_misaligned_masks_rejected(self):
        a = mask_from_voxels([], dims=(8, 8, 8))
        b = mask_from_voxels([], dims=(9, 9, 9))
        with pytest.raises(GeometryMismatchError):
            scan_metrics(a, b, match_detections(NO_DETECTIONS, NO_DETECTIONS, 2.5))


def row_scans(tp, fp, fn, n, dsc=0.8):
    """n synthetic scans whose totals are tp/fp/fn."""
    out = []
    for i in range(n):
        t = tp // n + (1 if i < tp % n else 0)
        f = fp // n + (1 if i < fp % n else 0)
        m = fn // n + (1 if i < fn % n else 0)
        out.append(
            ScanMetrics(
                tp=t,
                fp=f,
                fn=m,
                dsc=dsc,
                sensitivity=t / (t + m) if t + m else None,
                precision=t / (t + f) if t + f else None,
            )
        )
    return out


# Reported per-scan means used as consistency fixtures:
# (tag, tp, fp, fn, expected sensitivity, expected precision)
REFERENCE_ROWS = [
    ("DS1r", 3.58, 2.00, 1.08, 0.77, 0.64),
    ("DS1s", 8.11, 1.75, 1.72, 0.83, 0.82),
    ("DS2", 1.00, 0.00, 1.00, 0.50, 1.00),
    ("DS3", 8.57, 1.43, 5.00, 0.63, 0.86),
    ("DS3n", 0.00, 0.00, 0.00, None, None),
    ("All", 6.75, 1.64, 1.92, 0.78, 0.80),
]


class TestAggregation:
    def test_pooled_formulas_reproduce_reference_rows(self):
        for tag, tp, fp, fn, sens, prec in REFERENCE_ROWS:
            got_sens = pooled_sensitivity(tp, fn)
            got_prec = pooled_precision(tp, fp)
            if sens is None:
                assert got_sens is None and got_prec is None
            else:
                assert abs(got_sens - sens) < 0.005, tag
                assert abs(got_prec - prec) < 0.005, tag

    def test_aggregate_through_scan_records(self):
        # integer-scaled scans reproducing the All row totals
        per_scan = row_scans(675, 164, 192, 100)
        rows = aggregate_metrics(per_scan, ["DS3"] * 100)
        all_row = rows[-1]
        assert all_row.dataset == "All"
        assert all_row.tp_per_scan == pytest.approx(6.75)
        assert abs(all_row.sensitivity - 0.78) < 0.005
        assert abs(all_row.precision - 0.80) < 0.005

    def test_rows_ordered_alphabetical_then_all(self):
        per_scan = row_scans(10, 2, 3, 4)
        rows = aggregate_metrics(per_scan, ["DS2", "DS1r", "PHANTOM", "DS1r"])
        assert [r.dataset for r in rows] == ["DS1r", "DS2", "PHANTOM", "All"]

    def test_na_rendering(self):
        per_scan = [ScanMetrics(0, 0, 0, 1.0, None, None)]
        rows = aggregate_metrics(per_scan, ["DS3n"])
        table = format_metrics_table(rows)
        line = [ln for ln in table.splitlines() if ln.startswith("DS3n")][0]
        assert "NA" in line and "1.00" in line

    def test_table_aligns_its_columns(self):
        rows = [
            DatasetRow("DS1", 3, 1.0 / 3, 12.5, 0.0, 0.8765, None, 0.25),
            DatasetRow("All", 12, 10.0, 0.5, 2.25, 1.0, 0.5, None),
        ]
        assert format_metrics_table(rows) == (
            "Dataset  Scans  TP/scan  FP/scan  FN/scan  DSC   Sensitivity  Precision\n"
            "DS1      3      0.33     12.50    0.00     0.88  NA           0.25     \n"
            "All      12     10.00    0.50     2.25     1.00  0.50         NA       "
        )

    def test_table_of_no_rows_is_its_header(self):
        assert format_metrics_table([]) == "Dataset  Scans  TP/scan  FP/scan  FN/scan  DSC  Sensitivity  Precision"

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_metrics([], [])


def detection_fields(dets):
    """``(id, centroid, volume, voxel count, bbox)`` of each row, as tuples of Python numbers."""
    columns = (dets.ids, dets.centroid_mm, dets.volume_mm3, dets.voxel_count, dets.bbox)
    return [(i, tuple(c), v, n, tuple(map(tuple, b))) for i, c, v, n, b in zip(*(col.tolist() for col in columns))]


class TestOracleEquivalence:
    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_speckle_components_match_oracle(self, connectivity):
        rng = np.random.default_rng(2024)
        arr = (rng.uniform(0, 1, (128, 128, 128)) < 0.005).astype(np.uint8)
        m = LabelMask(arr, (0.5, 0.7, 1.3), (-10.0, 3.5, 7.25))
        got = detection_fields(connected_components(m, connectivity))
        want = [c[:5] for c in components_oracle(m, connectivity)]
        assert len(got) > 9000
        assert got == want

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_speckle_table_equals_oracle_table(self, connectivity):
        rng = np.random.default_rng(2025)
        arr = (rng.uniform(0, 1, (128, 128, 128)) < 0.005).astype(np.uint8)
        m = LabelMask(arr, (0.7, 1.3, 0.5), (4.5, -8.0, 12.75))
        dets = connected_components(m, connectivity)
        want = Detections(*zip(*(c[:5] for c in components_oracle(m, connectivity))))
        assert len(want) > 9000
        assert dets == want

    @pytest.mark.parametrize("connectivity", [6, 26])
    @pytest.mark.parametrize("min_volume", [0.0, 4.2])
    def test_evaluate_scan_matches_oracle(self, rng, monkeypatch, connectivity, min_volume):
        matches = []

        def recording_match(*args, **kwargs):
            matches.append(match_detections(*args, **kwargs))
            return matches[-1]

        monkeypatch.setattr("cmbpipe.detect.match_detections", recording_match)
        for _ in range(2):
            gt_arr = (rng.uniform(0, 1, (16, 18, 14)) < 0.12).astype(np.uint8)
            pred_arr = gt_arr ^ (rng.uniform(0, 1, gt_arr.shape) < 0.06).astype(np.uint8)
            pred = LabelMask(pred_arr, (0.8, 1.0, 1.2))
            gt = LabelMask(gt_arr, (0.8, 1.0, 1.2))
            metrics, kept_pred, kept_gt = evaluate_scan(pred, gt, connectivity, min_volume, 2.5)

            p_all = [c for c in components_oracle(pred, connectivity) if c[2] >= min_volume]
            g_all = [c for c in components_oracle(gt, connectivity) if c[2] >= min_volume]
            overlaps = {(p[0], g[0]) for p in p_all for g in g_all if not p[5].isdisjoint(g[5])}
            pairing = match_oracle([p[:2] for p in p_all], [g[:2] for g in g_all], 2.5, overlaps)
            assert detection_fields(kept_pred) == [c[:5] for c in p_all]
            assert detection_fields(kept_gt) == [c[:5] for c in g_all]
            assert matches[-1].pairing == pairing
            assert (metrics.tp, metrics.fp, metrics.fn) == (
                len(pairing),
                len(p_all) - len(pairing),
                len(g_all) - len(pairing),
            )


def boxed_masks():
    """Masks whose foreground bounding box is a strict part of the grid, the whole grid, one voxel or empty."""
    rng = np.random.default_rng(77)
    dims, spacing, origin = (23, 17, 29), (0.6, 1.1, 1.7), (-4.0, 2.5, 10.0)
    lo, hi = (5, 4, 9), (14, 11, 21)  # inclusive corners of the off-origin box
    box = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
    speckle = np.zeros(dims, dtype=np.uint8)
    speckle[box] = rng.uniform(0, 1, speckle[box].shape) < 0.15
    mid = [(a + b) // 2 for a, b in zip(lo, hi)]
    for axis in range(3):
        for end in (lo[axis], hi[axis]):
            face = list(mid)
            face[axis] = end
            speckle[tuple(face)] = 1  # a component on every face of the box
    other = speckle.copy()
    other[box] ^= (rng.uniform(0, 1, other[box].shape) < 0.05).astype(np.uint8)
    other[lo[0] + 1, lo[1], hi[2] + 2] = 1  # so the two boxes differ
    corners = np.zeros((9, 12, 7), dtype=np.uint8)
    corners[np.ix_((0, -1), (0, -1), (0, -1))] = 1
    single = np.zeros((10, 8, 12), dtype=np.uint8)
    single[6, 0, 11] = 1
    empty = np.zeros((6, 7, 5), dtype=np.uint8)
    return {
        "off-origin box": (speckle, other, spacing, origin),
        "grid corners": (corners, corners[::-1].copy(), (1.0, 0.8, 1.3), (0.0, 0.0, 0.0)),
        "single voxel": (single, single, (0.5, 0.5, 0.5), (1.0, -1.0, 0.0)),
        "empty": (empty, empty, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
    }


class TestBoundingBoxLabelling:
    """Labelling only the foreground's bounding box gives whole-grid results."""

    def test_off_origin_box_touches_every_face(self):
        arr = boxed_masks()["off-origin box"][0]
        nz = np.nonzero(arr)
        assert [(int(a.min()), int(a.max())) for a in nz] == [(5, 14), (4, 11), (9, 21)]

    @pytest.mark.parametrize("connectivity", [6, 26])
    @pytest.mark.parametrize("case", list(boxed_masks()))
    def test_components_match_oracle(self, case, connectivity):
        pred_arr, gt_arr, spacing, origin = boxed_masks()[case]
        for arr in (pred_arr, gt_arr):
            m = LabelMask(arr, spacing, origin)
            got = detection_fields(connected_components(m, connectivity))
            assert got == [c[:5] for c in components_oracle(m, connectivity)]

    @pytest.mark.parametrize("connectivity", [6, 26])
    @pytest.mark.parametrize("case", list(boxed_masks()))
    def test_evaluate_scan_matches_whole_grid_labels(self, monkeypatch, case, connectivity):
        calls = []

        def recording_match(pred, gt, max_dist_mm, overlaps):
            calls.append({tuple(pair) for pair in np.asarray(overlaps).tolist()})
            return match_detections(pred, gt, max_dist_mm, overlaps)

        monkeypatch.setattr("cmbpipe.detect.match_detections", recording_match)
        pred_arr, gt_arr, spacing, origin = boxed_masks()[case]
        pred, gt = LabelMask(pred_arr, spacing, origin), LabelMask(gt_arr, spacing, origin)
        metrics, _, _ = evaluate_scan(pred, gt, connectivity, 0.0, 2.5)

        # components_oracle labels the whole grid with one ndimage.label call
        p_all, g_all = components_oracle(pred, connectivity), components_oracle(gt, connectivity)
        overlaps = {(p[0], g[0]) for p in p_all for g in g_all if not p[5].isdisjoint(g[5])}
        pairing = match_oracle([p[:2] for p in p_all], [g[:2] for g in g_all], 2.5, overlaps)
        assert calls == [overlaps]
        assert (metrics.tp, metrics.fp, metrics.fn) == (
            len(pairing),
            len(p_all) - len(pairing),
            len(g_all) - len(pairing),
        )


def packed_masks():
    """Masks whose empty planes the packed grid drops or keeps, each with the packed shape it labels."""
    dims = (21, 13, 17)

    def mask(*voxels):
        arr = np.zeros(dims, dtype=np.uint8)
        for v in voxels:
            arr[v] = 1
        return arr

    one_plane_apart = mask((4, 5, 5), (4, 5, 6), (6, 5, 5), (6, 5, 6))  # plane 5 of axis 0 is empty
    long_gaps = mask((1, 2, 3), (2, 2, 3), (12, 2, 3), (19, 10, 3), (19, 11, 16))
    diagonal = mask((3, 3, 3), (4, 4, 4), (5, 3, 5), (9, 9, 9), (10, 10, 8), (11, 9, 9))
    faces = mask((0, 6, 8), (20, 6, 8), (10, 0, 8), (10, 12, 8), (10, 6, 0), (10, 6, 16), (0, 0, 0), (20, 12, 16))
    return {
        "one empty plane apart": (one_plane_apart, (3, 1, 2)),
        "long gaps collapse": (long_gaps, (6, 4, 3)),
        "diagonal contacts": (diagonal, (7, 5, 6)),
        "single voxel": (mask((7, 12, 0)), (1, 1, 1)),
        "every grid face": (faces, (5, 5, 5)),
    }


class TestPackedGridLabelling:
    """Labelling the packed grid (empty planes dropped, one kept between runs) gives whole-grid results."""

    SPACING, ORIGIN = (0.7, 1.3, 0.9), (-3.0, 12.5, 4.25)

    def test_positions_keep_one_plane_per_gap(self):
        positions, size = _packed(np.array([2, 3, 3, 5, 9, 12, 12]), 15)
        assert positions.tolist() == [0, 1, 1, 3, 5, 7, 7]
        assert size == 8

    @pytest.mark.parametrize("connectivity", [6, 26])
    @pytest.mark.parametrize("case", list(packed_masks()))
    def test_components_match_oracle(self, monkeypatch, case, connectivity):
        arr, packed_shape = packed_masks()[case]
        shapes = []
        label = ndimage.label

        def recording_label(grid, **kwargs):
            shapes.append(grid.shape)
            return label(grid, **kwargs)

        monkeypatch.setattr(ndimage, "label", recording_label)
        m = LabelMask(arr, self.SPACING, self.ORIGIN)
        got = detection_fields(connected_components(m, connectivity))
        assert shapes == [packed_shape]
        monkeypatch.undo()
        assert got == [c[:5] for c in components_oracle(m, connectivity)]

    def test_one_empty_plane_keeps_blobs_apart(self):
        m = LabelMask(packed_masks()["one empty plane apart"][0], self.SPACING, self.ORIGIN)
        assert len(connected_components(m, 26)) == 2

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_random_masks_match_oracle(self, connectivity):
        rng = np.random.default_rng(31)
        for _ in range(60):
            dims = tuple(int(n) for n in rng.integers(2, 20, 3))
            arr = rng.uniform(0, 1, dims) < rng.uniform(0.05, 0.4)
            for axis in range(3):  # empty some planes, so that gaps of every length occur
                planes = [slice(None)] * 3
                planes[axis] = rng.uniform(0, 1, dims[axis]) < 0.5
                arr[tuple(planes)] = False
            spacing, origin = tuple(rng.uniform(0.4, 2.0, 3)), tuple(rng.uniform(-10.0, 10.0, 3))
            m = LabelMask(arr.astype(np.uint8), spacing, origin)
            got = detection_fields(connected_components(m, connectivity))
            assert got == [c[:5] for c in components_oracle(m, connectivity)]


class TestEvaluateScan:
    def test_geometry_checked_first(self):
        a = mask_from_voxels([(3, 3, 3)], dims=(8, 8, 8))
        for b in (
            mask_from_voxels([(3, 3, 3)], dims=(8, 8, 9)),
            mask_from_voxels([(3, 3, 3)], dims=(8, 8, 8), spacing=(1.0, 1.0, 2.0)),
        ):
            with pytest.raises(GeometryMismatchError):
                evaluate_scan(a, b)
            with pytest.raises(GeometryMismatchError):
                evaluate_scan(a, b, connectivity=18)  # before any parameter or labelling work

    def test_size_filter_never_increases_counts(self, rng):
        for trial in range(10):
            arr_p = (rng.uniform(0, 1, (20, 20, 20)) > 0.9).astype(np.uint8)
            arr_g = (rng.uniform(0, 1, (20, 20, 20)) > 0.9).astype(np.uint8)
            pred, gt = LabelMask(arr_p), LabelMask(arr_g)
            loose, p0, g0 = evaluate_scan(pred, gt, min_volume_mm3=0.0)
            tight, p1, g1 = evaluate_scan(pred, gt, min_volume_mm3=3.0)
            assert len(p1) <= len(p0) and len(g1) <= len(g0)
            assert tight.fp <= loose.fp
