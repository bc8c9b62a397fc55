"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 3 runs 50 oracle-segmented 256-cube phantoms end to end and
dominates the runtime (a few minutes single-threaded); everything else is
seconds. Run with `pytest tests/test_acceptance.py -v`.
"""

import time

import numpy as np
import pytest

from cmbpipe import detect, stats
from cmbpipe.annotation import CMBAnnotation, synthesize_mask
from cmbpipe.augment import AugmentSpec, apply_augmentation, elastic_deform, flip_volume, rotate_volume
from cmbpipe.cli import main as cli_main
from cmbpipe.phantom import BackgroundSpec, generate_phantom, gt_radius_mm, random_phantom_spec
from cmbpipe.segmenter import OracleSegmenter, ReferenceConfig, ReferenceSegmenter
from cmbpipe.triplanar import binarize_fused, fuse_views, segment_volume
from cmbpipe.volume import LabelMask, ProbabilityVolume, normalize_intensity

from oracles import fisher_enumeration, wilcoxon_enumeration
from test_detect import REFERENCE_ROWS


def test_criterion_01_table_consistency():
    """Pooled formulas reproduce each reference row's sensitivity/precision within 0.005."""
    for tag, tp, fp, fn, sens, prec in REFERENCE_ROWS:
        got_sens = detect.pooled_sensitivity(tp, fn)
        got_prec = detect.pooled_precision(tp, fp)
        if sens is None:
            assert got_sens is None and got_prec is None, tag
        else:
            assert abs(got_sens - sens) < 0.005, (tag, got_sens, sens)
            assert abs(got_prec - prec) < 0.005, (tag, got_prec, prec)


def test_criterion_02_empty_scan_convention():
    """Empty prediction + empty ground truth: DSC 1.00, NA sensitivity/precision."""
    empty = LabelMask(np.zeros((16, 16, 16), dtype=np.uint8))
    metrics, _, _ = detect.evaluate_scan(empty, empty, min_volume_mm3=4.2)
    assert metrics.dsc == 1.0
    assert metrics.sensitivity is None and metrics.precision is None
    rows = detect.aggregate_metrics([metrics], ["DS3n"])
    line = [ln for ln in detect.format_metrics_table(rows).splitlines() if ln.startswith("DS3n")][0]
    assert line.count("NA") == 2 and "1.00" in line


def test_criterion_03_oracle_end_to_end():
    """50 oracle-segmented 256-cube phantoms: sensitivity 1.000, FP/scan 0.000, mean DSC >= 0.95."""
    start = time.time()
    tp = fp = fn = 0
    dscs = []
    for seed in range(1000, 1050):
        spec = random_phantom_spec(
            seed, dims=(256, 256, 256), n_cmbs_range=(1, 10), diameter_range=(2.0, 10.0)
        )
        vol, gt, _ = generate_phantom(spec)
        oracle = OracleSegmenter(gt)
        probs = segment_volume(vol, oracle)
        fused = fuse_views(probs["axial"], probs["sagittal"], probs["coronal"])
        pred = binarize_fused(fused, 0.125)
        metrics, _, _ = detect.evaluate_scan(pred, gt, min_volume_mm3=4.2, max_dist_mm=2.5)
        tp += metrics.tp
        fp += metrics.fp
        fn += metrics.fn
        dscs.append(metrics.dsc)
        del vol, gt, probs, fused, pred
    elapsed = time.time() - start
    assert tp > 0
    assert detect.pooled_sensitivity(tp, fn) == 1.0
    assert fp == 0
    assert float(np.mean(dscs)) >= 0.95
    assert elapsed < 600.0, f"ran {elapsed:.0f}s, target < 10 min single-threaded"


def test_criterion_04_alpha_formula_loop_closure():
    """synthesize_mask on noiseless phantoms recovers >= 0.9 per-CMB DSC for >= 95% of CMBs."""
    total = 0
    good = 0
    for seed in range(400, 412):
        spec = random_phantom_spec(
            seed,
            dims=(96, 96, 96),
            n_cmbs_range=(1, 6),
            diameter_range=(2.0, 10.0),
            background=BackgroundSpec(base=100.0, smooth_amplitude=2.0, noise_sigma=0.0),
        )
        vol, gt, entry = generate_phantom(spec)
        synth = synthesize_mask(vol, [CMBAnnotation(c) for c in entry.cmb_centers])
        for cmb in spec.cmbs:
            reach = int(np.ceil(gt_radius_mm(cmb.diameter_mm))) + 2
            c = np.rint(np.asarray(cmb.center)).astype(int)
            lo = np.maximum(c - reach, 0)
            hi = np.minimum(c + reach + 1, spec.dims)
            box = (slice(lo[0], hi[0]), slice(lo[1], hi[1]), slice(lo[2], hi[2]))
            g = gt.labels[box].astype(bool)
            s = synth.labels[box].astype(bool)
            denom = g.sum() + s.sum()
            dsc = 1.0 if denom == 0 else 2.0 * np.logical_and(g, s).sum() / denom
            total += 1
            good += dsc >= 0.9
    assert total >= 30
    assert good / total >= 0.95, f"{good}/{total} CMBs reached DSC 0.9"


def test_criterion_05_statistics_oracle_equivalence(rng):
    """Exact tests match brute-force enumeration; closed-form extremes exact."""
    worst_w = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        d = rng.integers(-9, 10, n)
        if np.all(d == 0):
            d[0] = 1
        for alt in ("two_sided", "greater", "less"):
            _, p1 = stats.wilcoxon_signed_rank([(int(x), 0) for x in d], alternative=alt)
            _, p2 = wilcoxon_enumeration(list(d), alternative=alt)
            worst_w = max(worst_w, abs(p1 - p2))
    assert worst_w < 1e-9

    worst_f = 0.0
    for _ in range(100):
        a, b, c, d = (int(x) for x in rng.integers(0, 16, 4))
        if 0 in (a + b, c + d, a + c, b + d):
            a, b, c, d = a + 1, b + 1, c + 1, d + 1
        for alt in ("two_sided", "greater", "less"):
            p1 = stats.fisher_exact_2x2([[a, b], [c, d]], alternative=alt)
            p2 = fisher_enumeration(a, b, c, d, alternative=alt)
            worst_f = max(worst_f, abs(p1 - p2))
    assert worst_f < 1e-12

    _, p = stats.wilcoxon_signed_rank([(x, 0) for x in (1, 2, 3, 4, 5)])
    assert p == 2 / 2**5
    with pytest.warns(Warning):
        assert stats.fisher_exact_2x2([[0, 0], [5, 7]]) == 1.0


def test_criterion_06_fusion_algebra(rng):
    """10^6 random triples: fused <= min, exact permutation symmetry, exact zero veto."""
    shape = (100, 100, 100)
    vals = [rng.uniform(0, 1, shape).astype(np.float32) for _ in range(3)]
    vals[0].flat[::97] = 0.0  # sprinkle exact zeros for the veto check
    pvs = [ProbabilityVolume(v) for v in vals]
    fused = [
        fuse_views(pvs[0], pvs[1], pvs[2]).values,
        fuse_views(pvs[1], pvs[2], pvs[0]).values,
        fuse_views(pvs[2], pvs[0], pvs[1]).values,
    ]
    assert np.array_equal(fused[0], fused[1]) and np.array_equal(fused[0], fused[2])
    assert np.all(fused[0] <= np.minimum(np.minimum(vals[0], vals[1]), vals[2]))
    assert np.all(fused[0][vals[0] == 0.0] == 0.0)


def _phantom_with_mask(seed, n=48):
    # fixed contrast so the alpha > 0.65 isosurface equals I < 100 * (1 - 0.8 * 0.65)
    spec = random_phantom_spec(
        seed,
        dims=(n, n, n),
        n_cmbs=2,
        diameter_range=(6.0, 9.0),
        contrast_range=(0.8, 0.8),
        background=BackgroundSpec(100.0, 0.0, 0.0),
    )
    return generate_phantom(spec)


def test_criterion_07_augmentation_suite(rng, tmp_path):
    """Identity guarantees, co-transform Dice, and byte-exact --jobs determinism."""
    vol, gt, _ = _phantom_with_mask(70)

    out_v, out_m, record = apply_augmentation(vol, gt, AugmentSpec.disabled(), "scan")
    assert np.array_equal(out_v.intensities, vol.intensities)
    assert np.array_equal(out_m.labels, gt.labels)

    v2, m2 = flip_volume(*flip_volume(vol, gt, (0, 2)), (0, 2))
    assert np.array_equal(v2.intensities, vol.intensities)
    assert np.array_equal(m2.labels, gt.labels)

    r, rm = rotate_volume(vol, gt, (0.0, 0.0, 0.0))
    assert np.abs(r.intensities - vol.intensities).max() < 1e-6
    assert np.array_equal(rm.labels, gt.labels)
    e, _, _ = elastic_deform(vol, gt, 32.0, 0.0, seed=3)
    assert np.abs(e.intensities - vol.intensities).max() < 1e-6

    # spatial co-transform keeps mask on the dark blob (<= 3 mm displacement)
    wv, wm, _ = elastic_deform(vol, gt, 24.0, 3.0, seed=9)
    dark = wv.intensities < 100.0 * (1.0 - 0.8 * 0.65)
    keep = np.zeros(wv.dims, dtype=bool)
    keep[12:-12, 12:-12, 12:-12] = True
    dark &= keep
    denom = dark.sum() + wm.labels.sum()
    assert denom > 0
    assert 2.0 * np.logical_and(dark, wm.labels).sum() / denom >= 0.8

    # CLI determinism: --jobs 1 and --jobs 8 byte-identical
    data = tmp_path / "data"
    code = cli_main(
        ["phantom", "--out", str(data), "--count", "3", "--dims", "32", "--seed", "5",
         "--n-cmbs-min", "1", "--n-cmbs-max", "2", "--diameter-min", "5", "--diameter-max", "6"]
    )
    assert code == 0
    outs = {}
    for jobs in ("1", "8"):
        out_dir = tmp_path / f"aug_j{jobs}"
        code = cli_main(
            ["augment", "--manifest", str(data / "manifest.jsonl"), "--masks-dir",
             str(data / "gt_masks"), "--out", str(out_dir), "--master-seed", "7", "--jobs", jobs]
        )
        assert code == 0
        outs[jobs] = {
            p.relative_to(out_dir): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and "run_record" not in p.name
        }
    assert outs["1"] == outs["8"]


def test_criterion_08_size_filter_boundary(rng):
    """2 mm sphere (4.19 mm^3) removed at the 4.2 default; sweep counts monotone."""
    analytic = 4.0 / 3.0 * np.pi
    assert analytic < 4.2
    box = [[0, 0, 0], [0, 0, 0]]
    det = detect.Detections.from_records(
        [{"id": 1, "centroid_mm": [0.0, 0.0, 0.0], "volume_mm3": analytic, "voxel_count": 1, "bbox": box}]
    )
    assert len(det) == 1 and len(detect.filter_by_size(det, 4.2)) == 0

    def random_cohort():
        return [
            detect.Detections.from_records(
                [
                    {
                        "id": k + 1,
                        "centroid_mm": [float(k), 0.0, 0.0],
                        "volume_mm3": float(v),
                        "voxel_count": max(int(v), 1),
                        "bbox": box,
                    }
                    for k, v in enumerate(rng.uniform(0.5, 30.0, rng.integers(0, 9)))
                ]
            )
            for _ in range(8)
        ]

    thresholds = [0.0, 1.0, 2.0, 4.2, 8.0, 16.0, 32.0]
    for _ in range(20):
        rows = stats.size_sweep(random_cohort(), random_cohort(), thresholds)
        for series in ("mean_count_a", "mean_count_b"):
            vals = [getattr(r, series) for r in rows]
            assert all(x >= y for x, y in zip(vals, vals[1:]))


def _reference_run(seed, n_vessels):
    spec = random_phantom_spec(
        seed,
        dims=(128, 128, 128),
        n_cmbs_range=(2, 6),
        diameter_range=(5.0, 9.0),
        contrast_range=(0.6, 0.9),
        n_vessels=n_vessels,
        background=BackgroundSpec(100.0, 2.0, 4.0),  # CNR = 100*0.6/4 = 15
    )
    vol, gt, _ = generate_phantom(spec)
    vol = normalize_intensity(vol, 0.0, 100.0)
    seg = ReferenceSegmenter(ReferenceConfig())
    probs = segment_volume(vol, seg)
    fused = fuse_views(probs["axial"], probs["sagittal"], probs["coronal"])
    pred = binarize_fused(fused, 0.125)
    filtered, _, _ = detect.evaluate_scan(pred, gt, min_volume_mm3=4.2)
    unfiltered, _, _ = detect.evaluate_scan(pred, gt, min_volume_mm3=0.0)
    return filtered, unfiltered


def test_criterion_09_reference_segmenter_sanity():
    """Easy phantoms: sens >= 0.95, prec >= 0.9; vessels raise FP; filter cuts FP, keeps TP."""
    seeds = range(200, 205)
    clean = [_reference_run(s, n_vessels=0) for s in seeds]
    vessels = [_reference_run(s, n_vessels=3) for s in seeds]

    tp = sum(m.tp for m, _ in clean)
    fp = sum(m.fp for m, _ in clean)
    fn = sum(m.fn for m, _ in clean)
    assert detect.pooled_sensitivity(tp, fn) >= 0.95
    assert detect.pooled_precision(tp, fp) >= 0.9

    fp0_clean = sum(u.fp for _, u in clean)
    fp0_vessels = sum(u.fp for _, u in vessels)
    assert fp0_vessels > fp0_clean  # mimics strictly increase FP before size filtering

    fp_vessels = sum(m.fp for m, _ in vessels)
    assert fp_vessels < fp0_vessels  # the size filter reduces FP/scan
    assert sum(m.tp for m, _ in vessels) == sum(u.tp for _, u in vessels)  # without reducing TP


def test_criterion_10_group_analysis_direction():
    """Cohorts planted at 0.62 vs 2.60 CMBs/scan: Wilcoxon p < 0.01, Fisher p < 0.05."""
    counts_low = [2] * 8 + [1] * 8 + [0] * 24  # mean 0.6
    counts_high = [5] * 12 + [6] * 2 + [3] * 6 + [2] * 7 + [0] * 13  # mean 2.6, 35% >= 5
    assert len(counts_low) == len(counts_high) == 40
    assert np.mean(counts_high) == pytest.approx(2.6)
    assert sum(c >= 5 for c in counts_high) / 40 >= 0.30

    def cohort(counts, seed0):
        group = []
        for i, count in enumerate(counts):
            spec = random_phantom_spec(
                seed0 + i,
                dims=(64, 64, 64),
                n_cmbs=count,
                diameter_range=(5.0, 7.0),
                background=BackgroundSpec(100.0, 2.0, 0.0),
            )
            assert len(spec.cmbs) == count
            _, gt, _ = generate_phantom(spec)
            group.append(detect.connected_components(gt, 26))
        return group

    group_low = cohort(counts_low, 9000)
    group_high = cohort(counts_high, 9100)
    cmp = stats.compare_groups(group_high, group_low, size_filter_mm3=4.2, illness_threshold=5)
    assert cmp.mean_count_a == pytest.approx(2.6)
    assert cmp.mean_count_b == pytest.approx(0.6)
    assert cmp.wilcoxon_p is not None and cmp.wilcoxon_p < 0.01
    assert cmp.fisher_p < 0.05
    assert cmp.contingency[0][0] >= 12  # high group carries the >= 5 scans
