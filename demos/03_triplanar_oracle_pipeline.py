"""End-to-end tri-planar pipeline with the ground-truth oracle segmenter.

Each of the three orthogonal views — one thickened slice per plane — is
segmented into a whole-view probability volume, fused by multiplication
(full three-view agreement), binarized, and turned into discrete
detections with the clinical size filter. With the oracle as segmenter the
pipeline must reproduce the ground truth exactly — its self-consistency
proof.
"""

from cmbpipe import detect
from cmbpipe.phantom import generate_phantom, random_phantom_spec
from cmbpipe.segmenter import OracleSegmenter
from cmbpipe.triplanar import predict

spec = random_phantom_spec(seed=3, dims=(128, 128, 128), n_cmbs=5, diameter_range=(4.0, 10.0))
volume, gt_mask, _ = generate_phantom(spec)
print(f"Phantom {volume.dims} with {len(spec.cmbs)} planted CMBs")

n_slices = sum(volume.dims)  # one thick slice per plane of each view
print(f"Thick slices across the three views: {n_slices}")

oracle = OracleSegmenter(gt_mask)
fused, pred_mask = predict(volume, oracle)  # one segmenter, told each view in turn; tau 0.125
print(f"Fused probability volume: max {fused.values.max():.2f}")

metrics, pred, gt = detect.evaluate_scan(pred_mask, gt_mask, min_volume_mm3=4.2)
print(f"\nDetections passing the 4.2 mm^3 clinical size filter: {len(pred)}")
for det_id, centroid, volume_mm3, voxels in zip(
    pred.ids.tolist(), pred.centroid_mm.tolist(), pred.volume_mm3.tolist(), pred.voxel_count.tolist()
):
    print(
        f"  component {det_id}: centroid {tuple(round(c, 1) for c in centroid)} mm, "
        f"{volume_mm3:.1f} mm^3 ({voxels} voxels)"
    )
print(f"\nScan metrics: TP {metrics.tp}, FP {metrics.fp}, FN {metrics.fn}, DSC {metrics.dsc:.3f}")

rows = detect.aggregate_metrics([metrics], ["PHANTOM"])
print("\n" + detect.format_metrics_table(rows))
