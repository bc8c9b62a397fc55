"""Run the classical reference detector on phantoms with CMB mimics.

The reference segmenter scores dark round blobs per slice: each view's
band-pass hypointensity in that view's own noise units, through a
logistic, on the scan's raw intensities with no window. Dark vessel tubes
are the classical false-positive source: a vessel seen end-on looks
exactly like a CMB in one view, and it is a real dark structure, many
noise units deep. Tri-planar fusion suppresses most of them and the
clinical size filter cleans up the speckle.
"""

from cmbpipe import detect
from cmbpipe.phantom import BackgroundSpec, generate_phantom, random_phantom_spec
from cmbpipe.segmenter import ReferenceConfig, ReferenceSegmenter
from cmbpipe.triplanar import predict


def run_scan(seed, n_vessels):
    spec = random_phantom_spec(
        seed,
        dims=(128, 128, 128),
        n_cmbs_range=(2, 5),
        diameter_range=(5.0, 9.0),
        contrast_range=(0.6, 0.9),
        n_vessels=n_vessels,
        background=BackgroundSpec(base=100.0, smooth_amplitude=2.0, noise_sigma=4.0),
    )
    volume, gt_mask, _ = generate_phantom(spec)
    _, pred_mask = predict(volume, ReferenceSegmenter(ReferenceConfig()))  # all three views, each on every CPU
    filtered, _, _ = detect.evaluate_scan(pred_mask, gt_mask, min_volume_mm3=4.2)
    raw, _, _ = detect.evaluate_scan(pred_mask, gt_mask, min_volume_mm3=0.0)
    return filtered, raw


for n_vessels, title in ((0, "Scans without mimics:"), (3, "\nSame scans with 3 dark vessel tubes added:")):
    print(title)
    for seed in (300, 301):
        kept, raw = run_scan(seed, n_vessels)
        print(f"  seed {seed}: TP {kept.tp}  FN {kept.fn}  FP {raw.fp} before size filter -> {kept.fp} after")

print("\nVessels inflate the false positives: each is a real dark structure, many")
print("noise units deep. The 4.2 mm^3 filter trims their speckle without touching")
print("the true detections.")
