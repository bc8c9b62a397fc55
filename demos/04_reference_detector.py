"""Run the classical reference detector on phantoms with CMB mimics.

The reference segmenter scores dark round blobs per slice (band-pass
hypointensity through a logistic). Dark vessel tubes are
the classical false-positive source: a vessel seen end-on looks exactly
like a CMB in one view. Tri-planar fusion suppresses most of them and the
clinical size filter cleans up the speckle.
"""

from cmbpipe import detect
from cmbpipe.phantom import BackgroundSpec, generate_phantom, random_phantom_spec
from cmbpipe.segmenter import REFERENCE_WINDOW, ReferenceConfig, ReferenceSegmenter
from cmbpipe.triplanar import predict
from cmbpipe.volume import normalize_intensity


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
    volume = normalize_intensity(volume, *REFERENCE_WINDOW)
    _, pred_mask = predict(volume, ReferenceSegmenter(ReferenceConfig()))  # all three views, each on every CPU
    filtered, _, _ = detect.evaluate_scan(pred_mask, gt_mask, min_volume_mm3=4.2)
    raw, _, _ = detect.evaluate_scan(pred_mask, gt_mask, min_volume_mm3=0.0)
    return filtered, raw


print("Scans without mimics:")
for seed in (300, 301):
    filtered, raw = run_scan(seed, n_vessels=0)
    print(
        f"  seed {seed}: TP {filtered.tp}  FN {filtered.fn}  "
        f"FP {raw.fp} before size filter -> {filtered.fp} after"
    )

print("\nSame scans with 3 dark vessel tubes added:")
for seed in (300, 301):
    filtered, raw = run_scan(seed, n_vessels=3)
    print(
        f"  seed {seed}: TP {filtered.tp}  FN {filtered.fn}  "
        f"FP {raw.fp} before size filter -> {filtered.fp} after"
    )

print("\nVessels inflate the false positives; the 4.2 mm^3 filter trims the")
print("speckle component of them without touching the true detections.")
