"""Group-level analysis of two matched phantom cohorts.

Cohort A is planted at a low CMB burden, cohort B at a high one. Per-scan
detection counts feed a paired Wilcoxon signed-rank test, and the
">= 5 CMBs per scan" illness criterion feeds Fisher's exact test. The size
sweep shows how both group frequencies and the significance respond to the
minimum-size filter.
"""

from cmbpipe import detect, stats
from cmbpipe.phantom import BackgroundSpec, generate_phantom, random_phantom_spec

counts_low = [2] * 4 + [1] * 4 + [0] * 12
counts_high = [5] * 6 + [6] * 1 + [3] * 3 + [2] * 4 + [0] * 6


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
        _, gt_mask, _ = generate_phantom(spec)
        group.append(detect.connected_components(gt_mask, 26))
    return group


print(f"Building {len(counts_low)} matched scan pairs...")
group_high = cohort(counts_high, seed0=500)
group_low = cohort(counts_low, seed0=600)

cmp = stats.compare_groups(group_high, group_low, size_filter_mm3=4.2, illness_threshold=5)
print(f"\nMean CMBs/scan: high-burden {cmp.mean_count_a:.2f} vs low-burden {cmp.mean_count_b:.2f}")
print(f"Wilcoxon signed-rank: W = {cmp.wilcoxon_w:.1f}, p = {cmp.wilcoxon_p:.2e}")
print(f"Contingency (>= {cmp.illness_threshold} CMBs vs fewer): {cmp.contingency}")
print(f"Fisher's exact: p = {cmp.fisher_p:.2e}")

print("\nSize-filter sweep:")
rows = stats.size_sweep(group_high, group_low, [0.0, 2.0, 4.2, 7.0, 10.0, 20.0], illness_threshold=5)
print(stats.format_sweep_table(rows))
