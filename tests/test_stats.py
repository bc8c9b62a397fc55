import numpy as np
import pytest

from cmbpipe import stats
from cmbpipe.detect import Detections
from cmbpipe.errors import (
    ConfigError,
    DegenerateContingencyWarning,
    DegenerateTestError,
    PairingMismatchWarning,
    RejectedInputError,
)
from cmbpipe.stats import (
    SweepRow,
    compare_groups,
    fisher_exact_2x2,
    format_sweep_table,
    size_sweep,
    wilcoxon_signed_rank,
)

from oracles import fisher_enumeration, wilcoxon_enumeration


def pairs(diffs):
    return [(int(d), 0) for d in diffs]


class TestWilcoxon:
    def test_all_positive_n5(self):
        w, p = wilcoxon_signed_rank(pairs([1, 2, 3, 4, 5]))
        assert w == 15.0
        assert p == pytest.approx(2 / 2**5, abs=1e-15)

    def test_symmetric_tie(self):
        w, p = wilcoxon_signed_rank(pairs([1, -1]))
        assert w == 1.5
        assert p == 1.0

    def test_frozen_regression_case(self):
        # frozen from the exhaustive 2^10 enumeration oracle
        w, p = wilcoxon_signed_rank(pairs([3, 5, 8, -1, 2, 4, 7, -2, 6, 1]))
        assert w == 50.0
        assert p == pytest.approx(22 / 1024, abs=1e-12)

    def test_all_zero_differences_degenerate(self):
        with pytest.raises(DegenerateTestError):
            wilcoxon_signed_rank([(3, 3), (1, 1)])

    def test_zeros_dropped(self):
        w1, p1 = wilcoxon_signed_rank(pairs([0, 0, 1, 2, 3]))
        w2, p2 = wilcoxon_signed_rank(pairs([1, 2, 3]))
        assert (w1, p1) == (w2, p2)

    def test_pratt_zero_method(self):
        # zeros consume the lowest ranks before being dropped
        w, p = wilcoxon_signed_rank(pairs([0, 1, 2]), zero_method="pratt")
        assert w == 2.0 + 3.0
        assert 0.0 < p <= 1.0

    def test_exact_matches_enumeration_oracle(self, rng):
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 13))
            d = rng.integers(-9, 10, n)
            if np.all(d == 0):
                d[0] = 1
            for alt in ("two_sided", "greater", "less"):
                w1, p1 = wilcoxon_signed_rank(pairs(d), alternative=alt)
                w2, p2 = wilcoxon_enumeration(list(d), alternative=alt)
                assert w1 == w2
                worst = max(worst, abs(p1 - p2))
        assert worst < 1e-9

    def test_two_sided_invariant_under_group_swap(self, rng):
        for _ in range(20):
            a = rng.integers(0, 10, 8)
            b = rng.integers(0, 10, 8)
            if np.all(a == b):
                a[0] += 1
            _, p_ab = wilcoxon_signed_rank(list(zip(a, b)))
            _, p_ba = wilcoxon_signed_rank(list(zip(b, a)))
            assert p_ab == pytest.approx(p_ba, abs=1e-12)

    def test_normal_approximation_branch(self, rng):
        d = rng.integers(-20, 21, 40)
        d[d == 0] = 3
        w, p_approx = wilcoxon_signed_rank(pairs(d))  # n=40 -> approx
        ranks2 = np.rint(2.0 * stats._average_ranks(np.abs(d))).astype(np.int64)
        p_exact = stats._exact_signed_rank_p(ranks2, int(round(2.0 * w)), "two_sided")
        assert 0.0 <= p_approx <= 1.0
        assert abs(p_approx - p_exact) < 0.01

    def test_greater_direction(self):
        _, p_greater = wilcoxon_signed_rank(pairs([5, 6, 7, 8]), alternative="greater")
        _, p_less = wilcoxon_signed_rank(pairs([5, 6, 7, 8]), alternative="less")
        assert p_greater < 0.1 < p_less

    def test_bad_alternative(self):
        with pytest.raises(ConfigError):
            wilcoxon_signed_rank(pairs([1, 2]), alternative="sideways")

    def test_non_finite_pair_rejected(self):
        """A NaN difference would rank above every number and count in n; the first such pair is named."""
        with pytest.raises(RejectedInputError, match=r"pair 0 \(nan, 0\)"):
            wilcoxon_signed_rank([(float("nan"), 0), (1, 0), (2, 0.5)])


class TestFisher:
    def test_degenerate_margin(self):
        with pytest.warns(DegenerateContingencyWarning):
            assert fisher_exact_2x2([[0, 0], [5, 7]]) == 1.0

    def test_two_by_two_symmetric_case(self):
        assert fisher_exact_2x2([[1, 0], [0, 1]]) == 1.0

    def test_frozen_regression_case(self):
        # frozen from the fraction-exact enumeration oracle: 920/167960
        p = fisher_exact_2x2([[8, 2], [1, 9]])
        assert p == pytest.approx(920 / 167960, abs=1e-15)

    def test_extreme_table(self):
        from math import comb

        p = fisher_exact_2x2([[10, 0], [0, 10]])
        assert p == pytest.approx(2 / comb(20, 10), abs=1e-18)

    def test_matches_enumeration_oracle(self, rng):
        worst = 0.0
        for _ in range(100):
            a, b, c, d = (int(x) for x in rng.integers(0, 16, 4))
            if 0 in (a + b, c + d, a + c, b + d):
                a, b, c, d = a + 1, b + 1, c + 1, d + 1
            for alt in ("two_sided", "greater", "less"):
                p1 = fisher_exact_2x2([[a, b], [c, d]], alternative=alt)
                p2 = fisher_enumeration(a, b, c, d, alternative=alt)
                worst = max(worst, abs(p1 - p2))
        assert worst < 1e-12

    def test_two_sided_invariant_under_row_swap(self, rng):
        for _ in range(20):
            a, b, c, d = (int(x) + 1 for x in rng.integers(0, 12, 4))
            assert fisher_exact_2x2([[a, b], [c, d]]) == pytest.approx(
                fisher_exact_2x2([[c, d], [a, b]]), abs=1e-12
            )

    def test_negative_entries_rejected(self):
        with pytest.raises(ConfigError):
            fisher_exact_2x2([[1, -1], [2, 3]])


def det(*volumes_mm3):
    """One scan's detections: one component of each volume, in order."""
    n = len(volumes_mm3)
    return Detections(
        ids=np.arange(1, n + 1),
        centroid_mm=np.zeros((n, 3)),
        volume_mm3=np.array(volumes_mm3, dtype=np.float64),
        voxel_count=[max(int(v), 1) for v in volumes_mm3],
        bbox=np.zeros((n, 2, 3), dtype=np.int64),
    )


def scans_with_counts(counts, volume_mm3=8.0):
    return [det(*[volume_mm3] * c) for c in counts]


class TestCompareGroups:
    def test_identical_groups(self):
        group = scans_with_counts([2, 3, 4, 2])
        with pytest.warns(PairingMismatchWarning, match="degenerate"):
            cmp = compare_groups(group, group)
        assert cmp.wilcoxon_p is None
        assert "degenerate" in cmp.wilcoxon_note
        assert cmp.fisher_p == 1.0

    def test_extreme_groups(self):
        group_a = scans_with_counts([10] * 10)
        group_b = scans_with_counts([0] * 10)
        cmp = compare_groups(group_a, group_b)
        assert cmp.contingency == ((10, 0), (0, 10))
        assert cmp.wilcoxon_p == pytest.approx(2 / 2**10, abs=1e-15)
        assert cmp.fisher_p == pytest.approx(fisher_enumeration(10, 0, 0, 10), abs=1e-15)

    def test_size_filter_applied_to_counts(self):
        group_a = [det(2.0, 8.0)] * 4  # one sub-clinical detection per scan
        group_b = [det(8.0)] * 4
        with pytest.warns(PairingMismatchWarning):  # filtered counts tie -> degenerate Wilcoxon
            cmp = compare_groups(group_a, group_b, size_filter_mm3=4.2, illness_threshold=1)
        assert cmp.mean_count_a == 1.0 and cmp.mean_count_b == 1.0

    def test_length_mismatch_skips_wilcoxon(self):
        group_a = scans_with_counts([1, 2, 3])
        group_b = scans_with_counts([1, 2])
        with pytest.warns(PairingMismatchWarning):
            cmp = compare_groups(group_a, group_b)
        assert cmp.wilcoxon_p is None
        assert 0.0 <= cmp.fisher_p <= 1.0

    def test_phantom_cohort_direction(self):
        counts_a = [0, 0, 1, 0, 2, 0, 1, 0]
        counts_b = [3, 5, 6, 2, 7, 4, 5, 6]
        cmp = compare_groups(scans_with_counts(counts_a), scans_with_counts(counts_b))
        assert cmp.mean_count_b > cmp.mean_count_a

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_size_filter_rejected(self, bad):
        group = scans_with_counts([1, 2])
        with pytest.raises(ConfigError):
            compare_groups(group, group, size_filter_mm3=bad)


class TestSizeSweep:
    def test_threshold_zero_counts_everything(self):
        group = [det(1.0, 10.0)] * 3
        rows = size_sweep(group, group, [0.0])
        assert rows[0].mean_count_a == 2.0

    def test_monotone_non_increasing(self, rng):
        for _ in range(20):
            group_a = [det(*rng.uniform(0.5, 20.0, rng.integers(0, 8))) for _ in range(6)]
            group_b = [det(*rng.uniform(0.5, 20.0, rng.integers(0, 8))) for _ in range(6)]
            rows = size_sweep(group_a, group_b, [0.0, 2.0, 4.2, 8.0, 16.0, 30.0])
            counts_a = [r.mean_count_a for r in rows]
            counts_b = [r.mean_count_b for r in rows]
            assert all(x >= y for x, y in zip(counts_a, counts_a[1:]))
            assert all(x >= y for x, y in zip(counts_b, counts_b[1:]))

    def test_beyond_max_component_degenerate(self):
        group = [det(5.0)] * 3
        rows = size_sweep(group, group, [100.0])
        assert rows[0].mean_count_a == 0.0
        assert rows[0].fisher_p == 1.0

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            size_sweep([det(1.0)], [det(1.0)], [5.0, 1.0])

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ConfigError, match="one or more"):
            size_sweep([det(1.0)], [det(1.0)], [])

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_threshold_rejected(self, bad):
        with pytest.raises(ConfigError):
            size_sweep([det(1.0)], [det(1.0)], [0.0, bad])

    def test_table_renders(self):
        group = [det(5.0)] * 3
        text = format_sweep_table(size_sweep(group, group, [0.0, 4.2]))
        assert "Fisher p" in text and "4.20" in text

    def test_table_aligns_its_columns(self):
        rows = [SweepRow(0.0, 1.5, 2.0 / 3, 3, 12, 1.0), SweepRow(4.2, 0.25, 10.125, 1, 0, 0.012345678)]
        assert format_sweep_table(rows) == (
            "Threshold(mm3)  Mean count A  Mean count B  A >= thr  B >= thr  Fisher p\n"
            "0.00            1.500         0.667         3         12        1.000000\n"
            "4.20            0.250         10.125        1         0         0.012346"
        )

    def test_table_of_no_rows_is_its_header(self):
        assert format_sweep_table([]) == "Threshold(mm3)  Mean count A  Mean count B  A >= thr  B >= thr  Fisher p"
