"""Group-level analyses: paired Wilcoxon signed-rank, Fisher's exact test,
and the size-filter sweep over per-scan CMB counts.

Both tests are exact where it matters at cohort scale: the signed-rank
null distribution is enumerated over all 2^n sign assignments (organized
as a polynomial convolution) for n <= 20, with a tie- and
continuity-corrected normal approximation beyond; Fisher's test sums exact
hypergeometric table weights in integer arithmetic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .detect import DEFAULT_MIN_VOLUME_MM3, SIZE_BOUND, format_table
from .errors import (
    ConfigError,
    DegenerateContingencyWarning,
    DegenerateTestError,
    PairingMismatchWarning,
    RejectedInputError,
    require,
)

ALTERNATIVES = ("two_sided", "greater", "less")
ZERO_METHODS = ("drop", "pratt")
DEFAULT_ILLNESS_THRESHOLD = 5  # scans with >= 5 CMBs count as diseased
ILLNESS_THRESHOLD_BOUND = "[1, inf)"  # at 0 every scan would count as diseased
EXACT_WILCOXON_MAX_N = 20


def _check_alternative(alternative: str) -> str:
    if alternative not in ALTERNATIVES:
        raise ConfigError(f"alternative must be one of {ALTERNATIVES}, got '{alternative}'")
    return alternative


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank; each NaN ranks on its own, after every number."""
    # return_index makes the sort stable, so NaNs keep their input order
    _, _, group, counts = np.unique(
        values, return_index=True, return_inverse=True, return_counts=True, equal_nan=False
    )
    # a group of c ties that ends at sorted position e (1-based) spans ranks e - c + 1 .. e
    return ((2 * np.cumsum(counts) - counts + 1) / 2)[group]


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _exact_signed_rank_p(ranks2: np.ndarray, w2: int, alternative: str) -> float:
    """Tail probability of W+ over all 2^n sign assignments.

    ``ranks2`` are the doubled ranks (integers even with average-rank
    ties); the distribution of the doubled statistic is built by
    shift-and-add polynomial convolution, which enumerates the same 2^n
    assignments without materializing them.
    """
    total2 = int(ranks2.sum())
    counts = np.zeros(total2 + 1, dtype=np.int64)
    counts[0] = 1
    for r in ranks2:
        r = int(r)
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total2 + 1 - r]
        counts = counts + shifted
    n_total = float(2 ** len(ranks2))
    support = np.arange(total2 + 1)
    if alternative == "greater":
        selected = counts[support >= w2].sum()
    elif alternative == "less":
        selected = counts[support <= w2].sum()
    else:
        margin = abs(2 * w2 - total2)
        selected = counts[np.abs(2 * support - total2) >= margin].sum()
    return float(selected / n_total)


def wilcoxon_signed_rank(pairs, alternative: str = "two_sided", zero_method: str = "drop") -> tuple[float, float]:
    """Paired signed-rank test on (count_a, count_b) pairs.

    Returns (W, p) where W is the sum of ranks of positive differences
    (a - b). Zero differences are dropped by default (``zero_method``
    "pratt" ranks them first, then drops their ranks); magnitude ties get
    average ranks. The null distribution is enumerated for effective
    n <= 20; beyond that the test uses the tie- and continuity-corrected
    normal approximation. A pair without a finite difference is rejected.
    """
    _check_alternative(alternative)
    if zero_method not in ZERO_METHODS:
        raise ConfigError(f"zero_method must be 'drop' or 'pratt', got '{zero_method}'")
    pairs = list(pairs)
    diffs = np.asarray([float(a) - float(b) for a, b in pairs])
    bad = np.flatnonzero(~np.isfinite(diffs))
    if len(bad):
        raise RejectedInputError(f"pair {bad[0]} {pairs[bad[0]]!r} has no finite difference")
    if len(diffs) == 0:
        raise DegenerateTestError("no pairs to test")
    nonzero = diffs[diffs != 0]
    if len(nonzero) == 0:
        raise DegenerateTestError("all paired differences are zero")

    if zero_method == "pratt":
        ranks_all = _average_ranks(np.abs(diffs))
        keep = diffs != 0
        ranks = ranks_all[keep]
        signs = np.sign(diffs[keep])
    else:
        ranks = _average_ranks(np.abs(nonzero))
        signs = np.sign(nonzero)
    n = len(ranks)
    w_plus = float(ranks[signs > 0].sum())

    if n <= EXACT_WILCOXON_MAX_N:
        ranks2 = np.rint(2.0 * ranks).astype(np.int64)
        return w_plus, _exact_signed_rank_p(ranks2, int(round(2.0 * w_plus)), alternative)

    mean = ranks.sum() / 2.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float(((tie_counts**3 - tie_counts)).sum()) / 48.0
    if var <= 0:
        raise DegenerateTestError("null variance is zero; no information in the ranks")
    sd = math.sqrt(var)
    p_greater = _normal_sf((w_plus - mean - 0.5) / sd)
    p_less = 1.0 - _normal_sf((w_plus - mean + 0.5) / sd)
    if alternative == "greater":
        p = p_greater
    elif alternative == "less":
        p = p_less
    else:
        p = min(1.0, 2.0 * min(p_greater, p_less))
    return w_plus, p


def fisher_exact_2x2(table, alternative: str = "two_sided") -> float:
    """Exact hypergeometric p-value for a 2x2 table ``((a, b), (c, d))`` of non-negative counts.

    Two-sided sums every table with the observed margins whose point
    probability is at most the observed one (relative tolerance 1e-7 on
    the comparison). A zero margin carries no information: p = 1.0 with a
    degenerate-table warning.
    """
    _check_alternative(alternative)
    (a, b), (c, d) = table
    if min(a, b, c, d) < 0:
        raise ConfigError("contingency entries must be non-negative")
    r1, r2, c1, c2 = a + b, c + d, a + c, b + d
    if 0 in (r1, r2, c1, c2):
        warnings.warn(
            f"table [[{a},{b}],[{c},{d}]] has a zero margin; p = 1.0",
            DegenerateContingencyWarning,
            stacklevel=2,
        )
        return 1.0

    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    weights = {x: math.comb(r1, x) * math.comb(r2, c1 - x) for x in range(lo, hi + 1)}
    total = math.comb(r1 + r2, c1)
    observed = weights[a]
    if alternative == "greater":
        selected = sum(w for x, w in weights.items() if x >= a)
    elif alternative == "less":
        selected = sum(w for x, w in weights.items() if x <= a)
    else:
        # integer form of w <= observed * (1 + 1e-7)
        scale = 10**7
        selected = sum(w for w in weights.values() if w * scale <= observed * (scale + 1))
    return float(Fraction(selected, total))


# ---------------------------------------------------------------------------
# Group comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupComparison:
    n_a: int
    n_b: int
    counts_a: tuple[int, ...]
    counts_b: tuple[int, ...]
    mean_count_a: float
    mean_count_b: float
    wilcoxon_w: float | None
    wilcoxon_p: float | None
    wilcoxon_note: str
    contingency: tuple[tuple[int, int], tuple[int, int]]  # rows are groups; columns >= / < the threshold
    fisher_p: float
    size_filter_mm3: float
    illness_threshold: int

    def to_json(self) -> dict:
        """The record of ``group_comparison.json``: every field but the per-scan counts."""
        return {k: v for k, v in asdict(self).items() if k not in ("counts_a", "counts_b")}


def count_filtered(detections_per_scan, size_filter_mm3: float) -> list[int]:
    """CMBs per scan after the clinical size filter."""
    require(size_filter_mm3, SIZE_BOUND, "size_filter_mm3")
    return [int(np.count_nonzero(dets.volume_mm3 >= size_filter_mm3)) for dets in detections_per_scan]


def _illness_table(counts_a, counts_b, illness_threshold: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Scans per group with >= / < ``illness_threshold`` CMBs, one row per group."""
    require(illness_threshold, ILLNESS_THRESHOLD_BOUND, "illness_threshold")
    a_ge = sum(1 for c in counts_a if c >= illness_threshold)
    b_ge = sum(1 for c in counts_b if c >= illness_threshold)
    return ((a_ge, len(counts_a) - a_ge), (b_ge, len(counts_b) - b_ge))


def _require_scans(group_a, group_b) -> None:
    if len(group_a) == 0 or len(group_b) == 0:
        raise DegenerateTestError("both groups need at least one scan")


def compare_groups(
    group_a,
    group_b,
    size_filter_mm3: float = DEFAULT_MIN_VOLUME_MM3,
    illness_threshold: int = DEFAULT_ILLNESS_THRESHOLD,
    alternative: str = "two_sided",
    zero_method: str = "drop",
) -> GroupComparison:
    """Full group analysis of two cohorts, each a list of per-scan ``Detections``.

    Counts CMBs per scan after the size filter, reports group means, runs
    the paired Wilcoxon on matched counts (skipped with a warning when the
    cohorts are not matched 1:1), and Fisher's exact test on the
    >= illness_threshold contingency table.
    """
    counts_a = count_filtered(group_a, size_filter_mm3)
    counts_b = count_filtered(group_b, size_filter_mm3)
    _require_scans(counts_a, counts_b)

    wilcoxon_w: float | None = None
    wilcoxon_p: float | None = None
    note = ""
    if len(counts_a) != len(counts_b):
        note = f"pairing mismatch ({len(counts_a)} vs {len(counts_b)} scans); Wilcoxon skipped"
        warnings.warn(note, PairingMismatchWarning, stacklevel=2)
    else:
        try:
            wilcoxon_w, wilcoxon_p = wilcoxon_signed_rank(
                list(zip(counts_a, counts_b)), alternative=alternative, zero_method=zero_method
            )
        except DegenerateTestError as exc:
            note = f"degenerate Wilcoxon: {exc}"
            warnings.warn(note, PairingMismatchWarning, stacklevel=2)

    table = _illness_table(counts_a, counts_b, illness_threshold)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateContingencyWarning)
        fisher_p = fisher_exact_2x2(table, alternative=alternative)

    return GroupComparison(
        n_a=len(counts_a),
        n_b=len(counts_b),
        counts_a=tuple(counts_a),
        counts_b=tuple(counts_b),
        mean_count_a=float(np.mean(counts_a)),
        mean_count_b=float(np.mean(counts_b)),
        wilcoxon_w=wilcoxon_w,
        wilcoxon_p=wilcoxon_p,
        wilcoxon_note=note,
        contingency=table,
        fisher_p=fisher_p,
        size_filter_mm3=size_filter_mm3,
        illness_threshold=illness_threshold,
    )


@dataclass(frozen=True)
class SweepRow:
    """One size-filter threshold's row; ``dataclasses.asdict`` gives its record in ``size_sweep.jsonl``."""

    threshold_mm3: float
    mean_count_a: float
    mean_count_b: float
    n_ge_a: int
    n_ge_b: int
    fisher_p: float


def size_sweep(group_a, group_b, thresholds, illness_threshold: int = DEFAULT_ILLNESS_THRESHOLD) -> list[SweepRow]:
    """Group CMB frequency and Fisher significance per size-filter threshold."""
    thresholds = [float(t) for t in thresholds]
    for t in thresholds:
        require(t, SIZE_BOUND, "thresholds")
    if not thresholds or sorted(thresholds) != thresholds:
        raise ConfigError(f"thresholds must be one or more values, sorted ascending; got {thresholds}")
    _require_scans(group_a, group_b)
    rows = []
    for t in thresholds:
        counts_a = count_filtered(group_a, t)
        counts_b = count_filtered(group_b, t)
        table = _illness_table(counts_a, counts_b, illness_threshold)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateContingencyWarning)
            p = fisher_exact_2x2(table)
        rows.append(
            SweepRow(
                threshold_mm3=t,
                mean_count_a=float(np.mean(counts_a)),
                mean_count_b=float(np.mean(counts_b)),
                n_ge_a=table[0][0],
                n_ge_b=table[1][0],
                fisher_p=p,
            )
        )
    return rows


def format_sweep_table(rows: list[SweepRow]) -> str:
    header = ("Threshold(mm3)", "Mean count A", "Mean count B", "A >= thr", "B >= thr", "Fisher p")
    body = [
        (
            f"{r.threshold_mm3:.2f}",
            f"{r.mean_count_a:.3f}",
            f"{r.mean_count_b:.3f}",
            str(r.n_ge_a),
            str(r.n_ge_b),
            f"{r.fisher_p:.6f}",
        )
        for r in rows
    ]
    return format_table(header, body)
