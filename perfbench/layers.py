"""Per-layer spans for the traced run and the per-layer metrics made from them.

The layers are the modules of ``cmbpipe``. Each public module-level function
below is wrapped for the traced run only; the metric table says which span
(and which counter) each per-layer metric sums. ``segmenter`` has no span of
its own: splitting it from ``triplanar`` would mean wrapping each per-slice
call, so its time stays inside ``triplanar.segment_view_s``.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from spans import Span, Tracer, self_times

TRANSFORM_FUNCTIONS = {
    "elastic": "elastic_deform",
    "rotation": "rotate_volume",
    "flip": "flip_volume",
    "bias_field": "bias_field",
    "blur": "blur_volume",
    "motion_ghost": "motion_ghost",
    "gibbs_ringing": "gibbs_ringing",
    "noise": "noise_add_mult",
}
VIEWS = ("axial", "sagittal", "coronal")
COMMANDS = ("mask-synth", "augment")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap every traced public function of ``cmbpipe`` (undo with ``tracer.unwrap_all``)."""
    from cmbpipe import annotation, augment, cli, detect, errors, phantom, scanio, stats, triplanar, volume

    ctx = tracer.context
    wrap = tracer.wrap
    wrap(phantom, "generate_phantom", "phantom.generate")
    wrap(volume, "normalize_intensity", "volume.normalize")
    wrap(triplanar, "segment_view", lambda a, kw: f"triplanar.segment_view.{_arg(a, kw, 1, 'view')}")
    wrap(
        triplanar,
        "fuse_views",
        "triplanar.fuse",
        counters=lambda a, kw, r, c: {"bytes_computed": sum(p.values.nbytes for p in a) + r.values.nbytes},
    )
    wrap(
        triplanar,
        "binarize_fused",
        "triplanar.binarize",
        counters=lambda a, kw, r, c: {"voxels_above_tau": int(np.count_nonzero(r.labels))},
    )

    # evaluate_scan labels and filters the prediction and the ground truth;
    # the counters tell them apart by object identity.
    wrap(detect, "evaluate_scan", "detect.evaluate", before=lambda a, kw: ctx.update(pred_mask=_arg(a, kw, 0, "pred_mask")))

    def label_counters(a, kw, r, c):
        mask = _arg(a, kw, 0, "m")
        role = "pred" if mask is ctx.get("pred_mask") else "gt"
        if role == "pred":
            ctx["pred_components"] = r
        # computed: the uint8 mask read once and the int32 label image written once
        return {f"components_{role}": len(r), "bytes_computed": mask.labels.nbytes + 4 * mask.labels.size}

    def filter_counters(a, kw, r, c):
        dets = _arg(a, kw, 0, "dets")
        role = "pred" if dets is ctx.get("pred_components") else "gt"
        return {f"kept_{role}": len(r), f"found_{role}": len(dets)}

    wrap(detect, "connected_components", "detect.label", counters=label_counters)
    wrap(detect, "filter_by_size", "detect.filter", counters=filter_counters)
    wrap(
        detect,
        "match_detections",
        "detect.match",
        counters=lambda a, kw, r, c: {"match_pairs": len(_arg(a, kw, 0, "pred")) * len(_arg(a, kw, 1, "gt_components"))},
    )
    wrap(detect, "scan_metrics", "detect.metrics")
    wrap(detect, "aggregate_metrics", "detect.aggregate")
    wrap(stats, "compare_groups", "stats.compare")
    wrap(stats, "size_sweep", "stats.sweep")

    skip_warnings = (errors.AnnotationSkippedWarning, errors.DegenerateAnnotationWarning)
    wrap(
        annotation,
        "synthesize_mask",
        "annotation.synthesize",
        counters=lambda a, kw, r, c: {"skipped": sum(issubclass(w.category, skip_warnings) for w in c)},
        catch_warnings=True,
    )
    wrap(
        augment,
        "apply_augmentation",
        "augment.apply",
        counters=lambda a, kw, r, c: {f"fired.{step['transform']}": int(step["applied"]) for step in r[2]},
    )
    for transform, function in TRANSFORM_FUNCTIONS.items():
        wrap(augment, function, f"augment.{transform}")

    for function in ("read_volume", "read_mask"):
        wrap(scanio, function, "scanio.read", counters=lambda a, kw, r, c: {"bytes": os.path.getsize(_arg(a, kw, 0, "path"))})
    for function in ("write_volume", "write_mask"):
        wrap(scanio, function, "scanio.write", counters=lambda a, kw, r, c: {"bytes": os.path.getsize(_arg(a, kw, 1, "path"))})
    wrap(cli, "main", lambda a, kw: f"cli.command.{_arg(a, kw, 0, 'argv')[0]}")


# (metric, unit, better). Every value is per measured scan except setup.*
# (per set-up), detect.kept_ratio (a ratio of totals) and trace.overhead_frac.
PER_LAYER = (
    [
        ("phantom.generate_s", "s", "lower"),
        ("setup.phantom.generate_s", "s", "lower"),
        ("volume.normalize_s", "s", "lower"),
    ]
    + [(f"triplanar.segment_view_s.{view}", "s", "lower") for view in VIEWS]
    + [
        ("triplanar.fuse_s", "s", "lower"),
        ("triplanar.fuse_bytes_computed", "bytes", "lower"),
        ("triplanar.binarize_s", "s", "lower"),
        ("triplanar.voxels_above_tau", "count", "lower"),
        ("detect.evaluate_s", "s", "lower"),
        ("detect.evaluate_self_s", "s", "lower"),
        ("detect.label_s", "s", "lower"),
        ("detect.label_bytes_computed", "bytes", "lower"),
        ("detect.filter_s", "s", "lower"),
        ("detect.match_s", "s", "lower"),
        ("detect.metrics_s", "s", "lower"),
        ("detect.aggregate_s", "s", "lower"),
        ("detect.components_pred", "count", "lower"),
        ("detect.components_gt", "count", "lower"),
        ("detect.kept_pred", "count", "lower"),
        ("detect.kept_ratio", "ratio", "higher"),
        ("detect.match_pairs", "count", "lower"),
        ("stats.compare_s", "s", "lower"),
        ("stats.sweep_s", "s", "lower"),
        ("annotation.synthesize_s", "s", "lower"),
        ("annotation.skipped", "count", "lower"),
        ("augment.apply_s", "s", "lower"),
        ("augment.apply_self_s", "s", "lower"),
    ]
    + [(f"augment.{t}_s", "s", "lower") for t in TRANSFORM_FUNCTIONS]
    + [(f"augment.fired.{t}", "count", "lower") for t in TRANSFORM_FUNCTIONS]
    + [
        ("scanio.read_s", "s", "lower"),
        ("scanio.write_s", "s", "lower"),
        ("scanio.bytes_read", "bytes", "lower"),
        ("scanio.bytes_written", "bytes", "lower"),
        ("setup.scanio.write_s", "s", "lower"),
    ]
    + [(f"cli.command_s.{cmd}", "s", "lower") for cmd in COMMANDS]
    + [
        ("cli.self_s", "s", "lower"),
        ("trace.scan_s", "s", "lower"),
        ("trace.untraced_scan_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def per_layer(spans: list[Span], n_scans: int, n_setups: int, untraced_scan_s: list[float], traced_scan_s: list[float]) -> dict:
    """Per-layer metric values from the spans of a traced run.

    Spans of measured scans and cohort steps count per scan; spans of the
    set-ups (root name ``setup``) count per set-up under ``setup.*``.
    """
    selfs = self_times(spans)
    root = {}
    for i, s in enumerate(spans):
        root[i] = root[s.parent] if s.parent is not None else s.name
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    setup_busy: dict[str, float] = {}
    for i, s in enumerate(spans):
        if root[i] == "setup":
            setup_busy[s.name] = setup_busy.get(s.name, 0.0) + s.duration
            continue
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[i]
        for key, value in s.counters.items():
            ckey = f"{s.name}.{key}"
            counters[ckey] = counters.get(ckey, 0.0) + value

    n = max(n_scans, 1)

    def per_scan(total: float) -> float:
        return total / n

    out = {
        "phantom.generate_s": per_scan(busy.get("phantom.generate", 0.0)),
        "setup.phantom.generate_s": setup_busy.get("phantom.generate", 0.0) / max(n_setups, 1),
        "volume.normalize_s": per_scan(busy.get("volume.normalize", 0.0)),
    }
    for view in VIEWS:
        out[f"triplanar.segment_view_s.{view}"] = per_scan(busy.get(f"triplanar.segment_view.{view}", 0.0))
    out["triplanar.fuse_s"] = per_scan(busy.get("triplanar.fuse", 0.0))
    out["triplanar.fuse_bytes_computed"] = per_scan(counters.get("triplanar.fuse.bytes_computed", 0.0))
    out["triplanar.binarize_s"] = per_scan(busy.get("triplanar.binarize", 0.0))
    out["triplanar.voxels_above_tau"] = per_scan(counters.get("triplanar.binarize.voxels_above_tau", 0.0))
    out["detect.evaluate_s"] = per_scan(busy.get("detect.evaluate", 0.0))
    out["detect.evaluate_self_s"] = per_scan(self_s.get("detect.evaluate", 0.0))
    out["detect.label_s"] = per_scan(busy.get("detect.label", 0.0))
    out["detect.label_bytes_computed"] = per_scan(counters.get("detect.label.bytes_computed", 0.0))
    for stage in ("filter", "match", "metrics", "aggregate"):
        out[f"detect.{stage}_s"] = per_scan(busy.get(f"detect.{stage}", 0.0))
    out["detect.components_pred"] = per_scan(counters.get("detect.label.components_pred", 0.0))
    out["detect.components_gt"] = per_scan(counters.get("detect.label.components_gt", 0.0))
    out["detect.kept_pred"] = per_scan(counters.get("detect.filter.kept_pred", 0.0))
    found = counters.get("detect.filter.found_pred", 0.0)
    out["detect.kept_ratio"] = counters.get("detect.filter.kept_pred", 0.0) / found if found else 0.0
    out["detect.match_pairs"] = per_scan(counters.get("detect.match.match_pairs", 0.0))
    out["stats.compare_s"] = per_scan(busy.get("stats.compare", 0.0))
    out["stats.sweep_s"] = per_scan(busy.get("stats.sweep", 0.0))
    out["annotation.synthesize_s"] = per_scan(busy.get("annotation.synthesize", 0.0))
    out["annotation.skipped"] = per_scan(counters.get("annotation.synthesize.skipped", 0.0))
    out["augment.apply_s"] = per_scan(busy.get("augment.apply", 0.0))
    out["augment.apply_self_s"] = per_scan(self_s.get("augment.apply", 0.0))
    for t in TRANSFORM_FUNCTIONS:
        out[f"augment.{t}_s"] = per_scan(busy.get(f"augment.{t}", 0.0))
    for t in TRANSFORM_FUNCTIONS:
        out[f"augment.fired.{t}"] = per_scan(counters.get(f"augment.apply.fired.{t}", 0.0))
    out["scanio.read_s"] = per_scan(busy.get("scanio.read", 0.0))
    out["scanio.write_s"] = per_scan(busy.get("scanio.write", 0.0))
    out["scanio.bytes_read"] = per_scan(counters.get("scanio.read.bytes", 0.0))
    out["scanio.bytes_written"] = per_scan(counters.get("scanio.write.bytes", 0.0))
    out["setup.scanio.write_s"] = setup_busy.get("scanio.write", 0.0) / max(n_setups, 1)
    for cmd in COMMANDS:
        out[f"cli.command_s.{cmd}"] = per_scan(busy.get(f"cli.command.{cmd}", 0.0))
    out["cli.self_s"] = per_scan(sum(v for k, v in self_s.items() if k.startswith("cli.command.")))
    traced = statistics.fmean(traced_scan_s) if traced_scan_s else 0.0
    untraced = statistics.fmean(untraced_scan_s) if untraced_scan_s else 0.0
    out["trace.scan_s"] = traced
    out["trace.untraced_scan_s"] = untraced
    out["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    if set(out) != {name for name, _, _ in PER_LAYER}:
        raise RuntimeError(f"per-layer values and PER_LAYER differ: {sorted(set(out) ^ {n for n, _, _ in PER_LAYER})}")
    return out
