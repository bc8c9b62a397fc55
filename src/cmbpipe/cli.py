"""Command-line front end wiring the modules into reproducible batch runs.

One subcommand per pipeline stage: phantom, mask-synth, augment, segment,
detect, eval, compare-groups, sweep, partition. Each command declares
its parameters once, in one table; the table generates the flags, the
defaults and the checks on values. A parameter's value comes from its
default, overlaid by a JSON run-config file (top-level keys, then the
"common" section, then the command's own section), overlaid by an explicit
flag. A config key no command declares, or a value of the wrong type,
outside the allowed choices or outside its bound, is a config error, found
before the output directory is made. Every run writes a run-record
(resolved parameters + content hashes of inputs and outputs) under the
output directory; with a fixed seed, reruns are byte-identical apart from
the record's timestamp.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import annotation, augment, detect, phantom, scanio, segmenter, stats, triplanar, volume
from .errors import CMBPipeError, ConfigError, DataError, is_json_number, require
from .segmenter import REFERENCE_BOUNDS, ExternalSegmenter, OracleSegmenter, ReferenceConfig, ReferenceSegmenter
from .triplanar import VIEWS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; we map usage errors to 1
        raise _UsageError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# Parameters naming input files whose hashes go into the run-record.
_INPUT_FILES = ("manifest", "detections_a", "detections_b")


def _write_run_record(out_dir: Path, command: str, params: dict, inputs, outputs) -> None:
    record = {
        "command": command,
        "params": params,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs if Path(p).is_file()},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs if Path(p).is_file()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(out_dir / f"run_record_{command.replace('-', '_')}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Parameter tables
# ---------------------------------------------------------------------------

class Param(NamedTuple):
    """One command parameter: flag ``--<name with dashes>``, config key ``name``."""

    name: str
    type: type  # int, float, str, list (of numbers) or dict (tag -> number)
    default: object = None
    required: bool = False
    choices: tuple = ()  # the allowed values, or of a dict the allowed keys
    help: str = ""
    bound: str | None = None  # interval of the value, or of each number of a list or dict (errors.require)

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


class Command(NamedTuple):
    run: Callable[[dict], list]  # resolved params -> output files
    help: str
    params: tuple[Param, ...]


COMMANDS: dict[str, Command] = {}


def _command(name: str, help: str, *params: Param):
    def register(run):
        COMMANDS[name] = Command(run, help, params)
        return run

    return register


def _number(value, kind: type):
    """Flag text, or a JSON number of the right kind (``errors.is_json_number``)."""
    if isinstance(value, str):
        return kind(value)
    if not is_json_number(value, kind):
        raise TypeError(value)
    return kind(value)


def _numbers(value) -> list:
    items = [t for t in value.split(",") if t.strip()] if isinstance(value, str) else value
    if not isinstance(items, list):
        raise TypeError(value)
    return [_number(t, float) for t in items]


def _tag_map(value) -> dict:
    table = json.loads(value) if isinstance(value, str) else value
    if not isinstance(table, dict):
        raise TypeError(value)
    return {tag: _number(t, float) for tag, t in table.items()}


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(value)
    return value


# Each converter takes the flag's text or a JSON value from the config file.
_TYPES = {
    int: (lambda v: _number(v, int), "an integer"),
    float: (lambda v: _number(v, float), "a number"),
    str: (_text, "a string"),
    list: (_numbers, "a list of numbers (comma-separated as a flag)"),
    dict: (_tag_map, "an object of numbers (JSON text as a flag)"),
}


def _convert(command: str, p: Param, value, source: str):
    if value is None and p.default is None:
        return None
    convert, kind = _TYPES[p.type]
    try:
        value = convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{command}: {p.name} must be {kind}, got {value!r} (from {source})") from None
    if p.choices:
        for x in value if p.type is dict else [value]:
            if x not in p.choices:
                allowed = ", ".join(map(str, p.choices))
                what = f"{p.name} keys" if p.type is dict else p.name
                raise ConfigError(f"{command}: {what} must be one of {allowed}, got {x!r} (from {source})")
    if p.bound:
        for x in value.values() if p.type is dict else value if p.type is list else [value]:
            require(x, p.bound, f"{command}: {p.name} (from {source})")
    return value


def _json_object(path: str, what: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``; a missing or unreadable file or other JSON is a config error."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"{what} {path} cannot be read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return obj


def _config_layers(path: str | None, command: str) -> list[dict]:
    """The config file's top level, "common" and ``command`` sections, lowest precedence first."""
    if not path:
        return []
    cfg = _json_object(path, "config file")
    sections = {k: v for k, v in cfg.items() if k in COMMANDS or k == "common"}
    top = {k: v for k, v in cfg.items() if k not in sections}
    declared = {name: {p.name for p in cmd.params} for name, cmd in COMMANDS.items()}
    anywhere = set().union(*declared.values())
    for where, layer in [("the top level", top), *sections.items()]:
        if not isinstance(layer, dict):
            raise ConfigError(f"config section '{where}' must be an object")
        unknown = sorted(set(layer) - declared.get(where, anywhere))
        if unknown:
            raise ConfigError(f"config file {path}: unknown key(s) {', '.join(unknown)} in {where}")
    return [top, sections.get("common", {}), sections.get(command, {})]


def _resolve(args: argparse.Namespace) -> dict:
    """default < config top level < config "common" < config command section < flag."""
    command, table = args.command, COMMANDS[args.command].params
    params = {p.name: p.default for p in table}
    layers = [(layer, f"config file {args.config}") for layer in _config_layers(args.config, command)]
    layers.append(({k: v for k, v in vars(args).items() if v is not None}, "the command line"))
    for layer, source in layers:
        for p in table:
            if p.name in layer:
                params[p.name] = _convert(command, p, layer[p.name], source)
    missing = [p.flag for p in table if p.required and params[p.name] in (None, "")]
    if missing:
        raise ConfigError(f"{command}: {', '.join(missing)} {'is' if len(missing) == 1 else 'are'} required")
    return params


def _read_entries(params: dict) -> list[scanio.ScanManifestEntry]:
    """The scans of ``--manifest``; a manifest without scans is a data error, raised before any output is written."""
    entries = scanio.read_manifest(params["manifest"])
    if not entries:
        raise DataError(f"{params['manifest']} lists no scans")
    return entries


def _entry_volume_path(entry: scanio.ScanManifestEntry, manifest_path: str) -> Path:
    p = Path(entry.path)
    return p if p.is_absolute() else Path(manifest_path).parent / p


def _read_detections_file(path: str) -> dict[str, detect.Detections]:
    """Per-scan detections from a UTF-8 `detect` output file, by scan id in file order."""
    per_scan = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:  # a missing file, a directory, a permission, a failing device
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            scan_id, dets = record["scan_id"], detect.Detections.from_records(record["detections"])
            if not isinstance(scan_id, str):
                raise TypeError(f"scan_id must be a string, got {scan_id!r}")
        except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
            raise DataError(f"{path} line {lineno}: bad detections record ({exc})") from exc
        if scan_id in per_scan:
            raise DataError(f"{path} line {lineno}: scan_id {scan_id!r} appears twice")
        per_scan[scan_id] = dets
    return per_scan


def _read_groups(params: dict) -> tuple[list[detect.Detections], list[detect.Detections]]:
    """Groups A and B, B in A's scan order, so that a paired test pairs each scan with itself.

    Files with as many scans must hold the same scan ids. Files of
    different lengths are not paired and keep their own order.
    """
    path_a, path_b = params["detections_a"], params["detections_b"]
    group_a, group_b = _read_detections_file(path_a), _read_detections_file(path_b)
    if len(group_a) == len(group_b):
        for scan_id in group_a:
            if scan_id not in group_b:
                raise DataError(
                    f"scan_id {scan_id!r} of {path_a} is not in {path_b}; groups of equal size pair by scan_id"
                )
        group_b = {scan_id: group_b[scan_id] for scan_id in group_a}
    return list(group_a.values()), list(group_b.values())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

# Parameters that several commands share.
OUT = Param("out", str, required=True, help="output directory")
MANIFEST = Param("manifest", str, required=True, help="scan manifest (JSON lines)")
MASKS_DIR = Param("masks_dir", str, required=True, help="directory of <scan_id>.nii.gz binary masks")
SEED = Param("seed", int, 0, help="random seed")
JOBS = Param("jobs", int, help="threads that share each volume's blocks, .nii.gz reads and writes; every CPU if unset",
             bound=volume.THREADS_BOUND)
CONNECTIVITY = Param("connectivity", int, 26, choices=(6, 26), help="3D voxel connectivity of components")
MIN_SIZE = Param("min_size", float, detect.DEFAULT_MIN_VOLUME_MM3, help="smallest kept component in mm^3",
                 bound=detect.SIZE_BOUND)
DETECTIONS_A = Param("detections_a", str, required=True, help="detections.jsonl of group A")
DETECTIONS_B = Param("detections_b", str, required=True, help="detections.jsonl of group B")
ILLNESS = Param("illness_threshold", int, stats.DEFAULT_ILLNESS_THRESHOLD, help="CMBs per scan that count as ill",
                bound=stats.ILLNESS_THRESHOLD_BOUND)
COUNT = "[0, inf)"  # of phantoms or objects


@_command(
    "phantom",
    "generate synthetic phantoms with ground truth",
    OUT,
    Param("count", int, 5, help="number of phantoms", bound=COUNT),
    Param("dims", int, 64, help="cube edge in voxels", bound="[1, inf)"),
    Param("spacing", float, 1.0, help="isotropic voxel spacing in mm", bound=volume.SPACING_BOUND),
    Param("n_cmbs_min", int, 1, help="fewest CMBs per phantom", bound=COUNT),
    Param("n_cmbs_max", int, 10, help="most CMBs per phantom", bound=COUNT),
    Param("diameter_min", float, 2.0, help="smallest CMB diameter in mm", bound=phantom.DIAMETER_BOUND),
    Param("diameter_max", float, 10.0, help="largest CMB diameter in mm", bound=phantom.DIAMETER_BOUND),
    Param("contrast_min", float, 0.5, help="weakest CMB contrast", bound=phantom.CONTRAST_BOUND),
    Param("contrast_max", float, 0.9, help="strongest CMB contrast", bound=phantom.CONTRAST_BOUND),
    Param("vessels", int, 0, help="vessel mimics per phantom", bound=COUNT),
    Param("calcifications", int, 0, help="calcification mimics per phantom", bound=COUNT),
    Param("base", float, 100.0, help="background intensity", bound=phantom.BACKGROUND_BOUNDS["base"]),
    Param("smooth_amplitude", float, 2.0, help="amplitude of the smooth background field",
          bound=phantom.BACKGROUND_BOUNDS["smooth_amplitude"]),
    Param("noise_sigma", float, 2.0, help="Gaussian noise sigma", bound=phantom.BACKGROUND_BOUNDS["noise_sigma"]),
    SEED,
    JOBS,
)
def cmd_phantom(params: dict) -> list[Path]:
    if any(params[f"{name}_min"] > params[f"{name}_max"] for name in ("n_cmbs", "diameter", "contrast")):
        raise ConfigError("phantom: a --*-min value must not exceed its --*-max")
    out = Path(params["out"])
    entries, outputs = [], []
    for idx in range(params["count"]):
        spec = phantom.random_phantom_spec(
            seed=params["seed"] + idx,
            dims=(params["dims"],) * 3,
            spacing=params["spacing"],
            n_cmbs_range=(params["n_cmbs_min"], params["n_cmbs_max"]),
            diameter_range=(params["diameter_min"], params["diameter_max"]),
            contrast_range=(params["contrast_min"], params["contrast_max"]),
            n_vessels=params["vessels"],
            n_calcifications=params["calcifications"],
            background=phantom.BackgroundSpec(
                base=params["base"],
                smooth_amplitude=params["smooth_amplitude"],
                noise_sigma=params["noise_sigma"],
            ),
        )
        scan_id = f"phantom-{idx:04d}"
        vol, gt, entry = phantom.generate_phantom(spec, scan_id=scan_id, path=f"volumes/{scan_id}.nii.gz")
        scanio.write_volume(vol, out / "volumes" / f"{scan_id}.nii.gz")
        scanio.write_mask(gt, out / "gt_masks" / f"{scan_id}.nii.gz")
        outputs += [out / "volumes" / f"{scan_id}.nii.gz", out / "gt_masks" / f"{scan_id}.nii.gz"]
        entries.append(entry)
    manifest_path = out / "manifest.jsonl"
    scanio.write_manifest(entries, manifest_path)
    outputs.append(manifest_path)
    print(f"phantom: wrote {len(entries)} phantoms under {out}")
    return outputs


@_command(
    "mask-synth",
    "synthesize volumetric masks from point annotations",
    MANIFEST,
    OUT,
    Param("alpha_threshold", float, annotation.DEFAULT_ALPHA_THRESHOLD, help="partial-volume fraction cut",
          bound=annotation.ALPHA_BOUND),
    Param("alpha_by_tag", dict, {}, choices=scanio.DATASET_TAGS,
          help='per-dataset alpha thresholds, e.g. \'{"DS2": 0.52}\'', bound=annotation.ALPHA_BOUND),
    Param("patch_halfwidth_mm", float, annotation.DEFAULT_PATCH_HALFWIDTH_MM, help="half-width of the mask patch",
          bound=annotation.RADIUS_BOUND),
    Param("snap_radius_mm", float, annotation.SNAP_RADIUS_MM, help="search radius for the darkest voxel",
          bound=annotation.SNAP_RADIUS_BOUND),
    Param("shell_inner_mm", float, annotation.SHELL_INNER_MM, help="inner radius of the background shell",
          bound=annotation.RADIUS_BOUND),
    Param("shell_outer_mm", float, annotation.SHELL_OUTER_MM, help="outer radius of the background shell",
          bound=annotation.RADIUS_BOUND),
    JOBS,
)
def cmd_mask_synth(params: dict) -> list[Path]:
    if params["shell_inner_mm"] >= params["shell_outer_mm"]:
        raise ConfigError("mask-synth: shell_inner_mm must be below shell_outer_mm")
    out = Path(params["out"])
    entries = _read_entries(params)
    outputs = []
    for entry in entries:
        vol = scanio.read_volume(_entry_volume_path(entry, params["manifest"]))
        threshold = params["alpha_by_tag"].get(entry.dataset_tag, params["alpha_threshold"])
        annotations = [annotation.CMBAnnotation(c, threshold, params["patch_halfwidth_mm"]) for c in entry.cmb_centers]
        mask = annotation.synthesize_mask(
            vol,
            annotations,
            snap_radius_mm=params["snap_radius_mm"],
            shell_inner_mm=params["shell_inner_mm"],
            shell_outer_mm=params["shell_outer_mm"],
        )
        path = out / "synth_masks" / f"{entry.scan_id}.nii.gz"
        scanio.write_mask(mask, path)
        outputs.append(path)
    print(f"mask-synth: wrote {len(outputs)} masks under {out / 'synth_masks'}")
    return outputs


@_command(
    "augment",
    "apply the MRI augmentation stack to volumes and masks",
    MANIFEST,
    OUT,
    MASKS_DIR,
    Param("spec", str, help="AugmentSpec JSON file (default: every transform at its default)"),
    Param("master_seed", int, help="override the spec's master seed"),
    JOBS,
)
def cmd_augment(params: dict) -> list[Path]:
    rec = _json_object(params["spec"], "augment spec file") if params["spec"] else {}
    if params["master_seed"] is not None:
        rec = {**rec, "master_seed": params["master_seed"]}
    spec = augment.AugmentSpec.from_json(rec)
    out = Path(params["out"])
    entries = _read_entries(params)

    def one(entry):
        # passed straight in: apply_augmentation holds the only reference to the source volume and
        # drops it after the first transform that fires
        aug_v, aug_m, record = augment.apply_augmentation(
            scanio.read_volume(_entry_volume_path(entry, params["manifest"])),
            scanio.read_mask(Path(params["masks_dir"]) / f"{entry.scan_id}.nii.gz"),
            spec,
            entry.scan_id,
        )
        scanio.write_volume(aug_v, out / "aug_volumes" / f"{entry.scan_id}.nii.gz")
        scanio.write_mask(aug_m, out / "aug_masks" / f"{entry.scan_id}.nii.gz")
        (out / "aug_params").mkdir(exist_ok=True)  # here, so a run that fails before any output leaves none
        with open(out / "aug_params" / f"{entry.scan_id}.json", "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return [
            out / "aug_volumes" / f"{entry.scan_id}.nii.gz",
            out / "aug_masks" / f"{entry.scan_id}.nii.gz",
            out / "aug_params" / f"{entry.scan_id}.json",
        ]

    outputs = [path for entry in entries for path in one(entry)]  # one scan at a time
    params["augment_spec"] = spec.to_json()  # recorded with the parameters
    print(f"augment: processed {len(entries)} scans under {out}")
    return outputs


@_command(
    "segment",
    "three-view segmentation, fused by product and binarized at tau",
    MANIFEST,
    OUT,
    Param("segmenter", str, "reference", choices=("oracle", "reference", "external"), help="slice segmenter"),
    Param("gt_dir", str, help="oracle: directory of ground-truth masks"),
    Param("corruption_rate", float, 0.0, help="oracle: share of pixels flipped", bound=segmenter.CORRUPTION_RATE_BOUND),
    Param("oracle_seed", int, 0, help="oracle: corruption seed"),
    Param("scale_min_mm", float, ReferenceConfig.scale_min_mm, help="reference: inner band-pass scale",
          bound=REFERENCE_BOUNDS["scale_min_mm"]),
    Param("scale_max_mm", float, ReferenceConfig.scale_max_mm, help="reference: outer band-pass scale",
          bound=REFERENCE_BOUNDS["scale_max_mm"]),
    Param("logistic_gain", float, ReferenceConfig.logistic_gain, help="reference: logistic gain per noise unit",
          bound=REFERENCE_BOUNDS["logistic_gain"]),
    Param("score_offset", float, ReferenceConfig.score_offset, help="reference: logistic offset, in noise units",
          bound=REFERENCE_BOUNDS["score_offset"]),
    Param("prob_dir", str, help="external: directory of <scan_id>_<view>.nii.gz probabilities"),
    Param("tau", float, triplanar.DEFAULT_TAU, help="threshold on the fused probability", bound=triplanar.TAU_BOUND),
    JOBS,
)
def cmd_segment(params: dict) -> list[Path]:
    kind = params["segmenter"]
    needed = {"oracle": "gt_dir", "external": "prob_dir"}.get(kind)
    if needed and not params[needed]:
        raise ConfigError(f"segment: --{needed.replace('_', '-')} is required for the {kind} segmenter")
    # the scale order is checked here, whichever segmenter the run uses
    reference = ReferenceSegmenter(ReferenceConfig(**{f.name: params[f.name] for f in fields(ReferenceConfig)}))
    out = Path(params["out"])
    entries = _read_entries(params)
    outputs = []
    for entry in entries:
        vol = scanio.read_volume(_entry_volume_path(entry, params["manifest"]))
        if kind == "oracle":
            gt = scanio.read_mask(Path(params["gt_dir"]) / f"{entry.scan_id}.nii.gz")
            seg = OracleSegmenter(gt, params["corruption_rate"], params["oracle_seed"])
        elif kind == "reference":
            seg = reference
        else:
            prob_dir = Path(params["prob_dir"])
            seg = ExternalSegmenter(
                {view: scanio.read_probability(prob_dir / f"{entry.scan_id}_{view}.nii.gz") for view in VIEWS}
            )
        fused, mask = triplanar.predict(vol, seg, params["tau"])
        fused_path = out / "fused" / f"{entry.scan_id}.nii.gz"
        mask_path = out / "pred_masks" / f"{entry.scan_id}.nii.gz"
        scanio.write_probability(fused, fused_path)
        scanio.write_mask(mask, mask_path)
        outputs += [fused_path, mask_path]
    print(f"segment: wrote fused volumes and masks for {len(entries)} scans under {out}")
    return outputs


@_command(
    "detect",
    "connected components + size filter over binary masks",
    MANIFEST,
    MASKS_DIR,
    OUT,
    CONNECTIVITY,
    MIN_SIZE,
)
def cmd_detect(params: dict) -> list[Path]:
    out = Path(params["out"])
    entries = _read_entries(params)
    det_path = out / "detections.jsonl"
    with open(det_path, "w") as fh:
        for entry in entries:
            mask = scanio.read_mask(Path(params["masks_dir"]) / f"{entry.scan_id}.nii.gz")
            dets = detect.connected_components(mask, params["connectivity"])
            dets = detect.filter_by_size(dets, params["min_size"])
            record = {"scan_id": entry.scan_id, "detections": dets.to_records()}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"detect: wrote detections for {len(entries)} scans to {det_path}")
    return [det_path]


@_command(
    "eval",
    "per-scan and per-dataset detection metrics",
    MANIFEST,
    Param("pred_dir", str, required=True, help="directory of predicted <scan_id>.nii.gz masks"),
    Param("gt_dir", str, required=True, help="directory of ground-truth <scan_id>.nii.gz masks"),
    OUT,
    CONNECTIVITY,
    MIN_SIZE,
    Param("match_dist", float, detect.DEFAULT_MATCH_DISTANCE_MM, help="largest centroid distance of a match in mm",
          bound=detect.MATCH_DISTANCE_BOUND),
)
def cmd_eval(params: dict) -> list[Path]:
    out = Path(params["out"])
    entries = _read_entries(params)
    per_scan = []
    with open(out / "per_scan_metrics.jsonl", "w") as fh:
        for entry in entries:
            pred = scanio.read_mask(Path(params["pred_dir"]) / f"{entry.scan_id}.nii.gz")
            gt = scanio.read_mask(Path(params["gt_dir"]) / f"{entry.scan_id}.nii.gz")
            metrics, _, _ = detect.evaluate_scan(
                pred,
                gt,
                connectivity=params["connectivity"],
                min_volume_mm3=params["min_size"],
                max_dist_mm=params["match_dist"],
            )
            per_scan.append(metrics)
            row = {**asdict(metrics), "scan_id": entry.scan_id, "dataset": entry.dataset_tag}
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    rows = detect.aggregate_metrics(per_scan, [e.dataset_tag for e in entries])
    table = detect.format_metrics_table(rows)
    (out / "metrics_table.txt").write_text(table + "\n")
    with open(out / "metrics_rows.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(asdict(row), sort_keys=True) + "\n")
    print(table)
    return [out / "per_scan_metrics.jsonl", out / "metrics_table.txt", out / "metrics_rows.jsonl"]


@_command(
    "compare-groups",
    "Wilcoxon + Fisher group analysis of detection counts",
    DETECTIONS_A,
    DETECTIONS_B,
    OUT,
    Param("size_filter", float, detect.DEFAULT_MIN_VOLUME_MM3, help="count only CMBs of at least this volume in mm^3",
          bound=detect.SIZE_BOUND),
    ILLNESS,
    Param("alternative", str, "two_sided", choices=stats.ALTERNATIVES, help="alternative hypothesis"),
    Param("zero_method", str, "drop", choices=stats.ZERO_METHODS, help="Wilcoxon handling of zero differences"),
)
def cmd_compare_groups(params: dict) -> list[Path]:
    group_a, group_b = _read_groups(params)
    comparison = stats.compare_groups(
        group_a,
        group_b,
        size_filter_mm3=params["size_filter"],
        illness_threshold=params["illness_threshold"],
        alternative=params["alternative"],
        zero_method=params["zero_method"],
    )
    out = Path(params["out"])
    with open(out / "group_comparison.json", "w") as fh:
        json.dump(comparison.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    wp = "NA" if comparison.wilcoxon_p is None else f"{comparison.wilcoxon_p:.6f}"
    print(
        f"mean CMBs/scan: group A {comparison.mean_count_a:.2f}, group B {comparison.mean_count_b:.2f}\n"
        f"Wilcoxon signed-rank p = {wp}\n"
        f"contingency (>= {comparison.illness_threshold}): {comparison.contingency}\n"
        f"Fisher exact p = {comparison.fisher_p:.6f}"
    )
    return [out / "group_comparison.json"]


@_command(
    "sweep",
    "group comparison across size-filter thresholds",
    DETECTIONS_A,
    DETECTIONS_B,
    OUT,
    Param("thresholds", list, [0.0, 1.0, 2.0, 3.0, 4.2, 5.0, 7.0, 10.0, 15.0, 20.0], help="mm^3 thresholds, ascending",
          bound=detect.SIZE_BOUND),
    ILLNESS,
)
def cmd_sweep(params: dict) -> list[Path]:
    if not params["thresholds"] or sorted(params["thresholds"]) != params["thresholds"]:
        raise ConfigError(f"sweep: thresholds must be one or more values, ascending; got {params['thresholds']}")
    group_a, group_b = _read_groups(params)
    rows = stats.size_sweep(group_a, group_b, params["thresholds"], params["illness_threshold"])
    out = Path(params["out"])
    table = stats.format_sweep_table(rows)
    (out / "size_sweep.txt").write_text(table + "\n")
    with open(out / "size_sweep.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(asdict(row), sort_keys=True) + "\n")
    print(table)
    return [out / "size_sweep.txt", out / "size_sweep.jsonl"]


@_command(
    "partition",
    "subject-level train/validation/test split",
    MANIFEST,
    OUT,
    SEED,
    Param("fractions", list, [0.7, 0.1, 0.2], help="train, validation and test fractions summing to 1",
          bound=annotation.FRACTION_BOUND),
)
def cmd_partition(params: dict) -> list[Path]:
    if len(params["fractions"]) != 3 or abs(sum(params["fractions"]) - 1.0) > 1e-9:
        raise ConfigError("partition: fractions must be 3 values summing to 1")
    entries = _read_entries(params)
    subjects = sorted({e.subject_id for e in entries})
    train, val, test = annotation.partition_subjects(subjects, params["seed"], params["fractions"])
    out = Path(params["out"])
    outputs = []
    for name, split in (("train", train), ("validation", val), ("test", test)):
        ids_path = out / f"{name}_subjects.txt"
        ids_path.write_text("".join(s + "\n" for s in sorted(split)))
        scanio.write_manifest([e for e in entries if e.subject_id in split], out / f"{name}_manifest.jsonl")
        outputs += [ids_path, out / f"{name}_manifest.jsonl"]
    print(
        f"partition: {len(train)} train / {len(val)} validation / {len(test)} test subjects "
        f"({len(entries)} scans) under {out}"
    )
    return outputs


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    """Flags come from the command tables; their text is converted and checked by ``_resolve``."""
    parser = _Parser(prog="cmbpipe", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sub = subs.add_parser(name, help=cmd.help, description=cmd.help)
        sub.add_argument("--config", help="JSON run-config file; flags override its values")
        for p in cmd.params:
            default = "required" if p.required else None if p.default is None else f"default: {p.default}"
            notes = ", ".join(note for note in (default, p.bound and f"in {p.bound}") if note)
            sub.add_argument(
                p.flag,
                dest=p.name,
                metavar="{" + ",".join(map(str, p.choices)) + "}" if p.choices else None,
                help=f"{p.help} ({notes})" if notes else p.help,
            )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        params = _resolve(args)
        with volume.threads(params.get("jobs")):
            out = Path(params["out"])
            out.mkdir(parents=True, exist_ok=True)
            outputs = COMMANDS[args.command].run(params)
        inputs = [params[k] for k in _INPUT_FILES if k in params]
        _write_run_record(out, args.command, params, inputs, outputs)
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CMBPipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps everything to exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
