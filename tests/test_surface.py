"""Guards on the library's surface.

The thread count is one process-wide setting, never a parameter,
detections have one representation: the ``detect.Detections`` table,
every numeric command parameter declares what it is checked against,
``volume`` states each grid fact once: one grid base and one block size,
each call has one form: one segmenter per scan, no knob that nothing
sets, one table type and a mask for every spatial transform, every
scan is segmented on its own grid: nothing resamples it to a cube,
each JSON record the CLI writes holds exactly its dataclass's fields,
a mask is a bool array everywhere but in its NIfTI file,
every planted phantom object is rendered by one dip,
and the reference score is the band-pass alone, on a window each caller states.
"""

import importlib
import inspect
import json
import pkgutil
import re
import typing
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cmbpipe
from cmbpipe import annotation, augment, cli, detect, phantom, scanio, segmenter, stats, triplanar, volume
from cmbpipe.errors import PairingMismatchWarning, RejectedInputError

SRC = Path(cmbpipe.__file__).parent
MODULES = [
    importlib.import_module(f"cmbpipe.{info.name}")
    for info in pkgutil.iter_modules([str(SRC)])
    if not info.name.startswith("_")  # importing __main__ would run the CLI
]


def public_callables():
    """(name, callable) for every public function, class and method defined in a module, and each table column."""
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if not attr.startswith("_") and callable(member):
                        yield f"{module.__name__}.{name}.{attr}", member
    for t in augment.TRANSFORMS:
        yield f"cmbpipe.augment.TRANSFORMS[{t.name!r}].draw", t.draw
        yield f"cmbpipe.augment.TRANSFORMS[{t.name!r}].replay", t.replay


def public_callables_taking(param: str) -> list[str]:
    checked, taking = 0, []
    for name, fn in public_callables():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # a builtin without a signature
            continue
        checked += 1
        if param in params:
            taking.append(name)
    assert checked > 100  # the walk reached the modules, their classes and the transform table
    return taking


def test_no_public_callable_takes_jobs():
    assert public_callables_taking("jobs") == []


def test_no_public_callable_takes_exact():
    """The signed-rank test picks enumeration or the normal approximation from n alone."""
    assert public_callables_taking("exact") == []


def test_one_segmenter_per_scan():
    """``segment_volume`` tells one segmenter each view; no dict of per-view segmenters."""
    assert list(inspect.signature(triplanar.segment_volume).parameters) == ["v", "segmenter"]


def test_one_form_per_call():
    """One contingency form (nested pairs), no knob that nothing sets, a mask for every spatial transform."""
    assert not hasattr(stats, "Contingency2x2")
    assert [f.name for f in fields(segmenter.ReferenceConfig)] == [
        "scale_min_mm", "scale_max_mm", "logistic_gain", "score_offset"
    ]
    assert [p.name for p in cli.COMMANDS["segment"].params] == [
        "manifest", "out", "segmenter", "gt_dir", "corruption_rate", "oracle_seed", "scale_min_mm", "scale_max_mm",
        "logistic_gain", "score_offset", "prob_dir", "lo_pct", "hi_pct", "tau", "jobs",
    ]
    assert not hasattr(volume, "adjust_contrast") and not hasattr(cmbpipe, "adjust_contrast")
    for fn in (augment._warp, augment.elastic_deform, augment.rotate_volume, augment.flip_volume):
        assert typing.get_type_hints(fn)["m"] is volume.LabelMask


def test_no_module_reads_the_jobs_environment_variable():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 10
    assert [p.name for p in sources if "CMBPIPE_JOBS" in p.read_text()] == []


def test_detections_are_only_a_table():
    """No row type, no conversion from a list of rows, no row access by index or iteration."""
    assert not hasattr(cmbpipe, "DetectedCMB") and not hasattr(detect, "DetectedCMB")
    assert [name for name in ("of", "__iter__", "__getitem__") if hasattr(detect.Detections, name)] == []


def test_every_numeric_parameter_declares_a_bound():
    """A new flag cannot skip the check before any read: every number has a bound or a list of choices."""
    numeric = [(name, p) for name, cmd in cli.COMMANDS.items() for p in cmd.params if p.type in (int, float, list, dict)]
    unbounded = [f"{name} {p.flag}" for name, p in numeric if not (p.bound or p.choices or p.name.endswith("seed"))]
    assert len(numeric) > 40
    assert unbounded == []


def test_grid_types_share_one_base():
    """The checks, freezing and geometry of a grid live on ``volume.Grid`` alone."""
    for grid in (volume.Volume3D, volume.LabelMask, volume.ProbabilityVolume):
        assert issubclass(grid, volume.Grid)
        assert [name for name in ("__post_init__", "dims", "voxel_volume_mm3") if name in vars(grid)] == []


def test_one_block_size():
    """``plane_blocks`` always reads the pool's block size, which no other module names."""
    assert list(inspect.signature(volume.plane_blocks).parameters) == ["shape", "axis"]
    assert [p.name for p in sorted(SRC.glob("*.py")) if "POOL_BLOCK_VOXELS" in p.read_text()] == ["volume.py"]


def test_one_range_reduction():
    """A grid's range is taken by ``volume.extrema`` alone, never by a serial ``min``/``max`` of its array."""
    serial = re.compile(r"\.(intensities|labels|values)\.(min|max)\(")
    assert [p.name for p in sorted(SRC.glob("*.py")) if serial.search(p.read_text())] == []


def test_every_scan_on_its_own_grid():
    """No isotropic resampler, no canonical-grid test and no cube target among `segment`'s parameters."""
    assert not hasattr(volume, "resample_isotropic") and not hasattr(cmbpipe, "resample_isotropic")
    assert not hasattr(volume.Grid, "canonical")
    assert [p.name for p in cli.COMMANDS["segment"].params if p.name.startswith("target_")] == []


def test_one_gzip_inflater():
    """A `.nii.gz` read inflates its members in `scanio._inflate` or falls back to `gzip`; zlib checks every CRC-32."""
    gone = ("_inflate_indexed", "_inflate_one_member", "GZIP_INDEX_ID", "GZIP_MAX_PIECES", "_cast")
    assert [n for n in gone if hasattr(scanio, n)] == []
    assert [p.name for p in sorted(SRC.glob("*.py")) if "crc32" in p.read_text()] == []


def test_one_phantom_dip():
    """Every planted object is a capsule: one dip renders it and, for a CMB, writes its ground truth."""
    gone = ("_gaussian_dip", "_tube_dip", "_gt_sphere", "_axis_coords")
    assert [n for n in gone if hasattr(phantom, n)] == []


def test_reference_score_is_the_band_pass():
    """No radial-symmetry vote in the segmenter or its oracle, and no default intensity window."""
    import oracles

    assert [n for n in ("_radial_symmetry", "_vote_coordinate", "SYMMETRY_RADII_MM") if hasattr(segmenter, n)] == []
    assert not hasattr(oracles, "radial_symmetry_oracle")
    params = inspect.signature(volume.normalize_intensity).parameters.values()
    assert [p.name for p in params if p.default is not inspect.Parameter.empty] == []


def test_masks_are_bool(tmp_path):
    """Every mask the package builds or reads holds bool; uint8 is only the NIfTI file's type."""
    spec = phantom.PhantomSpec(dims=(16, 16, 16), cmbs=(phantom.CMBSpec(volume.WorldPoint(8.0, 8.0, 8.0), 4.0, 0.8),))
    v, gt, _ = phantom.generate_phantom(spec)
    scanio.write_mask(gt, tmp_path / "gt.nii.gz")
    masks = {
        "generate_phantom": gt,
        "binarize_fused": triplanar.binarize_fused(volume.ProbabilityVolume(gt.labels)),
        "synthesize_mask": annotation.synthesize_mask(v, [annotation.CMBAnnotation(volume.WorldPoint(8.0, 8.0, 8.0))]),
        "read_mask": scanio.read_mask(tmp_path / "gt.nii.gz"),
        "_warp": augment._warp(v, gt, np.zeros((3, *v.dims), dtype=np.float32))[1],
        "rotate_volume": augment.rotate_volume(v, gt, (0.0, 0.0, 30.0))[1],
        "flip_volume": augment.flip_volume(v, gt, (0,))[1],
    }
    assert {name: m.labels.dtype for name, m in masks.items()} == dict.fromkeys(masks, np.dtype(bool))
    assert gt.labels.any()

    ones = np.zeros((4, 4, 4), dtype=np.uint8)
    ones[1, 2, 3] = 1
    stored = volume.LabelMask(ones).labels
    assert stored.dtype == bool and np.shares_memory(stored, ones)
    ones[1, 2, 3] = 2
    with pytest.raises(RejectedInputError, match="labels must be binary"):
        volume.LabelMask(ones)
    assert not hasattr(detect, "_foreground")


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The first record of each JSON file the CLI writes for two 16^3 phantoms, by file name."""
    out = tmp_path_factory.mktemp("records")
    data, seg, det = out / "data", out / "seg", out / "det"
    runs = [
        ("phantom", "--out", data, "--count", 2, "--dims", 16, "--n-cmbs-max", 2, "--diameter-max", 4.0),
        ("segment", "--manifest", data / "manifest.jsonl", "--out", seg, "--segmenter", "oracle",
         "--gt-dir", data / "gt_masks"),
        ("eval", "--manifest", data / "manifest.jsonl", "--pred-dir", seg / "pred_masks", "--gt-dir", data / "gt_masks",
         "--out", out / "eval"),
        ("detect", "--manifest", data / "manifest.jsonl", "--masks-dir", seg / "pred_masks", "--out", det),
        ("compare-groups", "--detections-a", det / "detections.jsonl", "--detections-b", det / "detections.jsonl",
         "--out", out / "compare"),
        ("sweep", "--detections-a", det / "detections.jsonl", "--detections-b", det / "detections.jsonl",
         "--out", out / "sweep"),
    ]
    with warnings.catch_warnings():  # one file against itself: every paired difference is zero
        warnings.simplefilter("ignore", PairingMismatchWarning)
        for argv in runs:
            assert cli.main([str(a) for a in argv]) == 0
    files = ["data/manifest.jsonl", "eval/per_scan_metrics.jsonl", "eval/metrics_rows.jsonl",
             "compare/group_comparison.json", "sweep/size_sweep.jsonl"]
    records = {}
    for f in files:
        text = (out / f).read_text()
        records[Path(f).name] = json.loads(text.splitlines()[0] if f.endswith(".jsonl") else text)
    return records


def names(cls) -> set:
    return {f.name for f in fields(cls)}


def test_every_json_record_holds_its_fields(written):
    """The JSON keys are the dataclass fields: a new field cannot be left out of what is written.

    The two exceptions: a manifest record leaves out a ``p_cmb`` of None,
    and the group comparison leaves out the per-scan counts.
    """
    assert set(written["per_scan_metrics.jsonl"]) == names(detect.ScanMetrics) | {"scan_id", "dataset"}
    assert set(written["metrics_rows.jsonl"]) == names(detect.DatasetRow)
    assert set(written["size_sweep.jsonl"]) == names(stats.SweepRow)
    assert set(written["group_comparison.json"]) == names(stats.GroupComparison) - {"counts_a", "counts_b"}
    manifest = written["manifest.jsonl"]
    assert set(manifest) == names(scanio.ScanManifestEntry) - {"p_cmb"}
    assert set(manifest["acquisition"]) == names(scanio.Acquisition)
    assert set(scanio.ScanManifestEntry("s", "p", "PHANTOM", "s", p_cmb=0.5).to_json()) == names(scanio.ScanManifestEntry)
