import gzip
import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cmbpipe import volume
from cmbpipe.augment import TRANSFORM_ORDER, TRANSFORMS
from cmbpipe.cli import COMMANDS, _resolve, build_parser, main
from cmbpipe.phantom import generate_phantom, random_phantom_spec
from cmbpipe.scanio import (
    read_manifest,
    read_mask,
    read_volume,
    write_manifest,
    write_mask,
    write_probability,
    write_volume,
)
from cmbpipe.segmenter import OracleSegmenter
from cmbpipe.triplanar import VIEWS, segment_volume
from cmbpipe.volume import LabelMask, ProbabilityVolume, Volume3D

from test_augment import BAD_SPECS

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return main([str(a) for a in argv])


def make_phantom_data(tmp_path, count=2, dims=48, seed=3, extra=()):
    out = tmp_path / "data"
    code = run(
        "phantom",
        "--out", out,
        "--count", count,
        "--dims", dims,
        "--seed", seed,
        "--n-cmbs-min", 2,
        "--n-cmbs-max", 4,
        "--diameter-min", 5.0,
        "--diameter-max", 9.0,
        *extra,
    )
    assert code == 0
    return out


class TestPhantomCommand:
    def test_vessels_that_cannot_fit_are_skipped(self, tmp_path):
        """A 12 mm grid leaves no room for a vessel 8 mm inside every face; the phantom is written without it."""
        out = tmp_path / "data"
        assert run("phantom", "--out", out, "--count", 1, "--dims", 12, "--vessels", 1) == 0
        assert len(read_manifest(out / "manifest.jsonl")) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--dims", 0),
            ("--spacing", "nan"),
            ("--n-cmbs-min", 5, "--n-cmbs-max", 2),
            ("--base", "nan"),
            ("--noise-sigma", -1),
            ("--noise-sigma", "nan"),
            ("--smooth-amplitude", -2),
            ("--vessels", -1),
            ("--calcifications", -1),
            ("--diameter-min", 9, "--diameter-max", 5),
            ("--contrast-min", "nan"),
            ("--count", -1),
        ],
        ids=lambda flags: " ".join(map(str, flags)),
    )
    def test_bad_parameter_exit_1(self, tmp_path, flags):
        out = tmp_path / "data"
        assert run("phantom", "--out", out, "--count", 1, "--dims", 12, *flags) == 1
        assert not (out / "manifest.jsonl").exists()

    def test_writes_volumes_masks_manifest(self, tmp_path):
        out = make_phantom_data(tmp_path)
        entries = read_manifest(out / "manifest.jsonl")
        assert len(entries) == 2
        for e in entries:
            vol = read_volume(out / e.path)
            mask = read_mask(out / "gt_masks" / f"{e.scan_id}.nii.gz")
            assert vol.dims == (48, 48, 48)
            assert mask.labels.sum() > 0
        assert (out / "run_record_phantom.json").exists()

    def test_deterministic_outputs(self, tmp_path):
        out1 = make_phantom_data(tmp_path / "a")
        out2 = make_phantom_data(tmp_path / "b")
        f1 = (out1 / "volumes" / "phantom-0000.nii.gz").read_bytes()
        f2 = (out2 / "volumes" / "phantom-0000.nii.gz").read_bytes()
        assert f1 == f2


class TestPipelineCommands:
    def test_oracle_segment_fuse_detect_eval(self, tmp_path):
        data = make_phantom_data(tmp_path, count=2)
        work = tmp_path / "work"
        assert run(
            "segment",
            "--manifest", data / "manifest.jsonl",
            "--out", work,
            "--segmenter", "oracle",
            "--gt-dir", data / "gt_masks",
            "--tau", 0.125,
        ) == 0
        assert run(
            "detect",
            "--manifest", data / "manifest.jsonl",
            "--masks-dir", work / "pred_masks",
            "--out", work,
            "--min-size", 4.2,
        ) == 0
        detections = [json.loads(line) for line in (work / "detections.jsonl").read_text().splitlines()]
        assert len(detections) == 2
        assert all(d["detections"] for d in detections)
        assert run(
            "eval",
            "--manifest", data / "manifest.jsonl",
            "--pred-dir", work / "pred_masks",
            "--gt-dir", data / "gt_masks",
            "--out", work / "eval",
            "--min-size", 4.2,
        ) == 0
        rows = [json.loads(line) for line in (work / "eval" / "metrics_rows.jsonl").read_text().splitlines()]
        all_row = [r for r in rows if r["dataset"] == "All"][0]
        assert all_row["sensitivity"] == 1.0
        assert all_row["fp_per_scan"] == 0.0
        assert all_row["dsc"] == 1.0
        table = (work / "eval" / "metrics_table.txt").read_text()
        assert "PHANTOM" in table and "All" in table

    def test_eval_empty_scan_row_uses_na(self, tmp_path):
        data = make_phantom_data(tmp_path, count=1, extra=("--n-cmbs-min", 0, "--n-cmbs-max", 0))
        work = tmp_path / "work"
        empty = data / "gt_masks"
        assert run(
            "eval",
            "--manifest", data / "manifest.jsonl",
            "--pred-dir", empty,
            "--gt-dir", empty,
            "--out", work,
        ) == 0
        table = (work / "metrics_table.txt").read_text()
        row = [ln for ln in table.splitlines() if ln.startswith("PHANTOM")][0]
        assert "1.00" in row and "NA" in row

    @pytest.mark.parametrize("command", [n for n, c in COMMANDS.items() if "manifest" in (p.name for p in c.params)])
    def test_no_scans_exit_2(self, tmp_path, capsys, command):
        """A manifest without scans leaves nothing to aggregate, as an empty cohort leaves nothing to compare."""
        (tmp_path / "manifest.jsonl").write_text("")
        out = tmp_path / "out"
        dirs = [arg for p in COMMANDS[command].params if p.required and p.name not in ("manifest", "out")
                for arg in (p.flag, tmp_path)]
        assert run(command, "--manifest", tmp_path / "manifest.jsonl", *dirs, "--out", out) == 2
        assert "lists no scans" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_mask_synth_command(self, tmp_path):
        data = make_phantom_data(tmp_path, extra=("--noise-sigma", 0.0, "--smooth-amplitude", 0.0))
        work = tmp_path / "synth"
        assert run(
            "mask-synth",
            "--manifest", data / "manifest.jsonl",
            "--out", work,
        ) == 0
        entries = read_manifest(data / "manifest.jsonl")
        for e in entries:
            synth = read_mask(work / "synth_masks" / f"{e.scan_id}.nii.gz")
            gt = read_mask(data / "gt_masks" / f"{e.scan_id}.nii.gz")
            inter = np.logical_and(synth.labels, gt.labels).sum()
            dsc = 2 * inter / (synth.labels.sum() + gt.labels.sum())
            assert dsc >= 0.9

    def test_mask_synth_unknown_alpha_tag_exit_1(self, tmp_path, capsys):
        """A tag that no manifest entry can carry is a config error, found before the output directory is made."""
        out = tmp_path / "out"
        flags = ("--manifest", tmp_path / "missing.jsonl", "--alpha-by-tag", '{"phantom": 0.2}')
        assert run("mask-synth", *flags, "--out", out) == 1
        err = capsys.readouterr().err
        assert "'phantom'" in err and "DS1r, DS1s, DS2, DS3, DS3n, PHANTOM, OTHER" in err
        assert not out.exists()

    def test_partition_command(self, tmp_path):
        data = make_phantom_data(tmp_path, count=10, dims=32, extra=("--n-cmbs-max", 2, "--diameter-max", 6.0))
        work = tmp_path / "split"
        assert run(
            "partition",
            "--manifest", data / "manifest.jsonl",
            "--out", work,
            "--seed", 1,
        ) == 0
        train = (work / "train_subjects.txt").read_text().split()
        val = (work / "validation_subjects.txt").read_text().split()
        test = (work / "test_subjects.txt").read_text().split()
        assert len(train) == 7 and len(val) == 1 and len(test) == 2
        assert len(read_manifest(work / "train_manifest.jsonl")) == 7

    def test_compare_and_sweep_commands(self, tmp_path):
        work = tmp_path / "stats"
        work.mkdir()

        write_detections(work / "a.jsonl", [0, 1, 0, 0, 2, 0, 1, 0])
        write_detections(work / "b.jsonl", [5, 6, 3, 7, 5, 6, 2, 5])
        assert run(
            "compare-groups",
            "--detections-a", work / "a.jsonl",
            "--detections-b", work / "b.jsonl",
            "--out", work / "cmp",
        ) == 0
        rec = json.loads((work / "cmp" / "group_comparison.json").read_text())
        assert rec["mean_count_b"] > rec["mean_count_a"]
        assert rec["wilcoxon_p"] < 0.05
        assert rec["fisher_p"] < 0.05

        assert run(
            "sweep",
            "--detections-a", work / "a.jsonl",
            "--detections-b", work / "b.jsonl",
            "--out", work / "sweep",
            "--thresholds", "0,4.2,10",
        ) == 0
        rows = [json.loads(line) for line in (work / "sweep" / "size_sweep.jsonl").read_text().splitlines()]
        assert len(rows) == 3
        assert rows[0]["mean_count_b"] >= rows[-1]["mean_count_b"]


def output_digest(out, decode=False):
    """sha256 over the names and bytes (gunzipped if ``decode``) of every file in ``out/fused`` and ``out/pred_masks``."""
    h = hashlib.sha256()
    for d in ("fused", "pred_masks"):
        for p in sorted((out / d).iterdir()):
            h.update(f"{d}/{p.name}\0".encode())
            h.update(gzip.decompress(p.read_bytes()) if decode else p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def segment_data(tmp_path_factory):
    """Two 40^3 phantoms with a vessel, plus per-view maps of a 10 % corrupted oracle for --prob-dir."""
    tmp = tmp_path_factory.mktemp("segment")
    data = make_phantom_data(tmp, count=2, dims=40, extra=("--vessels", 1))
    for e in read_manifest(data / "manifest.jsonl"):
        oracle = OracleSegmenter(read_mask(data / "gt_masks" / f"{e.scan_id}.nii.gz"), 0.1, seed=5)
        probs = segment_volume(read_volume(data / e.path), oracle)
        for view in VIEWS:
            write_probability(probs[view], tmp / "maps" / f"{e.scan_id}_{view}.nii.gz")
    return data, tmp / "maps"


class TestSegmentCommand:
    # (flags, digest of the files in fused/ and pred_masks/, digest of their gunzipped bytes)
    FROZEN = {
        "clean-oracle": (
            ("--segmenter", "oracle", "--gt-dir", "{data}/gt_masks"),
            "b9ff4214cbe33660681110408790c424aff37acb833cd6f20225dd48979c57a8",
            "32ecdc6f2291f664b8fc2d454845db0693f0278bf815b1897be37cb5f0ab5e2a",
        ),
        "corrupted-oracle": (
            ("--segmenter", "oracle", "--gt-dir", "{data}/gt_masks", "--corruption-rate", "0.2", "--oracle-seed", "4"),
            "9960d169994f2df7379f28cfaa8cc91bad785c14d27ff2f7909daa4c0a971a6f",
            "e314d407953b9115b6de1cfaddf88d6d2695d4def6b436a66ce3ffacd34d7424",
        ),
        "reference": (
            ("--tau", "0.05"),
            "a7d9fd1342852894debcf1b6d05dc73881b2e452b88c1c1704a30a3574c1559d",
            "06d444ad15eaba1b419c663969bbf4e79dd58b4df44833cffcd034ad6513012a",
        ),
        "external": (
            ("--segmenter", "external", "--prob-dir", "{maps}"),
            "d3e51eecc6c041f6e3ef1936e23a813d8023831c022f3a69466eb036154a4fa9",
            "dd365692ebb58dc922b7271205912b8ef1d4a169d36fd92ab10f428da22e2100",
        ),
    }

    @pytest.mark.parametrize("case", FROZEN)
    def test_fused_bytes_are_frozen(self, tmp_path, segment_data, case):
        """`segment` writes the fused volumes and masks that `segment` then `fuse` wrote, byte for byte.

        The digests were taken from the `segment` -> `fuse` chain at commit
        b0599c5, the last with a `fuse` command, run on a separate checkout
        with the same phantoms, maps and flags (`fuse --tau 0.05` for the
        reference case). No per-view volume is written. The reference case
        reads the phantom's intensities, so its digest was taken again when
        the phantom's noise became one stream per plane, and again when the
        reference score became the band-pass alone, without the
        radial-symmetry vote. The file digests were taken again when the
        writer moved to run-length deflate with an index of its pieces in
        the gzip header, and again when each piece became a gzip member of
        its own; the digests of the gunzipped bytes, taken just before the
        first of these changes, show that the data did not move.
        """
        data, maps = segment_data
        flags, digest, decoded = self.FROZEN[case]
        flags = [f.format(data=data, maps=maps) for f in flags]
        for jobs in ((), ("--jobs", 1), ("--jobs", 2)):  # fusion shares its two blocks per scan among the threads
            out = tmp_path / f"out{''.join(map(str, jobs))}"
            assert run("segment", "--manifest", data / "manifest.jsonl", "--out", out, *flags, *jobs) == 0
            assert sorted(p.name for p in out.iterdir()) == ["fused", "pred_masks", "run_record_segment.json"]
            assert output_digest(out) == digest
            assert output_digest(out, decode=True) == decoded
            recorded = json.loads((out / "run_record_segment.json").read_text())["outputs"]
            assert len(recorded) == 4 and all(Path(path).parent.name in ("fused", "pred_masks") for path in recorded)

    def test_one_voxel_thick_scan_exit_2(self, tmp_path, capsys):
        """The reference segmenter needs an in-plane gradient in every view; a 16 x 16 x 1 scan is a data error."""
        data = make_phantom_data(tmp_path, count=1, dims=16)
        e = read_manifest(data / "manifest.jsonl")[0]
        write_volume(Volume3D(read_volume(data / e.path).intensities[:, :, :1], (1.0, 1.0, 3.0)), data / e.path)
        out = tmp_path / "out"
        assert run("segment", "--manifest", data / "manifest.jsonl", "--out", out) == 2
        assert "got dims (16, 16, 1)" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_external_maps_on_another_grid_exit_2(self, tmp_path, capsys, segment_data):
        """Maps at 2 mm spacing and a 50 mm origin do not fit a 1 mm phantom at origin 0, though the dims agree."""
        data, _ = segment_data
        stored = ProbabilityVolume(np.full((40, 40, 40), 0.9, dtype=np.float32), (2.0,) * 3, (50.0,) * 3)
        for e in read_manifest(data / "manifest.jsonl"):
            for view in VIEWS:
                write_probability(stored, tmp_path / f"{e.scan_id}_{view}.nii.gz")
        out = tmp_path / "out"
        assert run(
            "segment", "--manifest", data / "manifest.jsonl", "--out", out,
            "--segmenter", "external", "--prob-dir", tmp_path,
        ) == 2
        assert "stored probabilities and volume disagree" in capsys.readouterr().err
        assert not any(out.iterdir())


def write_detections(path, counts, scan_ids=None):
    """A `detect` output file with ``counts[i]`` 8 mm^3 detections in scan ``scan_ids[i]`` (default s0, s1, ...)."""
    scan_ids = scan_ids or [f"s{i}" for i in range(len(counts))]
    with open(path, "w") as fh:
        for scan_id, c in zip(scan_ids, counts):
            dets = [
                {
                    "id": k + 1,
                    "centroid_mm": [float(k), 0.0, 0.0],
                    "volume_mm3": 8.0,
                    "voxel_count": 8,
                    "bbox": [[0, 0, 0], [1, 1, 1]],
                }
                for k in range(c)
            ]
            fh.write(json.dumps({"scan_id": scan_id, "detections": dets}) + "\n")


class TestGroupPairing:
    """compare-groups and sweep pair the scans of the two files by scan_id, not by line."""

    COUNTS_A, COUNTS_B = [1, 2, 3, 4, 5, 6], [2, 3, 4, 5, 6, 7]  # B is A plus one in every scan

    def compare(self, tmp_path, name, a, b):
        assert run("compare-groups", "--detections-a", a, "--detections-b", b, "--out", tmp_path / name) == 0
        return json.loads((tmp_path / name / "group_comparison.json").read_text())

    def test_reversed_file_pairs_the_same_scans(self, tmp_path):
        ids = [f"s{i}" for i in range(6)]
        write_detections(tmp_path / "a.jsonl", self.COUNTS_A, ids)
        write_detections(tmp_path / "b.jsonl", self.COUNTS_B, ids)
        write_detections(tmp_path / "b_reversed.jsonl", self.COUNTS_B[::-1], ids[::-1])
        forward = self.compare(tmp_path, "forward", tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        reversed_ = self.compare(tmp_path, "reversed", tmp_path / "a.jsonl", tmp_path / "b_reversed.jsonl")
        assert forward["wilcoxon_p"] == pytest.approx(1 / 32)  # six positive differences, exact two-sided
        assert reversed_ == forward

    @pytest.mark.parametrize("command", ["compare-groups", "sweep"])
    @pytest.mark.parametrize(
        "ids_a, ids_b, named",
        [
            (["s0", "s1", "s2"], ["s0", "s1", "x2"], "'s2'"),
            (["s0", "s1", "s0"], ["s0", "s1", "s2"], "'s0' appears twice"),
            (["s0", "s1", "s2"], ["s0", "s1", "s1"], "'s1' appears twice"),
            (["s0", "s1"], ["s0", "s1", "s1"], "'s1' appears twice"),
        ],
        ids=["ids-differ", "duplicate-in-a", "duplicate-in-b", "duplicate-unequal-lengths"],
    )
    def test_unpairable_files_exit_2(self, tmp_path, capsys, command, ids_a, ids_b, named):
        write_detections(tmp_path / "a.jsonl", [1] * len(ids_a), ids_a)
        write_detections(tmp_path / "b.jsonl", [2] * len(ids_b), ids_b)
        out = tmp_path / "out"
        files = ("--detections-a", tmp_path / "a.jsonl", "--detections-b", tmp_path / "b.jsonl")
        assert run(command, *files, "--out", out) == 2
        assert named in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["compare-groups", "sweep"])
    def test_empty_cohort_exit_2(self, tmp_path, capsys, command):
        """Two files without scans leave nothing to compare: no NaN means, no p-values."""
        for name in ("a.jsonl", "b.jsonl"):
            (tmp_path / name).write_text("")
        out = tmp_path / "out"
        assert run(command, "--detections-a", tmp_path / "a.jsonl", "--detections-b", tmp_path / "b.jsonl",
                   "--out", out) == 2
        assert "both groups need at least one scan" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_unequal_lengths_skip_the_paired_test(self, tmp_path):
        write_detections(tmp_path / "a.jsonl", self.COUNTS_A, [f"a{i}" for i in range(6)])
        write_detections(tmp_path / "b.jsonl", self.COUNTS_B[:5], [f"b{i}" for i in range(5)])
        with pytest.warns(UserWarning, match="pairing mismatch"):
            rec = self.compare(tmp_path, "cmp", tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        assert rec["wilcoxon_p"] is None
        assert rec["wilcoxon_note"] == "pairing mismatch (6 vs 5 scans); Wilcoxon skipped"


def all_row(eval_dir):
    rows = [json.loads(line) for line in (eval_dir / "metrics_rows.jsonl").read_text().splitlines()]
    return [r for r in rows if r["dataset"] == "All"][0]


class TestDefaults:
    def test_default_segment_run(self, tmp_path):
        """phantom -> segment -> eval with no segmenter, window, tau or size flags."""
        data, work = tmp_path / "data", tmp_path / "work"
        manifest = data / "manifest.jsonl"
        assert run("phantom", "--out", data, "--count", 2, "--dims", 96, "--seed", 7) == 0
        assert run("segment", "--manifest", manifest, "--out", work) == 0
        assert run(
            "eval", "--manifest", manifest, "--pred-dir", work / "pred_masks", "--gt-dir", data / "gt_masks",
            "--out", work / "eval",
        ) == 0
        row = all_row(work / "eval")
        assert row["fp_per_scan"] <= 2.0
        assert row["precision"] >= 0.5

    def test_eval_min_size_default_is_clinical(self, tmp_path):
        """A 1 mm^3 speck is filtered by default, as with --min-size 4.2."""
        data = make_phantom_data(tmp_path, count=1, dims=32)
        gt = read_mask(data / "gt_masks" / "phantom-0000.nii.gz")
        labels = gt.labels.copy()
        assert not labels[0:3, 0:3, 0:3].any()
        labels[1, 1, 1] = 1
        write_mask(LabelMask(labels, gt.spacing, gt.origin), tmp_path / "pred" / "phantom-0000.nii.gz")
        per_scan = []
        for extra in ((), ("--min-size", 4.2)):
            out = tmp_path / f"eval{len(extra)}"
            assert run(
                "eval", "--manifest", data / "manifest.jsonl", "--pred-dir", tmp_path / "pred",
                "--gt-dir", data / "gt_masks", "--out", out, *extra,
            ) == 0
            per_scan.append((out / "per_scan_metrics.jsonl").read_text())
        assert per_scan[0] == per_scan[1]
        assert json.loads(per_scan[0])["fp"] == 0


def make_thick_slice_data(out, step):
    """The 64^3 phantoms of seeds 7-9 with every ``step``-th axial plane kept, at 1 x 1 x ``step`` mm.

    Each ground truth is thinned the same way, so it stays on its scan's grid.
    """
    entries = []
    for seed in (7, 8, 9):
        spec = random_phantom_spec(seed, dims=(64, 64, 64))
        vol, gt, entry = generate_phantom(spec, scan_id=f"s{seed}", path=f"volumes/s{seed}.nii.gz")
        spacing = (1.0, 1.0, float(step))
        write_volume(Volume3D(vol.intensities[:, :, ::step], spacing, vol.origin), out / entry.path)
        write_mask(LabelMask(gt.labels[:, :, ::step], spacing, gt.origin), out / "gt_masks" / f"s{seed}.nii.gz")
        entries.append(entry)
    write_manifest(entries, out / "manifest.jsonl")
    return out


@pytest.fixture(scope="module")
def thick_slice_runs(tmp_path_factory):
    """``runs(step)``: oracle and default reference `segment`, `detect` and `eval` on ``step`` mm slices, run once.

    Each kind maps to (exit codes, detections by scan id, the per-scan metric rows of `eval`).
    """
    done = {}

    def runs(step):
        if step not in done:
            tmp = tmp_path_factory.mktemp(f"thick{step}")
            data = make_thick_slice_data(tmp / "data", step)
            manifest = data / "manifest.jsonl"
            done[step] = {}
            oracle = ("--segmenter", "oracle", "--gt-dir", data / "gt_masks")
            for kind, flags in (("oracle", oracle), ("reference", ())):
                work = tmp / kind
                codes = [
                    run("segment", "--manifest", manifest, "--out", work, *flags),
                    run("detect", "--manifest", manifest, "--masks-dir", work / "pred_masks", "--out", work),
                    run("eval", "--manifest", manifest, "--pred-dir", work / "pred_masks",
                        "--gt-dir", data / "gt_masks", "--out", work / "eval"),
                ]
                jsonl = lambda path: [json.loads(line) for line in path.read_text().splitlines()]
                detections = {d["scan_id"]: d["detections"] for d in jsonl(work / "detections.jsonl")}
                done[step][kind] = codes, detections, jsonl(work / "eval" / "per_scan_metrics.jsonl")
        return done[step]

    return runs


class TestThickSlice:
    """Thick-slice scans are segmented on their own grid and score end to end, with no cube between."""

    @pytest.mark.parametrize("step", [2, 3])
    def test_every_command_exits_0(self, thick_slice_runs, step):
        runs = thick_slice_runs(step)
        assert {kind: codes for kind, (codes, _, _) in runs.items()} == {"oracle": [0] * 3, "reference": [0] * 3}

    @pytest.mark.parametrize("step, cmbs", [(2, 9), (3, 10)])
    def test_oracle_finds_every_cmb_and_nothing_else(self, thick_slice_runs, step, cmbs):
        rows = thick_slice_runs(step)["oracle"][2]
        assert [sum(row[k] for row in rows) for k in ("tp", "fp", "fn")] == [cmbs, 0, 0]

    @pytest.mark.parametrize("step", [2, 3])
    @pytest.mark.parametrize("scan_id", ["s7", "s9"])
    def test_reference_keeps_no_detection_at_a_thick_axis_face(self, thick_slice_runs, step, scan_id):
        """A resampled cube had a min-filled slab at these faces, which the reference read as dark blobs."""
        last = (len(range(0, 64, step)) - 1) * step  # world z (mm) of the last kept plane
        z = [d["centroid_mm"][2] for d in thick_slice_runs(step)["reference"][1][scan_id]]
        assert 0 < len(z) <= 10
        assert [c for c in z if c < 1.5 or c > last - 1.5] == []

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 17: the one CMB of seed 8 falls between the kept 2 mm planes, so nothing dark sets the "
        "min-max intensity window and the reference keeps hundreds of noise detections (765 at 2 mm)",
    )
    def test_reference_on_a_scan_with_nothing_dark(self, thick_slice_runs):
        assert len(thick_slice_runs(2)["reference"][1]["s8"]) <= 10


def write_config(tmp_path, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


MISSING = "<missing>"  # stands for a path that does not exist


def unreadable(path, damage):
    """``path`` made a directory, or a file of JSON whose one Latin-1 byte is not UTF-8."""
    if damage == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"scan_id": "caf\xe9"}\n')
    return path


def outside(p):
    """Flag texts of values just outside ``p.bound`` at each finite end, plus NaN and +-inf for a float."""
    lo, hi = (float(end) for end in p.bound[1:-1].split(","))
    values = [] if p.type is int else [math.nan, -math.inf, math.inf]
    if math.isfinite(lo):
        values.append(lo if p.bound[0] == "(" else lo - 1 if p.type is int else np.nextafter(lo, -math.inf))
    if math.isfinite(hi):
        values.append(hi if p.bound[-1] == ")" else hi + 1 if p.type is int else np.nextafter(hi, math.inf))
    values = [int(x) if p.type is int else float(x) for x in values]
    return [json.dumps({"DS1r": x}) if p.type is dict else repr(x) for x in values]


def bound_cases():
    """A case per value just outside the bound of each bounded parameter of each command."""
    for command, cmd in COMMANDS.items():
        for p in cmd.params:
            for text in outside(p) if p.bound else ():
                yield command, (p.flag, text), True


# The cases of the per-command checks that the walk replaced, then rules that relate two values. Each
# command checks those at its top: after the output directory is made, before any read.
MORE_CASES = [
    ("segment", ("--tau", "2"), True),
    ("segment", ("--segmenter", "oracle", "--gt-dir", MISSING, "--corruption-rate", "2"), True),
    ("segment", ("--logistic-gain", "-40"), True),
    ("segment", ("--jobs", "-1"), True),
    ("augment", ("--jobs", "-1"), True),
    ("sweep", ("--thresholds", "0,nan"), True),
    ("sweep", ("--thresholds", "0,inf"), True),
    ("phantom", ("--count", "0", "--dims", "-5"), True),
    ("mask-synth", ("--alpha-threshold", "2"), True),
    ("mask-synth", ("--snap-radius-mm", "-1"), True),
    ("compare-groups", ("--illness-threshold", "-3"), True),
    ("segment", ("--scale-min-mm", "4", "--scale-max-mm", "1"), False),
    ("segment", ("--segmenter", "oracle"), False),
    ("segment", ("--segmenter", "external"), False),
    ("mask-synth", ("--shell-inner-mm", "7", "--shell-outer-mm", "5"), False),
    ("sweep", ("--thresholds", "5,1"), False),
    ("sweep", ("--thresholds", ","), False),
    ("partition", ("--fractions", "0.5,0.6"), False),
    ("partition", ("--fractions", "0.5,0.5"), False),
    ("phantom", ("--n-cmbs-min", "5", "--n-cmbs-max", "2"), False),
    ("phantom", ("--diameter-min", "9", "--diameter-max", "5"), False),
    ("phantom", ("--count", "0", "--contrast-min", "0.8", "--contrast-max", "0.6"), False),
]


class TestConfigAndErrors:
    @pytest.mark.parametrize(
        "command, flags, bounded",
        [pytest.param(*case, id=" ".join((case[0], *case[1]))) for case in (*bound_cases(), *MORE_CASES)],
    )
    def test_bad_value_exit_1_before_any_read(self, tmp_path, command, flags, bounded):
        """A bad value exits 1 with every input missing (a read would exit 2) and leaves nothing in --out.

        A value out of its bound is found before the output directory is made.
        """
        inputs = [arg for p in COMMANDS[command].params if p.required and p.name != "out" for arg in (p.flag, MISSING)]
        args = [tmp_path / "missing" if arg == MISSING else arg for arg in (*inputs, *flags)]
        out = tmp_path / "out"
        assert run(command, *args, "--out", out) == 1
        assert not out.exists() if bounded else not any(out.iterdir())

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_segment_takes_no_intensity_window(self, tmp_path, where):
        """The reference always sees the full-range window: a ``lo_pct`` exits 1, reads nothing, writes nothing."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"segment": {"lo_pct": 1}}))
        window = ("--lo-pct", "1") if where == "flag" else ("--config", config)
        out = tmp_path / "out"
        assert run("segment", "--manifest", tmp_path / "missing", *window, "--out", out) == 1
        assert not out.exists()

    def test_usage_error_exit_1(self, capsys):
        assert run("segment") == 1  # missing required params

    def test_unknown_command_exit_1(self):
        assert run("frobnicate") == 1

    def test_fuse_is_not_a_command(self, tmp_path):
        """`segment` fuses and binarizes; a `fuse` step left in a script fails as a usage error."""
        out = tmp_path / "out"
        assert run("fuse", "--manifest", tmp_path / "m.jsonl", "--prob-dir", tmp_path, "--out", out) == 1
        assert not out.exists()

    def test_data_error_exit_2(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text('{"scan_id": "x"}\n')
        assert run("detect", "--manifest", manifest, "--masks-dir", tmp_path, "--out", tmp_path / "o") == 2

    def test_ill_typed_manifest_value_exit_2(self, tmp_path, capsys):
        data = make_phantom_data(tmp_path, count=1, dims=24)
        manifest = data / "manifest.jsonl"
        rec = json.loads(manifest.read_text())
        rec["p_cmb"] = "high"
        manifest.write_text(json.dumps(rec) + "\n")
        assert run("detect", "--manifest", manifest, "--masks-dir", data, "--out", tmp_path / "o") == 2
        assert "line 1: p_cmb 'high' is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["segment", "mask-synth", "augment"])
    def test_scan_id_outside_out_exit_2(self, tmp_path, capsys, command):
        """A scan id names an output file, so one that climbs out of --out is rejected before any write."""
        data = make_phantom_data(tmp_path, count=1, dims=24)
        rec = json.loads((data / "manifest.jsonl").read_text())
        rec["scan_id"] = "../../escaped"
        (data / "manifest.jsonl").write_text(json.dumps(rec) + "\n")
        out = tmp_path / "a" / "b" / "out"
        extra = {"segment": (), "mask-synth": (), "augment": ("--masks-dir", data / "gt_masks")}[command]
        assert run(command, "--manifest", data / "manifest.jsonl", "--out", out, *extra) == 2
        assert "line 1: scan_id '../../escaped'" in capsys.readouterr().err
        assert list(tmp_path.rglob("*escaped*")) == []

    def test_missing_file_exit_2(self, tmp_path):
        assert (
            run(
                "eval",
                "--manifest", tmp_path / "nope.jsonl",
                "--pred-dir", tmp_path,
                "--gt-dir", tmp_path,
                "--out", tmp_path / "o",
            )
            == 2
        )

    @pytest.mark.parametrize("damage", ["directory", "not-utf8"])
    def test_unreadable_manifest_exit_2(self, tmp_path, capsys, damage):
        manifest = unreadable(tmp_path / "manifest.jsonl", damage)
        assert run("mask-synth", "--manifest", manifest, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(manifest) in err

    @pytest.mark.parametrize("damage", ["directory", "not-utf8"])
    def test_unreadable_detections_file_exit_2(self, tmp_path, capsys, damage):
        good = tmp_path / "b.jsonl"
        write_detections(good, [1, 2], ["s0", "s1"])
        bad = unreadable(tmp_path / "a.jsonl", damage)
        assert run("compare-groups", "--detections-a", bad, "--detections-b", good, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(bad) in err

    @pytest.mark.parametrize("flag", ["--config", "--spec"])
    def test_json_file_not_utf8_exit_1(self, tmp_path, capsys, flag):
        """A config or augment spec file that is not UTF-8 is a config error, as one that is not JSON."""
        path = unreadable(tmp_path / "run.json", "not-utf8")
        args = ("--manifest", tmp_path / "missing.jsonl", "--masks-dir", tmp_path, "--out", tmp_path / "out")
        assert run("augment", *args, flag, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err

    @pytest.mark.parametrize("damage", ["truncated", "bad-crc"])
    def test_corrupt_gzip_volume_exit_2(self, tmp_path, capsys, damage):
        data = make_phantom_data(tmp_path, count=1, dims=24)
        volume = data / read_manifest(data / "manifest.jsonl")[0].path
        blob = bytearray(volume.read_bytes())
        if damage == "truncated":
            blob = blob[: len(blob) // 2]
        else:
            blob[-8] ^= 0xFF  # first byte of the CRC-32 in the gzip trailer
        volume.write_bytes(bytes(blob))
        assert run("mask-synth", "--manifest", data / "manifest.jsonl", "--out", tmp_path / "synth") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(volume) in err

    @pytest.mark.parametrize("command", ["mask-synth", "segment"])
    def test_volume_path_naming_a_directory_exit_2(self, tmp_path, capsys, command):
        data = make_phantom_data(tmp_path, count=1, dims=24)
        volume = data / read_manifest(data / "manifest.jsonl")[0].path
        volume.unlink()
        volume.mkdir()
        extra = {"mask-synth": (), "segment": ("--segmenter", "oracle", "--gt-dir", data / "gt_masks")}[command]
        assert run(command, "--manifest", data / "manifest.jsonl", "--out", tmp_path / "out", *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(volume) in err

    def test_bad_match_distance_exit_1(self, tmp_path):
        data = make_phantom_data(tmp_path, count=1, dims=24)
        for bad in ("-1", "nan"):
            code = run(
                "eval",
                "--manifest", data / "manifest.jsonl",
                "--pred-dir", data / "gt_masks",
                "--gt-dir", data / "gt_masks",
                "--out", tmp_path / "o",
                "--match-dist", bad,
            )
            assert code == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"phantom": {"count": 3, "dims": 24, "noise_sigma": 0.0}}))
        out = tmp_path / "out"
        assert run("phantom", "--config", cfg, "--out", out, "--count", 1) == 0
        assert len(read_manifest(out / "manifest.jsonl")) == 1  # flag beat config
        vol = read_volume(out / "volumes" / "phantom-0000.nii.gz")
        assert vol.dims == (24, 24, 24)  # config beat default

    def test_run_record_contains_hashes(self, tmp_path):
        out = make_phantom_data(tmp_path, count=1, dims=24)
        rec = json.loads((out / "run_record_phantom.json").read_text())
        assert rec["command"] == "phantom"
        assert rec["params"]["count"] == 1
        assert any("manifest.jsonl" in k for k in rec["outputs"])
        assert all(len(v) == 64 for v in rec["outputs"].values())

    def test_config_precedence(self, tmp_path):
        """default < top level < common < command section < flag; other commands' keys may be shared."""
        cfg = {
            "count": 2, "dims": 12, "seed": 1, "tau": 0.5,
            "common": {"dims": 14, "seed": 2, "min_size": 1.0},
            "phantom": {"dims": 16},
        }
        out = tmp_path / "out"
        assert run("phantom", "--config", write_config(tmp_path, cfg), "--out", out, "--seed", 3) == 0
        params = json.loads((out / "run_record_phantom.json").read_text())["params"]
        assert (params["count"], params["dims"], params["seed"], params["spacing"]) == (2, 16, 3, 1.0)

    @pytest.mark.parametrize(
        "cfg",
        [{"phantom": {"cuont": 1}}, {"common": {"cuont": 1}}, {"cuont": 1}, {"phantm": {"count": 1}},
         {"segment": {"gamma": 2.0}}],
        ids=["own-section", "common", "top-level", "section-name", "removed-gamma"],
    )
    def test_unknown_config_key_exit_1(self, tmp_path, cfg):
        out = tmp_path / "out"
        assert run("phantom", "--config", write_config(tmp_path, cfg), "--out", out, "--dims", 12, "--count", 1) == 1
        assert not out.exists()

    @pytest.mark.parametrize("section", [{"count": "three"}, {"count": 2.5}, {"count": True}, {"spacing": [1.0]}])
    def test_ill_typed_config_value_exit_1(self, tmp_path, section):
        cfg = write_config(tmp_path, {"phantom": {"dims": 12, **section}})
        assert run("phantom", "--config", cfg, "--out", tmp_path / "out") == 1

    def test_segment_bytes_do_not_depend_on_jobs(self, tmp_path, monkeypatch):
        """Reference `segment` writes the same bytes with every CPU, --jobs 1 and --jobs 2."""
        monkeypatch.setattr(volume, "POOL_BLOCK_VOXELS", 3 * 24 * 24)  # 8 blocks per view
        data = make_phantom_data(tmp_path, count=1, dims=24)
        runs = {}
        for jobs in (None, 1, 2):
            out = tmp_path / f"out-{jobs}"
            flags = () if jobs is None else ("--jobs", jobs)
            assert run("segment", "--manifest", data / "manifest.jsonl", "--out", out, *flags) == 0
            files = {f"{d}/{p.name}": p.read_bytes() for d in ("fused", "pred_masks")
                     for p in sorted((out / d).iterdir())}
            params = json.loads((out / "run_record_segment.json").read_text())["params"]
            assert params["jobs"] == jobs  # the record keeps the requested value, not the CPU count
            runs[jobs] = files
        assert len(runs[None]) == 2
        assert runs[1] == runs[None] and runs[2] == runs[None]

    def test_phantom_and_mask_synth_bytes_do_not_depend_on_jobs(self, tmp_path):
        """`phantom` and `mask-synth` write the same bytes with every CPU and with --jobs 1."""
        runs = {}
        for jobs in ((), ("--jobs", 1)):
            out = tmp_path / f"out{''.join(map(str, jobs))}"
            data = make_phantom_data(out, count=2, dims=24, extra=jobs)
            assert run("mask-synth", "--manifest", data / "manifest.jsonl", "--out", out / "synth", *jobs) == 0
            runs[jobs] = {
                f"{d}/{p.name}": p.read_bytes()
                for d in ("data/volumes", "data/gt_masks", "synth/synth_masks")
                for p in sorted((out / d).iterdir())
            }
            for record in (out / "data" / "run_record_phantom.json", out / "synth" / "run_record_mask_synth.json"):
                assert json.loads(record.read_text())["params"]["jobs"] == (jobs[1] if jobs else None)
        assert len(runs[()]) == 6
        assert runs["--jobs", 1] == runs[()]

    def test_augment_bytes_do_not_depend_on_jobs(self, tmp_path, monkeypatch):
        """`augment` writes the same bytes with every CPU, --jobs 1 and --jobs 2."""
        monkeypatch.setattr(volume, "POOL_BLOCK_VOXELS", 3 * 24 * 24)  # 8 blocks per pass
        data = make_phantom_data(tmp_path, count=2, dims=24)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({name: {"probability": 1.0} for name in TRANSFORM_ORDER}))
        runs = {}
        for jobs in (None, 1, 2):
            out = tmp_path / f"out-{jobs}"
            flags = () if jobs is None else ("--jobs", jobs)
            assert run(
                "augment", "--manifest", data / "manifest.jsonl", "--masks-dir", data / "gt_masks",
                "--out", out, "--spec", spec, *flags,
            ) == 0
            files = {f"{d}/{p.name}": p.read_bytes() for d in ("aug_volumes", "aug_masks", "aug_params")
                     for p in sorted((out / d).iterdir())}
            params = json.loads((out / "run_record_augment.json").read_text())["params"]
            assert params["jobs"] == jobs  # the record keeps the requested value, not the CPU count
            runs[jobs] = files
        assert len(runs[None]) == 6
        assert runs[1] == runs[None] and runs[2] == runs[None]

    @pytest.mark.parametrize(
        "command, key, value, inputs",
        [
            ("segment", "segmenter", "magic", ("--manifest",)),
            ("detect", "connectivity", 8, ("--manifest", "--masks-dir")),
            ("compare-groups", "alternative", "sideways", ("--detections-a", "--detections-b")),
            ("compare-groups", "zero_method", "wilcox", ("--detections-a", "--detections-b")),
            ("eval", "match_dist", -1.0, ("--manifest", "--pred-dir", "--gt-dir")),
            ("mask-synth", "alpha_by_tag", {"DS1r": 0.5, "DS2": 1.5}, ("--manifest",)),
            ("sweep", "thresholds", [0.0, -4.2], ("--detections-a", "--detections-b")),
        ],
    )
    def test_config_choices_and_bounds_checked_before_data(self, tmp_path, command, key, value, inputs):
        """A config value outside the choices or its bound is a config error (1), found before the missing inputs (2)."""
        cfg = write_config(tmp_path, {command: {key: value}})
        flags = [arg for flag in inputs for arg in (flag, tmp_path / "missing.jsonl")]
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out", out, *flags) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare-groups", "sweep"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("voxel_count", 0),
            ("volume_mm3", float("nan")),
            ("volume_mm3", -3.0),
            ("centroid_mm", [float("nan"), 0.0, 0.0]),
            ("centroid_mm", [0.0, float("inf"), 0.0]),
            ("centroid_mm", [1.0, 2.0]),
            ("id", [2]),
        ],
    )
    def test_bad_detection_record_exit_2(self, tmp_path, capsys, command, key, value):
        good = {"id": 1, "centroid_mm": [1.0, 2.0, 3.0], "volume_mm3": 8.0, "voxel_count": 8, "bbox": [[0, 0, 0], [1, 1, 1]]}
        records = [{"scan_id": "s0", "detections": [good]}, {"scan_id": "s1", "detections": [good, {**good, key: value}]}]
        path = tmp_path / "detections.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        assert run(command, "--detections-a", path, "--detections-b", path, "--out", tmp_path / "out") == 2
        assert f"{path} line 2: bad detections record" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("id", "3"), ("voxel_count", True), ("voxel_count", 2.7), ("volume_mm3", "4.5"), ("colour", "red")],
    )
    def test_detection_number_not_of_its_json_type_exit_2(self, tmp_path, capsys, key, value):
        """A string, a bool, a fraction in an integer column or an unknown key is not read as a number."""
        good = {"id": 1, "centroid_mm": [1.0, 2.0, 3.0], "volume_mm3": 8.0, "voxel_count": 8, "bbox": [[0, 0, 0], [1, 1, 1]]}
        path = tmp_path / "detections.jsonl"
        path.write_text(json.dumps({"scan_id": "s0", "detections": [good]}) + "\n"
                        + json.dumps({"scan_id": "s1", "detections": [{**good, key: value}]}) + "\n")
        assert run("compare-groups", "--detections-a", path, "--detections-b", path, "--out", tmp_path / "out") == 2
        assert f"{path} line 2: bad detections record" in capsys.readouterr().err


@pytest.fixture(scope="module")
def augment_data(tmp_path_factory):
    return make_phantom_data(tmp_path_factory.mktemp("augment"), count=1, dims=16)


class TestAugmentSpecFile:
    def test_missing_manifest_leaves_out_empty(self, tmp_path):
        out = tmp_path / "out"
        assert run("augment", "--manifest", tmp_path / "missing.jsonl", "--masks-dir", tmp_path, "--out", out) == 2
        assert not any(out.iterdir())

    @pytest.mark.parametrize("content", [None, "{bad", "dir"], ids=["missing", "invalid-json", "directory"])
    def test_unreadable_spec_file_exit_1(self, tmp_path, content):
        """Found before the manifest is read: with none there, a data error would exit 2."""
        spec = tmp_path / "spec.json"
        if content == "dir":
            spec.mkdir()
        elif content is not None:
            spec.write_text(content)
        assert run(
            "augment", "--manifest", tmp_path / "missing.jsonl", "--masks-dir", tmp_path,
            "--out", tmp_path / "out", "--spec", spec,
        ) == 1

    @pytest.mark.parametrize("rec", BAD_SPECS.values(), ids=BAD_SPECS.keys())
    def test_bad_spec_value_exit_1(self, tmp_path, augment_data, rec):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(rec))
        out = tmp_path / "out"
        assert run(
            "augment", "--manifest", augment_data / "manifest.jsonl", "--masks-dir", augment_data / "gt_masks",
            "--out", out, "--spec", spec,
        ) == 1
        assert not (out / "aug_params").exists()


def readme_commands():
    """Every ``cmbpipe ...`` line in README's bash blocks, continuation lines joined."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [shlex.split(line, comments=True) for line in lines if line.startswith("cmbpipe ")]


def test_readme_commands_parse():
    """Each example names a command and flags the tables declare, in full, with values that pass their checks."""
    commands = readme_commands()
    assert len(commands) >= 5
    for argv in commands:
        _resolve(build_parser().parse_args(argv[1:]))  # converts and checks every value; runs nothing
        declared = {"--config", *(p.flag for p in COMMANDS[argv[1]].params)}
        assert [a for a in argv[2:] if a.startswith("--") and a.split("=")[0] not in declared] == [], argv


def test_readme_documents_every_spec_key():
    rows = {line.split("|")[1].strip(" `"): line for line in README.read_text().splitlines() if line.startswith("| `")}
    for t in TRANSFORMS:
        for key, (default, bound) in t.params.items():
            shown = json.dumps(list(default) if isinstance(default, tuple) else default)
            assert f"`{key}` {shown}" in rows[t.name]
            assert not isinstance(bound, str) or bound in rows[t.name]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_every_parameter(command, capsys):
    """Each flag, and each bound beside the default."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for p in COMMANDS[command].params:
        assert p.flag in text
        if p.bound:
            default = "" if p.default is None else f"default: {p.default}, "
            assert f"{default}in {p.bound})" in text
