import json

import numpy as np

from cmbpipe.cli import main
from cmbpipe.scanio import read_manifest, read_mask, read_volume


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
        ) == 0
        assert run(
            "fuse",
            "--manifest", data / "manifest.jsonl",
            "--prob-dir", work / "prob",
            "--out", work,
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

        def write_detections(path, counts, volume=8.0):
            with open(path, "w") as fh:
                for i, c in enumerate(counts):
                    dets = [
                        {
                            "id": k + 1,
                            "centroid_mm": [float(k), 0.0, 0.0],
                            "volume_mm3": volume,
                            "voxel_count": 8,
                            "bbox": [[0, 0, 0], [1, 1, 1]],
                        }
                        for k in range(c)
                    ]
                    fh.write(json.dumps({"scan_id": f"s{i}", "detections": dets}) + "\n")

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


class TestConfigAndErrors:
    def test_usage_error_exit_1(self, capsys):
        assert run("segment") == 1  # missing required params

    def test_unknown_command_exit_1(self):
        assert run("frobnicate") == 1

    def test_data_error_exit_2(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text('{"scan_id": "x"}\n')
        assert run("detect", "--manifest", manifest, "--masks-dir", tmp_path, "--out", tmp_path / "o") == 2

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
