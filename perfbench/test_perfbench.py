"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Span, self_times

run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_prints_the_declared_metrics(workload, trace, tmp_path):
    result = run.run(workload, seed=3, seconds=0, trace=trace, dims=32, work=tmp_path / "work", trace_out=tmp_path)
    printed = json.loads(json.dumps(run.result_json(result)))
    assert printed["correct"] is True
    assert printed["failed"] == 0
    assert printed["attempted"] == workloads.WORKLOADS[workload].cohort * (2 if trace else 1)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in printed["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in printed["metrics"].values())
    lines = run.report(result, 0)
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] for line in lines), m["name"]
    assert not (tmp_path / "work").exists()


def test_a_failed_check_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WARMUP_DIMS", 24)  # the warm-up scans pass, the measured 32-cube scans fail
    monkeypatch.setattr(
        workloads.Noisy128, "check_output", lambda self, out: ["forced failure"] if out.arrays["pred"].dims[0] == 32 else []
    )
    result = run.run("noisy-128", seed=3, seconds=0, trace=False, dims=32, work=tmp_path / "work")
    assert not result.correct
    assert result.failed == len(result.scans) == workloads.Noisy128.cohort
    assert any("forced failure" in line for line in run.report(result, 0))


def test_a_scan_that_raises_fails_the_run(tmp_path, monkeypatch):
    original = workloads.Noisy128.scan

    def scan(self, state, seed):
        if state["dims"] == 32:
            raise ValueError("forced error")
        return original(self, state, seed)

    monkeypatch.setattr(run, "WARMUP_DIMS", 24)
    monkeypatch.setattr(workloads.Noisy128, "scan", scan)
    result = run.run("noisy-128", seed=3, seconds=0, trace=False, dims=32, work=tmp_path / "work")
    assert result.failed == len(result.scans) == workloads.Noisy128.cohort
    assert run.result_json(result)["correct"] is False


def _span(name, start, end, parent=None):
    return Span(name, "scan-0", start, end, parent)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("cli.command.augment", 0.0, 10.0),  # 0
        _span("scanio.read", 1.0, 2.0, 0),  # 1
        _span("augment.apply", 2.0, 7.0, 0),  # 2
        _span("augment.elastic", 2.5, 5.0, 2),  # 3
        _span("augment.blur", 4.0, 6.0, 2),  # 4: overlaps 3, counted once
        _span("scanio.write", 8.0, 12.0, 0),  # 5: runs past its parent, clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 1.0 - 5.0 - 2.0, 1.0, 5.0 - 3.5, 2.5, 2.0, 4.0])


def test_per_layer_sums_spans_per_scan_and_counts_setup_apart():
    spans = [
        Span("setup", "setup", 0.0, 4.0),
        Span("phantom.generate", "setup", 0.5, 3.5, 0),
        Span("scan", "scan-0", 10.0, 20.0),
        Span("cli.command.augment", "scan-0", 10.0, 19.0, 2),
        Span("augment.apply", "scan-0", 11.0, 17.0, 3, {"fired.elastic": 1}),
        Span("augment.elastic", "scan-0", 12.0, 16.0, 4),
        Span("scan", "scan-1", 20.0, 30.0),
        Span("cli.command.augment", "scan-1", 20.0, 28.0, 6),
        Span("augment.apply", "scan-1", 21.0, 23.0, 7, {"fired.elastic": 0}),
    ]
    out = layers.per_layer(spans, n_scans=2, n_setups=1, untraced_scan_s=[9.0, 9.0], traced_scan_s=[10.0, 10.0])
    assert out["setup.phantom.generate_s"] == pytest.approx(3.0)
    assert out["phantom.generate_s"] == 0.0
    assert out["augment.apply_s"] == pytest.approx((6.0 + 2.0) / 2)
    assert out["augment.apply_self_s"] == pytest.approx((2.0 + 2.0) / 2)
    assert out["augment.elastic_s"] == pytest.approx(2.0)
    assert out["augment.fired.elastic"] == pytest.approx(0.5)
    assert out["cli.command_s.augment"] == pytest.approx((9.0 + 8.0) / 2)
    assert out["cli.self_s"] == pytest.approx((3.0 + 6.0) / 2)
    assert out["trace.overhead_frac"] == pytest.approx(10.0 / 9.0 - 1.0)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    times = [float(i) for i in range(1, 41)]
    assert run.tail(times) == (30.0, 75.0, 10)


def test_without_the_program_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-256", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
