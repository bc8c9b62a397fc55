"""Closed-loop benchmark of the cmbpipe pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle-256 --seed 1 --seconds 15 --trace 0

One process runs one workload: scans run one at a time, each starting when
the previous scan and its output check have finished, with no worker pool.
Scans run in whole cohorts for about ``--seconds``. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run alternates an untraced and a
traced pass over the same cohort and the JSON holds the per-layer metrics.
The lines before it are a readable report. The exit code is 0 only if every
scan passed its output check; it is 2, with no JSON, when the program's
sources are missing.
"""

import time

T_START = time.perf_counter()  # process start, less interpreter start-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
WARMUP_DIMS = 32
TAIL_BEYOND = 10

# (metric, unit, better); the order the report and the JSON use.
END_TO_END = (
    ("scans_per_s", "1/s", "higher"),
    ("scan_s_p50", "s", "lower"),
    ("scan_s_tail", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)
WORKLOAD_NAMES = ("oracle-256", "reference-128", "noisy-128", "prep-cli-128")


class ProgramMissing(RuntimeError):
    pass


def import_program() -> None:
    """Import ``cmbpipe`` from this checkout's ``src``, never from anywhere else."""
    init = SRC / "cmbpipe" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no cmbpipe sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cmbpipe

    if Path(cmbpipe.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"imported cmbpipe from {cmbpipe.__file__}, not from {SRC}")


@dataclass
class ScanRecord:
    k: int
    seconds: float
    traced: bool
    problems: list[str]


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    scans: list[ScanRecord] = field(default_factory=list)
    cohort_s: float = 0.0  # timed cohort steps of untraced passes
    cohorts: int = 0
    import_s: float = 0.0
    setup_runs_s: list[float] = field(default_factory=list)
    quality: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    peak_rss_mib: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for s in self.scans if s.problems)

    @property
    def correct(self) -> bool:
        return bool(self.scans) and self.failed == 0


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with ten samples beyond it.

    Only a percentile at or above the median counts as a tail. With fewer
    than twenty samples none has ten beyond it, and the maximum is reported
    with zero beyond.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def run_scan(wl, state, k: int, tracer=None) -> tuple[ScanRecord, object]:
    inp = wl.inputs(state, k)
    out = None
    gc.collect()  # every scan starts from the same collector state, whatever the checks left behind
    if tracer is not None:
        tracer.scan = f"scan-{k}"
    t0 = time.perf_counter()
    try:
        with tracer.span("scan") if tracer is not None else contextlib.nullcontext():
            out = wl.scan(state, inp)
    except Exception as exc:  # noqa: BLE001 - a scan that raises is a failed scan, not a crashed run
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        return ScanRecord(k, seconds, tracer is not None, [f"raised {type(exc).__name__}: {exc}"]), None
    seconds = time.perf_counter() - t0
    try:
        problems = wl.check(state, inp, out)
    except Exception as exc:  # noqa: BLE001 - likewise for a check that raises
        traceback.print_exc()
        problems = [f"output check raised {type(exc).__name__}: {exc}"]
    return ScanRecord(k, seconds, tracer is not None, problems), out


def run_cohort(wl, state, first: int, result: RunResult, tracer=None) -> list[float]:
    """One cohort of scans then its timed cohort step; returns the scan times."""
    outputs, times = [], []
    for k in range(first, first + wl.cohort):
        rec, out = run_scan(wl, state, k, tracer)
        result.scans.append(rec)
        times.append(rec.seconds)
        if out is not None:
            outputs.append(out)
    if len(outputs) < wl.cohort:  # a scan raised: the run has failed, and the cohort step needs every output
        return times
    t0 = time.perf_counter()
    if tracer is None:
        wl.end_cohort(state, outputs)
        result.cohort_s += time.perf_counter() - t0
    else:
        tracer.scan = f"cohort-{first}"
        with tracer.span("cohort"):
            wl.end_cohort(state, outputs)
    return times


def setup(wl, seed: int, dims: int, work: Path, tracer=None):
    """Input generation plus one warm-up scan at a tiny size through the same path and check."""
    if tracer is not None:
        tracer.scan = "setup"
    with tracer.span("setup") if tracer is not None else contextlib.nullcontext():
        state = wl.setup(seed, work / "inputs", dims)
    warm = wl.setup(seed, work / "warmup", min(WARMUP_DIMS, dims))
    rec, _ = run_scan(wl, warm, 0)
    if rec.problems:
        raise RuntimeError(f"warm-up scan failed: {rec.problems}")
    return state


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    dims: int | None = None,
    work: Path = WORK,
    trace_out: Path = TRACE_OUT,
) -> RunResult:
    """Set up ``SETUP_REPEATS`` times, then run whole cohorts for about ``seconds``.

    A new cohort starts only if, at the mean cohort length so far, it would
    end less than half a cohort after ``seconds``; at least one runs. Whole
    cohorts keep the mix of work the same whatever the machine's speed, and
    the rule keeps a run near ``seconds`` even when a cohort is long.
    """
    import workloads

    wl = workloads.WORKLOADS[workload]
    dims = dims or wl.dims
    result = RunResult(workload, seed, trace, import_s=time.perf_counter() - T_START)
    tracer = None
    if trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
    shutil.rmtree(work, ignore_errors=True)
    try:
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = setup(wl, seed, dims, work / f"setup-{rep}", tracer)
            result.setup_runs_s.append(time.perf_counter() - t0)
        untraced_s, traced_s = [], []
        t_start = time.perf_counter()
        while True:
            first = result.cohorts * wl.cohort
            untraced_s += run_cohort(wl, state, first, result)
            if tracer is not None:
                traced_s += run_cohort(wl, state, first, result, tracer)
            result.cohorts += 1
            elapsed = time.perf_counter() - t_start
            if elapsed + 0.5 * elapsed / result.cohorts > seconds:  # the next cohort would end over half a cohort late
                break
        result.quality = wl.quality(state)
        if tracer is not None:
            n_traced = sum(1 for s in result.scans if s.traced)
            result.layers = layers.per_layer(tracer.spans, n_traced, SETUP_REPEATS, untraced_s, traced_s)
            trace_out.mkdir(exist_ok=True)
            with open(trace_out / f"spans_{workload}_seed{seed}.json", "w") as fh:
                json.dump([asdict(s) for s in tracer.spans], fh)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
        shutil.rmtree(work, ignore_errors=True)
    result.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def end_to_end(result: RunResult) -> dict:
    times = [s.seconds for s in result.scans if not s.traced]
    completed = sum(1 for s in result.scans if not s.traced and not s.problems)
    value, _, _ = tail(times)
    return {
        "scans_per_s": completed / (sum(times) + result.cohort_s),
        "scan_s_p50": statistics.median(times),
        "scan_s_tail": value,
        "setup_s": result.import_s + statistics.median(result.setup_runs_s),
        "peak_rss_mib": result.peak_rss_mib,
    }


def report(result: RunResult, seconds: float) -> list[str]:
    """The readable lines printed before the JSON result."""
    import workloads

    wl = workloads.WORKLOADS[result.workload]
    n = len(result.scans)
    lines = [
        f"workload {result.workload}  seed {result.seed}  seconds {seconds:g}  trace {int(result.trace)}",
        f"closed loop, 1 client, 1 process, no pool: {n} scans in {result.cohorts} cohort(s) of {wl.cohort}"
        + ("; each cohort runs untraced, then traced" if result.trace else ""),
        f"{'metric':<34}{'value':>16}  {'unit':<8}better",
    ]
    e2e = end_to_end(result)
    times = [s.seconds for s in result.scans if not s.traced]
    for name, unit, better in END_TO_END:
        note = ""
        if name == "scan_s_tail":
            _, pct, beyond = tail(times)
            note = f"  (p{pct:g}, {beyond} beyond, {len(times)} scans)"
        elif name == "setup_s":
            note = f"  (imports {result.import_s:.3f} + median of {len(result.setup_runs_s)} set-ups)"
        lines.append(f"{name:<34}{e2e[name]:>16.6g}  {unit:<8}{better}{note}")
    lines.append("scan wall times, s: " + " ".join(f"{t:.3f}" for t in times))
    lines.append(f"{'failed_frac':<34}{result.failed / max(n, 1):>16.6g}  {'ratio':<8}lower  ({result.failed} of {n})")
    for name, value, unit, better in result.quality:
        shown = "NA" if value is None else f"{value:.6g}"
        lines.append(f"{name:<34}{shown:>16}  {unit:<8}{better}")
    for s in result.scans:
        for problem in s.problems:
            lines.append(f"FAILED scan {s.k}{' (traced)' if s.traced else ''}: {problem}")
    if result.layers:
        import layers

        scan_s = result.layers["trace.scan_s"]
        lines.append(f"per-layer, per traced scan (share of the traced scan time {scan_s:.4g} s):")
        for name, unit, _ in layers.PER_LAYER:
            value = result.layers[name]
            share = f"  {100.0 * value / scan_s:5.1f} %" if unit == "s" and not name.startswith(("setup.", "trace.")) else ""
            computed = "  (computed from array sizes)" if name.endswith("_bytes_computed") else ""
            lines.append(f"  {name:<40}{value:>16.6g}  {unit:<6}{share}{computed}")
        untraced_s = result.layers["trace.untraced_scan_s"]
        lines.append(
            f"tracing overhead: traced {1.0 / scan_s:.4g} scans/s against untraced {1.0 / untraced_s:.4g} scans/s"
            f" on the same cohorts ({100.0 * result.layers['trace.overhead_frac']:+.2f} % per scan)"
        )
    return lines


def result_json(result: RunResult) -> dict:
    if result.trace:
        import layers

        metrics = {name: {"value": result.layers[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    else:
        e2e = end_to_end(result)
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    return {"correct": result.correct, "attempted": len(result.scans), "failed": result.failed, "metrics": metrics}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("CMBPIPE_JOBS", None)  # no run may start more threads than the machine has
    sys.dont_write_bytecode = True  # every run compiles the same sources, so set-up time does not depend on earlier runs
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report(result, args.seconds):
        print(line)
    print(json.dumps(result_json(result)))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
