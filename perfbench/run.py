"""Run one kerrcomb benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload fig4_grid --seed 1 --seconds 20 --trace 0

With --trace 0 the run times whole passes of the workload for about
--seconds seconds with tracing off and reports the end-to-end metrics,
its times scaled to a reference host speed by perfbench/hostprobe.py.
With --trace 1 it runs one untraced and one traced serial pass and
reports per-layer metrics from spans recorded around kerrcomb's public
functions. Either way every pass is gated against reference values, and
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it carries the run
record: machine, inputs, traffic properties and gate details. Run
artefacts go to .perfbench_out/ at the repository root.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# BLAS/OpenMP thread cap, set before numpy loads: one thread per process
# keeps workers × threads ≤ nproc for every workload.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

if not (ROOT / "src" / "kerrcomb" / "__init__.py").is_file():
    sys.exit(f"perfbench: no kerrcomb sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from kerrcomb.config import load_config  # noqa: E402
from perfbench.hostprobe import REF_PROBE_S, HostProbe  # noqa: E402
from perfbench.tracer import TRACED, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, PassResult, Workload  # noqa: E402

SETUP_PROBES = 5
# the highest percentile with at least ten samples beyond it on the
# per-item workload; the same percentile on the others
TAIL_PERCENTILE = 75.0

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms",
                    "item_ms_tail": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for mod, fn in TRACED:
        units.update({f"{mod}.{fn}.calls": "count", f"{mod}.{fn}.self_s": "s",
                      f"{mod}.{fn}.us_per_call": "us",
                      f"{mod}.{fn}.errors": "count"})
    units.update({
        "steady.parametric_branch.scan_share": "ratio",
        "steady.parametric_branch.hit_ratio": "ratio",
        "duan.entangled_ratio": "ratio",
        "phases.cells.NE": "count", "phases.cells.ET": "count",
        "phases.cells.MI": "count", "phases.cells.error": "count",
        "manifest.write_output.bytes": "bytes",
        "phases.sweep.parallel_efficiency": "ratio",
        "trace.overhead_s": "s",
    })
    return units


# ------------------------------------------------------------- records


def machine_record() -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "start_method": multiprocessing.get_start_method(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
    }


class PeakRss:
    """Peak resident memory of this process plus all its descendants.

    A background thread sums VmRSS over the process tree every
    ``interval`` seconds; the process's own high-water mark covers
    peaks between samples.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _rss_kb(pid: int) -> int:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
        except (OSError, ValueError):
            pass
        return 0

    @staticmethod
    def _children(pid: int) -> list[int]:
        kids = []
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
                kids.extend(int(k) for k in text.split())
        except OSError:
            pass
        return kids

    def sample(self) -> None:
        total, stack = 0, [os.getpid()]
        while stack:
            pid = stack.pop()
            total += self._rss_kb(pid)
            stack.extend(self._children(pid))
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "PeakRss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.peak_kb = max(self.peak_kb, own_kb)


# ------------------------------------------------------------- runs


def setup_probe_seconds(args) -> list[float]:
    """Wall time of fresh processes that import kerrcomb, load the
    packaged config, build the workload's inputs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def prepare(workload: Workload, args) -> dict:
    load_config()
    inp = workload.inputs(args.seed, args.size)
    workload.warm_up(inp, OUT_DIR / "warm_up" / workload.name)
    return inp


def measure(workload: Workload, inp: dict, seconds: float) -> list[PassResult]:
    """Whole passes until about ``seconds`` have gone by (at least one)."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(workload.run_pass(inp, OUT_DIR, workload.workers,
                                        pass_no=len(passes)))
        elapsed = perf_counter() - start
        # stop where the next pass would end further from the target
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def timings(workload: Workload, passes: list[PassResult],
            span_s) -> dict:
    """Throughput and item latencies, with ``span_s(start, end)`` as the
    duration of a timed interval."""
    if workload.per_item:
        samples = [span_s(a, b) * 1e3 for p in passes for a, b in p.item_spans]
    else:
        # one public call covers every item: amortized time per item
        samples = [span_s(p.start, p.end) * 1e3 / p.items for p in passes]
    tail = float(np.percentile(samples, TAIL_PERCENTILE))
    return {"items_per_s": sum(p.items for p in passes)
            / sum(span_s(p.start, p.end) for p in passes),
            "item_ms_p50": statistics.median(samples), "item_ms_tail": tail,
            "tail_percentile": TAIL_PERCENTILE, "samples": len(samples),
            "samples_beyond_tail": sum(ms > tail for ms in samples),
            "sample": "per item" if workload.per_item
                      else "pass wall / items, one per pass"}


def timed_run(workload: Workload, args, record: dict) -> tuple[list, dict]:
    setup = setup_probe_seconds(args)
    inp = prepare(workload, args)
    probe = HostProbe(inline=workload.workers == 1)
    with PeakRss() as rss, probe:
        passes = measure(workload, inp, args.seconds)
    raw = timings(workload, passes, lambda a, b: b - a)
    timed = timings(workload, passes, probe.scaled)
    values = dict(timed, setup_s=statistics.median(setup),
                  peak_rss_mb=rss.peak_kb / 1024.0)
    slowdowns = [d / REF_PROBE_S for d in probe.durations]
    record.update(setup_probe_s=setup, timings=timed, raw_timings=raw,
                  pass_wall_s=[p.wall_s for p in passes], host_probe={
                      "probes": len(slowdowns), "period_s": probe.period,
                      "inline": probe.inline, "ref_probe_s": REF_PROBE_S,
                      "slowdown_quartiles": statistics.quantiles(slowdowns,
                                                                 n=4)})
    return passes, {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}


def traffic_record(totals: dict, counts) -> dict:
    def share(num: int, den: int) -> dict:
        return {"count": num, "of": den, "share": num / den if den else 0.0}

    return {
        "phase_mix": {k: counts[f"cells.{k}"]
                      for k in ("NE", "ET", "MI", "error")},
        "parametric_scan_share": share(
            counts["parametric.scan"],
            totals["steady.parametric_branch"]["calls"]),
        "parametric_hit_ratio": share(counts["parametric.hit"],
                                      counts["parametric.scan"]),
        "multi_root_share": share(
            counts["pump_only.multi_root"],
            totals["steady.pump_only_branches"]["calls"]),
        "entangled_ratio": share(counts["duan.entangled"],
                                 totals["duan.minimize_duan"]["calls"]),
    }


def traced_run(workload: Workload, args, record: dict) -> tuple[list, dict]:
    inp = prepare(workload, args)
    untraced = workload.run_pass(inp, OUT_DIR, 1)
    passes = [untraced]
    parallel_wall = untraced.wall_s
    if workload.workers > 1:
        parallel = workload.run_pass(inp, OUT_DIR, workload.workers)
        passes.append(parallel)
        parallel_wall = parallel.wall_s
    tracer = Tracer()
    with tracer:
        traced = workload.run_pass(inp, OUT_DIR, 1, tracer=tracer)
    passes.append(traced)
    if traced.outputs != untraced.outputs:
        traced.problems.append("traced outputs differ from untraced outputs")
        traced.failed = max(traced.failed, 1)

    totals = tracer.layer_totals()
    counts = tracer.counts
    values = {}
    for name, t in totals.items():
        values[f"{name}.calls"] = t["calls"]
        values[f"{name}.self_s"] = t["self_s"]
        values[f"{name}.us_per_call"] = (t["total_s"] / t["calls"] * 1e6
                                         if t["calls"] else 0.0)
        values[f"{name}.errors"] = t["errors"]
    traffic = traffic_record(totals, counts)
    values["steady.parametric_branch.scan_share"] = \
        traffic["parametric_scan_share"]["share"]
    values["steady.parametric_branch.hit_ratio"] = \
        traffic["parametric_hit_ratio"]["share"]
    values["duan.entangled_ratio"] = traffic["entangled_ratio"]["share"]
    for phase, n in traffic["phase_mix"].items():
        values[f"phases.cells.{phase}"] = n
    values["manifest.write_output.bytes"] = counts["write_output.bytes"]
    cell_s = totals["phases.classify_drive"]["total_s"]
    values["phases.sweep.parallel_efficiency"] = (
        cell_s / (workload.workers * parallel_wall))
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s

    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
    tracer.write(spans_path)
    record.update(traffic=traffic, spans=len(tracer.spans),
                  spans_file=str(spans_path.relative_to(ROOT)),
                  untraced_wall_s=untraced.wall_s,
                  parallel_wall_s=parallel_wall, traced_wall_s=traced.wall_s)
    units = per_layer_units()
    return passes, {k: (values[k], u) for k, u in units.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def summarize(outputs: dict) -> dict:
    """The small, human-readable part of a pass's outputs."""
    return {k: v for k, v in outputs.items()
            if k in ("counts", "optimum", "max_abs_z")}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        prepare(workload, args)
        return 0
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "item": workload.item,
              "workers": workload.workers, "machine": machine_record()}
    run = traced_run if args.trace else timed_run
    passes, metrics = run(workload, args, record)

    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    correct = failed == 0 and not problems
    record.update(passes=len(passes), attempted=attempted, failed=failed,
                  failed_ratio=failed / attempted, problems=problems[:20],
                  outputs_summary=summarize(passes[-1].outputs))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}"
               ".json").write_text(json.dumps({"record": record,
                                               "result": result}, indent=1)
                                   + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
