"""Tests of the benchmark harness itself (not part of the Tier-1 suite).

    python3 -m pytest perfbench/tests -q

Smoke-size runs of every workload in timed and traced mode, the
traced/untraced identity of outputs, the metric names and units that
BENCHMARK.json promises, and the gate's ability to fail.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as wl  # noqa: E402
from perfbench.hostprobe import REF_PROBE_S, HostProbe  # noqa: E402
from perfbench.run import OUT_DIR  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_spec_names_the_registered_workloads():
    assert SPEC_WORKLOADS == list(wl.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", SPEC_WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    proc = _run(["--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    record = json.loads(lines[-2])["record"]
    assert record["machine"]["nproc"] >= 1
    assert record["machine"]["thread_caps"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert set(record["traffic"]) == {
            "phase_mix", "parametric_scan_share", "parametric_hit_ratio",
            "multi_root_share", "entangled_ratio"}
        assert (ROOT / record["spans_file"]).is_file()
    else:
        assert all(v > 0 for v in (m["value"]
                                   for m in result["metrics"].values()))


@pytest.mark.parametrize("name", [n for n in SPEC_WORKLOADS
                                  if n != "oracle_langevin"])
def test_traced_pass_matches_untraced_pass(name):
    workload = wl.WORKLOADS[name]
    inp = workload.inputs(5, "smoke")
    out = OUT_DIR / "tests"
    plain = workload.run_pass(inp, out, 1)
    tracer = Tracer()
    with tracer:
        traced = workload.run_pass(inp, out, 1, tracer=tracer)
    assert plain.failed == traced.failed == 0, plain.problems
    assert traced.outputs == plain.outputs
    assert tracer.spans
    if "counts" in plain.outputs:
        assert {p: tracer.counts[f"cells.{p}"] for p in ("NE", "ET", "MI")} \
            == plain.outputs["counts"]
    if name == "fig7_joint_pool":
        letters = "".join(row for cells in plain.outputs["cells"].values()
                          for row in cells["phase"])
        assert {p: tracer.counts[f"cells.{p}"] for p in ("NE", "ET", "MI")} \
            == {p: letters.count(p[0]) for p in ("NE", "ET", "MI")}


def test_tracer_restores_functions_and_nests_spans():
    from kerrcomb import phases, steady
    original = steady.parametric_branch
    tracer = Tracer()
    with tracer:
        assert phases.parametric_branch is not original
        steady.threshold(0.5, 2.2)
    assert steady.parametric_branch is original
    assert phases.parametric_branch is original
    totals = tracer.layer_totals()
    assert totals["steady.threshold"]["calls"] == 1
    assert totals["steady.parametric_branch"]["calls"] > 10
    threshold_span = next(i for i, s in enumerate(tracer.spans)
                          if s[0] == "steady.threshold")
    assert all(s[3] == threshold_span for s in tracer.spans
               if s[0] == "steady.parametric_branch")
    t = totals["steady.threshold"]
    assert 0.0 < t["self_s"] < t["total_s"]


def test_gate_catches_changed_cells_and_optimum():
    ref = wl.load_reference("fig7_joint_pool.smoke.json")
    label, cells = next(iter(ref["grids"].items()))
    changed = {"phase": list(cells["phase"]), "c_min": cells["c_min"]}
    row = changed["phase"][0]
    changed["phase"][0] = ("N" if row[0] != "N" else "E") + row[1:]
    problems: list[str] = []
    assert wl.compare_cells(label, cells, changed, problems) == 1
    assert wl.compare_cells(label, cells, cells, []) == 0
    optimum = json.loads(json.dumps(ref["optimum"]))
    assert wl.Fig7JointPool.optimum_matches(ref["optimum"], optimum)
    optimum["worst_c_min"] += 1e-6
    assert not wl.Fig7JointPool.optimum_matches(ref["optimum"], optimum)


def test_fig4_reference_holds_the_seed_phase_mix():
    ref = wl.load_reference("fig4_grid.full.json")
    assert ref["counts"] == {"NE": 162, "ET": 3649, "MI": 285}
    assert wl.phase_counts(ref) == ref["counts"]


def test_host_probe_scales_work_time():
    probe = HostProbe(period=0.2)
    probe.starts = [0.0, 0.2, 0.4, 0.6]
    probe.walls = [0.01] * 4
    probe.durations = [2 * REF_PROBE_S] * 4    # a host at half speed
    # [0.1, 0.5] holds the probes started at 0.2 and 0.4
    assert probe.work_s(0.1, 0.5) == pytest.approx(0.38)
    assert probe.scaled(0.1, 0.5) == pytest.approx(0.19)
    probe.inline = False                       # probes ran beside the work
    assert probe.scaled(0.1, 0.5) == pytest.approx(0.2)
    # the host slows down halfway: each stretch between probes is
    # scaled by the median of the probes within a period of it
    probe.inline = True
    probe.durations = [REF_PROBE_S] * 2 + [2 * REF_PROBE_S] * 2
    assert probe.scaled(0.1, 0.5) == pytest.approx(
        0.1 / 1 + 0.19 / 1.5 + 0.09 / 2)


def test_host_probe_runs_during_work():
    from time import perf_counter
    with HostProbe(period=0.05) as probe:
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
    assert len(probe.starts) >= 4
    assert all(d > 0 for d in probe.durations)


def test_inputs_follow_the_seed():
    workload = wl.WORKLOADS["threshold_scan"]
    a, b = workload.inputs(7, "full"), workload.inputs(7, "full")
    assert a == b
    b = workload.inputs(8, "full")
    assert a["passes"] != b["passes"]
    key = lambda p: (p["dtp"], p["dtl"])  # noqa: E731
    pool = sorted(key(p) for points in a["passes"] for p in points)
    assert len(pool) == len(set(pool)) == 120
    assert pool == sorted(key(p) for points in b["passes"] for p in points)
    strata = wl.load_reference("threshold_scan.json")["strata"]
    for points in a["passes"]:  # one point from each stratum
        assert sorted(next(i for i, s in enumerate(strata) if p in s)
                      for p in points) == list(range(30))
    assert workload.pass_points(a, 4) == a["passes"][0]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""
