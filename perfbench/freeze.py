"""Regenerate the gate's reference values in perfbench/reference/.

The references were frozen from the seed commit; rerun this only on a
commit whose numbers are known good, and review the diff it produces:

    python3 perfbench/freeze.py            # all workloads
    python3 perfbench/freeze.py fig4_grid  # one workload

The input pool of threshold_scan is drawn here from a fixed master seed
and stored next to its reference outputs; each benchmark run then picks
its inputs from the pool with --seed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from kerrcomb import cli, fluct, steady  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

MASTER_SEED = 2406
SQRT3 = math.sqrt(3.0)


def _write(name: str, doc: dict) -> None:
    path = wl.REFERENCE_DIR / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":"), sort_keys=True)
                    + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def _run_bundle(workload: wl._CliGrid, size: str) -> tuple[list, Path]:
    grids: list = []
    out = ROOT / ".perfbench_out" / "freeze" / f"{workload.name}.{size}"
    argv = ["reproduce", workload.figure] + workload.grid[size] + [
        "--workers", "1", "--out", str(out)]
    with wl.capture_sweeps(grids), wl.quiet():
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{workload.name} {size}: cli exit code {code}")
    errors = sum(bool(p.error) for g in grids for row in g.points
                 for p in row)
    if errors:
        raise SystemExit(f"{workload.name} {size}: {errors} cell errors")
    return grids, out


def freeze_fig4() -> None:
    workload = wl.WORKLOADS["fig4_grid"]
    for size in ("full", "smoke"):
        grids, _ = _run_bundle(workload, size)
        (grid,) = grids
        cells = wl.grid_cells(grid.points)
        doc = {"delta_axis": grid.delta_axis.tolist(),
               "amplitude_axis": grid.amplitude_axis.tolist(),
               "cells": int(grid.delta_axis.size * grid.amplitude_axis.size),
               "counts": wl.phase_counts(cells), **cells}
        print(f"fig4 {size}: {doc['counts']}")
        _write(f"fig4_grid.{size}.json", doc)


def freeze_fig7() -> None:
    workload = wl.WORKLOADS["fig7_joint_pool"]
    for size in ("full", "smoke"):
        grids, out = _run_bundle(workload, size)
        best = json.loads((out / "fig7_best_pump.json").read_text())
        optimum = {k: best[k] for k in ("delta_p0_hz", "amplitudes_v_per_m",
                                        "worst_c_min", "per_family_c_min")}
        doc = {"cells": sum(g.delta_axis.size * g.amplitude_axis.size
                            for g in grids),
               "optimum": optimum,
               "grids": {f"{g.family}_L{g.L}": wl.grid_cells(g.points)
                         for g in grids}}
        print(f"fig7 {size}: {doc['cells']} cells, optimum {optimum}")
        _write(f"fig7_joint_pool.{size}.json", doc)


def freeze_threshold(n_dtp: int = 6, n_dtl: int = 5,
                     per_stratum: int = 4) -> None:
    """Strata tile Δ̃_p ∈ [−1, 4] × Δ̃_L ∈ (√3, 4]; candidates are uniform
    within their stratum."""
    rng = np.random.default_rng(MASTER_SEED)
    dtp_edges = np.linspace(-1.0, 4.0, n_dtp + 1)
    dtl_edges = np.linspace(SQRT3, 4.0, n_dtl + 1)
    strata = []
    for a in range(n_dtp):
        for b in range(n_dtl):
            stratum = []
            for _ in range(per_stratum):
                dtp = float(rng.uniform(dtp_edges[a], dtp_edges[a + 1]))
                dtl = float(rng.uniform(dtl_edges[b], dtl_edges[b + 1]))
                point = {"dtp": dtp, "dtl": dtl}
                point.update(wl.ThresholdScan.evaluate(point))
                stratum.append(point)
            strata.append(stratum)
    exists = sum(p["exists"] for s in strata for p in s)
    print(f"threshold: {len(strata)} strata, {exists} of "
          f"{len(strata) * per_stratum} candidates oscillate")
    _write("threshold_scan.json", {"strata": strata})


def freeze_witness(n_points: int = 160, n_omega: int = 64) -> None:
    """Below-threshold points: Δ̃_L < √3, one stable pump-only root and a
    fluctuation matrix that decays at rate > 0.02 (so iω − M is regular
    for every ω)."""
    rng = np.random.default_rng(MASTER_SEED)
    workload = wl.WORKLOADS["witness_spectrum"]
    omega = np.linspace(0.0, 3.0, n_omega).tolist()
    points = []
    while len(points) < n_points:
        dtp = float(rng.uniform(-1.0, 1.5))
        dtl = dtp + float(rng.uniform(0.0, 0.2))
        f_norm = float(rng.uniform(0.05, 1.2))
        roots = steady.pump_only_branches(f_norm, dtp)
        if len(roots) != 1 or not roots[0].stable:
            continue
        system = fluct.build_m(roots[0], dtl, intrinsic_fraction=0.45)
        if fluct.max_eigenvalue_real(system) >= -0.02:
            continue
        point = {"id": len(points), "f_norm": f_norm, "dtp": dtp, "dtl": dtl}
        point["c_min"] = [wl.round_c_min(workload.evaluate(point, w).c_min)
                          for w in omega]
        points.append(point)
    _write("witness_spectrum.json", {"omega": omega, "points": points})


FREEZERS = {"fig4_grid": freeze_fig4, "fig7_joint_pool": freeze_fig7,
            "threshold_scan": freeze_threshold,
            "witness_spectrum": freeze_witness}


if __name__ == "__main__":
    for name in sys.argv[1:] or list(FREEZERS):
        FREEZERS[name]()
