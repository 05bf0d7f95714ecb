"""Frozen regression for the unstable half of the phase map.

The bundles' default grids are almost all stable single-root or
multi-root cells. The grids below are the ones that hold pump-unstable
cells (one root whose closed-form max Re λ is ≥ 0) and cells with a
parametric state, so they guard the code that decides those labels.
Each cell's phase, root count, parametric flag and c_min (12 decimals,
None on MI) were frozen into ``data/unstable_half.json.gz`` by

    PYTHONPATH=src python tests/test_unstable_half.py

which runs the commands named in the file and keeps the grids their
sweeps return.
"""

import gzip
import json
import math
import sys
from pathlib import Path

import pytest

from kerrcomb import phases
from kerrcomb.cli import main

DATA = Path(__file__).parent / "data" / "unstable_half.json.gz"
FREEZE_COMMAND = "PYTHONPATH=src python tests/test_unstable_half.py"
# grid name -> the command whose sweep returns it
GRIDS = {
    "TE00_L20": ["phase-diagram", "--family", "TE00", "--L", "20"],
    "TE00_L40": ["phase-diagram", "--family", "TE00", "--L", "40"],
    "TE10_L6": ["reproduce", "fig7"],
    "TM10_L6": ["reproduce", "fig7"],
}
# c_min is stored to 12 decimals; allow one rounding step either way
C_MIN_TOL = 1.5e-12


def sweep_grids(argv: list[str], out: Path) -> dict:
    """Every grid a command's sweeps return, by "<family>_L<L>"."""
    original = phases.sweep
    grids = {}

    def sweep(*args, **kwargs):
        grid = original(*args, **kwargs)
        grids[f"{grid.family}_L{grid.L}"] = grid
        return grid

    phases.sweep = sweep
    try:
        assert main([*argv, "--out", str(out)]) == 0
    finally:
        phases.sweep = original
    return grids


def grid_cells(grid) -> dict:
    """The frozen fields of every cell, one string or list per row."""
    return {
        "phase": ["".join(p.phase.value[0] for p in row)
                  for row in grid.points],
        "n_branches": ["".join(str(p.n_branches) for p in row)
                       for row in grid.points],
        "has_parametric": ["".join("1" if p.has_parametric else "0"
                                   for p in row) for row in grid.points],
        "c_min": [[None if math.isnan(p.c_min) else round(p.c_min, 12)
                   for p in row] for row in grid.points],
    }


def current_cells(out: Path) -> dict:
    cells = {}
    for argv in {tuple(a) for a in GRIDS.values()}:
        grids = sweep_grids(list(argv), out / "_".join(argv))
        cells.update({name: grid_cells(grids[name])
                      for name, a in GRIDS.items() if tuple(a) == argv})
    return cells


def unstable_counts(cells: dict) -> tuple[int, int]:
    """(pump-unstable, parametric) cells: MI with one root and no
    parametric state, and cells whose parametric search found one."""
    unstable = parametric = 0
    for phase, n, par in zip(cells["phase"], cells["n_branches"],
                             cells["has_parametric"]):
        unstable += sum(a == "M" and b == "1" and c == "0"
                        for a, b, c in zip(phase, n, par))
        parametric += par.count("1")
    return unstable, parametric


@pytest.fixture(scope="module")
def frozen():
    with gzip.open(DATA, "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return current_cells(tmp_path_factory.mktemp("unstable_half"))


def test_frozen_grids_hold_the_unstable_cells(frozen):
    assert frozen["command"] == FREEZE_COMMAND
    assert frozen["grids"].keys() == GRIDS.keys()
    counts = {name: unstable_counts(frozen["grids"][name]["cells"])
              for name in GRIDS}
    assert counts == {"TE00_L20": (20, 21), "TE00_L40": (1205, 45),
                      "TE10_L6": (2, 2), "TM10_L6": (1, 3)}


@pytest.mark.parametrize("name", list(GRIDS))
def test_grid_matches_frozen_cells(frozen, current, name):
    ref = frozen["grids"][name]
    assert ref["argv"] == GRIDS[name]
    ref, got = ref["cells"], current[name]
    for key in ("phase", "n_branches", "has_parametric"):
        bad = [(i, j) for i, (a, b) in enumerate(zip(ref[key], got[key]))
               for j, (x, y) in enumerate(zip(a, b)) if x != y]
        assert len(got[key]) == len(ref[key]) and not bad, (key, bad[:10])
    bad = [(i, j) for i, (a, b) in enumerate(zip(ref["c_min"], got["c_min"]))
           for j, (x, y) in enumerate(zip(a, b))
           if (x is None) != (y is None)
           or (x is not None and abs(x - y) > C_MIN_TOL)]
    assert not bad, bad[:10]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cells = current_cells(Path(tmp))
    doc = {"command": FREEZE_COMMAND,
           "grids": {name: {"argv": argv, "cells": cells[name]}
                     for name, argv in GRIDS.items()}}
    DATA.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(DATA, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc, separators=(",", ":")).encode())
    print(DATA, file=sys.stderr)
