"""Mutation catalogue: small code changes the test suite must catch.

Each entry names a file, an exact snippet ``old`` that occurs once in
it, its replacement ``new``, and the test node ids that must fail once
``old`` is replaced. tests/test_mutants.py checks in Tier-1 that every
``old`` still occurs exactly once and that every test id exists, so a
change that moves guarded code must move its mutant too.

Running the mutants is opt-in and takes seconds per mutant:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

For each mutant the runner copies src/ to a temporary directory, applies
the mutation there, and runs only the mutant's tests against the copy
with ``pytest -x``. A mutant whose tests fail is killed; one whose tests
pass survives. The runner exits 1 if any mutant survives and 2 if a run
could not be judged (pytest neither passed nor failed, say an unknown
test id).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root, under src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


_STEADY = "src/kerrcomb/steady.py"
_CLI = "src/kerrcomb/cli.py"
_SVG = "src/kerrcomb/svg.py"
_WRITERS = "tests/test_bundle_writers.py"
_KERNELS = "tests/test_threshold_kernels.py"

MUTANTS = (
    # the bracket search moves lo on a zero product: a step whose left
    # sample equals F² then converges to its right end
    Mutant("bracket-keeps-lo-at-zero", _STEADY,
           old="        if (x * (g * g + h * h) - f_sq) * side > 0.0:\n",
           new="        if (x * (g * g + h * h) - f_sq) * side >= 0.0:\n",
           tests=("tests/test_steady.py::TestBracketRoot::"
                  "test_matches_array_bisection",)),
    # the bracket search probes all 60 steps: same result, more probes
    Mutant("bracket-no-repeat-stop", _STEADY,
           old="            if x == lo:\n                break\n"
               "            lo = x\n        elif x == hi:\n"
               "            break\n        else:\n            hi = x\n",
           new="            lo = x\n        else:\n            hi = x\n",
           tests=("tests/test_steady.py::TestBracketRoot::"
                  "test_stops_when_it_repeats",)),
    # threshold's curve minimum takes samples with y = 0, which lie on
    # the pump-only cubic and not on a parametric state
    Mutant("threshold-minimum-takes-y-zero", _STEADY,
           old="            pos = ys > 0.0\n            f_sq = _drive_sq(",
           new="            pos = ys >= 0.0\n            f_sq = _drive_sq(",
           tests=("tests/test_steady.py::TestThresholdMinimum::"
                  "test_y_positive_subset_changes_no_bit",)),
    # the cached F² range drops its lower end, where a bracket can sit
    Mutant("scan-range-open-below", _STEADY,
           old="if not f_lo <= f_sq <= f_hi:",
           new="if not f_lo < f_sq <= f_hi:",
           tests=("tests/test_steady.py::TestScanRange::"
                  "test_range_ends_are_searched",)),
    # threshold's blockwise grid ends on k·step + 1.0, not on stop
    Mutant("threshold-grid-end-not-stop", _STEADY,
           old="            xs[-1] = stop\n",
           new="            pass\n",
           tests=(f"{_KERNELS}::test_threshold_grid_is_linspace",)),
    # a step whose bound equals F² is not searched: a left sample equal
    # to F² no longer brackets it
    Mutant("step-bounds-strict", _STEADY,
           old="(bounds[0] <= f_sq) & (f_sq <= bounds[1])",
           new="(bounds[0] < f_sq) & (f_sq <= bounds[1])",
           tests=(f"{_KERNELS}::"
                  "test_bracket_selection_bit_identical_to_reference",)),
    # the step bounds take NaN in: a left sample equal to F² beside a
    # NaN one no longer brackets it
    Mutant("step-bounds-propagate-nan", _STEADY,
           old="[np.fmin(left, right), np.fmax(left, right)]",
           new="[np.minimum(left, right), np.maximum(left, right)]",
           tests=(f"{_KERNELS}::"
                  "test_bracket_selection_bit_identical_to_reference",)),
    # every parametric root is called stable
    Mutant("every-parametric-root-stable", _STEADY,
           old="        stable = u < 0.0 and bool(",
           new="        stable = True or bool(",
           tests=("tests/test_time_domain.py::"
                  "test_parametric_roots_are_fixed_points_and_stable_ones_"
                  "return",)),
    # a weakly unstable pump-only cell is classified by its witness
    Mutant("mi-margin", "src/kerrcomb/phases.py",
           old="                or self.max_eig_re >= 0.0)",
           new="                or self.max_eig_re >= 0.01)",
           tests=("tests/test_unstable_half.py::"
                  "test_frozen_grids_hold_the_unstable_cells",
                  "tests/test_time_domain.py::"
                  "test_unstable_cells_grow_at_the_closed_form_rate")),
    # the closed-form pump-only growth rate off by 0.1 %
    Mutant("pump-rate-scaled", "src/kerrcomb/phases.py",
           old="    return -1.0 + math.sqrt(d) if d >= 0.0 else -1.0",
           new="    return -1.0 + 1.001 * math.sqrt(d) if d >= 0.0 else -1.0",
           tests=("tests/test_time_domain.py::"
                  "test_unstable_cells_grow_at_the_closed_form_rate",)),
    # the Langevin chunk map feeds the input noise back with the wrong sign
    Mutant("langevin-gain-sign", "src/kerrcomb/oracle.py",
           old="    gain = np.vstack((eye, -(t_in / 2.0) * eye))",
           new="    gain = np.vstack((eye, (t_in / 2.0) * eye))",
           tests=("tests/test_oracle.py::TestChunkMap::"
                  "test_matches_one_step_recursion",)),
    # argparse's prefix matching back on: `--om` would read as --omega
    Mutant("cli-flag-prefixes", _CLI,
           old="allow_abbrev=False",
           new="allow_abbrev=True",
           tests=("tests/test_config_cli.py::TestCli::"
                  "test_no_leaf_takes_a_flag_prefix",)),
    # the pump-only polish stops a decade early: roots move in the last bits
    Mutant("cubic-polish-stop-early", _STEADY,
           old="if abs(step) < 1e-16 * max(1.0, abs(x)):",
           new="if abs(step) < 1e-15 * max(1.0, abs(x)):",
           tests=(f"{_WRITERS}::"
                  "test_cubic_roots_bit_identical_to_reference",)),
    # the phase CSV prints the detuning as np.float64(...)
    Mutant("phase-csv-numpy-detuning", _CLI,
           old="lead = fmt(float(delta))",
           new="lead = fmt(delta)",
           tests=(f"{_WRITERS}::test_phase_csv_matches_reference",)),
    # MI cells of the heat map lose their hatch overlay
    Mutant("heatmap-no-hatch", _SVG,
           old="            if math.isnan(value):\n"
               "                parts.append("
               "f'{head}{y0}{size}url(#hatch)\"/>')\n",
           new="",
           tests=(f"{_WRITERS}::test_heatmap_matches_reference",)),
    # every heat-map row is drawn one cell too low
    Mutant("heatmap-row-y-from-i", _SVG,
           old="_MARGIN_T + plot_h - (i + 1) * cell_h",
           new="_MARGIN_T + plot_h - i * cell_h",
           tests=(f"{_WRITERS}::test_heatmap_matches_reference",)),
    # a value exactly on a bucket edge takes the next bucket's color
    Mutant("heatmap-bucket-open-edge", _SVG,
           old="            if v <= edge:",
           new="            if v < edge:",
           tests=(f"{_WRITERS}::test_heatmap_edge_values_and_int_arrays",)),
    # outputs written in the locale's encoding: '≤' fails under LC_ALL=C
    Mutant("output-locale-encoding", "src/kerrcomb/manifest.py",
           old='path.write_text(content, encoding="utf-8", newline="\\n")',
           new='path.write_text(content, newline="\\n")',
           tests=(f"{_WRITERS}::"
                  "test_bundle_bytes_do_not_depend_on_the_locale",)),
    # the symmetric pair mode's self-phase term 6y read as 4y
    Mutant("symmetric-block-diagonal-4y", _STEADY,
           old="2.0 * x + 6.0 * y - dtl",
           new="2.0 * x + 4.0 * y - dtl",
           tests=("tests/test_steady.py::TestParametric::"
                  "test_symmetric_block_matches_finite_differences",
                  "tests/test_steady.py::TestParametric::"
                  "test_stability_split")),
    # the symmetric pair mode's S/S† coupling 3y read as 2y
    Mutant("symmetric-block-pair-2y", _STEADY,
           old="x + 3.0 * y * h2",
           new="x + 2.0 * y * h2",
           tests=("tests/test_steady.py::TestParametric::"
                  "test_symmetric_block_matches_finite_differences",
                  "tests/test_steady.py::TestParametric::"
                  "test_stability_split")),
    # the daggered pump row keeps the p/p† and S/S† columns unswapped
    Mutant("symmetric-block-dagger-unswapped", _STEADY,
           old="[pq.conjugate(), pp.conjugate(), sq.conjugate(), "
               "sp.conjugate()]",
           new="[pp.conjugate(), pq.conjugate(), sp.conjugate(), "
               "sq.conjugate()]",
           tests=(f"{_KERNELS}::"
                  "test_symmetric_block_bit_identical_to_reference",
                  "tests/test_steady.py::TestParametric::"
                  "test_symmetric_block_matches_finite_differences")),
    # the pump-only fold no longer marks its double root unstable: the
    # middle index is called unstable at both folds
    Mutant("fold-double-root-unlabelled", _STEADY,
           old="    if len(roots) == 2:  # the double root is where dF²/dx "
               "vanishes\n",
           new="    if False:\n",
           tests=("tests/test_steady.py::TestPumpOnly::"
                  "test_fold_double_root_unstable",)),
    # parametric_branch and threshold answer [] / exists=False for a
    # NaN or infinite input instead of refusing it
    Mutant("steady-finite-guard-dropped", _STEADY,
           old="        raise ValueError(f\"{', '.join(bad)} must be "
               "finite\")",
           new="        pass",
           tests=("tests/test_steady.py::"
                  "test_non_finite_input_is_refused_by_name",
                  "tests/test_steady.py::TestScanRange::"
                  "test_nan_drive_is_refused")),
    # the polish accepts a root only at an absolute drive residual, so
    # converged roots at large F raise NoConvergenceError
    Mutant("polish-drive-residual-absolute", _STEADY,
           old="_RESIDUAL_TOL * max(\n            f_norm * f_norm, 1.0)",
           new="_RESIDUAL_TOL * max(\n            1.0, 1.0)",
           tests=("tests/test_steady.py::TestParametric::"
                  "test_large_drive_roots_are_accepted",)),
    # a Δ̃_L whose square overflows reaches the scans
    Mutant("steady-overflow-guard-dropped", _STEADY,
           old="    if math.isinf(dtl * dtl):\n",
           new="    if False:\n",
           tests=("tests/test_steady.py::"
                  "test_overflowing_pair_detuning_is_refused",)),
    # one cached scan: the two sign branches evict each other on every
    # parametric_branch call, so each call builds both scans anew
    Mutant("branch-scan-cache-of-one", _STEADY,
           old="@functools.lru_cache(maxsize=8)",
           new="@functools.lru_cache(maxsize=1)",
           tests=("tests/test_steady.py::TestOneScanPerDetuningPair::"
                  "test_threshold_builds_at_most_two_scans",
                  "tests/test_steady.py::TestOneScanPerDetuningPair::"
                  "test_sweep_row_builds_at_most_two_scans")),
    # the Langevin window sum loses the input residue ξ
    Mutant("langevin-xi-dropped", "src/kerrcomb/oracle.py",
           old="    xi_scale = (t_loss / 2.0) * math.sqrt(t_obs / 2.0)\n",
           new="    xi_scale = 0.0\n",
           tests=("tests/test_oracle.py::TestLangevin::"
                  "test_samples_the_euler_chain_law",)),
    # each generator's noise block is drawn transposed: same normals,
    # other places
    Mutant("langevin-block-draw-transposed", "src/kerrcomb/oracle.py",
           old="                (len(todo), 8, per_batch[b]))",
           new="                (per_batch[b], 8, len(todo))).T",
           tests=("tests/test_oracle.py::TestLangevinBlockDraw::"
                  "test_same_stream_as_per_chunk_draws",)),
    # the sweep's pair detuning off by 1e-7 from the per-point path
    Mutant("sweep-dtl-shifted", "src/kerrcomb/phases.py",
           old="        dtl = dtp + offset\n",
           new="        dtl = dtp + offset + 1e-7\n",
           tests=("tests/test_phases.py::TestSharedPumpGrid::"
                  "test_cells_equal_classify_drive",
                  "tests/test_phases.py::TestSweepEqualsPerCellPath::"
                  "test_grid_bits_match")),
    # non-finite float flags reach the handlers unchecked
    Mutant("cli-finite-check-skipped", _CLI,
           old="        _require_finite(args)\n",
           new="",
           tests=("tests/test_config_cli.py::TestCli::"
                  "test_every_float_flag_is_checked_finite",)),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src")
        target = Path(tmp) / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"error: old snippet occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(tmp) / "src"),
                          os.environ.get("PYTHONPATH")])))
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, f"error: pytest exit {code}")


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    results = {}
    for mutant in [by_name[n] for n in names] or MUTANTS:
        results[mutant.name] = run(mutant)
        print(f"{results[mutant.name]:10s} {mutant.name}", flush=True)
    if any(r.startswith("error") for r in results.values()):
        return 2
    return int("survived" in results.values())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
