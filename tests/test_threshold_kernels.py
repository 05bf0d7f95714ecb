"""The threshold path's kernels against reference copies of their earlier
forms, bit for bit: the 4×4 stability block, the bracket selection over
a scan's steps and threshold's blockwise x grid."""

import cmath
import math

import numpy as np

from kerrcomb import steady

SQRT3 = math.sqrt(3.0)


# --- reference copies: the fancy-indexed block and the array mask ----

def _ref_symmetric_block(x, y, phi, dtp, dtl):
    h = cmath.exp(0.5j * phi)
    g = 2.0 * math.sqrt(2.0 * x * y)
    h2 = h * h
    pump = (-1.0 + 1j * (2.0 * x + 4.0 * y - dtp), 1j * (x + 2.0 * y * h2),
            2j * g * h.real, 1j * g * h)
    pair = (2j * g * h.real, 1j * g * h,
            -1.0 + 1j * (2.0 * x + 6.0 * y - dtl), 1j * (x + 3.0 * y * h2))
    block = np.array([pump, pump, pair, pair])
    block[1::2] = np.conj(block[0::2][:, [1, 0, 3, 2]])
    return block


def _ref_range(curve, pair):
    return np.array([
        np.fmin.reduce(np.fmin(curve[:-1], curve[1:]), where=pair,
                       initial=math.inf),
        np.fmax.reduce(np.fmax(curve[:-1], curve[1:]), where=pair,
                       initial=-math.inf)])


def _ref_brackets(curve, pair, f_sq):
    with np.errstate(invalid="ignore"):  # inf − inf and 0·inf
        resid = curve - f_sq
        brackets = pair & ((resid[:-1] == 0.0)
                           | (resid[:-1] * resid[1:] < 0.0))
    return [(int(i), float(resid[i])) for i in np.flatnonzero(brackets)]


def test_symmetric_block_bit_identical_to_reference(rng):
    n = 2000
    cases = zip(rng.uniform(1.0, 50.0, n), rng.exponential(5.0, n),
                rng.uniform(-math.pi, math.pi, n), rng.uniform(-5, 60, n),
                rng.uniform(SQRT3, 60, n))
    for x, y, phi, dtp, dtl in cases:
        args = (float(x), float(y), float(phi), float(dtp), float(dtl))
        got = steady._symmetric_block(*args)
        want = _ref_symmetric_block(*args)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), args


def _synthetic_scans(rng, count=400):
    """(curve, pair) with ties, flat runs, NaN and inf samples: samples
    drawn from a few levels so neighbours often coincide, and pair built
    from a y > 0 mask as _branch_scan builds it."""
    for _ in range(count):
        n = int(rng.integers(2, 60))
        levels = np.concatenate((rng.uniform(1.0, 5.0, 4), [math.nan,
                                                            math.inf]))
        curve = rng.choice(levels, n, p=[0.22, 0.22, 0.22, 0.22, 0.07, 0.05])
        pos = rng.random(n) < 0.85
        yield curve, pos[:-1] & pos[1:]


def _drives(rng, curve, f_range):
    """F² at every sample, at the range ends and one float past them, at
    midpoints of neighbouring samples, at inf and at three drawn ones."""
    finite = np.unique(curve[np.isfinite(curve)])
    out = [*finite, *(0.5 * (finite[:-1] + finite[1:])), math.inf,
           *rng.uniform(0.5, 5.5, 3)]
    for end, away in zip(f_range, (-math.inf, math.inf)):
        if math.isfinite(end):
            out += [end, math.nextafter(end, away)]
    return [float(f) for f in out]


def test_bracket_selection_bit_identical_to_reference(rng):
    seen = dict.fromkeys(("zero_left", "nan_right", "flat", "at_lo",
                          "at_hi", "skipped"), 0)
    for curve, pair in _synthetic_scans(rng):
        bounds, f_range = steady._step_bounds(curve, pair)
        assert f_range.tobytes() == _ref_range(curve, pair).tobytes()
        f_lo, f_hi = f_range
        for f_sq in _drives(rng, curve, f_range):
            want = _ref_brackets(curve, pair, f_sq)
            # parametric_branch's order: the range first, then the steps
            got = (steady._brackets(curve, bounds, f_sq)
                   if f_lo <= f_sq <= f_hi else [])
            assert repr(got) == repr(want), (curve, pair, f_sq)
            seen["skipped"] += not f_lo <= f_sq <= f_hi
            seen["at_lo"] += bool(want) and f_sq == f_lo
            seen["at_hi"] += bool(want) and f_sq == f_hi
            for i, left in want:
                seen["zero_left"] += left == 0.0
                seen["nan_right"] += math.isnan(curve[i + 1])
                seen["flat"] += curve[i] == curve[i + 1]
    # a left sample equal to F² brackets whatever its right neighbour
    # is, NaN and an equal sample included
    assert min(seen.values()) >= 5, seen


def test_threshold_grid_is_linspace(rng):
    n = steady._THRESHOLD_SCAN_POINTS
    dtls = np.concatenate((rng.uniform(SQRT3, 10.0, 400),
                           np.exp(rng.uniform(math.log(10), math.log(1e6),
                                              30))))
    # the least stop, just above √3, and the F² = 400 cap
    stops = [min((2.0 * d + math.sqrt(d * d - 3.0)) / 3.0,
                 steady._THRESHOLD_F_SQ_MAX) + 1.0
             for d in [math.nextafter(SQRT3, math.inf), *map(float, dtls)]]
    assert stops.count(steady._THRESHOLD_F_SQ_MAX + 1.0) >= 10
    end_moved = 0
    for stop in stops:
        blocks = list(steady._threshold_grid(stop))
        assert max(map(len, blocks)) <= steady._THRESHOLD_BLOCK
        want = np.linspace(1.0, stop, n)
        assert np.concatenate(blocks).tobytes() == want.tobytes(), stop
        # linspace sets its last sample to stop in place of k·step + 1.0
        end_moved += (n - 1) * ((stop - 1.0) / (n - 1)) + 1.0 != stop
    assert end_moved >= 10, end_moved
