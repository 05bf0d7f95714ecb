import math

import numpy as np
import pytest

from kerrcomb.dispersion import (
    AllZeroError,
    EmptyRangeError,
    composite_pump_weights,
    find_overlap_windows,
    integrated_dispersion,
    resonance_frequency,
    transmission_spectrum,
)
from kerrcomb.model import damping_rates

# arithmetic on the shipped TE00 row, frozen
OMEGA0_TE00 = 2.0 * math.pi * 214.59326262711363e12
STEP_L1_ORDER2 = 601690520335.7887          # d1 + d2/2
DINT_L1_ORDER3 = 1284273.3589997005         # d2/2 + d3/6


class TestResonanceFrequency:
    def test_center_line(self, te00):
        assert resonance_frequency(te00, 0) == pytest.approx(OMEGA0_TE00,
                                                             rel=1e-15)

    def test_first_line_order_two(self, te00):
        got = resonance_frequency(te00.truncated(2), 1)
        assert got - OMEGA0_TE00 == pytest.approx(STEP_L1_ORDER2, rel=1e-12)

    def test_fsr_matches_table(self, resonator):
        table = {"TE00": 95.76181600935617, "TM00": 94.46366182275267,
                 "TE10": 92.10026644234499, "TM10": 91.69541907184737}
        for fam in resonator.families:
            assert fam.fsr / 1e9 == pytest.approx(table[fam.label],
                                                  rel=1e-12)

    def test_order_two_grid_is_exact_parabola(self, te00):
        # second finite difference equals d2 for every L; differencing is
        # done on the deviation from the equally spaced grid because the
        # absolute frequencies (~1e15 rad/s) leave only ~7 digits after
        # the cancellation
        fam = te00.truncated(2)
        dint = [integrated_dispersion(fam, l) for l in range(-40, 41)]
        second = np.diff(dint, 2)
        assert np.allclose(second, te00.d2, rtol=1e-10)
        # and the full grid agrees within float rounding of the carrier
        omegas = [resonance_frequency(fam, l) for l in range(-40, 41)]
        ulp = np.spacing(max(omegas))
        assert np.allclose(np.diff(omegas, 2), te00.d2, atol=8 * ulp)


class TestIntegratedDispersion:
    def test_te00_first_pair(self, te00):
        assert integrated_dispersion(te00.truncated(3), 1) == pytest.approx(
            DINT_L1_ORDER3, rel=1e-12)

    def test_zero_at_center(self, resonator_order5):
        for fam in resonator_order5.families:
            for order in (2, 3, 4, 5):
                assert integrated_dispersion(fam.truncated(order), 0) == 0.0

    def test_odd_term_parity(self, te00, rng):
        # order 3: D_int(L) + D_int(-L) isolates the even d2 term
        fam = te00.truncated(3)
        for L in rng.integers(1, 200, size=12):
            L = int(L)
            total = (integrated_dispersion(fam, L)
                     + integrated_dispersion(fam, -L))
            assert total == pytest.approx(te00.d2 * L * L, rel=1e-12)

    def test_definitional_identity(self, resonator_order5, rng):
        # D_int = ω_L − ω0 − d1·L at every order; the right side carries
        # the rounding of the ~1e15 rad/s carrier, about 0.25 rad/s
        for full in resonator_order5.families:
            for order in (2, 3, 4, 5):
                fam = full.truncated(order)
                for L in rng.integers(-300, 300, size=8):
                    L = int(L)
                    lhs = integrated_dispersion(fam, L)
                    omega = resonance_frequency(fam, L)
                    rhs = omega - fam.omega0 - fam.d1 * L
                    assert lhs == pytest.approx(rhs,
                                                abs=8 * np.spacing(omega))


class TestTransmission:
    def test_full_extinction_at_critical_coupling(self, te00):
        import dataclasses

        fam = dataclasses.replace(te00, intrinsic_fraction=0.5)
        f0 = fam.f0
        spectra = transmission_spectrum([fam], (f0 - 1e3, f0 + 1e3), 3)
        _, trans = spectra[fam.label]
        assert trans[1] == pytest.approx(0.0, abs=1e-12)

    def test_dip_depth_at_tabulated_split(self, te00):
        # 1 − 4·0.55·0.45 = 0.01 on resonance
        f0 = te00.f0
        spectra = transmission_spectrum([te00], (f0 - 1e3, f0 + 1e3), 3)
        _, trans = spectra[te00.label]
        assert trans[1] == pytest.approx(0.01, abs=1e-9)

    def test_half_width_halves_the_dip(self, te00):
        rates = damping_rates(te00)
        off = rates["Gamma"] / 2.0 / (2 * math.pi)  # detuning Γ/2 angular
        f0 = te00.f0
        spectra = transmission_spectrum([te00], (f0 + off - 1, f0 + off + 1),
                                        3)
        _, trans = spectra[te00.label]
        depth_center = 1.0 - 0.01
        assert 1.0 - trans[1] == pytest.approx(depth_center / 2.0, rel=1e-6)

    def test_values_within_unit_interval(self, resonator):
        center = 214.593e12
        spectra = transmission_spectrum(list(resonator.families),
                                        (center - 2e11, center + 2e11), 2001)
        for _, trans in spectra.values():
            assert np.all(trans >= 0.0)
            assert np.all(trans <= 1.0)

    def test_empty_range_rejected(self, te00):
        with pytest.raises(EmptyRangeError):
            transmission_spectrum([te00], (2e14, 2e14), 10)
        with pytest.raises(ValueError):
            transmission_spectrum([te00], (2e14, 3e14), 1)


class TestOverlapSearch:
    def test_reference_triple_window(self, resonator):
        fams = [resonator.family(l) for l in ("TE00", "TE10", "TM10")]
        windows = find_overlap_windows(fams, (214.4e12, 214.8e12), 2e9)
        assert windows
        best = windows[0]
        assert set(best.families) == {"TE00", "TE10", "TM10"}
        # all three expansion points coincide near 214.593 THz
        assert best.center == pytest.approx(214.593e12, abs=2e9)
        assert best.width <= 1e9

    def test_single_family_every_line_is_a_window(self, te00):
        windows = find_overlap_windows([te00], (214.4e12, 214.8e12), 1e9)
        assert len(windows) >= 2
        assert all(w.width == 0.0 for w in windows)

    def test_zero_tolerance_empty(self, resonator):
        fams = [resonator.family(l) for l in ("TE00", "TM00")]
        assert find_overlap_windows(fams, (214.5e12, 214.7e12), 0.0) == []

    def test_family_order_invariance(self, resonator):
        fams = [resonator.family(l) for l in ("TE00", "TE10", "TM10")]
        a = find_overlap_windows(fams, (214.4e12, 214.8e12), 2e9)
        b = find_overlap_windows(fams[::-1], (214.4e12, 214.8e12), 2e9)
        assert [(w.center, w.width) for w in a] == \
            [(w.center, w.width) for w in b]


class TestCompositeWeights:
    def test_single_family_identity(self):
        assert composite_pump_weights({"TE00": 1.0}) == {"TE00": 1.0}

    def test_equal_three_way_split(self):
        w = composite_pump_weights({"TE00": 1.0, "TE10": 1.0, "TM10": 1.0})
        for v in w.values():
            assert v == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    def test_pythagorean_pair(self):
        w = composite_pump_weights({"TE00": 3.0, "TE10": 4.0})
        assert w["TE00"] == pytest.approx(0.6, rel=1e-12)
        assert w["TE10"] == pytest.approx(0.8, rel=1e-12)

    def test_squares_sum_to_one(self, rng):
        for _ in range(25):
            raw = {f"k{i}": float(v)
                   for i, v in enumerate(rng.uniform(0, 5, size=4))}
            if all(v == 0 for v in raw.values()):
                continue
            w = composite_pump_weights(raw)
            assert sum(v * v for v in w.values()) == pytest.approx(1.0,
                                                                   rel=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroError):
            composite_pump_weights({"TE00": 0.0, "TE10": 0.0})
