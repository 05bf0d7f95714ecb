import numpy as np
import pytest

from kerrcomb.dispersion import integrated_dispersion
from kerrcomb.model import (
    ModalFamily,
    OperatingPoint,
    ResonatorSpec,
    ZeroVolumeError,
    damping_rates,
    input_power,
    nonlinear_rate,
    normalize,
)

# direct arithmetic on the shipped table, frozen
GAMMA_TE00 = 1348329234.7584105
MU_TE00 = 606748155.6412847
COUPLING_TE00 = 741581079.1171257
ETA_ESTIMATE_TE00 = 2.5329063031887644
DTP_AT_036_GHZ = 1.6775922766296318


def _family(**overrides):
    base = dict(label="TE00", d1=601689235338.8215, d2=2569993.9342187047,
                d3=-4341.648657910526, d4=-7.446717267543136,
                d5=0.03203197214929787, f0=214.59326262711363e12,
                q_total=1e6, intrinsic_fraction=0.45,
                a_eff=1.126080464573595e-12, n_eff=1.8639799106786588,
                eta=0.9585550632388488, g0=2.3380692460169463)
    base.update(overrides)
    return ModalFamily(**base)


class TestDampingRates:
    def test_te00_frozen_values(self, te00):
        rates = damping_rates(te00)
        assert rates["Gamma"] == pytest.approx(GAMMA_TE00, rel=1e-12)
        assert rates["mu"] == pytest.approx(MU_TE00, rel=1e-12)
        assert rates["gamma"] == pytest.approx(COUPLING_TE00, rel=1e-12)

    def test_split_sums_exactly(self, resonator):
        for fam in resonator.families:
            rates = damping_rates(fam)
            assert rates["gamma"] + rates["mu"] == rates["Gamma"]

    def test_infinite_q_limit(self):
        fam = _family(q_total=float("inf"))
        rates = damping_rates(fam)
        assert rates["Gamma"] == 0.0
        assert rates["mu"] == 0.0
        assert rates["gamma"] == 0.0

    def test_critical_coupling_at_half_fraction(self):
        rates = damping_rates(_family(intrinsic_fraction=0.5))
        assert rates["gamma"] == pytest.approx(rates["mu"], rel=1e-14)

    def test_quality_factor_composition(self, resonator):
        # 1/Q = 1/Q0 + 1/Qex with Q0 = ω/γ and Qex = ω/μ
        for fam in resonator.families:
            rates = damping_rates(fam)
            q0 = fam.omega0 / rates["gamma"]
            qex = fam.omega0 / rates["mu"]
            assert 1.0 / fam.q_total == pytest.approx(1.0 / q0 + 1.0 / qex,
                                                      rel=1e-12)


class TestNonlinearRate:
    def test_te00_geometric_estimate_frozen(self, te00, resonator):
        with pytest.warns(UserWarning, match="differ by more than 20%"):
            est = nonlinear_rate(te00, resonator)
        assert est == pytest.approx(ETA_ESTIMATE_TE00, rel=1e-12)

    def test_doubling_radius_halves_eta(self, te00, resonator):
        big = ResonatorSpec(radius=2 * resonator.radius, n2=resonator.n2,
                            n0=resonator.n0, families=resonator.families)
        with pytest.warns(UserWarning):
            ratio = nonlinear_rate(te00, resonator) / nonlinear_rate(te00, big)
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_zero_n2_gives_zero(self, te00, resonator):
        linear = ResonatorSpec(radius=resonator.radius, n2=1e-300,
                               n0=resonator.n0, families=resonator.families)
        with pytest.warns(UserWarning):
            assert nonlinear_rate(te00, linear) < 1e-270

    def test_zero_volume_raises(self, resonator):
        fam = _family(a_eff=5e-324)  # underflows to 0 when multiplied
        tiny = ResonatorSpec(radius=1e-30, n2=resonator.n2, n0=resonator.n0,
                             families=(fam,))
        with pytest.raises(ZeroVolumeError):
            nonlinear_rate(fam, tiny)

    def test_no_warning_when_consistent(self, resonator):
        fam = _family(eta=ETA_ESTIMATE_TE00)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nonlinear_rate(fam, resonator)


class TestNormalize:
    def test_zero_amplitude_means_zero_drive(self, te00, resonator):
        op = OperatingPoint(family=te00, L=1, delta_p0=0.7e9, a_pin=0.0)
        drive = normalize(op)
        assert drive.f_norm == 0.0

    def test_on_cold_resonance(self, te00, resonator):
        op = OperatingPoint(family=te00, L=3, delta_p0=0.0, a_pin=1e6)
        drive = normalize(op)
        assert drive.dtp == 0.0
        d_int = integrated_dispersion(te00.truncated(3), 3)
        assert drive.dtl == pytest.approx(
            d_int / damping_rates(te00)["Gamma"], rel=1e-12)

    def test_te00_dtp_at_036_ghz(self, te00, resonator):
        op = OperatingPoint(family=te00, L=1, delta_p0=0.36e9, a_pin=1e6)
        drive = normalize(op)
        assert drive.dtp == pytest.approx(DTP_AT_036_GHZ, rel=1e-12)

    def test_amplitude_homogeneity(self, te00, resonator, rng):
        # F scales linearly with the input amplitude
        for _ in range(20):
            a = float(rng.uniform(1e4, 1e8))
            k = float(rng.uniform(0.1, 10.0))
            op1 = OperatingPoint(family=te00, L=1, delta_p0=0.2e9, a_pin=a)
            op2 = OperatingPoint(family=te00, L=1, delta_p0=0.2e9,
                                 a_pin=k * a)
            f1 = normalize(op1).f_norm
            f2 = normalize(op2).f_norm
            assert f2 == pytest.approx(k * f1, rel=1e-12)

    def test_pair_detuning_identity(self, resonator, rng):
        for fam in resonator.families:
            rates = damping_rates(fam)
            for L in (1, 2, 5, 9):
                delta = float(rng.uniform(-1e9, 1e9))
                op = OperatingPoint(family=fam, L=L, delta_p0=delta,
                                    a_pin=1e6)
                drive = normalize(op)
                d_int = (integrated_dispersion(fam.truncated(3), L)
                         / rates["Gamma"])
                assert drive.dtl == drive.dtp + d_int

    def test_input_power_convention(self, te00):
        # ½ n_eff ε0 c A_eff |A|², RMS reading of the quoted amplitude
        p = input_power(te00, 1.1e9)
        assert p == pytest.approx(3370.819201465983, rel=1e-10)


class TestValidation:
    def test_bad_intrinsic_fraction(self):
        with pytest.raises(ValueError, match="intrinsic_fraction"):
            _family(intrinsic_fraction=1.2)

    def test_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            _family(label="TE99")

    def test_duplicate_family_labels(self, te00, resonator):
        with pytest.raises(ValueError, match="unique"):
            ResonatorSpec(radius=resonator.radius, n2=resonator.n2,
                          n0=resonator.n0, families=(te00, te00))

    def test_truncated_order_range(self):
        fam = _family()
        assert fam.truncated(5) == fam
        for order in (0, 6):
            with pytest.raises(ValueError, match="truncation order"):
                fam.truncated(order)

    def test_mode_pair_index_positive(self, te00):
        with pytest.raises(ValueError, match="L"):
            OperatingPoint(family=te00, L=0, delta_p0=0.0, a_pin=1.0)
