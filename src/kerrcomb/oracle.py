"""Independent verification engines for the production pipeline.

Everything here re-derives results by a different numerical route than
the production modules and shares no numerical code with them beyond the
domain types: the classical three-mode equations are written once, with
conjugates as independent slots, and integrated in time by one adaptive
Dormand-Prince 5(4) stepper, ``relax_batch``, the only relaxation entry
point (a single start state is a one-column batch); the fluctuation
generator is rebuilt by central finite differences of that vector
field, whose conjugate equations are the field itself, conjugated, at
swapped and conjugated slots; stationary covariances are estimated by
Euler-Maruyama sampling of the linear Langevin system, advanced in
exact chunks of up to LANGEVIN_CHUNK_STEPS steps, and the
entanglement witness is minimized by exhaustive grid scan. All of it is
deterministic given explicit seeds, step sizes and tolerances.

The Langevin sampler works in the symmetric-ordering (Wigner) picture:
vacuum inputs become complex white noise of variance ½ per unit
normalized time, and the sampled moments estimate symmetrized quantum
expectations, which is exactly what the production quadrature
covariances are.
"""

from __future__ import annotations

import math

import numpy as np

from .model import NormalizedDrive
from .steady import SteadyState

__all__ = [
    "NonFiniteError",
    "UnstableError",
    "mean_field_rhs",
    "relax_batch",
    "fd_jacobian",
    "langevin_covariance",
    "brute_force_duan",
]

MIN_LANGEVIN_SAMPLES = 1000
LANGEVIN_BURN_IN = 50.0
MIN_DUAN_GRID = 64
# adaptive relaxation: per-mode local error within ATOL + RTOL·|α|; a
# step below RELAX_MIN_STEP·t_end means the trajectory is blowing up
RELAX_RTOL = RELAX_ATOL = 1e-12
RELAX_FIRST_STEP = 1e-3
RELAX_MIN_STEP = 1e-9
# Euler-Maruyama steps per Langevin chunk, each drawn as one Gaussian
LANGEVIN_CHUNK_STEPS = 1024
# normals drawn per block of Langevin chunks (0.5 MB of float64)
NOISE_BLOCK_NORMALS = 1 << 16


class NonFiniteError(FloatingPointError):
    """Trajectory blew up: a non-finite amplitude, or an adaptive step
    that underflows."""


class UnstableError(ValueError):
    """The linear system is not damped; no stationary statistics exist."""


def _require_time(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def _rhs_detached(a_p, a_p_c, a_m, a_m_c, a_q, a_q_c, f_norm, dtp, dtl):
    """Three-mode vector field with conjugates as independent slots.

    Treating the conjugated amplitudes as separate inputs is what lets
    the finite-difference Jacobian probe the doubled (a, a†) space: the
    conjugate equations are ``np.conj`` of this field evaluated with
    each (a, a†) slot pair swapped and conjugated.
    """
    d_p = (-(1.0 + 1j * dtp) * a_p
           + 1j * (a_p_c * a_p + 2.0 * a_m_c * a_m + 2.0 * a_q_c * a_q) * a_p
           + 2j * a_p_c * a_m * a_q + f_norm)
    d_m = (-(1.0 + 1j * dtl) * a_m
           + 1j * (2.0 * a_p_c * a_p + a_m_c * a_m + 2.0 * a_q_c * a_q) * a_m
           + 1j * a_p * a_p * a_q_c)
    d_q = (-(1.0 + 1j * dtl) * a_q
           + 1j * (2.0 * a_p_c * a_p + 2.0 * a_m_c * a_m + a_q_c * a_q) * a_q
           + 1j * a_p * a_p * a_m_c)
    return d_p, d_m, d_q


def mean_field_rhs_batch(amps: np.ndarray, f_norm: np.ndarray,
                         dtp: np.ndarray, dtl: np.ndarray) -> np.ndarray:
    """Vector field for a batch of systems; amps has shape (3, n)."""
    a_p, a_m, a_q = amps
    d_p, d_m, d_q = _rhs_detached(a_p, np.conj(a_p), a_m, np.conj(a_m),
                                  a_q, np.conj(a_q), f_norm, dtp, dtl)
    return np.stack([d_p, d_m, d_q])


def mean_field_rhs(amps: np.ndarray, drive: NormalizedDrive) -> np.ndarray:
    """d(α_p, α₋, α₊)/dτ of the noise-free three-mode system."""
    return mean_field_rhs_batch(amps, drive.f_norm, drive.dtp, drive.dtl)


# Dormand-Prince 5(4): stage rows a_2..a_6, fifth-order weights (also
# the FSAL stage row) and fifth-minus-fourth-order error weights
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)


def relax_batch(init: np.ndarray, f_norm, dtp, dtl,
                t_end: float) -> np.ndarray:
    """Adaptive endpoint at t_end for a batch of independent drives.

    Dormand-Prince 5(4) with first-same-as-last stages (Dormand & Prince,
    J. Comput. Appl. Math. 6, 19 (1980)) over ``mean_field_rhs_batch``.
    Every column keeps its own time, step size and acceptance, so it
    ends bit for bit where it would end if relaxed alone; the last step
    is clipped to land on t_end. A step is accepted when its local
    error is within RELAX_ATOL + RELAX_RTOL·|α| in every mode; an
    overflowing trial step counts as rejected. Raises NonFiniteError
    when a step falls below RELAX_MIN_STEP·t_end (10⁹ steps to go),
    which no bounded trajectory at a physical drive needs. A non-finite
    ``init`` or t_end raises ValueError.
    """
    _require_time("t_end", t_end)
    amps = np.array(init, dtype=complex)
    if not np.all(np.isfinite(amps)):
        raise ValueError("init amplitudes must be finite")
    n = amps.shape[1]
    drives = [np.broadcast_to(np.asarray(v, dtype=float), (n,))
              for v in (f_norm, dtp, dtl)]
    live = np.arange(n)
    y = amps.copy()
    k1 = mean_field_rhs_batch(y, *drives)
    t = np.zeros(n)
    h = np.full(n, min(RELAX_FIRST_STEP, t_end))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size:
            drv = [d[live] for d in drives]
            h = np.minimum(h, t_end - t)
            ks = [k1]
            for row in _DP_A:
                stage = y + h * sum(a * k for a, k in zip(row, ks) if a)
                ks.append(mean_field_rhs_batch(stage, *drv))
            y_new = y + h * sum(b * k for b, k in zip(_DP_B, ks) if b)
            ks.append(mean_field_rhs_batch(y_new, *drv))
            err_vec = h * sum(e * k for e, k in zip(_DP_E, ks) if e)
            scale = RELAX_ATOL + RELAX_RTOL * np.maximum(np.abs(y),
                                                         np.abs(y_new))
            err = np.max(np.abs(err_vec) / scale, axis=0)
            err[~np.isfinite(err)] = np.inf  # an overflowing trial step
            ok = err <= 1.0
            t = np.where(ok, np.where(h == t_end - t, t_end, t + h), t)
            y = np.where(ok, y_new, y)
            k1 = np.where(ok, ks[-1], k1)
            # safety 0.9; shrink at most 5×, grow at most 10× and never
            # right after a rejection
            h = h * np.clip(0.9 * err ** -0.2, 0.2, np.where(ok, 10.0, 1.0))
            if np.any(h < RELAX_MIN_STEP * t_end):
                raise NonFiniteError(
                    f"step size underflow at t = {float(np.min(t)):g}: "
                    "the trajectory diverges")
            done = t == t_end
            if np.any(done):
                amps[:, live[done]] = y[:, done]
                keep = ~done
                live, y, k1, t, h = (live[keep], y[:, keep], k1[:, keep],
                                     t[keep], h[keep])
    return amps


def fd_jacobian(state: SteadyState, drive: NormalizedDrive,
                h: float = 1e-6) -> np.ndarray:
    """Finite-difference fluctuation generator in the rotated pair basis.

    Central differences of the signal/idler vector field around the
    steady state, with the pump held classical at its mean value and the
    basis rotated by the steady phases, directly comparable to the
    analytic 4×4 generator. The result is gauge independent, so the pump
    phase is fixed at zero and the pair phase split evenly.
    """
    if not 1e-8 <= h <= 1e-4:
        raise ValueError("h outside the trusted range [1e-8, 1e-4]")
    theta_pair = 0.5 * state.phi
    a_p = complex(math.sqrt(state.ap2))
    alpha = math.sqrt(state.a2) * np.exp(1j * theta_pair)
    rot = np.exp(1j * theta_pair)
    args = (drive.f_norm, drive.dtp, drive.dtl)

    def field(delta: np.ndarray) -> np.ndarray:
        a_m = alpha + delta[0] * rot
        a_m_c = np.conj(alpha) + delta[1] * np.conj(rot)
        a_q = alpha + delta[2] * rot
        a_q_c = np.conj(alpha) + delta[3] * np.conj(rot)
        _, d_m, d_q = _rhs_detached(a_p, np.conj(a_p), a_m, a_m_c,
                                    a_q, a_q_c, *args)
        _, d_m_c, d_q_c = np.conj(_rhs_detached(
            a_p, np.conj(a_p), np.conj(a_m_c), np.conj(a_m),
            np.conj(a_q_c), np.conj(a_q), *args))
        return np.array([d_m / rot, d_m_c / np.conj(rot),
                         d_q / rot, d_q_c / np.conj(rot)])

    jac = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        e_k = np.zeros(4, dtype=complex)
        e_k[k] = h
        jac[:, k] = (field(e_k) - field(-e_k)) / (2.0 * h)
    return jac


def _chunk_map(stepper: np.ndarray, dt: float, t_in: float,
               span: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact map of ``span`` Euler-Maruyama steps of the Langevin chain.

    Returns the (8, 4) lift [Aᵏ; t_out·dτ·Sₖ], Sₖ = Σ_{i<k} Aⁱ, from a
    chunk's start state to its end state and window-sum increment, and
    the symmetric square root of the (8, 8) covariance Qₖ of the noise
    added to them (t_out = T_in). One step is (A, t_out·dτ·I,
    (dτ/2)·g·gᵀ) with g = [I; −T_in/2·I], and ``span`` steps are built
    from it by binary composition (docs/derivation.md, "Langevin
    sampler").
    """
    eye = np.eye(4)
    gain = np.vstack((eye, -(t_in / 2.0) * eye))
    unit = (np.vstack((stepper, (t_in * dt) * eye)),
            (dt / 2.0) * gain @ gain.T)

    def then(first, second):
        # chunk a, then chunk b: G = [[A_b, 0], [t_out·dτ·S_b, I]] carries
        # a's lift and covariance through b, whose own noise adds Q_b
        (lift_a, cov_a), (lift_b, cov_b) = first, second
        carry = np.hstack((lift_b, np.eye(8)[:, 4:]))
        return carry @ lift_a, carry @ cov_a @ carry.T + cov_b

    total = (np.eye(8, 4), np.zeros((8, 8)))  # zero steps
    for bit in bin(span)[2:]:  # most significant first
        total = then(total, total)
        if bit == "1":
            total = then(total, unit)
    lift, cov = total
    # rank 4 for span = 1, so Cholesky would fail there
    vals, vecs = np.linalg.eigh(cov)
    return lift, (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def langevin_covariance(m: np.ndarray, intrinsic_fraction: float,
                        n_samples: int, t_end: float, dt: float,
                        seed: int, t_burn: float = LANGEVIN_BURN_IN,
                        n_batches: int = 25) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of the zero-frequency output covariance.

    Samples the Euler-Maruyama chain of d(δA) = M δA dτ + T_in dW_in +
    T_loss dW_loss in the Wigner picture (vacuum inputs are complex white
    noise of variance ½ per unit time), forms the output field
    −A_in + T_out δA and averages it over the window after t_burn;
    across trajectories the scaled second moment of the window mean
    converges to the symmetrized output spectral density at ω = 0,
    reported in the quadrature basis (X₁, Y₁, X₂, Y₂).

    The chain runs in the real coordinates r = (Re δa₋, Im δa₋,
    Re δa₊, Im δa₊), where one step is r ↦ A r + n with
    A = W⁻¹(I + dτ·M)W, W the map from r to (δa₋, δa₋†, δa₊, δa₊†), and
    n of covariance (dτ/2)·I; the output quadratures are √2·r. Only
    n = T_in dW_in + T_loss dW_loss drives the state, and conditioned
    on n the input increment is dW_in = (T_in/2)·n + ξ with ξ
    independent of variance (T_loss²/4)·dτ, so the window sum of ξ is
    one Gaussian per trajectory. The chain is advanced in chunks of up
    to LANGEVIN_CHUNK_STEPS steps: given the state at the start of a
    chunk, its end state and its window-sum increment are a fixed
    linear map of that state plus a jointly Gaussian 8-vector, drawn
    through the symmetric square root of its exact covariance, which
    ``_chunk_map`` builds by composing one-step maps (docs/derivation.md,
    "Langevin sampler"). This samples exactly the law of the
    step-by-step chain, with eight normals per trajectory and chunk.

    The normals are drawn for a block of chunks at once: each batch
    generator fills its own trajectory columns of a (chunks, 8, n)
    buffer of about NOISE_BLOCK_NORMALS values with one call. A
    generator's (k, 8, n_b) draw is its k successive (8, n_b) draws in
    order, and the window residue is still drawn after the last chunk,
    so every generator yields the same numbers in the same places as
    one draw per chunk, and the result is bitwise unchanged.

    Raises UnstableError unless M is Hurwitz, and ValueError when the
    Euler map I + dτ·M is not a contraction, max |1 + dτ·λ| ≥ 1 over
    M's eigenvalues λ, where the chain would diverge.

    Returns (covariance, standard_errors), both 4×4, from batch means
    over ``n_batches`` trajectory groups. Deterministic for a given
    seed; batch seeds are spawned up front so the result does not depend
    on how work is grouped.
    """
    if n_samples < MIN_LANGEVIN_SAMPLES:
        raise ValueError("n_samples must be >= 1e3 for meaningful errors")
    if not 0.0 <= intrinsic_fraction <= 1.0:
        raise ValueError("intrinsic_fraction must lie in [0, 1]")
    _require_time("t_end", t_end)
    _require_time("dt", dt)
    if not 0.0 <= t_burn < t_end:
        raise ValueError("need 0 <= t_burn < t_end")
    if not 2 <= n_batches <= n_samples:
        raise ValueError("n_batches must lie between 2 and n_samples")
    lam = np.linalg.eigvals(m)
    if np.max(lam.real) >= 0.0:
        raise UnstableError("M is not Hurwitz")
    if np.max(np.abs(1.0 + dt * lam)) >= 1.0:
        raise ValueError(f"dt = {dt!r} is past the Euler stability limit: "
                         "I + dt*M is not a contraction")
    pairs = np.kron(np.eye(2), [[1.0, 1.0j], [1.0, -1.0j]])  # W: r -> δA
    m_real = np.linalg.solve(pairs, m @ pairs)
    if np.max(np.abs(m_real.imag)) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError("M does not act on conjugate (δa, δa†) pairs")
    t_in = math.sqrt(2.0 * (1.0 - intrinsic_fraction))
    t_loss = math.sqrt(2.0 * intrinsic_fraction)
    n_burn = int(round(t_burn / dt))
    n_obs = int(round((t_end - t_burn) / dt))
    if n_obs <= 0:
        raise ValueError("t_end - t_burn must span at least one step dt")
    t_obs = n_obs * dt

    seeds = np.random.SeedSequence(seed).spawn(n_batches)
    gens = [np.random.default_rng(ss) for ss in seeds]
    per_batch = [n_samples // n_batches] * n_batches
    for i in range(n_samples % n_batches):
        per_batch[i] += 1
    edges = np.concatenate(([0], np.cumsum(per_batch)))

    stepper = np.eye(4) + dt * m_real.real  # Euler one-step map A
    maps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    chunks = [(min(LANGEVIN_CHUNK_STEPS, steps - done), observe)
              for steps, observe in ((n_burn, False), (n_obs, True))
              for done in range(0, steps, LANGEVIN_CHUNK_STEPS)]
    block = max(1, NOISE_BLOCK_NORMALS // (8 * n_samples))
    normals = np.empty((min(block, len(chunks)), 8, n_samples))
    state = np.zeros((4, n_samples))
    out_sum = np.zeros((4, n_samples))
    for first in range(0, len(chunks), block):
        todo = chunks[first:first + block]
        for b, g in enumerate(gens):
            normals[:len(todo), :, edges[b]:edges[b + 1]] = g.standard_normal(
                (len(todo), 8, per_batch[b]))
        for (span, observe), draw in zip(todo, normals):
            if span not in maps:
                maps[span] = _chunk_map(stepper, dt, t_in, span)
            lift, root = maps[span]
            step = lift @ state + root @ draw
            state = step[:4]
            if observe:
                out_sum += step[4:]

    # window sum of the state-independent input residue, drawn exactly
    xi_scale = (t_loss / 2.0) * math.sqrt(t_obs / 2.0)
    out_sum -= xi_scale * np.hstack([g.standard_normal((4, n))
                                     for g, n in zip(gens, per_batch)])

    quad = math.sqrt(2.0) * out_sum / t_obs
    batch_covs = np.zeros((n_batches, 4, 4))
    for b in range(n_batches):
        q = quad[:, edges[b]:edges[b + 1]]
        est = t_obs * (q @ q.T) / per_batch[b]
        batch_covs[b] = 0.5 * (est + est.T)
    cov = batch_covs.mean(axis=0)
    se = batch_covs.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return cov, se


def brute_force_duan(sigma: np.ndarray, grid_n: int = 1024,
                     ) -> tuple[float, tuple[float, float]]:
    """Exhaustive witness minimum over a grid_n × grid_n angle grid."""
    if grid_n < MIN_DUAN_GRID:
        raise ValueError(f"grid_n must be >= {MIN_DUAN_GRID}")
    v_xm = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
    v_ym = np.array([0.0, 1.0, 0.0, -1.0]) / math.sqrt(2.0)
    v_xp = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
    v_yp = np.array([0.0, 1.0, 0.0, 1.0]) / math.sqrt(2.0)
    thetas = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    a_m = v_xm @ sigma @ v_xm
    b_m = v_ym @ sigma @ v_ym
    c_m = v_xm @ sigma @ v_ym
    var_m = cos_t ** 2 * a_m + sin_t ** 2 * b_m - 2.0 * sin_t * cos_t * c_m
    a_p = v_xp @ sigma @ v_xp
    b_p = v_yp @ sigma @ v_yp
    c_p = v_xp @ sigma @ v_yp
    var_p = cos_t ** 2 * b_p + sin_t ** 2 * a_p + 2.0 * sin_t * cos_t * c_p
    total = (var_p[:, None] + var_m[None, :]
             - np.abs(np.cos(thetas[:, None] - thetas[None, :])))
    i, j = np.unravel_index(int(np.argmin(total)), total.shape)
    return float(total[i, j]), (float(thetas[i]), float(thetas[j]))
