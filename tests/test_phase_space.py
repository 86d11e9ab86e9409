"""Wave-packet calculus, torus frames, Husimi fields, escape damping.

The metaplectic evaluation rules are checked against independent
numerical realizations of each symplectic generator: the Fourier
transform by direct quadrature for J, a chirp multiplier for lower
shears, and resampling for dilations.  Torus-side identities lean on
the exact tight-frame property of the half-integer coherent grid.  The
escape weight on the full (i/K, j/K) grid (`escape_grid`) lives here,
not in the package: it is the reference grid of the assembled anti-Wick
oracle and of the pointwise and norm-bound checks.  So does the
coherent-state quadrature on a K² grid other than the native one
(`grid_trace_oracle`), which assembles every coherent state, and the
position-basis Chebyshev loop of damped propagation
(`_untwisted_propagation_oracle`), which the twisted frame replaced, and
the one-inverse-FFT-per-row Husimi field (`_husimi_rows`), which
the batched transform replaced.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmaps import phase_space
from openmaps.baker_classical import BakerSpec, TorusPoint, forward
from openmaps.errors import (
    BadDimension,
    DegenerateFrame,
    DimensionCap,
    DimensionMismatch,
    NotSymplectic,
)
from openmaps.phase_space import (
    CHEB_TAIL,
    GRID_THETA,
    _damping_matrix,
    _damping_symbols,
    _escape_u,
    _gauss_window,
    _windows,
    _torus_amps,
    EscapeParams,
    ExperimentParams,
    coherent_grid_trace,
    damped_propagation_experiment,
    default_depth,
    escape_g,
    ground_state,
    hs_trace_experiment,
    husimi,
    husimi_mass,
    metaplectic,
    sample_line,
    torus_coherent,
    translate,
    trapped_distance,
    WavePacket,
)
from openmaps.quantum_baker import QuantumState, apply, build, dense
from openmaps.quantum_baker import _fourier_apply, _fourier_inverse_apply
from oracles import norm_squared

SPEC32 = BakerSpec(3, (0, 2))
SPEC43 = BakerSpec(4, (0, 3))
SPEC31 = BakerSpec(3, (1,))
SPEC301 = BakerSpec(3, (0, 1))  # no parity symmetry, so G is complex
CLOSED2 = BakerSpec(2, (0, 1))
J = np.array([[0.0, 1.0], [-1.0, 0.0]])
H_REF = 0.05


def line_grid(h, half_width=None, n=4096):
    half = half_width if half_width is not None else 14.0 * math.sqrt(h)
    return np.linspace(-half, half, n)


def quad_norm_sq(vals, xs):
    return float(np.trapezoid(np.abs(vals) ** 2, xs))


def fourier_quadrature(vals, xs, h, xis, sign=-1.0):
    """Direct O(n²) quadrature of the semiclassical Fourier integral."""
    dx = xs[1] - xs[0]
    kernel = np.exp(sign * 1j * np.outer(xis, xs) / h)
    return (2 * math.pi * h) ** -0.5 * dx * (kernel @ vals)


def phase_fit_residual(vals, oracle, xs):
    dx = xs[1] - xs[0]
    inner = np.vdot(oracle, vals) * dx
    fit = inner / abs(inner)
    scale = math.sqrt(quad_norm_sq(oracle, xs))
    return float(np.sqrt(quad_norm_sq(vals - fit * oracle, xs)) / scale)


@lru_cache(maxsize=8)
def _oracle_windows(N):
    """Row i: the window at x0 = i/N, periodized from the translated packet."""
    h = 1.0 / (2 * math.pi * N)
    return np.array([_torus_amps(translate(ground_state(h), (i / N, 0.0)), N).real
                     for i in range(N)])


def _signed_roll(g0, i):
    """The window at x0 = i/N as g₀ rolled by i with the i wrapped entries
    negated, one row at a time."""
    g = np.roll(g0, i)
    g[:i] *= -1.0
    return g


def _husimi_rows(state):
    """Husimi field by one inverse FFT per row of `_signed_roll`
    windows: the loop the batched `husimi` replaced."""
    N = state.N
    u = np.conj(state.amps)
    g0 = _gauss_window(N)
    field = np.empty((N, N))
    for i1 in range(N):
        row = np.fft.ifft(u * _signed_roll(g0, i1)) * N
        field[i1, :] = N * np.abs(row) ** 2
    return field


def _husimi_oracle(state):
    """Husimi field row by row from the oracle windows."""
    N = state.N
    u = np.conj(state.amps)
    field = np.empty((N, N))
    for i1, g in enumerate(_oracle_windows(N)):
        row = np.fft.ifft(u * g) * N
        field[i1, :] = N * np.abs(row) ** 2
    return field


def _trace_oracle(matrix):
    """K = N coherent-grid trace as the diagonal weighted by Σ_i g_i²."""
    weight = np.sum(_oracle_windows(matrix.shape[0]) ** 2, axis=0)
    return complex(np.sum(np.diagonal(matrix) * weight))


def grid_trace_oracle(matrix, K):
    """Coherent-state quadrature of tr(M) over the K² grid, weight N/K²."""
    N = matrix.shape[0]
    h = 1.0 / (2 * math.pi * N)
    total = 0.0 + 0.0j
    for i1 in range(K):
        for i2 in range(K):
            phi = _torus_amps(translate(ground_state(h), (i1 / K, i2 / K)), N)
            total += np.vdot(phi, matrix @ phi)
    return complex(total * N / (K * K))


def escape_grid(spec, K, params):
    """Escape weight on the (i/K, j/K) grid; separable, so O(K) work."""
    u = _escape_u(spec, np.arange(K) / K, params)
    return u[:, None] - u[None, :]


def _assembled_G_oracle(spec, N, params):
    """Anti-Wick sum assembled per x0 column as a windowed Toeplitz block."""
    gfield = escape_grid(spec, N, params)
    G = np.zeros((N, N), dtype=np.complex128)
    idx = np.arange(N)
    for i1, g in enumerate(_oracle_windows(N)):
        win = np.nonzero(np.abs(g) > 1e-18 * np.max(np.abs(g)))[0]
        fr = np.fft.ifft(gfield[i1, :]) * N  # Σ_ξ g·e^{2πi(k-l)ξ0}
        block = (g[win, None] * g[None, win]) * fr[(idx[win, None] - idx[None, win]) % N]
        G[np.ix_(win, win)] += block
    G /= N
    return 0.5 * (G + G.conj().T)


def _oracle_propagation(spec, N, rho0, params, n_max):
    """w_n with e^{-tG} formed densely from the oracle G by eigh."""
    evals, evecs = np.linalg.eigh(_assembled_G_oracle(spec, N, params))
    damp = (evecs * np.exp(-params.t * evals)) @ evecs.conj().T
    op = build(spec, N)
    psi = torus_coherent(N, rho0).amps
    w = [1.0]
    for _ in range(n_max):
        psi = damp @ apply(op, QuantumState(N, psi)).amps
        w.append(float(np.vdot(psi, psi).real))
    return np.array(w)


def _untwisted_propagation_oracle(spec, N, rho0, params, n_max):
    """w_n by the Chebyshev series of e^{-tG} in the position basis: each
    term applies G as d ⊙ v + F⁻¹(λ ⊙ F v), F the θ=½ Fourier kernel."""
    from scipy.special import ive
    op = build(spec, N)
    d, lam = _damping_symbols(spec, N, params)
    lo, hi = d.min() + lam.min(), d.max() + lam.max()
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo)
    z = params.t * r
    bessel = [ive(0, z)]
    while (nxt := ive(len(bessel), z)) >= CHEB_TAIL * bessel[0]:
        bessel.append(nxt)
    psi = torus_coherent(N, rho0).amps
    w = [1.0]
    for _ in range(n_max):
        v = apply(op, QuantumState(N, psi)).amps
        acc, prev, cur = bessel[0] * v, np.zeros_like(v), v
        for k in range(1, len(bessel)):
            twisted = _fourier_apply(cur, GRID_THETA)
            g_cur = d * cur + _fourier_inverse_apply(lam * twisted, GRID_THETA)
            y_cur = (c * cur - g_cur) / r
            prev, cur = cur, (1.0 if k == 1 else 2.0) * y_cur - prev
            acc += 2.0 * bessel[k] * cur
        psi = math.exp(-params.t * lo) * acc
        w.append(float(np.vdot(psi, psi).real))
    return np.array(w)


def _expm_pair_oracle(G, t):
    """e^{-tG} and e^{+tG}, formed densely from one eigh of the Hermitian G."""
    evals, evecs = np.linalg.eigh(G)
    return tuple((evecs * np.exp(sign * t * evals)) @ evecs.conj().T
                 for sign in (-1.0, 1.0))


def _trace_oracle_entry(spec, N, params, n):
    """(trace_direct, trace_quadrature) from the dense step and matrix_power."""
    p = replace(params, h=1.0 / (2 * math.pi * N))
    damp, undamp = _expm_pair_oracle(_damping_matrix(spec, N, p), p.t)
    power = np.linalg.matrix_power(damp @ dense(build(spec, N)) @ undamp, n)
    return (float(np.linalg.norm(power, "fro") ** 2),
            float(coherent_grid_trace(power.conj().T @ power).real))


@dataclass(frozen=True)
class FixedSteps:
    """What `hs_trace_experiment` reads of its ExperimentParams, with the
    step count n fixed whatever h."""

    n: int
    vartheta: float = 0.1

    def n_steps(self, h):
        return self.n


def random_frame(rng):
    while True:
        a, b, c = rng.uniform(-2, 2, size=3)
        if abs(a) > 0.2:
            return np.array([[a, b], [c, (1.0 + b * c) / a]])


class TestPacketAlgebra:
    def test_ground_norm_exact(self):
        assert norm_squared(ground_state(H_REF)) == 1.0

    def test_hermite_weights(self):
        wp = WavePacket(h=H_REF, center=(0.0, 0.0),
                        frame=((1.0, 0.0), (0.0, 1.0)),
                        hermite_coeffs=(1.0, 0.5, 0.25j))
        expect = 1.0 + 0.25 * 1.0 + 0.0625 * 2.0
        assert norm_squared(wp) == pytest.approx(expect, rel=1e-14)

    def test_bad_frame_determinant_rejected(self):
        with pytest.raises(ValueError):
            WavePacket(h=H_REF, center=(0.0, 0.0),
                       frame=((2.0, 0.0), (0.0, 1.0)), hermite_coeffs=(1.0,))

    def test_underflowing_frame_rejected(self):
        # unit determinant, but |a+ib|² = 1e-320 underflows the guard
        wp = WavePacket(h=H_REF, center=(0.0, 0.0),
                        frame=((1e-160, 0.0), (0.0, 1e160)),
                        hermite_coeffs=(1.0,))
        with pytest.raises(DegenerateFrame):
            wp.squeeze

    def test_metaplectic_rejects_nonsymplectic(self):
        with pytest.raises(NotSymplectic):
            metaplectic(ground_state(H_REF), [[1.0, 0.0], [0.0, 2.0]])

    def test_translate_moves_center_and_phase(self):
        wp = translate(ground_state(H_REF), (0.3, -0.2))
        assert wp.center == (0.3, -0.2)
        wp2 = translate(wp, (0.1, 0.5))
        # Weyl cocycle: T(rho2) T(rho1) = e^{-i sigma(rho2, rho1)/2h} T(rho1+rho2)
        sigma = 0.1 * (-0.2) - 0.5 * 0.3
        expect = np.exp(-1j * sigma / (2 * H_REF))
        assert wp2.phase == pytest.approx(expect, abs=1e-14)

    def test_translate_composition_on_grid(self):
        xs = line_grid(H_REF)
        one = translate(ground_state(H_REF), (0.25, 0.45))
        two = translate(translate(ground_state(H_REF), (0.1, 0.3)), (0.15, 0.15))
        sigma = 0.15 * 0.3 - 0.15 * 0.1
        cocycle = np.exp(-1j * sigma / (2 * H_REF))
        diff = sample_line(two, xs) - cocycle * sample_line(one, xs)
        assert np.max(np.abs(diff)) < 1e-12

    def test_squeeze_identity_hundred_frames(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(100):
            frame = random_frame(rng)
            wp = WavePacket(h=H_REF, center=(0.0, 0.0), frame=frame,
                            hermite_coeffs=(1.0,))
            w = complex(frame[0, 0], frame[0, 1])
            assert wp.squeeze.imag == pytest.approx(abs(w) ** -2, rel=1e-11)

    def test_frame_composition_exact_on_integers(self):
        shear = np.array([[1.0, 0.0], [3.0, 1.0]])
        wp = metaplectic(metaplectic(ground_state(H_REF), J), shear)
        direct = metaplectic(ground_state(H_REF), shear @ J)
        assert wp.frame == direct.frame
        assert wp.center == direct.center


class TestLineEvaluation:
    def test_quadrature_norm_matches_symbolic(self):
        wp = WavePacket(h=H_REF, center=(0.2, 0.4),
                        frame=((1.0, 0.0), (0.0, 1.0)),
                        hermite_coeffs=(1.0, 0.5, 0.25j))
        xs = line_grid(H_REF) + 0.2
        assert quad_norm_sq(sample_line(wp, xs), xs) == pytest.approx(
            norm_squared(wp), rel=1e-8)

    def test_first_excited_node_at_center(self):
        wp = WavePacket(h=H_REF, center=(0.3, 0.0),
                        frame=((1.0, 0.0), (0.0, 1.0)),
                        hermite_coeffs=(0.0, 1.0))
        vals = sample_line(wp, np.array([0.3, 0.3 + math.sqrt(H_REF)]))
        assert abs(vals[0]) < 1e-12 * abs(vals[1])

    def test_ground_fourier_invariant(self):
        # the semiclassical Fourier transform fixes the ground Gaussian
        wp = ground_state(H_REF)
        xs = line_grid(H_REF, n=2048)
        vals = sample_line(wp, xs)
        xis = line_grid(H_REF, half_width=10.0 * math.sqrt(H_REF), n=257)
        transformed = fourier_quadrature(vals, xs, H_REF, xis)
        assert np.max(np.abs(transformed - sample_line(wp, xis))) < 1e-10

    def test_rotation_matches_fourier_oracle(self):
        wp = WavePacket(h=H_REF, center=(0.0, 0.0),
                        frame=((1.0, 0.0), (0.0, 1.0)),
                        hermite_coeffs=(1.0, 0.3, 0.0, 0.1j))
        xs = line_grid(H_REF, n=2048)
        xis = line_grid(H_REF, half_width=9.0 * math.sqrt(H_REF), n=513)
        oracle = fourier_quadrature(sample_line(wp, xs), xs, H_REF, xis)
        vals = sample_line(metaplectic(wp, J), xis)
        assert np.max(np.abs(vals - oracle)) < 1e-9

    def test_lower_shear_matches_chirp_oracle(self):
        wp = WavePacket(h=H_REF, center=(0.0, 0.0),
                        frame=((1.0, 0.0), (0.0, 1.0)),
                        hermite_coeffs=(1.0, 0.0, 0.2))
        xs = line_grid(H_REF, n=1024)
        c = 0.7
        oracle = np.exp(0.5j * c * xs**2 / H_REF) * sample_line(wp, xs)
        vals = sample_line(metaplectic(wp, [[1.0, 0.0], [c, 1.0]]), xs)
        assert np.max(np.abs(vals - oracle)) < 1e-12

    def test_dilation_matches_resampling_oracle(self):
        wp = WavePacket(h=H_REF, center=(0.0, 0.0),
                        frame=((1.0, 0.0), (0.0, 1.0)),
                        hermite_coeffs=(1.0, 0.4))
        lam = 1.7
        xs = line_grid(H_REF, half_width=2.0, n=1024)
        oracle = lam**-0.5 * sample_line(wp, xs / lam)
        vals = sample_line(metaplectic(wp, [[lam, 0.0], [0.0, 1.0 / lam]]), xs)
        assert np.max(np.abs(vals - oracle)) < 1e-12

    def test_upper_shear_matches_conjugated_oracle(self):
        # [[1,b],[0,1]] = J^{-1} [[1,0],[-b,1]] J realized as
        # inverse Fourier of a chirped Fourier transform
        wp = WavePacket(h=H_REF, center=(0.0, 0.0),
                        frame=((1.0, 0.0), (0.0, 1.0)),
                        hermite_coeffs=(1.0, 0.2))
        b = 0.6
        xs = line_grid(H_REF, n=2048)
        xis = line_grid(H_REF, n=2048)
        hat = fourier_quadrature(sample_line(wp, xs), xs, H_REF, xis)
        hat *= np.exp(-0.5j * b * xis**2 / H_REF)
        back = fourier_quadrature(hat, xis, H_REF, xs, sign=+1.0)
        vals = sample_line(metaplectic(wp, [[1.0, b], [0.0, 1.0]]), xs)
        assert phase_fit_residual(vals, back, xs) < 1e-8

    def test_generator_composition_phase_fitted(self):
        wp = WavePacket(h=H_REF, center=(0.0, 0.0),
                        frame=((1.0, 0.0), (0.0, 1.0)),
                        hermite_coeffs=(1.0, 0.25))
        c = 0.8
        xs = line_grid(H_REF, n=2048)
        xis = line_grid(H_REF, n=2048)
        # J then lower shear, numerically: chirp after Fourier transform
        oracle = np.exp(0.5j * c * xis**2 / H_REF) * fourier_quadrature(
            sample_line(wp, xs), xs, H_REF, xis)
        composed = metaplectic(metaplectic(wp, J), [[1.0, 0.0], [c, 1.0]])
        vals = sample_line(composed, xis)
        assert phase_fit_residual(vals, oracle, xis) < 1e-8

    def test_ground_state_peak_on_line(self):
        wp = ground_state(H_REF)
        vals = sample_line(wp, np.linspace(-1.0, 1.0, 201))
        assert vals.shape == (201,)
        assert abs(vals[100]) == pytest.approx((math.pi * H_REF) ** -0.25,
                                               rel=1e-12)


def on_grid(wp, N):
    """The packet sampled on the N-point torus."""
    return QuantumState(N, _torus_amps(wp, N))


def grid_coherent(N, rho):
    """The coherent state as sampled on the grid, before normalization."""
    return on_grid(translate(ground_state(1 / (2 * math.pi * N)), rho), N)


class TestTorusDiscretization:
    def test_torus_norm_near_one(self):
        state = grid_coherent(64, (0.5, 0.5))
        assert abs(state.norm() - 1.0) < 1e-10

    def test_h_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            on_grid(ground_state(H_REF), 64)

    def test_unit_norm(self):
        state = torus_coherent(64, (0.3, 0.7))
        assert state.norm() == pytest.approx(1.0, abs=1e-14)

    def test_husimi_peaks_at_center(self):
        N = 81
        state = torus_coherent(N, (1 / 3, 2 / 3))
        field = husimi(state)
        i, j = np.unravel_index(np.argmax(field), field.shape)
        assert abs(i / N - 1 / 3) <= 1.5 / N
        assert abs(j / N - 2 / 3) <= 1.5 / N

    def test_husimi_covariant_under_integer_shear(self):
        N = 81
        rho = (0.3, 0.2)
        kappa = np.array([[1.0, 0.0], [1.0, 1.0]])
        wp = metaplectic(translate(ground_state(1 / (2 * math.pi * N)), rho),
                         kappa)
        field = husimi(on_grid(wp, N))
        i, j = np.unravel_index(np.argmax(field), field.shape)
        tx, txi = (kappa @ np.array(rho)) % 1.0
        assert abs(i / N - tx) <= 1.5 / N
        assert abs(j / N - txi) <= 1.5 / N


class TestHusimi:
    def test_mass_matches_norm(self):
        rng = np.random.Generator(np.random.Philox(3))
        N = 64
        amps = rng.normal(size=N) + 1j * rng.normal(size=N)
        state = QuantumState(N, amps)
        field = husimi(state)
        assert husimi_mass(field) == pytest.approx(state.norm() ** 2,
                                                   rel=1e-6)

    @pytest.mark.parametrize("N", [16, 27, 81])
    def test_grid_matches_direct_inner_products(self, N):
        # against coherent states sampled from translated packets, which
        # share no window code with `husimi`
        rng = np.random.Generator(np.random.Philox(5))
        amps = rng.normal(size=N) + 1j * rng.normal(size=N)
        state = QuantumState(N, amps)
        field = husimi(state)
        for i1, i2 in [(0, 0), (3, N - 5), (N - 1, 8), (N // 2, N // 2)]:
            phi = grid_coherent(N, (i1 / N, i2 / N))
            expect = N * abs(np.vdot(state.amps, phi.amps)) ** 2
            assert field[i1, i2] == pytest.approx(expect, rel=1e-10,
                                                  abs=1e-12)

    def test_coherent_spread_is_h_per_coordinate(self):
        # second moment of the coherent-state field about its center;
        # the smoothed (anti-Wick) variance per coordinate is h
        N = 243
        h = 1.0 / (2 * math.pi * N)
        field = husimi(torus_coherent(N, (0.5, 0.5)))
        grid = (np.arange(N) / N) - 0.5
        mass = field.sum()
        mx = (field * grid[:, None] ** 2).sum() / mass
        mxi = (field * grid[None, :] ** 2).sum() / mass
        assert mx == pytest.approx(h, rel=0.05)
        assert mxi == pytest.approx(h, rel=0.05)

    def test_forward_step_localizes_at_image_point(self):
        # quantized map moves coherent mass to the classical image
        N = 729
        rho = TorusPoint(0.1, 0.3)
        image = forward(SPEC32, rho)
        op = build(SPEC32, N)
        state = apply(op, torus_coherent(N, (rho.x, rho.xi)))
        field = husimi(state)
        radius = 10.0 * math.sqrt(1.0 / (2 * math.pi * N))
        grid = np.arange(N) / N
        dx = np.abs(grid - image.x)
        dxi = np.abs(grid - image.xi)
        dx = np.minimum(dx, 1.0 - dx)
        dxi = np.minimum(dxi, 1.0 - dxi)
        inside = (dx[:, None] ** 2 + dxi[None, :] ** 2) <= radius**2
        assert field[inside].sum() / field.sum() >= 0.9


class TestCoherentTrace:
    def test_random_hermitian_trace(self):
        rng = np.random.Generator(np.random.Philox(11))
        N = 64
        raw = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        mat = 0.5 * (raw + raw.conj().T)
        est = coherent_grid_trace(mat)
        assert abs(est - np.trace(mat)) <= 1e-6 * abs(np.trace(mat))

    def test_identity_trace_exact(self):
        N = 243
        est = coherent_grid_trace(np.eye(N))
        assert abs(est - N) < 1e-8

    def test_general_matrix_and_oversampled_grid(self):
        rng = np.random.Generator(np.random.Philox(13))
        N = 16
        mat = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        tr = np.trace(mat)
        assert abs(coherent_grid_trace(mat) - tr) < 1e-6 * abs(tr)
        assert abs(grid_trace_oracle(mat, 2 * N) - tr) < 1e-6 * abs(tr)
        assert abs(grid_trace_oracle(mat, N) - coherent_grid_trace(mat)) <= 1e-12 * abs(tr)


class TestShiftedWindow:
    """The K = N paths against per-row windows built from translated packets."""

    @pytest.mark.parametrize("N", [27, 81, 243, 729])
    def test_signed_roll_matches_translated_packet(self, N):
        g0 = _gauss_window(N)
        windows = _windows(g0, np.arange(N)[:, None])
        for i, oracle in enumerate(_oracle_windows(N)):
            assert np.array_equal(windows[i], _signed_roll(g0, i))
            err = np.max(np.abs(windows[i] - oracle))
            assert err <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("N", [27, 81, 243, 729])
    def test_husimi_matches_row_oracle(self, N):
        rng = np.random.Generator(np.random.Philox(N))
        state = QuantumState(N, rng.normal(size=N) + 1j * rng.normal(size=N))
        oracle = _husimi_oracle(state)
        field = husimi(state)
        err = np.max(np.abs(field - oracle))
        assert err <= 1e-13 * np.max(np.abs(oracle))
        # the batched transform is the row loop bit for bit; at N = 729
        # the rows go in three blocks
        assert np.array_equal(field, _husimi_rows(state))

    @pytest.mark.parametrize("N", [27, 81, 243, 729])
    def test_trace_matches_weighted_diagonal_oracle(self, N):
        rng = np.random.Generator(np.random.Philox(N + 1))
        raw = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        mat = raw @ raw.conj().T
        oracle = _trace_oracle(mat)
        assert abs(coherent_grid_trace(mat) - oracle) <= 1e-13 * abs(oracle)


class TestEscapeFunction:
    def params(self, N=729, delta=0.4, t=1.0):
        return EscapeParams(h=1.0 / (2 * math.pi * N), delta=delta, t=t)

    def test_zero_on_trapped_corner(self):
        assert escape_g(SPEC32, (0.0, 0.0), self.params()) == 0.0

    def test_antisymmetric_in_cover_distances(self):
        p = self.params()
        for rho in [(0.5, 0.1), (0.2, 0.45), (0.8, 0.5)]:
            g1 = escape_g(SPEC32, rho, p)
            g2 = escape_g(SPEC32, (rho[1], rho[0]), p)
            assert g1 == pytest.approx(-g2, abs=1e-14)

    def test_sign_convention(self):
        p = self.params()
        # x deep in the hole, xi trapped: far from incoming set, positive
        assert escape_g(SPEC32, (0.5, 0.0), p) > 0
        assert escape_g(SPEC32, (0.0, 0.5), p) < 0

    def test_default_depth_value(self):
        p = EscapeParams(h=3.0**-6 / (2 * math.pi), delta=0.4, t=1.0)
        assert default_depth(SPEC32, p) == 7

    def test_grid_matches_pointwise(self):
        p = self.params(N=81)
        grid = escape_grid(SPEC32, 27, p)
        for i, j in [(0, 0), (5, 13), (26, 1), (13, 13)]:
            assert grid[i, j] == pytest.approx(
                escape_g(SPEC32, (i / 27, j / 27), p), abs=1e-12)

    def test_epsilon_property(self):
        p = self.params(delta=0.3)
        assert p.epsilon == p.h**0.6

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EscapeParams(h=0.01, delta=0.6)
        with pytest.raises(ValueError):
            EscapeParams(h=-1.0, delta=0.4)

    def test_growth_along_open_dynamics(self):
        # strictly positive increment off the trapped set, on the open
        # map's domain (x inside an allowed strip)
        p = self.params(N=729)
        rng = np.random.Generator(np.random.Philox(17))
        floor = math.sqrt(p.epsilon)
        count = 0
        worst = np.inf
        while count < 1000:
            j = SPEC32.alphabet[rng.integers(len(SPEC32.alphabet))]
            x = (j + rng.random()) / SPEC32.a
            xi = rng.random()
            if trapped_distance(SPEC32, (x, xi), default_depth(SPEC32, p)) < 4 * floor:
                continue
            image = forward(SPEC32, TorusPoint(x, xi))
            inc = escape_g(SPEC32, (image.x, image.xi), p) - escape_g(
                SPEC32, (x, xi), p)
            worst = min(worst, inc)
            count += 1
        assert worst > 0.0

    @given(st.floats(0.0, 1.0 - 1e-9), st.floats(0.0, 1.0 - 1e-9))
    @settings(max_examples=60, deadline=None)
    def test_distance_bounded_by_half_gap(self, x, xi):
        d = trapped_distance(SPEC32, (x, xi), 6)
        assert 0.0 <= d <= 0.5


class TestDamping:
    def test_hermitian(self):
        N = 81
        p = EscapeParams(h=1.0 / (2 * math.pi * N), delta=0.4)
        G = _damping_matrix(SPEC32, N, p)
        assert np.linalg.norm(G - G.conj().T) <= 1e-12 * np.linalg.norm(G)

    def test_exponential_norm_bound(self):
        # ‖e^{-tG}‖₂ = e^{-t·min eig G} ≤ e^{t·max g} for every t ≥ 0
        N = 81
        p = EscapeParams(h=1.0 / (2 * math.pi * N), delta=0.4)
        G = _damping_matrix(SPEC32, N, p)
        gmax = float(np.max(escape_grid(SPEC32, N, p)))
        assert np.linalg.eigvalsh(G).min() >= -gmax

    def test_quadratic_form_tracks_symbol(self):
        N = 729
        p = EscapeParams(h=1.0 / (2 * math.pi * N), delta=0.4, t=1.0)
        G = _damping_matrix(SPEC32, N, p)
        for rho in [(0.5, 0.05), (0.52, 0.15), (0.18, 0.5)]:
            phi = torus_coherent(N, rho).amps
            qf = float(np.vdot(phi, G @ phi).real)
            target = escape_g(SPEC32, rho, p)
            assert qf == pytest.approx(target, rel=0.10)

    def test_inverse_factor(self):
        N = 27
        p = EscapeParams(h=1.0 / (2 * math.pi * N), delta=0.4, t=0.8)
        E, Einv = _expm_pair_oracle(_damping_matrix(SPEC32, N, p), p.t)
        assert np.allclose(E @ Einv, np.eye(N), atol=1e-10)

    def test_propagation_starts_at_one_and_decays(self):
        N = 81
        p = EscapeParams(h=1.0 / (2 * math.pi * N), delta=0.4, t=1.0)
        w = damped_propagation_experiment(SPEC32, N, (0.1, 0.1), p, 4)
        assert w[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(w) < 0)

    def test_closed_map_without_damping_conserves(self):
        N = 64
        p = EscapeParams(h=1.0 / (2 * math.pi * N), delta=0.4, t=0.0)
        w = damped_propagation_experiment(CLOSED2, N, (0.3, 0.6), p, 3)
        assert np.max(np.abs(w - 1.0)) < 1e-10

    @pytest.mark.parametrize("spec, N", [
        pytest.param(spec, N, id=f"{label}{N}")
        for spec, label, sizes in ((SPEC32, "", (27, 81, 243, 729)),
                                   (SPEC43, "4-03-", (16, 64, 256)),
                                   (SPEC31, "3-1-", (27, 81)))
        for N in sizes])
    def test_closed_form_matches_assembled_oracle(self, spec, N):
        p = EscapeParams(h=1.0 / (2 * math.pi * N), delta=0.4, t=1.0)
        G = _damping_matrix(spec, N, p)
        oracle = _assembled_G_oracle(spec, N, p)
        assert np.linalg.norm(G - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("N, rho0, delta, t, depth", [
        (27, (0.1, 0.1), 0.4, 1.0, 4),
        (81, (0.6, 0.2), 0.25, 1.5, 3),
        (243, (1.0 / 3.0, 0.0), 0.4, 1.0, 6),
        (729, (1.0 / 3.0, 0.0), 0.4, 1.0, 7),
        (729, (0.4, 0.3), 0.4, 0.5, 7),
    ])
    def test_matrix_free_propagation_matches_oracle(self, N, rho0, delta, t,
                                                    depth):
        # depth: the cover depth delta gives at this N
        p = EscapeParams(h=1.0 / (2 * math.pi * N), delta=delta, t=t)
        assert default_depth(SPEC32, p) == depth
        w = damped_propagation_experiment(SPEC32, N, rho0, p, 8)
        ref = _oracle_propagation(SPEC32, N, rho0, p, 8)
        assert np.max(np.abs(w - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("spec, N, rho0, t, n_max", [
        # criterion 09: the trapped edge point and the point 2h^0.4 off it
        (SPEC32, 2187, (1.0 / 3.0, 0.0), 1.0, 3),
        (SPEC32, 2187, (1.0 / 3.0 + 2.0 * (2 * math.pi * 2187) ** -0.4, 0.3), 1.0, 8),
        (SPEC301, 81, (0.3, 0.2), 1.0, 6),
        (SPEC43, 64, (0.3, 0.2), 0.5, 6),
        (SPEC32, 81, (0.3, 0.2), 0.0, 4),
        (CLOSED2, 64, (0.3, 0.6), 1.0, 4),  # r = 0: the series is one term
    ], ids=["c09_edge", "c09_far", "3-01-81", "4-03-64", "t_zero", "closed"])
    def test_twisted_recursion_matches_untwisted_oracle(self, spec, N, rho0, t, n_max):
        p = EscapeParams(h=1.0 / (2 * math.pi * N), delta=0.4, t=t)
        w = damped_propagation_experiment(spec, N, rho0, p, n_max)
        ref = _untwisted_propagation_oracle(spec, N, rho0, p, n_max)
        assert len(w) == n_max + 1
        assert np.max(np.abs(w - ref) / ref) <= 1e-12

    def test_h_of_another_size_rejected(self):
        # the h of N = 27 at N = 243 would cover at depth 4, not 6
        p = EscapeParams(h=1.0 / (2 * math.pi * 27), delta=0.4, t=1.0)
        assert default_depth(SPEC32, p) == 4
        assert default_depth(SPEC32, replace(p, h=1.0 / (2 * math.pi * 243))) == 6
        with pytest.raises(DimensionMismatch, match="N=243"):
            damped_propagation_experiment(SPEC32, 243, (0.1, 0.1), p, 3)
        with pytest.raises(DimensionMismatch, match="N=243"):
            _damping_matrix(SPEC32, 243, p)

    def test_negative_n_max_rejected(self):
        p = EscapeParams(h=1.0 / (2 * math.pi * 27), delta=0.4, t=1.0)
        with pytest.raises(ValueError, match="n_max"):
            damped_propagation_experiment(SPEC32, 27, (0.1, 0.1), p, -1)

    def test_propagation_bit_identical_on_repeat(self):
        N = 243
        p = EscapeParams(h=1.0 / (2 * math.pi * N), delta=0.4, t=1.0)
        runs = [damped_propagation_experiment(SPEC32, N, (0.3, 0.2), p, 6)
                for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])


class TestExperimentParams:
    def test_window_cap_enforced(self):
        with pytest.raises(ValueError):
            ExperimentParams(vartheta=0.2, lambda_max=math.log(3))

    def test_slack_allows_longer_runs(self):
        p = ExperimentParams(vartheta=1.0, lambda_max=math.log(3), slack=6.0)
        assert p.n_steps(1e-4) == 9


class TestTraceExperiment:
    def test_zero_steps_reproduces_dimension(self):
        p = EscapeParams(h=1.0, delta=0.4, t=1.0)
        ep = FixedSteps(0)
        out = hs_trace_experiment(SPEC32, [27, 81], p, ep)
        for entry in out["entries"]:
            assert entry["trace_direct"] == pytest.approx(entry["N"],
                                                          abs=1e-8)
            assert entry["trace_quadrature"] == pytest.approx(entry["N"],
                                                              abs=1e-6)

    def test_two_paths_agree(self):
        p = EscapeParams(h=1.0, delta=0.4, t=1.0)
        ep = FixedSteps(2, vartheta=0.3)
        out = hs_trace_experiment(SPEC32, [27, 81], p, ep)
        for entry in out["entries"]:
            rel = abs(entry["trace_quadrature"] - entry["trace_direct"])
            assert rel <= 1e-4 * entry["trace_direct"]
        assert math.isfinite(out["exponent"])

    @pytest.mark.parametrize("spec, sizes, sectors", [
        (SPEC32, [27, 81, 243, 729], 2),
        (BakerSpec(3, (0, 1)), [27, 81, 243, 729], 1),
        (SPEC43, [16, 64, 256], 2),  # even N: no middle index
        (SPEC31, [27, 81, 243], 2),
    ], ids=["3-02", "3-01", "4-03", "3-1"])
    @pytest.mark.parametrize("t, delta, n", [
        (1.0, 0.4, 0),
        (1.5, 0.2, 3),
    ], ids=["n0", "n3"])
    def test_conjugation_matches_dense_oracle(self, spec, sizes, sectors, t,
                                              delta, n):
        # parity-symmetric alphabets split into the even and odd sectors,
        # the others keep one complex sector; at delta = 0.2 the cover
        # depth is 3 at some size of every spec
        p = EscapeParams(h=1.0, delta=delta, t=t)
        ep = FixedSteps(n)
        out = hs_trace_experiment(spec, sizes, p, ep)
        if delta == 0.2:
            assert 3 in [default_depth(spec, replace(p, h=e["h"])) for e in out["entries"]]
        for entry in out["entries"]:
            direct, quad = _trace_oracle_entry(spec, entry["N"], p, n)
            assert entry["trace_direct"] == pytest.approx(direct, rel=1e-12)
            assert entry["trace_quadrature"] == pytest.approx(quad, rel=1e-12)
            assert entry["sectors"] == sectors
            for key in ("split_G", "split_core"):
                assert 0.0 <= entry[key] <= 1e-10

    @pytest.mark.parametrize("spec, real", [(SPEC32, True), (SPEC301, False)],
                             ids=["3-02", "3-01"])
    def test_quadrature_is_grid_trace_of_the_power(self, monkeypatch, spec, real):
        # each sector's quadrature against the N³ product it replaces,
        # P = B core Bᴴ on the sector's position-basis vectors B
        calls = []
        quadrature = phase_space._quadrature

        def kept(basis, core):
            calls.append((basis, core, quadrature(basis, core)))
            return calls[-1][2]

        monkeypatch.setattr(phase_space, "_quadrature", kept)
        p = EscapeParams(h=1.0, delta=0.4, t=1.0)
        out = hs_trace_experiment(spec, [27, 81, 243], p, FixedSteps(3))
        assert len(calls) == sum(e["sectors"] for e in out["entries"])
        for basis, core, got in calls:
            assert np.isrealobj(basis) == real
            power = basis @ core @ basis.conj().T
            want = float(coherent_grid_trace(power.conj().T @ power).real)
            assert got == pytest.approx(want, rel=1e-13)

    def test_size_cap_skips_quadrature(self, monkeypatch):
        monkeypatch.setattr(phase_space, "QUADRATURE_MAX_N", 27)
        p = EscapeParams(h=1.0, delta=0.4, t=0.5)
        ep = FixedSteps(1)
        out = hs_trace_experiment(SPEC32, [27, 81], p, ep)
        assert out["entries"][0]["trace_quadrature"] is not None
        assert out["entries"][1]["trace_quadrature"] is None

    def test_nonpositive_dimension_rejected(self):
        p = EscapeParams(h=1.0, delta=0.4)
        ep = ExperimentParams(vartheta=0.1, lambda_max=math.log(3))
        with pytest.raises(BadDimension):
            hs_trace_experiment(SPEC32, [0], p, ep)

    def test_dense_cap_enforced(self):
        # the cap check fires before any N×N array exists
        p = EscapeParams(h=1.0, delta=0.4, t=1.0)
        ep = FixedSteps(1)
        with pytest.raises(DimensionCap):
            hs_trace_experiment(SPEC32, [3**9], p, ep)

    def test_repeated_n_rejected_before_any_eigh(self, monkeypatch):
        def no_eigh(*args):
            raise AssertionError("eigh ran")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        p = EscapeParams(h=1.0, delta=0.4)
        ep = ExperimentParams(vartheta=0.1, lambda_max=math.log(3))
        with pytest.raises(ValueError, match="repeats N=27"):
            hs_trace_experiment(SPEC32, [27, 81, 27], p, ep)
