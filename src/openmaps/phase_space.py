"""Gaussian wave-packet calculus and phase-space experiments.

Packets are stored symbolically: a phase-space center, a unit-determinant
frame recording the accumulated linear symplectic action, and Hermite
coefficients on top of the ground Gaussian.  Translations and metaplectic
maps act exactly on this data; floating error enters only when a packet
is sampled on a grid.  The torus side discretizes packets by periodizing
line values with a half-integer twist, which makes the N-point coherent
family an exactly tight frame (the frame operator is a scalar), and that
exactness is what the trace quadrature and the Husimi mass bookkeeping
lean on.  On that grid the anti-Wick quantization G of the separable
escape weight u(x) − u(ξ) is a diagonal plus a θ=½ skew-circulant, both
read off the grid window in O(N log N), so dense G is one O(N²) Toeplitz
fill.  Damped propagation applies e^{-tG} matrix-free by a Chebyshev
series; the trace experiment diagonalizes G by parity sector.

Conventions: the ground profile is (πh)^{-1/4} e^{-x²/2h}; excited
levels use physicists' Hermite polynomials scaled by 2^{-n/2}, so the
n-th basis packet has squared norm n!.  Translation by (x0, ξ0) acts as
u(x) → e^{-i x0 ξ0/2h} e^{i x ξ0/h} u(x - x0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermval

from .errors import DegenerateFrame, DimensionCap, DimensionMismatch, NotSymplectic
from .quantum_baker import DENSE_CAP, QuantumState, apply, build
from .quantum_baker import _fold, _fourier_apply, _twiddles
from .quantum_baker import _map_rows, _sectors, _unfold

TWO_PI = 2.0 * math.pi
DET_TOL = 1e-12
GRID_THETA = 0.5  # half-integer twist on both torus directions
PERIODIZE_TAIL = 1e-14
CHEB_TAIL = 1e-17  # the Chebyshev series of e^{-tG} stops at I_k/I_0 below this
QUADRATURE_MAX_N = 729  # the trace experiment's quadrature runs up to this N
HUSIMI_ROWS = 256  # window rows per batched inverse FFT of a Husimi field


def _as_frame(mat):
    arr = np.asarray(mat, dtype=float)
    if arr.shape != (2, 2):
        raise ValueError("frame must be 2x2")
    return ((float(arr[0, 0]), float(arr[0, 1])),
            (float(arr[1, 0]), float(arr[1, 1])))


@dataclass(frozen=True)
class WavePacket:
    """Symbolic Gaussian packet: phase · T(center) 𝓜(frame) Λ_h Σ cₙ hₙΨ₀."""

    h: float
    center: tuple
    frame: tuple
    hermite_coeffs: tuple
    phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not (self.h > 0):
            raise ValueError("h > 0")
        object.__setattr__(self, "center",
                           (float(self.center[0]), float(self.center[1])))
        frame = _as_frame(self.frame)
        (a, b), (c, d) = frame
        if abs(a * d - b * c - 1.0) > DET_TOL:
            raise ValueError(f"frame determinant {a * d - b * c} != 1")
        object.__setattr__(self, "frame", frame)
        coeffs = tuple(complex(z) for z in self.hermite_coeffs)
        if not coeffs:
            raise ValueError("at least one Hermite coefficient")
        object.__setattr__(self, "hermite_coeffs", coeffs)
        ph = complex(self.phase)
        if abs(abs(ph) - 1.0) > 1e-12:
            raise ValueError("phase must have modulus 1")
        object.__setattr__(self, "phase", ph)

    @property
    def squeeze(self):
        """γ of the evaluated Gaussian: (c+id)/(a+ib), Im γ = |a+ib|^{-2}."""
        (a, b), (c, d) = self.frame
        w = complex(a, b)
        if abs(w) ** 2 < 1e-300:
            # unit determinant allows |a+ib|² to underflow, e.g. for the
            # frame ((1e-160, 0), (0, 1e160)); γ would then overflow
            raise DegenerateFrame("frame top row is numerically null")
        return complex(c, d) / w


def ground_state(h):
    return WavePacket(h=h, center=(0.0, 0.0), frame=((1.0, 0.0), (0.0, 1.0)),
                      hermite_coeffs=(1.0 + 0.0j,))


def translate(wp, rho):
    """Shift the center; the Weyl cocycle e^{-i(ρ∧center)/2h} hits the phase."""
    dx, dxi = float(rho[0]), float(rho[1])
    x0, xi0 = wp.center
    cocycle = complex(math.cos((dx * xi0 - dxi * x0) / (2 * wp.h)),
                      -math.sin((dx * xi0 - dxi * x0) / (2 * wp.h)))
    return replace(wp, center=(x0 + dx, xi0 + dxi), phase=wp.phase * cocycle)


def metaplectic(wp, kappa):
    """Exact symbolic action: center and frame rotate, coefficients stay."""
    arr = np.asarray(kappa, dtype=float)
    if arr.shape != (2, 2) or abs(np.linalg.det(arr) - 1.0) > DET_TOL:
        raise NotSymplectic(f"kappa determinant {np.linalg.det(arr)} != 1")
    center = arr @ np.array(wp.center)
    frame = arr @ np.array(wp.frame)
    return replace(wp, center=(float(center[0]), float(center[1])),
                   frame=_as_frame(frame))


def sample_line(wp, xs):
    """Evaluate the packet pointwise on the line."""
    xs = np.asarray(xs, dtype=float)
    h = wp.h
    x0, xi0 = wp.center
    w = complex(*wp.frame[0])
    gamma = wp.squeeze
    aw = abs(w)
    s = w.conjugate() / aw  # branch of ((a-ib)/(a+ib))^{1/2}, used as s^n
    coeff = np.zeros(len(wp.hermite_coeffs), dtype=np.complex128)
    for n, z in enumerate(wp.hermite_coeffs):
        coeff[n] = z * s**n * 2.0 ** (-0.5 * n)
    xr = (xs - x0) / (math.sqrt(h) * aw)
    herm = hermval(xr, coeff)
    pref = (aw * aw * math.pi * h) ** -0.25
    gauss = np.exp(0.5j * gamma * (xs - x0) ** 2 / h)
    trans = np.exp(1j * xs * xi0 / h) * complex(
        math.cos(x0 * xi0 / (2 * h)), -math.sin(x0 * xi0 / (2 * h))
    )
    return wp.phase * pref * trans * herm * gauss


def _periodize(line, N):
    """Σ_j (−1)^j line(x + j) on the grid x = (k + ½)/N.

    Walks the lattice translates j = 0, 1, −1, 2, −2, … and stops after
    the first ring ±j whose terms fall below PERIODIZE_TAIL times the
    peak of the sum so far.
    """
    base = (np.arange(N) + GRID_THETA) / N
    total = 0.0
    for j in range(0, 65):
        ring = 0.0
        for jj in (j, -j) if j else (0,):
            vals = (1.0 if jj % 2 == 0 else -1.0) * line(base + jj)
            total = total + vals
            ring = max(ring, float(np.max(np.abs(vals))))
        peak = float(np.max(np.abs(total)))
        if j > 0 and ring <= PERIODIZE_TAIL * max(peak, 1e-300):
            break
    return total


def _torus_amps(wp, N):
    """Periodize line values over lattice translates with the grid twist."""
    if abs(wp.h * TWO_PI * N - 1.0) > 1e-9:
        raise DimensionMismatch(f"packet h={wp.h} does not match torus N={N}")
    return _periodize(lambda x: sample_line(wp, x), N) / math.sqrt(N)


def torus_coherent(N, rho):
    """Unit-norm ground coherent state centered at rho on the N-point torus."""
    amps = _torus_amps(translate(ground_state(1.0 / (TWO_PI * N)), rho), N)
    return QuantumState(N, amps / np.linalg.norm(amps))


def _gauss_window(N):
    """Signed periodized ground Gaussian g₀ on the N-point grid (x0 = 0)."""
    h = 1.0 / (TWO_PI * N)
    pref = (math.pi * h) ** -0.25 / math.sqrt(N)
    return _periodize(lambda x: pref * np.exp(-(x ** 2) / (2 * h)), N)


def _windows(g0, rows):
    """The windows at x0 = i/N, one row per i of the (m, 1) index column
    `rows`: g₀ shifted by i, the i wrapped entries negated.

    Shifting x0 by one grid step shifts the translate index of the
    entries that cross the cell edge by one, so their (−1)^j twist flips.
    """
    k = np.arange(len(g0))
    g = g0[(k - rows) % len(g0)]
    return np.where(k < rows, -g, g)


def husimi(state):
    """N×N field of |⟨u, φ_ρ⟩|²/(2πh) over the coherent grid ρ = (i/N, j/N).

    At grid step 1/N the lattice-translate phases collapse and each row
    over ξ0 is one inverse FFT of the windowed amplitudes, taken
    HUSIMI_ROWS rows at a time to bound the temporaries at large N.
    """
    N = state.N
    u = np.conj(state.amps)
    g0 = _gauss_window(N)
    field = np.empty((N, N))
    for lo in range(0, N, HUSIMI_ROWS):
        rows = np.arange(lo, min(lo + HUSIMI_ROWS, N))[:, None]
        block = np.fft.ifft(u * _windows(g0, rows), axis=1) * N
        field[lo:lo + len(rows)] = N * np.abs(block) ** 2
    return field


def husimi_mass(field):
    """Quadrature mass of a Husimi field: cell area 1/N² per node."""
    N = field.shape[0]
    return float(field.sum()) / (N * N)


def coherent_grid_trace(matrix):
    """Trace by coherent-state quadrature over the N² grid, weight 1/N.

    On the native grid the lattice-translate phases of the torus
    coherent states cancel exactly and each ξ0 row of rank-one projectors
    sums to N·diag(g_i²), g_i the window at x0 = i/N.  Each g_i is a
    signed roll of g₀, so Σ_i g_i² = ‖g₀‖² on every entry and the whole
    quadrature is ‖g₀‖²·tr(M): an identity of the sum, not an
    approximation.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    N = matrix.shape[0]
    if matrix.shape != (N, N):
        raise ValueError("square matrix expected")
    g0 = _gauss_window(N)
    return complex(np.dot(g0, g0) * np.trace(matrix))


def _quadrature(basis, core):
    """`coherent_grid_trace` of Pᴴ P, P = B core Bᴴ (B = basis), as
    ‖g₀‖²·‖P‖²_F by its identity; a real B takes real gemms on the
    core's interleaved real and imaginary parts, giving Pᵀ."""
    if np.isrealobj(basis):
        half = (basis @ core.view(np.float64)).view(np.complex128)
        power = basis @ np.ascontiguousarray(half.T).view(np.float64)
    else:
        power = basis @ core @ basis.conj().T
    g0 = _gauss_window(len(basis))
    return float(np.dot(g0, g0) * np.vdot(power, power).real)


@dataclass(frozen=True)
class EscapeParams:
    """Knobs of the log-ratio escape weight; epsilon is tied to h."""

    h: float
    delta: float
    t: float = 1.0

    def __post_init__(self):
        if not (self.h > 0):
            raise ValueError("h > 0")
        if not (0.0 < self.delta < 0.5):
            raise ValueError("delta in (0, 1/2)")
        if not (self.t >= 0):
            raise ValueError("t >= 0")

    @property
    def epsilon(self):
        return float(self.h ** (2.0 * self.delta))


def default_depth(spec, params):
    """Cover depth matching the epsilon scale: ⌈2δ·log(1/h)/log a⌉."""
    return int(math.ceil(
        2.0 * params.delta * math.log(1.0 / params.h) / math.log(spec.a)
    ))


@lru_cache(maxsize=64)
def _cover_starts(a, alphabet, depth):
    """Sorted left endpoints of the depth-n cylinder cover of the Cantor set."""
    starts = np.array([0.0])
    for _ in range(depth):
        starts = (starts[None, :] + np.array(alphabet)[:, None]).ravel() / a
    return np.sort(starts)


def _cover_distance(spec, vals, depth):
    """Torus distance from each value to the depth-n cylinder cover."""
    starts = _cover_starts(spec.a, tuple(spec.alphabet), depth)
    width = spec.a ** float(-depth)
    vals = np.atleast_1d(np.asarray(vals, dtype=float)) % 1.0
    # candidates: the point and its two lattice translates, clipped into
    # each nearest interval [s, s+width]
    best = np.full(vals.shape, np.inf)
    for shift in (-1.0, 0.0, 1.0):
        x = vals + shift
        idx = np.searchsorted(starts, x)
        for j in (idx - 1, idx % len(starts)):
            j = np.clip(j, 0, len(starts) - 1)
            s = starts[j]
            d = np.where(x < s, s - x, np.where(x > s + width, x - s - width, 0.0))
            best = np.minimum(best, d)
    return best


def trapped_distance(spec, rho, depth):
    """Distance (sup metric) to the cylinder cover of the trapped set.

    x is measured against the forward-trapped cover and ξ against the
    backward-trapped one; the max of the two is the distance to the
    cover of their intersection.
    """
    return float(_cover_distance(spec, [rho[0], rho[1]], depth).max())


def escape_g(spec, rho, params):
    """Log-ratio escape weight at one phase-space point.

    Negative near the forward-trapped set, positive near the
    backward-trapped set, zero on the trapped set itself and anywhere
    the two cover distances tie.
    """
    u_x, u_xi = _escape_u(spec, [rho[0], rho[1]], params)
    return float(u_x - u_xi)


def _escape_u(spec, vals, params):
    """u = log(2ε + dist²) at each value; the escape weight is u(x) − u(ξ)."""
    depth = default_depth(spec, params)
    return np.log(2.0 * params.epsilon + _cover_distance(spec, vals, depth) ** 2)


def _damping_symbols(spec, N, params):
    """(d, λ) with G = diag(d) + F⁻¹ diag(λ) F, F the θ=½ Fourier kernel.

    The window at x0 = i/N is the signed roll of g₀ by i (the sign
    flips on wrap cancel in the squares), so the u(x) part of G is
    diagonal with d = u ⊛ g₀² and the −u(ξ) part is diagonal in momentum
    with λ = −u ⊛ |F g₀|²: two periodic convolutions, O(N log N).  An h
    other than 1/(2πN) would set the cover depth and ε for another N, so
    it raises DimensionMismatch.
    """
    if abs(params.h * TWO_PI * N - 1.0) > 1e-9:
        raise DimensionMismatch(f"escape h={params.h} does not match torus N={N}")
    u_hat = np.fft.fft(_escape_u(spec, np.arange(N) / N, params))
    g0 = _gauss_window(N)

    def smooth(window):
        return np.fft.ifft(u_hat * np.fft.fft(window)).real

    return smooth(g0 * g0), -smooth(np.abs(_fourier_apply(g0, GRID_THETA)) ** 2)


def _damping_matrix(spec, N, params):
    """Anti-Wick quantization G of the escape weight, as a dense matrix.

    G = Σ_grid g(ρ) w |φ_ρ⟩⟨φ_ρ| over the N×N coherent grid with weight
    w = 1/N.  The weight g(x, ξ) = u(x) − u(ξ) is separable, so
    G = diag(d) + F⁻¹ diag(λ) F (see `_damping_symbols`), whose second
    term is a θ=½ skew-circulant, C_jk = c(j−k) with c(n) = e^{iπn/N}·
    ifft(λ)[n mod N], and c(−n) = conj c(n) as λ is real: one inverse FFT
    and an O(N²) Toeplitz fill, exactly Hermitian.
    """
    from scipy.linalg import toeplitz
    d, lam = _damping_symbols(spec, N, params)
    c = np.exp(1j * np.pi * np.arange(N) / N) * np.fft.ifft(lam)
    G = toeplitz(c, c.conj())
    G[np.diag_indices(N)] += d
    return G


@dataclass(frozen=True)
class ExperimentParams:
    """Propagation-depth policy: n(h) = ⌊vartheta·log(1/h)⌋.

    vartheta may not exceed (1 + slack)/(6·lambda_max): slack = 0 is the
    conservative window 1/(6·lambda_max), and slack > 0 deliberately
    allows longer propagation than that.
    """

    vartheta: float
    lambda_max: float
    slack: float = 0.0

    def __post_init__(self):
        if self.slack < 0:
            raise ValueError("slack >= 0")
        if not (self.vartheta > 0 and self.lambda_max > 0):
            raise ValueError("vartheta and lambda_max must be positive")
        cap = (1.0 + self.slack) / (6.0 * self.lambda_max)
        if self.vartheta > cap * (1 + 1e-12):
            raise ValueError(
                f"vartheta={self.vartheta} exceeds (1+slack)/(6 lambda_max)={cap}"
            )

    def n_steps(self, h):
        return int(math.floor(self.vartheta * math.log(1.0 / h)))


def damped_propagation_experiment(spec, N, rho0, params, n_max):
    """Norm² history w_n = ‖(e^{-tG} M)ⁿ φ_ρ0‖², n = 0..n_max.

    Matrix-free: e^{-tG} = e^{-t·lo} Σ' 2 e^{-z} I_k(z) T_k(Y) with
    Y = (c − G)/r, where [lo, hi] = [min d + min λ, max d + max λ]
    encloses the spectrum of G (Weyl's inequality), c and r are its
    center and radius and z = t·r.  The series stops once I_k/I_0 <
    CHEB_TAIL, so equal inputs give bit-identical w.

    The series runs in the twisted frame x = tw ⊙ v, tw the θ=½
    pre-twiddles of the Fourier kernel F = diag(post)·fft·diag(tw)/√N.
    The post-twiddles are diagonal of modulus one, so they cancel around
    diag(λ), and so do the 1/√N of F and F⁻¹: in that frame G acts as
    x ↦ d ⊙ x + ifft(λ ⊙ fft(x)).  Each step twists the map image once and
    untwists the sum once; a term of T_{k+1}(Y) = 2Y T_k(Y) − T_{k−1}(Y)
    is two FFTs and six elementwise passes in reused buffers, with 2/r,
    e^{-t·lo} and the Bessel weights folded into precomputed symbols and
    coefficients.  n_max < 0 is ValueError; a params.h other than
    1/(2πN) is DimensionMismatch.
    """
    from scipy.special import ive
    if n_max < 0:
        raise ValueError(f"n_max={n_max} must be >= 0")
    op = build(spec, N)
    d, lam = _damping_symbols(spec, N, params)
    lo, hi = d.min() + lam.min(), d.max() + lam.max()
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo)
    z = params.t * r
    bessel = [ive(0, z)]
    while (nxt := ive(len(bessel), z)) >= CHEB_TAIL * bessel[0]:
        bessel.append(nxt)
    scale = math.exp(-params.t * lo)
    coef = [scale * bessel[0]] + [2.0 * scale * b for b in bessel[1:]]
    if len(bessel) > 1:  # then z > 0, so r > 0: 2Y x = dd ⊙ x − ifft(ll ⊙ fft(x))
        # complex, so the products skip a real-to-complex cast (same bits)
        dd, ll = 2.0 * (c - d) / r + 0j, 2.0 * lam / r + 0j
    tw = _twiddles(N, GRID_THETA)[0]
    untwist = tw.conj()
    cur, prev, f = (np.empty(N, dtype=np.complex128) for _ in range(3))
    psi = torus_coherent(N, rho0).amps
    w = [1.0]
    for _ in range(int(n_max)):
        np.multiply(tw, apply(op, QuantumState(N, psi)).amps, out=cur)
        acc = coef[0] * cur
        prev.fill(0.0)
        for k in range(1, len(bessel)):
            np.fft.fft(cur, out=f)
            f *= ll
            np.fft.ifft(f, out=f)
            f += prev
            np.multiply(dd, cur, out=prev)
            prev -= f  # 2Y T_k − T_{k−1}, into the buffer T_{k−1} held
            if k == 1:
                prev *= 0.5  # T_1 = Y T_0; halving is exact
            prev, cur = cur, prev
            acc += np.multiply(coef[k], cur, out=f)
        psi = untwist * acc
        w.append(float(np.vdot(psi, psi).real))
    return np.array(w)


def hs_trace_experiment(spec, N_list, params, exp_params):
    """Hilbert-Schmidt norm² of the damped n-step propagator across sizes.

    The step A = e^{-tG} M e^{tG} has Aⁿ = e^{-tG} Mⁿ e^{tG}, so one eigh
    G = V Λ V* gives ‖Aⁿ‖_F = ‖core‖_F, core = (V* Mⁿ V) ⊙ e^{t(λ_j − λ_i)}.
    V is built per sector of `quantum_baker._sectors`: where the map
    commutes with the parity x ↦ 1 − x, G does too and is real, and
    V = [S_b V_b] comes from two real eigh of size about N/2 on the even
    and odd bases S_b; otherwise S is the identity.  Each S_b V_b goes
    through the map about N/a columns at a time and gives one block of
    the core.  `split_G` is what the split drops from G (its imaginary
    part and cross-sector blocks) over ‖G‖_F; `split_core` bounds the
    dropped cross-sector core blocks over ‖core‖_F by the norm of the
    cross-sector images of Mⁿ S_b V_b times e^{t(λ_max − λ_min)}.  Up to
    N = QUADRATURE_MAX_N the trace of Aⁿ* Aⁿ is recomputed by
    coherent-grid quadrature, `_quadrature` of P = (S_b V_b) core
    (S_b V_b)ᴴ summed over the sectors.  params.h is
    rebound to 1/(2πN) per size; before any eigh, N above DENSE_CAP
    raises DimensionCap and an N given twice (a singular fit) ValueError.
    Returns the per-size records and the least-squares exponent of log
    trace against log(1/h) (None below 2 sizes; its stderr, below 3).
    """
    sizes = [int(N) for N in N_list]
    if repeated := sorted({N for N in sizes if sizes.count(N) > 1}):
        raise ValueError(f"N_list repeats N={', '.join(map(str, repeated))}")
    entries = []
    for N in sizes:
        op = build(spec, N)
        if N > DENSE_CAP:
            raise DimensionCap(f"N={N} exceeds dense cap {DENSE_CAP}")
        h = 1.0 / (TWO_PI * N)
        n = exp_params.n_steps(h)
        G = _damping_matrix(spec, N, replace(params, h=h))
        sectors, G_norm, dropped = _sectors(op, np.arange(N)), np.linalg.norm(G), []
        if len(sectors) > 1:  # the parity split: G is real up to round-off
            dropped, G = [np.linalg.norm(G.imag)], G.real
        direct, quad, leak, lam = 0.0, 0.0, [], []
        for own in sectors:
            others = [s for s in sectors if s is not own]
            rows = _fold(G, own)  # S_bᵀ Gᵀ; folded again, the block S_bᵀ G S_b
            dropped += [np.linalg.norm(_fold(rows, s)) for s in others]
            evals, vecs = np.linalg.eigh(_fold(rows, own))
            lam.append(evals)
            rows = _unfold(vecs.T, own, N)  # row q: column q of S_b V_b
            for chunk in np.array_split(rows, spec.a):
                for _ in range(n):
                    chunk[:] = _map_rows(op, chunk)
            leak += [np.linalg.norm(_fold(rows, s)) for s in others]
            core = (vecs.conj().T @ _fold(rows, own)) * np.exp(
                params.t * (evals[None, :] - evals[:, None]))
            direct += float(np.linalg.norm(core, "fro") ** 2)
            if N <= QUADRATURE_MAX_N:
                basis = _unfold(vecs.T, own, N).T
                quad += _quadrature(basis.real if np.isrealobj(vecs) else basis, core)
        weight = math.exp(params.t * np.ptp(np.concatenate(lam)))
        entries.append({
            "N": N, "h": h, "n": n, "trace_direct": direct,
            "trace_quadrature": quad if N <= QUADRATURE_MAX_N else None,
            "sectors": len(sectors),
            "split_G": float(np.linalg.norm(dropped) / G_norm),
            "split_core": weight * float(np.linalg.norm(leak)) / math.sqrt(direct)})
    xs = np.array([math.log(1.0 / e["h"]) for e in entries])
    ys = np.array([math.log(e["trace_direct"]) for e in entries])
    exponent = stderr = None  # a line through two points is exact: no error bar
    if len(entries) >= 2:
        design = np.column_stack([np.ones_like(xs), xs])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        exponent = float(coef[1])
    if len(entries) >= 3:
        resid = ys - design @ coef
        cov = np.linalg.inv(design.T @ design) * float(resid @ resid) / (len(xs) - 2)
        stderr = float(math.sqrt(cov[1, 1]))
    return {"t": params.t, "delta": params.delta,
            "vartheta": exp_params.vartheta, "entries": entries,
            "exponent": exponent, "stderr": stderr}

