"""Quantized open baker maps on the N-dimensional torus Hilbert space.

The propagator conjugates a block-diagonal Fourier transform on the
allowed strips by the full-size inverse transform; strips outside the
alphabet are projected away, so the matrix is subunitary of rank N·m/a.
States live in the position basis and the semiclassical parameter is
h = 1/(2πN).  The kernels carry a half-integer offset by default, which
keeps the parity symmetry of the map; offset 0 reproduces the plain DFT
convention.  Applications are FFT-structured, O(N log N): the offset
kernel's twiddles are cached per (M, θ) as read-only arrays, and a batch
of rows is transformed in place, each allowed strip straight into one
buffer.  The WALSH variant replaces the Fourier kernel by its base-a
tensor factorization.

Where the kept indices form one cyclic run (FFT variant, θ = ½, the
alphabet a cyclic run of digits short of a), the map's compression is
also taken in a prolate basis.  On the run the inverse transform is
C = p K p, p diagonal phases and K the centred kernel
K_ij = N^{-1/2} e^{2πi y_i y_j/N}, y_j = j - n/2 + ½, which commutes
with a real symmetric tridiagonal T (Slepian 1978, Grünbaum 1981).  With
V the eigenvectors of T, K V = V diag(μ), and the compression A = C U
(U the strip transforms) is unitarily similar to W diag(μ),
W = Vᵀ p U p V, which is block diagonal by parity.  Columns with
|μ| at most PROLATE_NULL are numerically null and are dropped.  Only
`_basis` splits a map for the eigensolve: its structural zeros, its
kept indices and one task per block, in either basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .baker_classical import BakerSpec
from .errors import BadDimension, DimensionCap, DimensionMismatch

DENSE_CAP = 6561
# prolate columns whose kernel eigenvalue has at most this modulus are
# dropped as numerically null
PROLATE_NULL = 1e-13


@dataclass(frozen=True)
class QuantumState:
    """Position-basis amplitudes on the N-point torus grid."""

    N: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.N,):
            raise DimensionMismatch(
                f"state of length {amps.shape} does not match N={self.N}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("non-finite amplitudes")
        object.__setattr__(self, "amps", amps)

    def norm(self):
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class OpenMapOperator:
    """Quantized open baker map; immutable after build."""

    spec: BakerSpec
    N: int
    variant: str = "FFT"
    theta: float = 0.5


def build(spec, N, variant="FFT", theta=0.5):
    """Assemble the operator description (no matrix is formed yet)."""
    if variant not in ("FFT", "WALSH"):
        raise ValueError(f"variant {variant!r} not in {{FFT, WALSH}}")
    if theta not in (0.0, 0.5):
        raise ValueError("kernel offset theta must be 0 or 1/2")
    if N < spec.a or N % spec.a != 0:
        raise BadDimension(f"a={spec.a} does not divide N={N}")
    if variant == "WALSH":
        k = round(math.log(N) / math.log(spec.a))
        if spec.a**k != N:
            raise BadDimension(f"WALSH needs N a power of a; got N={N}, a={spec.a}")
    return OpenMapOperator(spec=spec, N=N, variant=variant, theta=theta)


@lru_cache(maxsize=64)
def _twiddles(M, theta):
    """Read-only (tw, post) of G_M: tw_k = e^{-2πiθk/M}, post = e^{-2πiθ²/M}·tw."""
    tw = np.exp(-2j * np.pi * theta * np.arange(M) / M)
    post = np.exp(-2j * np.pi * theta**2 / M) * tw
    tw.flags.writeable = post.flags.writeable = False
    return tw, post


def _fourier_apply(v, theta, out=None):
    """Offset Fourier kernel G_M, kernel M^{-1/2} e^{-2πi(k+θ)(l+θ)/M}, on
    the last axis; in place in `out` (v itself or a view) when given."""
    tw, post = _twiddles(v.shape[-1], theta)
    f = np.multiply(tw, v, out=out)
    np.fft.fft(f, out=f)
    f /= math.sqrt(v.shape[-1])
    # post·f, not f·post: complex multiply is not commutative bit for bit
    return np.multiply(post, f, out=f)


def _fourier_inverse_apply(v, theta, out=None):
    # G is unitary and symmetric, so G^{-1} w = conj(G conj(w)); v complex
    f = np.conjugate(v, out=out)
    return np.conjugate(_fourier_apply(f, theta, out=f), out=f)


def _fourier_matrix(M, theta):
    idx = np.arange(M) + theta
    return np.exp(-2j * np.pi * np.outer(idx, idx) / M) / math.sqrt(M)


def _walsh_apply(v, a, theta, inverse=False):
    """Walsh transform W = R·G_a^{⊗k} on the last axis, R the digit reversal.

    R (Nonnenmacher–Zworski) commutes with G_a^{⊗k}, so W is symmetric
    and unitary and W⁻¹ w = conj(W conj(w)).
    """
    if inverse:
        return np.conj(_walsh_apply(np.conj(v), a, theta))
    k = round(math.log(v.shape[-1]) / math.log(a))
    Ga = _fourier_matrix(a, theta)
    batch = v.ndim - 1
    tensor = v.reshape(v.shape[:-1] + (a,) * k)
    for axis in range(batch, batch + k):
        tensor = np.moveaxis(np.tensordot(Ga, tensor, axes=(1, axis)), 0, axis)
    digits = tuple(range(batch + k - 1, batch - 1, -1))
    return tensor.transpose(tuple(range(batch)) + digits).reshape(v.shape)


def _map_rows(op, v):
    """The open map along the last axis of v: each allowed strip's transform
    goes into its segment of one buffer, inverse-transformed in place."""
    a, theta = op.spec.a, op.theta
    na = op.N // a
    mid = np.zeros(v.shape, dtype=np.complex128)
    for j in op.spec.alphabet:
        seg = slice(j * na, (j + 1) * na)
        if op.variant == "WALSH":
            mid[..., seg] = _walsh_apply(v[..., seg], a, theta)
        else:
            _fourier_apply(v[..., seg], theta, out=mid[..., seg])
    if op.variant == "WALSH":
        return _walsh_apply(mid, a, theta, inverse=True)
    return _fourier_inverse_apply(mid, theta, out=mid)


def apply(op, state):
    """Apply the open map to a state, O(N log N)."""
    if state.N != op.N:
        raise DimensionMismatch(f"operator N={op.N}, state N={state.N}")
    return QuantumState(op.N, _map_rows(op, state.amps))


def dense(op, cap=DENSE_CAP):
    """Materialize the matrix one strip of basis vectors at a time.

    Each strip's N/a basis vectors go through the map as one batch.
    Columns of excluded strips are exactly zero, so only the allowed
    strips are computed.
    """
    if op.N > cap:
        raise DimensionCap(f"N={op.N} exceeds dense cap {cap}")
    na = op.N // op.spec.a
    cols = np.zeros((op.N, op.N), dtype=np.complex128)
    for j in op.spec.alphabet:
        basis = np.zeros((na, op.N), dtype=np.complex128)
        basis[:, j * na : (j + 1) * na] = np.eye(na)
        cols[:, j * na : (j + 1) * na] = _map_rows(op, basis).T
    return cols


def _sectors(op, keep):
    """Bases the map splits over on the indices `keep`, each as (indices i,
    mirrors N-1-i, weights w, v): vector q is w_q e_{i_q} + v_q e_{N-1-i_q}.

    Where the map commutes with the parity e_j ↦ e_{N-1-j} (θ = ½, alphabet
    closed under j ↦ a-1-j), the even and odd sectors: weights 1/√2 and
    ±1/√2 for a mirror pair, 1 and 0 for the middle index of odd N, which
    is even.  Otherwise `keep` itself is the one sector.
    """
    a, alphabet, N = op.spec.a, op.spec.alphabet, op.N
    if op.theta != 0.5 or set(alphabet) != {a - 1 - j for j in alphabet}:
        return [(keep, keep, np.ones(keep.size), np.zeros(keep.size))]
    half, mid = keep[2 * keep < N - 1], keep[2 * keep == N - 1]
    r = np.full(half.size, math.sqrt(0.5))
    return [(np.concatenate([half, mid]), np.concatenate([N - 1 - half, mid]),
             np.concatenate([r, np.ones(mid.size)]),
             np.concatenate([r, np.zeros(mid.size)])),
            (half, N - 1 - half, r, -r)]


def _fold(rows, sector):
    """Sᵀ rowsᵀ for the sector basis S: rows over N indices onto its vectors."""
    idx, mirror, w, v = sector
    return (rows[:, idx] * w + rows[:, mirror] * v).T


def _unfold(coeffs, sector, N):
    """coeffs Sᵀ as complex rows over N indices: row q is S coeffs[q]ᵀ."""
    idx, mirror, w, v = sector
    rows = np.zeros((coeffs.shape[0], N), dtype=np.complex128)
    rows[:, mirror] = coeffs * v
    rows[:, idx] = coeffs * w  # after v: the middle index is its own mirror
    return rows


def _sector_block(op, own, others):
    """The block of sector `own` and the norm of its coupling part (0.0
    with no `others`): the images of own's basis, one batch through the
    map, folded onto own and onto each of `others`."""
    images = _map_rows(op, _unfold(np.eye(own[0].size), own, op.N))
    return _fold(images, own), math.hypot(*(np.linalg.norm(_fold(images, s)) for s in others))


def _run(op):
    """(s, n): the kept indices as the one cyclic run s, s+1, …, s+n-1
    (mod N) of n < N, where the prolate basis applies (FFT variant, θ = ½,
    the alphabet a cyclic run of digits short of a); else None."""
    a, alphabet = op.spec.a, set(op.spec.alphabet)
    starts = [j for j in alphabet if (j - 1) % a not in alphabet]
    if op.variant != "FFT" or op.theta != 0.5 or len(starts) != 1:
        return None
    na = op.N // a
    return starts[0] * na, len(alphabet) * na


def _halves(n):
    """The even and odd sectors (as `_sectors` gives them, each with its
    sign +1, -1) of the reversal j ↦ n-1-j of the run's n coordinates,
    ordered from the centre out; for n = 1 the odd one is empty and left
    out."""
    m, r = n // 2, math.sqrt(0.5)
    even, odd = np.arange(m, n), np.arange(n - m, n)
    centre = even == n - 1 - even  # n odd: the centre first, its own mirror
    halves = [((even, n - 1 - even, np.where(centre, 1.0, r), np.where(centre, 0.0, r)), 1),
              ((odd, n - 1 - odd, np.full(m, r), np.full(m, -r)), -1)]
    return [half for half in halves if half[0][0].size]


def _folded(n, N, half):
    """(d, e, K_S): T folded onto one half's sector S of the run, its
    diagonal d and off-diagonal e, and K folded onto it, dense; real on
    the even half, i times this on the odd one."""
    (idx, mirror, *_), sign = half
    d = -math.cos(math.pi * n / N) * np.cos(np.pi * (2 * idx + 1 - n) / N)
    e = np.sin(np.pi * (idx[:-1] + 1) / N) * np.sin(np.pi * (n - 1 - idx[:-1]) / N)
    centre = idx == mirror
    if mirror[0] == idx[0] - 1:  # n even: the first vector meets its mirror
        d[0] += sign * math.sin(math.pi * idx[0] / N) ** 2
    elif centre[0] and e.size:
        e[0] *= math.sqrt(2.0)
    # K_S = ω (E + sign Ē) ω, E_ij = N^{-1/2} e^{2πi y_i y_j/N} over the
    # half's y ≥ 0, ω = 1 but 1/√2 at the centre; the phase is reduced
    # mod 2π in integers, 2y being one
    y2, omega = 2 * idx + 1 - n, np.where(centre, math.sqrt(0.5), 1.0)
    trig = np.cos if sign > 0 else np.sin
    kernel = trig(np.pi / (2 * N) * ((y2[:, None] * y2) % (4 * N)))
    kernel *= np.outer(omega, omega * (2.0 / math.sqrt(N)))
    return d, e, kernel


def _prolate_half(n, N, half):
    """(G, μ, part) on one half of the run: the columns of G are the
    eigenvectors of T folded onto the half's sector S, so V = S G; μ_q is
    K's Rayleigh quotient on them; `part` is the hypot of ||K S G - S G μ||_F
    and ||GᵀG - I||_F.  K S G is one real gemm (see `_folded`)."""
    from scipy.linalg import eigh_tridiagonal

    d, e, kernel = _folded(n, N, half)
    G = eigh_tridiagonal(d, e)[1]
    kg = kernel @ G
    mu = np.einsum("iq,iq->q", G, kg)
    resid = np.linalg.norm(kg - G * mu)
    return G, mu * (1 if half[1] > 0 else 1j), math.hypot(
        resid, np.linalg.norm(G.T @ G - np.eye(len(d))))


def _prolate_phases(s, n, N):
    """p on the run: C = p K p, from (x+½)(x'+½) = (c+y)(c+y'), c = s + n/2,
    and the sign of each index past N - 1 wrapped back to the front."""
    u, c2 = s + np.arange(n), 2 * s + n
    p = np.exp(1j * np.pi * ((c2 * (4 * u + 2 - c2)) % (8 * N)) / (4 * N))
    p[u >= N] *= -1
    return p


def _prolate_block(op, own, others):
    """The block of the halves `own` in the prolate basis, W_kk diag(μ_k)
    on their kept columns k, and the norm of what it leaves out: the
    dropped columns' μ, each half's `_prolate_half` part, and the coupling
    onto the halves of the groups `others`, each a fold of p U p V_k
    diag(μ_k) (U the strip transforms, in place on the run's rows; p
    enters through the sectors' weights)."""
    s, n = _run(op)
    kept, mus, parts = [], [], []
    for half in own:
        G, mu, part = _prolate_half(n, op.N, half)
        keep = np.abs(mu) > PROLATE_NULL
        kept.append(G[:, keep])
        mus.append(mu[keep])
        parts += [part, np.linalg.norm(mu[~keep])]
    mu = np.concatenate(mus)
    p = _prolate_phases(s, n, op.N)

    def phased(half):  # p S for the half's sector S: its weights times p
        (idx, mirror, w, v), _ = half
        return idx, mirror, w * p[idx], v * p[mirror]

    rows = np.concatenate([_unfold(Gk.T, phased(half), n) for Gk, half in zip(kept, own)])
    strips = rows.reshape(rows.shape[0], -1, op.N // op.spec.a)
    _fourier_apply(strips, 0.5, out=strips)
    # Gᵀ F as one real gemm on F's interleaved real and imaginary parts
    folds = [np.ascontiguousarray(_fold(rows, phased(half))) for half in own]
    block = np.concatenate([(Gk.T @ F.view(np.float64)).view(np.complex128)
                            for Gk, F in zip(kept, folds)])
    block *= mu
    coupling = [np.linalg.norm(_fold(rows, phased(half)) * mu)
                for group in others for half in group]
    return block, math.hypot(*parts, *coupling)


def _basis(op):
    """(name, zeros, tasks): the basis `spectra` solves the map in, its
    structural zeros (the excluded strips' indices), and per block on the
    kept indices a call giving it and the norm of what it leaves out, its
    coupling onto the other blocks included.  "prolate" (`_prolate_block`,
    each half of `_halves` a block with the parity symmetry, else both
    one) where `_run` applies, else "position" (`_sector_block`, each
    sector of `_sectors` a block).  N above DENSE_CAP is DimensionCap."""
    if op.N > DENSE_CAP:
        raise DimensionCap(f"N={op.N} exceeds dense cap {DENSE_CAP}")
    na = op.N // op.spec.a
    keep = np.concatenate([np.arange(j * na, (j + 1) * na) for j in op.spec.alphabet])
    name, block, groups = "position", _sector_block, _sectors(op, keep)
    if (run := _run(op)) is not None:
        halves = _halves(run[1])
        name, block = "prolate", _prolate_block
        groups = [[half] for half in halves] if len(groups) > 1 else [halves]
    return name, op.N - keep.size, [partial(block, op, own, [g for g in groups if g is not own])
                                    for own in groups]
