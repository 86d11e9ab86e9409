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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .baker_classical import BakerSpec
from .errors import BadDimension, DimensionCap, DimensionMismatch

TWO_PI = 2.0 * math.pi
DENSE_CAP = 6561


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

    @property
    def h(self):
        # stored derived, never independently: h·2πN = 1 in intent
        return 1.0 / (TWO_PI * self.N)

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


def _parity_split(op):
    """(own, others) for each sector of the map on its kept (allowed-strip)
    indices: one sector with no others without the parity symmetry (see
    `_sectors`).  N above DENSE_CAP is DimensionCap."""
    if op.N > DENSE_CAP:
        raise DimensionCap(f"N={op.N} exceeds dense cap {DENSE_CAP}")
    na = op.N // op.spec.a
    keep = np.concatenate([np.arange(j * na, (j + 1) * na) for j in op.spec.alphabet])
    sectors = _sectors(op, keep)
    return [(own, [s for s in sectors if s is not own]) for own in sectors]


def _sector_block(op, own, others):
    """The block of sector `own` and the norm of its coupling part (0.0
    with no `others`): the images of own's basis, one batch through the
    map, folded onto own and onto each of `others`."""
    images = _map_rows(op, _unfold(np.eye(own[0].size), own, op.N))
    return _fold(images, own), math.hypot(*(np.linalg.norm(_fold(images, s)) for s in others))


def _coupling(parts):
    return reduce(math.hypot, parts, 0.0)  # in sector order, bit for bit

