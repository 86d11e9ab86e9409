"""Quantized open baker maps on the N-dimensional torus Hilbert space.

The propagator conjugates a block-diagonal Fourier transform on the
allowed strips by the full-size inverse transform; strips outside the
alphabet are projected away, so the matrix is subunitary of rank N·m/a.
States live in the position basis and the semiclassical parameter is
h = 1/(2πN).  The kernels carry a half-integer offset by default, which
keeps the parity symmetry of the map; offset 0 reproduces the plain DFT
convention.  Applications are FFT-structured, O(N log N); the WALSH
variant replaces the Fourier kernel by its base-a tensor factorization.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

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


@dataclass
class OpenMapOperator:
    """Quantized open baker map; immutable after build, dense is cached."""

    spec: BakerSpec
    N: int
    variant: str = "FFT"
    theta: float = 0.5
    _dense: np.ndarray | None = field(default=None, repr=False, compare=False)


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


def _fourier_apply(v, theta):
    """Offset Fourier kernel G_M, kernel M^{-1/2} e^{-2πi(k+θ)(l+θ)/M}."""
    M = v.shape[-1]
    idx = np.arange(M)
    tw = np.exp(-2j * np.pi * theta * idx / M)
    out = np.fft.fft(tw * v) / math.sqrt(M)
    return np.exp(-2j * np.pi * theta**2 / M) * tw * out


def _fourier_inverse_apply(v, theta):
    # G is unitary and symmetric, so G^{-1} w = conj(G conj(w))
    return np.conj(_fourier_apply(np.conj(v), theta))


def _fourier_matrix(M, theta):
    idx = np.arange(M) + theta
    return np.exp(-2j * np.pi * np.outer(idx, idx) / M) / math.sqrt(M)


def _walsh_apply(v, a, theta, inverse=False):
    """Tensor-factorized kernel G_a^{⊗k} applied axis by axis (last axis)."""
    if inverse:
        return np.conj(_walsh_apply(np.conj(v), a, theta))
    k = round(math.log(v.shape[-1]) / math.log(a))
    Ga = _fourier_matrix(a, theta)
    batch = v.ndim - 1
    tensor = v.reshape(v.shape[:-1] + (a,) * k)
    for axis in range(batch, batch + k):
        tensor = np.moveaxis(np.tensordot(Ga, tensor, axes=(1, axis)), 0, axis)
    return tensor.reshape(v.shape)


def _map_rows(op, v, adjoint):
    """The open map (or its adjoint) applied along the last axis of v."""
    a = op.spec.a
    na = op.N // a
    walsh = op.variant == "WALSH"

    def block(seg, inverse):
        if walsh:
            return _walsh_apply(seg, a, op.theta, inverse=inverse)
        if inverse:
            return _fourier_inverse_apply(seg, op.theta)
        return _fourier_apply(seg, op.theta)

    if not adjoint:
        mid = np.zeros(v.shape, dtype=np.complex128)
        for j in op.spec.alphabet:
            mid[..., j * na : (j + 1) * na] = block(
                v[..., j * na : (j + 1) * na], inverse=False
            )
        return block(mid, inverse=True)
    # M* = blockdiag* · G_N: forward full transform, inverse blocks
    mid = block(v, inverse=False)
    out = np.zeros(v.shape, dtype=np.complex128)
    for j in op.spec.alphabet:
        out[..., j * na : (j + 1) * na] = block(
            mid[..., j * na : (j + 1) * na], inverse=True
        )
    return out


def apply(op, state, adjoint=False):
    """Apply the open map (or its adjoint) to a state, O(N log N)."""
    if state.N != op.N:
        raise DimensionMismatch(f"operator N={op.N}, state N={state.N}")
    return QuantumState(op.N, _map_rows(op, state.amps, adjoint))


def dense(op, cap=DENSE_CAP, adjoint=False):
    """Materialize the matrix one strip of basis vectors at a time; cached.

    Each strip's N/a basis vectors go through the map as one batch.
    Columns of excluded strips are exactly zero for the map itself, so
    only the allowed strips are computed; the adjoint needs all of them.
    """
    if op.N > cap:
        raise DimensionCap(f"N={op.N} exceeds dense cap {cap}")
    if not adjoint and op._dense is not None:
        return op._dense
    na = op.N // op.spec.a
    cols = np.zeros((op.N, op.N), dtype=np.complex128)
    for j in range(op.spec.a) if adjoint else op.spec.alphabet:
        basis = np.zeros((na, op.N), dtype=np.complex128)
        basis[:, j * na : (j + 1) * na] = np.eye(na)
        cols[:, j * na : (j + 1) * na] = _map_rows(op, basis, adjoint).T
    if not adjoint:
        op._dense = cols
    return cols


def write_dense(matrix, path):
    """Binary export: magic OQM1, u64 N little-endian, row-major re/im f64."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("square matrix expected")
    interleaved = np.empty((n, n, 2), dtype="<f8")
    interleaved[..., 0] = matrix.real
    interleaved[..., 1] = matrix.imag
    with open(path, "wb") as fh:
        fh.write(b"OQM1")
        fh.write(struct.pack("<Q", n))
        fh.write(interleaved.tobytes())


def read_dense(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"OQM1":
            raise ValueError(f"bad magic {magic!r}")
        (n,) = struct.unpack("<Q", fh.read(8))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    if raw.size != 2 * n * n:
        raise ValueError("truncated matrix file")
    pairs = raw.reshape(n, n, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def state_to_csv(state):
    lines = ["index,re,im"]
    for k, z in enumerate(state.amps):
        lines.append(f"{k},{float(z.real)!r},{float(z.imag)!r}")
    return "\n".join(lines) + "\n"


def state_from_csv(text):
    rows = [ln for ln in text.strip().splitlines() if ln]
    if rows[0] != "index,re,im":
        raise ValueError(f"bad header {rows[0]!r}")
    amps = np.zeros(len(rows) - 1, dtype=np.complex128)
    for ln in rows[1:]:
        k, re, im = ln.split(",")
        amps[int(k)] = float(re) + 1j * float(im)
    return QuantumState(len(amps), amps)
