"""Tests for the quantized open baker map.

Oracle: the dense matrix assembled directly from the kernel definition
(full-size inverse kernel times block-diagonal strip kernels), built
with plain matrix algebra and no FFT.  The FFT-structured apply path
must reproduce it to 1e-12.  The parity blocks of one map, built
sector by sector (`oracles.parity_blocks`), are checked against it too.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmaps import quantum_baker
from openmaps.baker_classical import BakerSpec
from openmaps.errors import BadDimension, DimensionCap, DimensionMismatch
from openmaps.quantum_baker import (
    OpenMapOperator,
    QuantumState,
    apply,
    build,
    dense,
)
from oracles import parity_blocks

SPEC32 = BakerSpec(3, (0, 2))
CLOSED2 = BakerSpec(2, (0, 1))


def kernel_matrix(M, theta):
    """Definition of the offset Fourier kernel, no FFT involved."""
    idx = np.arange(M) + theta
    return np.exp(-2j * np.pi * np.outer(idx, idx) / M) / math.sqrt(M)


def dense_from_kernels(spec, N, theta):
    """Oracle assembly: G_N^{-1} @ blockdiag(G_{N/a} on allowed strips)."""
    na = N // spec.a
    blocks = np.zeros((N, N), dtype=np.complex128)
    small = kernel_matrix(na, theta)
    for j in spec.alphabet:
        blocks[j * na : (j + 1) * na, j * na : (j + 1) * na] = small
    return np.linalg.inv(kernel_matrix(N, theta)) @ blocks


def dense_by_columns(op):
    """Oracle assembly: one apply call per basis vector."""
    cols = np.zeros((op.N, op.N), dtype=np.complex128)
    for k in range(op.N):
        basis = np.zeros(op.N, dtype=np.complex128)
        basis[k] = 1.0
        cols[:, k] = apply(op, QuantumState(op.N, basis)).amps
    return cols


def rand_state(N, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.normal(size=N) + 1j * rng.normal(size=N)
    return QuantumState(N, v / np.linalg.norm(v))


# The kernel as it was before its twiddles were cached and its batches
# transformed in place: the in-place kernel must match it bit for bit.

def fourier_apply_oracle(v, theta):
    M = v.shape[-1]
    idx = np.arange(M)
    tw = np.exp(-2j * np.pi * theta * idx / M)
    out = np.fft.fft(tw * v) / math.sqrt(M)
    return np.exp(-2j * np.pi * theta**2 / M) * tw * out


def fourier_inverse_apply_oracle(v, theta):
    return np.conj(fourier_apply_oracle(np.conj(v), theta))


def map_rows_oracle(op, v):
    a = op.spec.a
    na = op.N // a
    walsh = op.variant == "WALSH"

    def block(seg, inverse):
        if walsh:
            return quantum_baker._walsh_apply(seg, a, op.theta, inverse=inverse)
        if inverse:
            return fourier_inverse_apply_oracle(seg, op.theta)
        return fourier_apply_oracle(seg, op.theta)

    mid = np.zeros(v.shape, dtype=np.complex128)
    for j in op.spec.alphabet:
        mid[..., j * na : (j + 1) * na] = block(
            v[..., j * na : (j + 1) * na], inverse=False
        )
    return block(mid, inverse=True)


class TestKernel:
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_kernel_unitary(self, theta):
        G = kernel_matrix(12, theta)
        assert np.max(np.abs(G @ G.conj().T - np.eye(12))) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_fft_path_matches_kernel_definition(self, theta):
        from openmaps.quantum_baker import _fourier_apply, _fourier_inverse_apply

        G = kernel_matrix(16, theta)
        v = rand_state(16, 1).amps
        assert np.max(np.abs(_fourier_apply(v, theta) - G @ v)) < 1e-12
        assert np.max(
            np.abs(_fourier_inverse_apply(v, theta) - np.linalg.inv(G) @ v)
        ) < 1e-12


KERNEL_CASES = [
    pytest.param(M, theta, shape, id=f"{M}-{theta}-{'x'.join(map(str, shape))}")
    for M in (3, 27, 729, 2187) for theta in (0.0, 0.5)
    for shape in ((M,), (5, M))
]


def rand_batch(shape, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestInPlaceKernel:
    """Cached twiddles and in-place batches against the allocating kernel."""

    @pytest.mark.parametrize("M, theta, shape", KERNEL_CASES)
    @pytest.mark.parametrize("forward", [True, False], ids=["fwd", "inv"])
    def test_bit_identical(self, M, theta, shape, forward):
        new, old = ((quantum_baker._fourier_apply, fourier_apply_oracle)
                    if forward else (quantum_baker._fourier_inverse_apply,
                                     fourier_inverse_apply_oracle))
        v = rand_batch(shape, M)
        expect = old(v, theta)
        kept = v.copy()
        assert np.array_equal(new(v, theta), expect)
        assert np.array_equal(v, kept)  # out=None leaves the input alone
        # out a strided column slice of a larger array
        wide = np.zeros(shape[:-1] + (3 * M,), dtype=np.complex128)
        view = wide[..., M : 2 * M]
        assert new(v, theta, out=view) is view
        assert np.array_equal(view, expect)
        assert not np.any(wide[..., :M]) and not np.any(wide[..., 2 * M :])
        # out aliasing the input
        new(v, theta, out=v)
        assert np.array_equal(v, expect)

    def test_real_input(self):
        g = np.random.Generator(np.random.Philox(9)).normal(size=81)
        for theta in (0.0, 0.5):
            assert np.array_equal(quantum_baker._fourier_apply(g, theta),
                                  fourier_apply_oracle(g, theta))

    def test_cached_twiddles_are_read_only(self):
        for arr in quantum_baker._twiddles(27, 0.5):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("spec, N, variant, theta", [
        (SPEC32, 243, "FFT", 0.5), (SPEC32, 243, "FFT", 0.0),
        (BakerSpec(3, (0, 1)), 81, "FFT", 0.5),
        (BakerSpec(4, (0, 3)), 64, "FFT", 0.5),
        (SPEC32, 243, "WALSH", 0.5), (SPEC32, 81, "WALSH", 0.0),
    ], ids=["3-02-fft", "3-02-theta0", "3-01", "4-03", "3-02-walsh",
            "walsh-theta0"])
    def test_dense_and_blocks_match_oracle_kernel(self, spec, N, variant,
                                                  theta, monkeypatch):
        op = build(spec, N, variant=variant, theta=theta)
        mat, (blocks, coupling) = dense(op), parity_blocks(op)
        monkeypatch.setattr(quantum_baker, "_map_rows", map_rows_oracle)
        ref_blocks, ref_coupling = parity_blocks(op)
        assert np.array_equal(mat, dense(op))
        assert len(blocks) == len(ref_blocks)
        assert all(map(np.array_equal, blocks, ref_blocks))
        assert coupling == ref_coupling


class TestBuild:
    def test_indivisible_dimension_rejected(self):
        with pytest.raises(BadDimension):
            build(SPEC32, 10)

    def test_walsh_needs_power(self):
        with pytest.raises(BadDimension):
            build(SPEC32, 18, variant="WALSH")

    def test_bad_variant_and_theta(self):
        with pytest.raises(ValueError):
            build(SPEC32, 9, variant="DCT")
        with pytest.raises(ValueError):
            build(SPEC32, 9, theta=0.3)

    def test_closed_baker_unitary(self):
        op = build(CLOSED2, 8)
        M = dense(op)
        assert np.max(np.abs(M.conj().T @ M - np.eye(8))) <= 1e-12

    def test_open_baker_rank_by_svd(self):
        # blocks kill one strip of three: six singular values 1, three 0
        op = build(SPEC32, 9)
        s = np.linalg.svd(dense(op), compute_uv=False)
        assert np.sum(s > 0.5) == 6
        assert np.max(np.abs(np.sort(s)[-6:] - 1.0)) < 1e-12
        assert np.max(np.sort(s)[:3]) < 1e-12

    def test_smallest_open_case_hand_assembly(self):
        # N=3 at offset 0: the strip blocks are the 1x1 identity, so the
        # matrix is exactly G_3^{-1} diag(1, 0, 1)
        op = build(SPEC32, 3, theta=0.0)
        expect = np.linalg.inv(kernel_matrix(3, 0.0)) @ np.diag([1.0, 0.0, 1.0])
        assert np.max(np.abs(dense(op) - expect)) < 1e-12


class TestApply:
    def test_dimension_mismatch(self):
        op = build(SPEC32, 9)
        with pytest.raises(DimensionMismatch):
            apply(op, rand_state(12, 0))

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_matches_kernel_oracle(self, theta):
        op = build(SPEC32, 81, theta=theta)
        M = dense_from_kernels(SPEC32, 81, theta)
        psi = rand_state(81, 3)
        out = apply(op, psi).amps
        assert np.max(np.abs(out - M @ psi.amps)) < 1e-12

    def test_dense_column_assembly_matches_oracle(self):
        op = build(SPEC32, 27)
        assert np.max(np.abs(dense(op) - dense_from_kernels(SPEC32, 27, 0.5))) < 1e-12

    def test_closed_map_preserves_norm(self):
        op = build(CLOSED2, 64)
        psi = rand_state(64, 5)
        assert apply(op, psi).norm() == pytest.approx(1.0, abs=1e-12)

    def test_excluded_strip_is_kernel(self):
        op = build(SPEC32, 27)
        amps = np.zeros(27, dtype=np.complex128)
        amps[9:18] = rand_state(9, 7).amps  # middle strip, not in alphabet
        assert apply(op, QuantumState(27, amps)).norm() <= 1e-12

    def test_norm_nonincreasing(self):
        op = build(SPEC32, 81)
        for seed in range(5):
            psi = rand_state(81, seed)
            assert apply(op, psi).norm() <= 1.0 + 1e-10

    def test_subunitarity_singular_values(self):
        for spec, N in [(SPEC32, 27), (BakerSpec(4, (1, 2)), 32), (CLOSED2, 16)]:
            s = np.linalg.svd(dense(build(spec, N)), compute_uv=False)
            assert s.max() <= 1.0 + 1e-10

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        op = build(SPEC32, 27)
        u = rand_state(27, seed)
        v = rand_state(27, seed + 1)
        lhs = apply(op, QuantumState(27, 0.7 * u.amps + 2j * v.amps)).amps
        rhs = 0.7 * apply(op, u).amps + 2j * apply(op, v).amps
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestWalsh:
    def test_walsh_closed_unitary(self):
        op = build(CLOSED2, 8, variant="WALSH")
        M = dense(op)
        assert np.max(np.abs(M.conj().T @ M - np.eye(8))) <= 1e-12

    def test_walsh_rank_matches_fft_rank(self):
        fft_s = np.linalg.svd(dense(build(SPEC32, 27)), compute_uv=False)
        wal_s = np.linalg.svd(
            dense(build(SPEC32, 27, variant="WALSH")), compute_uv=False
        )
        # both variants have rank N·m/a = 18
        assert np.sum(fft_s > 0.5) == np.sum(wal_s > 0.5) == 18
        assert wal_s.max() <= 1.0 + 1e-10

    def test_walsh_excluded_strip_is_kernel(self):
        op = build(SPEC32, 27, variant="WALSH")
        amps = np.zeros(27, dtype=np.complex128)
        amps[9:18] = rand_state(9, 2).amps
        assert apply(op, QuantumState(27, amps)).norm() <= 1e-12


class TestDenseStrips:
    """Strip-batched assembly against the per-column apply loop."""

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_fft_bit_identical(self, theta):
        op = build(SPEC32, 243, theta=theta)
        assert np.array_equal(dense(op), dense_by_columns(op))

    def test_walsh(self):
        op = build(SPEC32, 243, variant="WALSH")
        gap = np.abs(dense(op) - dense_by_columns(op))
        assert gap.max() <= 1e-14

    def test_excluded_strip_columns_exactly_zero(self):
        M = dense(build(SPEC32, 81))
        assert not np.any(M[:, 27:54])
        assert np.all(np.any(M[:, :27] != 0, axis=0))


SYMMETRIC = [
    pytest.param(SPEC32, 243, "FFT", id="3-02-243"),
    pytest.param(BakerSpec(5, (0, 2, 4)), 125, "FFT", id="5-024-125"),
    pytest.param(BakerSpec(4, (0, 3)), 64, "FFT", id="4-03-64"),
    pytest.param(SPEC32, 243, "WALSH", id="3-02-243-walsh"),
]
ONE_BLOCK = [
    pytest.param(BakerSpec(3, (0, 1)), 81, 0.5, id="3-01"),
    pytest.param(SPEC32, 81, 0.0, id="theta-0"),
]


def kept_indices(spec, N):
    na = N // spec.a
    return [i for i in range(N) if i // na in spec.alphabet]


def parity_basis(spec, N):
    """Even and odd bases of the allowed-strip indices, one vector per column.

    Pairs (e_i ± e_{N-1-i})/√2 in increasing i, then the middle index of
    odd N, alone, at the end of the even sector.
    """
    even, odd = [], []
    for i in kept_indices(spec, N):
        j = N - 1 - i
        if i < j:
            for sign, sector in ((1.0, even), (-1.0, odd)):
                v = np.zeros(N)
                v[i], v[j] = math.sqrt(0.5), sign * math.sqrt(0.5)
                sector.append(v)
    if N % 2 and N // 2 in kept_indices(spec, N):
        even.append(np.eye(N)[N // 2])
    return np.array(even).T, np.array(odd).T


class TestParityBlocks:
    """The parity blocks against compressions of the dense matrix."""

    @pytest.mark.parametrize("spec, N, variant", SYMMETRIC)
    def test_map_commutes_with_parity(self, spec, N, variant):
        M = dense(build(spec, N, variant=variant))
        assert np.max(np.abs(M[::-1, ::-1] - M)) <= 1e-13

    @pytest.mark.parametrize("spec, N, theta", ONE_BLOCK)
    def test_asymmetric_map_breaks_parity(self, spec, N, theta):
        M = dense(build(spec, N, theta=theta))
        assert np.max(np.abs(M[::-1, ::-1] - M)) >= 0.1

    @pytest.mark.parametrize("spec, N, variant", SYMMETRIC)
    def test_blocks_are_parity_compressions(self, spec, N, variant):
        op = build(spec, N, variant=variant)
        M = dense(op)
        blocks, _ = parity_blocks(op)
        assert len(blocks) == 2
        for block, Q in zip(blocks, parity_basis(spec, N)):
            assert block.shape == (Q.shape[1], Q.shape[1])
            assert np.max(np.abs(block - Q.T @ M @ Q)) <= 1e-13

    @pytest.mark.parametrize("spec, N, variant", SYMMETRIC)
    def test_coupling_is_cross_compression(self, spec, N, variant):
        op = build(spec, N, variant=variant)
        M = dense(op)
        even, odd = parity_basis(spec, N)
        _, coupling = parity_blocks(op)
        cross = math.hypot(np.linalg.norm(odd.T @ M @ even),
                           np.linalg.norm(even.T @ M @ odd))
        assert coupling <= 1e-13
        assert abs(coupling - cross) <= 1e-13

    @pytest.mark.parametrize("spec, N, theta", ONE_BLOCK)
    def test_one_block_is_kept_compression(self, spec, N, theta):
        op = build(spec, N, theta=theta)
        keep = kept_indices(spec, N)
        blocks, coupling = parity_blocks(op)
        assert coupling == 0.0
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], dense(op)[np.ix_(keep, keep)])


class TestDenseCap:
    def test_cap_enforced(self):
        op = build(SPEC32, 3**9)
        with pytest.raises(DimensionCap):
            dense(op)

    @pytest.mark.parametrize("theta", [0.5, 0.0])
    def test_basis_cap_enforced(self, theta, monkeypatch):
        # one sector or two, the split stops before any basis goes through the map
        def no_map(*args, **kwargs):
            raise AssertionError("the map ran above the cap")

        monkeypatch.setattr(quantum_baker, "_map_rows", no_map)
        op = build(SPEC32, 3**9, theta=theta)
        with pytest.raises(DimensionCap):
            quantum_baker._basis(op)

    def test_operator_is_frozen(self):
        op = build(SPEC32, 9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.N = 27

    def test_dense_returns_a_fresh_matrix(self):
        # nothing is cached, so editing one result cannot leak into the next
        op = build(SPEC32, 9)
        first = dense(op)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(dense(op), expected)
