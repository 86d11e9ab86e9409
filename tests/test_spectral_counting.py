"""Tests for spectra, annulus counts, and Weyl-exponent fits.

Oracles: diagonal matrices with hand-picked spectra; the SVD rank of
the open baker matrix (rank deficiency forces N·(1-m/a) null
eigenvalues); the full-matrix `scipy.linalg.eig` spectrum at N <= 729,
which the deflated Schur path must match, and which in turn is the
oracle of the parity-split path (`oracles.parity_blocks`, the blocks
of one map built one after the other), which in turn is the oracle of
the prolate path to round-off, counts exactly (`oracles.sector_spectrum`,
the blocks of `spectra`'s basis built one after the other, is its per-N
oracle); the dense kernels T, K and C on the run, whose relations the
prolate basis rests on; `scipy.linalg.schur`, which the ctypes
zgees kernel must equal bit for bit, and the blocks solved one after
the other with it, which the concurrent solve must match; the exact
necklace spectrum of the Walsh baker (Nonnenmacher–Zworski); synthetic
records with exactly geometric counts, where the log-log slope is
log 2/log 3 by construction.
"""

import functools
import inspect
import itertools
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from openmaps import quantum_baker, spectral_counting, threads
from openmaps.baker_classical import BakerSpec
from openmaps.errors import DegenerateCounts, DimensionCap, NoConvergence
from openmaps.quantum_baker import _fourier_matrix, build, dense
from openmaps.spectral_counting import (
    RESIDUAL_REL,
    SpectrumRecord,
    annulus_gap_exponent,
    bound_report,
    count_annulus,
    eigenvalues,
    weyl_exponent,
)
from openmaps.threads import pool_size
from oracles import block_spectrum, parity_blocks, sector_spectrum

SPEC32 = BakerSpec(3, (0, 2))
D_H = 0.6309297535714574
GAMMA_CL = 0.3690702464285426
# a child interpreter imports the package this one imported
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(spectral_counting.__file__).parents[1])}


def synthetic_record(N, n_big):
    """N-dimensional spectrum with exactly n_big moduli at 0.9."""
    vals = np.concatenate([
        np.full(n_big, 0.9 + 0j),
        np.full(N - n_big, 0.1 + 0j),
    ])
    return SpectrumRecord(N=N, eigenvalues=vals, backward_error=0.0,
                          structural_zeros=0, deflated=0, basis="position",
                          blocks=(N,), workers=1)


class TestEigenvalues:
    def test_record_requires_structural_zeros(self):
        # a record never reports a certificate it did not compute
        with pytest.raises(TypeError):
            SpectrumRecord(N=1, eigenvalues=[0.5], backward_error=0.0)

    def test_diagonal_exact(self):
        rec = eigenvalues(np.diag([1.0, 0.5, 0.25]))
        assert np.allclose(np.sort(rec.eigenvalues.real), [0.25, 0.5, 1.0], atol=1e-14)
        assert np.max(np.abs(rec.eigenvalues.imag)) < 1e-14
        assert rec.backward_error < 1e-12

    def test_closed_baker_unit_moduli(self):
        rec = eigenvalues(dense(build(BakerSpec(2, (0, 1)), 64)))
        assert np.max(np.abs(np.abs(rec.eigenvalues) - 1.0)) < 1e-8

    def test_open_baker_null_space(self):
        # rank N·m/a = 18 forces at least 9 null eigenvalues at N=27;
        # SVD of the same matrix is the independent rank oracle
        M = dense(build(SPEC32, 27))
        s = np.linalg.svd(M, compute_uv=False)
        assert np.sum(s < 1e-12) == 9
        rec = eigenvalues(M)
        assert np.sum(np.abs(rec.eigenvalues) <= 1e-8) >= 9

    def test_trace_consistency(self):
        M = dense(build(SPEC32, 81))
        rec = eigenvalues(M)
        assert abs(rec.eigenvalues.sum() - np.trace(M)) <= 1e-6 * 81

    def test_spectral_radius_subunit(self):
        for N in (27, 81):
            rec = eigenvalues(dense(build(SPEC32, N)))
            assert np.max(np.abs(rec.eigenvalues)) <= 1.0 + 1e-8

    def test_sorted_by_modulus(self):
        rec = eigenvalues(dense(build(SPEC32, 27)))
        mods = np.abs(rec.eigenvalues)
        assert np.all(mods[:-1] >= mods[1:] - 1e-15)

    def test_all_zero_matrix(self):
        rec = eigenvalues(np.zeros((5, 5)))
        assert np.array_equal(rec.eigenvalues, np.zeros(5))
        assert rec.structural_zeros == 5
        assert rec.backward_error == 0.0

    def test_one_by_one(self):
        rec = eigenvalues(np.array([[0.5 - 0.25j]]))
        assert rec.eigenvalues[0] == 0.5 - 0.25j
        assert rec.structural_zeros == 0
        assert rec.backward_error == 0.0

    def test_zero_compression(self):
        # the kept column is nonzero only in a deflated row, so the
        # compression is the 1x1 zero matrix: nilpotent, both eigenvalues 0
        rec = eigenvalues(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(rec.eigenvalues, np.zeros(2))
        assert rec.structural_zeros == 1
        assert rec.backward_error == 0.0

    def test_perturbed_schur_vectors_rejected(self, monkeypatch):
        schur = spectral_counting._schur

        def perturbed(a):
            T, Z = schur(a)
            return T, Z + 1e-6 * np.roll(Z, 1, axis=0)

        monkeypatch.setattr(spectral_counting, "_schur", perturbed)
        with pytest.raises(NoConvergence):
            eigenvalues(dense(build(SPEC32, 27)))


class TestEigOracle:
    """The deflated Schur spectrum against the full-matrix eig spectrum."""

    @pytest.fixture(scope="class", params=[27, 81, 243, 729])
    def pair(self, request):
        M = dense(build(SPEC32, request.param))
        return eigenvalues(M), scipy.linalg.eig(M, right=False)

    def test_annulus_counts_identical(self, pair):
        rec, oracle = pair
        for nu in (0.25, 0.5, 0.9):
            expect = int(np.sum(np.abs(oracle) >= nu - 1e-10))
            assert count_annulus(rec, nu) == expect

    def test_large_eigenvalues_agree(self, pair):
        rec, oracle = pair
        got = rec.eigenvalues[np.abs(rec.eigenvalues) >= 0.2]
        want = oracle[np.abs(oracle) >= 0.2]
        assert got.size == want.size
        gap = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(gap)
        assert gap[rows, cols].max() <= 1e-10

    def test_structural_zeros_are_excluded_strip(self, pair):
        rec, _ = pair
        assert rec.structural_zeros == rec.N // 3
        assert np.sum(rec.eigenvalues == 0) >= rec.N // 3

    def test_backward_error_small(self, pair):
        rec, _ = pair
        assert rec.backward_error <= 1e-12


def parity_spectrum(op):
    return block_spectrum(op.N, *parity_blocks(op))


class TestParityOracle:
    """The parity-split spectrum against eigenvalues(dense(op))."""

    @pytest.fixture(scope="class", params=[
        (SPEC32, 729, "FFT"),
        (BakerSpec(5, (0, 2, 4)), 625, "FFT"),
        (BakerSpec(4, (0, 3)), 256, "FFT"),
        (SPEC32, 729, "WALSH"),
    ], ids=["3-02-729", "5-024-625", "4-03-256", "3-02-729-walsh"])
    def pair(self, request):
        spec, N, variant = request.param
        op = build(spec, N, variant=variant)
        return parity_spectrum(op), eigenvalues(dense(op))

    def test_large_eigenvalues_match(self, pair):
        rec, oracle = pair
        got = rec.eigenvalues[np.abs(rec.eigenvalues) >= 0.2]
        want = oracle.eigenvalues[np.abs(oracle.eigenvalues) >= 0.2]
        assert got.size == want.size
        gap = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(gap)
        assert gap[rows, cols].max() <= 1e-12

    def test_annulus_counts_identical(self, pair):
        rec, oracle = pair
        for nu in (0.25, 0.5, 0.9):
            assert count_annulus(rec, nu) == count_annulus(oracle, nu)

    def test_structural_zeros_equal(self, pair):
        rec, oracle = pair
        assert rec.structural_zeros == oracle.structural_zeros

    def test_certificate_within_bound(self, pair):
        rec, _ = pair
        assert rec.backward_error <= 1e-12

    @pytest.mark.parametrize("spec, theta", [
        (BakerSpec(3, (0, 1)), 0.5),
        (SPEC32, 0.0),
    ], ids=["3-01", "theta-0"])
    def test_one_block_path_is_old_result(self, spec, theta):
        op = build(spec, 243, theta=theta)
        rec, oracle = parity_spectrum(op), eigenvalues(dense(op))
        assert len(parity_blocks(op)[0]) == 1
        assert np.array_equal(rec.eigenvalues, oracle.eigenvalues)
        assert rec.backward_error == oracle.backward_error
        assert rec.structural_zeros == oracle.structural_zeros

    def test_coupling_enters_certificate(self):
        blocks, coupling = parity_blocks(build(SPEC32, 81))
        norm = math.hypot(*(np.linalg.norm(b) for b in blocks))
        rec = block_spectrum(81, blocks, coupling)
        assert rec.backward_error >= coupling / math.hypot(norm, coupling)
        with pytest.raises(NoConvergence):
            block_spectrum(81, blocks, 10 * RESIDUAL_REL * norm)


def scipy_block_spectrum(N, blocks, coupling=0.0):
    """Eigenvalues and certificate of the blocks solved one after the
    other by `scipy.linalg.schur`, in the calling thread, each OpenBLAS
    on one thread as in `spectral_counting._pooled`."""
    vals, resid_norms, block_norms = [], [], []
    with threads.blas_threads(1):
        for A in blocks:
            T, Z = scipy.linalg.schur(A, output="complex")
            resid = A @ Z
            resid -= scipy.linalg.blas.ztrmm(1.0, T, Z, side=1, overwrite_b=True)
            resid_norms.append(np.linalg.norm(resid))
            block_norms.append(np.linalg.norm(A))
            vals.append(np.diag(T))
    kept = sum(len(v) for v in vals)
    vals = np.concatenate(vals + [np.zeros(N - kept)])
    backward_error = (math.hypot(*resid_norms, coupling)
                      / (math.hypot(*block_norms, coupling) or 1.0))
    return vals[np.argsort(-np.abs(vals), kind="stable")], backward_error


def blas_counts():
    return {name: get() for name, (get, _) in threads.openblas().items()}


def assert_same_record(got, want):
    """Every field of two records equal, bit for bit, but `workers`."""
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert got.backward_error == want.backward_error
    assert (got.N, got.structural_zeros, got.deflated, got.basis, got.blocks) == (
        want.N, want.structural_zeros, want.deflated, want.basis, want.blocks)


class TestConcurrentSchur:
    """The ctypes zgees kernel and the thread pool against scipy."""

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 27, 243])
    def test_kernel_is_scipy_schur(self, n, count):
        rng = np.random.default_rng(n)
        random = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        # the open baker map at N = 3n has two parity blocks of size n
        blocks = [random, *parity_blocks(build(SPEC32, 3 * n))[0]]
        with threads.blas_threads(count):
            for A in blocks:
                T, Z = spectral_counting._schur(A)
                T_ref, Z_ref = scipy.linalg.schur(A, output="complex")
                assert np.array_equal(T, T_ref)
                assert np.array_equal(Z, Z_ref)

    def test_non_finite_block_rejected(self):
        A = np.eye(3, dtype=complex)
        A[1, 2] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectral_counting._schur(A)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3,), (2, 2, 2)])
    def test_non_square_block_rejected(self, shape):
        # zgees would read and write n x n entries of a smaller buffer
        with pytest.raises(ValueError, match="expected square matrix"):
            spectral_counting._schur(np.ones(shape))

    def test_lapack_failure_raises(self, monkeypatch):
        zgees = spectral_counting._zgees()

        def failing(*args):
            zgees(*args)
            args[-1].value = 3

        monkeypatch.setattr(spectral_counting, "_zgees", lambda: failing)
        with pytest.raises(NoConvergence, match="info=3"):
            eigenvalues(dense(build(SPEC32, 27)))

    def test_kernel_bound_lazily(self):
        code = ("import openmaps; from openmaps import spectral_counting, threads; "
                "print(spectral_counting._zgees.cache_info().currsize, "
                "threads.openblas.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, check=True, env=CHILD_ENV)
        assert out.stdout.split() == ["0", "0"]

    @pytest.mark.parametrize("N, blocks", [(81, (26, 25)), (2187, (504, 503))],
                             ids=["81", "2187"])
    def test_records_equal_on_any_pool(self, monkeypatch, N, blocks):
        # the prolate blocks of the map `spectrum` and `weyl-fit` solve
        records = {}
        for workers in (1, 2):
            monkeypatch.setattr(spectral_counting, "pool_size", lambda: workers)
            records[workers], = spectral_counting.spectra([build(SPEC32, N)])
            assert records[workers].workers == (workers if threads.openblas() else 1)
        assert_same_record(records[1], records[2])
        assert records[1].blocks == blocks

    @pytest.mark.parametrize("theta, blocks", [(0.0, 1), (0.5, 2)], ids=["1", "2"])
    def test_blas_threads_one_while_blocks_run(self, monkeypatch, theta, blocks):
        # one block or two: every solve sees each OpenBLAS on one thread
        before, seen = blas_counts(), []
        solve = spectral_counting._solve

        def counted(A):
            seen.append(blas_counts())
            return solve(A)

        monkeypatch.setattr(spectral_counting, "_solve", counted)
        spectral_counting.spectra([build(SPEC32, 243, theta=theta)])
        assert seen == [{name: 1 for name in before}] * blocks
        assert blas_counts() == before

    def test_blas_threads_restored_after_a_raise(self, monkeypatch):
        before = blas_counts()
        sector_block = quantum_baker._sector_block

        def poisoned(op, own, others):
            block, part = sector_block(op, own, others)
            block[0, 0] = np.inf
            return block, part

        monkeypatch.setattr(quantum_baker, "_sector_block", poisoned)
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectral_counting.spectra([build(SPEC32, 243, variant="WALSH")])
        assert blas_counts() == before

    def test_concurrent_callers(self):
        # more callers than CPUs, one- and two-block maps mixed, with a
        # short switch interval: every record equals its lone solve and
        # no caller leaves a thread count set
        before = blas_counts()
        ops = [build(SPEC32, 81), build(SPEC32, 81, theta=0.0)]
        want = [sector_spectrum(op) for op in ops]
        switch = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda i: spectral_counting.spectra([ops[i % 2]])[0],
                                    range(32)))
        finally:
            sys.setswitchinterval(switch)
        for i, rec in enumerate(got):
            assert_same_record(rec, want[i % 2])
        assert blas_counts() == before

    @pytest.mark.parametrize("spec, theta", [
        (BakerSpec(3, (0, 1)), 0.5),
        (SPEC32, 0.0),
    ], ids=["3-01", "theta-0"])
    def test_one_block_record_is_scipy_result(self, spec, theta):
        blocks, _ = parity_blocks(build(spec, 243, theta=theta))
        assert len(blocks) == 1
        rec = block_spectrum(243, blocks)
        vals, backward_error = scipy_block_spectrum(243, blocks)
        assert np.array_equal(rec.eigenvalues, vals)
        assert rec.backward_error == backward_error

    def test_dense_record_is_scipy_result(self):
        M = dense(build(SPEC32, 81))
        keep = np.flatnonzero(np.any(M != 0, axis=0))
        rec = eigenvalues(M)
        vals, backward_error = scipy_block_spectrum(81, [M[np.ix_(keep, keep)]])
        assert np.array_equal(rec.eigenvalues, vals)
        assert rec.backward_error == backward_error

    @pytest.mark.parametrize("N", [81, 243, 729, 2187])
    def test_two_blocks_match_scipy_path(self, N):
        blocks, coupling = parity_blocks(build(SPEC32, N))
        rec = block_spectrum(N, blocks, coupling)
        vals, backward_error = scipy_block_spectrum(N, blocks, coupling)
        for nu in (0.25, 0.5, 0.9):
            assert count_annulus(rec, nu) == int(np.sum(np.abs(vals) >= nu - 1e-10))
        got = rec.eigenvalues[np.abs(rec.eigenvalues) >= 0.2]
        want = vals[np.abs(vals) >= 0.2]
        assert got.size == want.size
        gap = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(gap)
        assert gap[rows, cols].max() <= 1e-12
        assert rec.backward_error <= 1e-12 and backward_error <= 1e-12


class TestSpectra:
    """All of a list's sectors on one pool against the per-N oracle."""

    @pytest.mark.parametrize("spec", [SPEC32, BakerSpec(3, (1,))], ids=["3-02", "3-1"])
    def test_records_are_the_per_n_oracle(self, spec):
        # (3, {1}) at odd N keeps the middle index: sectors of unequal size
        ops = [build(spec, 3 ** k) for k in range(2, 8)]
        for got, op in zip(spectral_counting.spectra(ops), ops):
            assert_same_record(got, sector_spectrum(op))
            assert len(got.blocks) == 2
            assert got.workers == (min(12, pool_size()) if threads.openblas() else 1)

    def test_records_equal_on_any_pool(self, monkeypatch):
        # six tasks on one, two and (more than the CPUs) six threads, the
        # last with a short switch interval
        ops = [build(SPEC32, n) for n in (81, 243, 729)]
        records = {}
        switch = sys.getswitchinterval()
        try:
            for workers in (1, 2, 8):
                monkeypatch.setattr(spectral_counting, "pool_size", lambda: workers)
                if workers == 8:
                    sys.setswitchinterval(1e-5)
                records[workers] = spectral_counting.spectra(ops)
                assert {r.workers for r in records[workers]} == {
                    min(workers, 6) if threads.openblas() else 1}
        finally:
            sys.setswitchinterval(switch)
        for one, two, many in zip(records[1], records[2], records[8]):
            assert_same_record(one, two)
            assert_same_record(one, many)

    @pytest.mark.parametrize("spec, N, theta", [
        (BakerSpec(3, (0, 1)), 243, 0.5),
        (BakerSpec(3, (0, 1)), 729, 0.5),
        (SPEC32, 243, 0.0),
    ], ids=["3-01-243", "3-01-729", "theta-0"])
    def test_one_block_op_alone_is_its_pooled_record(self, spec, N, theta):
        # a one-sector map solved alone, as `spectrum` does, and beside
        # another, as `weyl-fit` does: the same bits
        op = build(spec, N, theta=theta)
        alone, = spectral_counting.spectra([op])
        pooled, _ = spectral_counting.spectra([op, build(SPEC32, 81)])
        assert_same_record(alone, pooled)
        assert_same_record(alone, sector_spectrum(op))
        assert alone.workers == 1

    def test_mixed_list_keeps_its_order(self):
        # the maps without the symmetry are one sector each, on the pool
        # of the others: six tasks in all
        ops = [build(SPEC32, 81, theta=0.0), build(SPEC32, 243), build(SPEC32, 27),
               build(BakerSpec(3, (0, 1)), 81)]
        got = spectral_counting.spectra(ops)
        assert [r.N for r in got] == [81, 243, 27, 81]
        for rec, op in zip(got, ops):
            assert_same_record(rec, sector_spectrum(op))
            assert rec.workers == (min(6, pool_size()) if threads.openblas() else 1)

    def test_dimension_cap_before_any_task(self, monkeypatch):
        def no_task(*args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(spectral_counting, "_solve", no_task)
        monkeypatch.setattr(quantum_baker, "_sector_block", no_task)
        monkeypatch.setattr(quantum_baker, "_prolate_block", no_task)
        ops = [build(SPEC32, 81), build(SPEC32, 81, theta=0.0), build(SPEC32, 3 ** 9)]
        with pytest.raises(DimensionCap):
            spectral_counting.spectra(ops)

    def test_blas_threads_restored_after_a_task_raises(self, monkeypatch):
        before = blas_counts()
        prolate_block = quantum_baker._prolate_block

        def poisoned(op, own, other):
            block, part = prolate_block(op, own, other)
            if op.N == 243:
                block[0, 0] = np.inf
            return block, part

        monkeypatch.setattr(quantum_baker, "_prolate_block", poisoned)
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectral_counting.spectra([build(SPEC32, n) for n in (81, 243, 729)])
        assert blas_counts() == before

    def test_lapack_failure_raises(self, monkeypatch):
        before = blas_counts()
        zgees = spectral_counting._zgees()

        def failing(*args):
            zgees(*args)
            args[-1].value = 3

        monkeypatch.setattr(spectral_counting, "_zgees", lambda: failing)
        with pytest.raises(NoConvergence, match="info=3"):
            spectral_counting.spectra([build(SPEC32, 27), build(SPEC32, 81)])
        assert blas_counts() == before

    def test_workers_enter_no_public_function(self, monkeypatch):
        # a tracer that wraps the public functions keeps one span stack,
        # so the tasks may call private functions only
        entered = []

        def watch(fn):
            @functools.wraps(fn)
            def watched(*args, **kwargs):
                entered.append((fn.__name__, threading.current_thread()))
                return fn(*args, **kwargs)
            return watched

        wrapped = {}
        for module in (quantum_baker, spectral_counting):
            for name, value in list(vars(module).items()):
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__.startswith("openmaps.")):
                    wrapped.setdefault(value, watch(value))
                    monkeypatch.setattr(module, name, wrapped[value])
        ops = [build(SPEC32, n) for n in (27, 81, 243)] + [build(SPEC32, 81, theta=0.0)]
        spectral_counting.spectra(ops)
        assert {thread for _, thread in entered} == {threading.main_thread()}

    def test_scipy_loaded_lazily_and_before_the_blas_listing(self):
        code = ("import sys; import openmaps; "
                "print(int('scipy.linalg' in sys.modules), int('scipy.special' in sys.modules)); "
                "from openmaps import spectral_counting, threads; "
                "from openmaps.baker_classical import BakerSpec; "
                "from openmaps.quantum_baker import build; "
                "spectral_counting.spectra([build(BakerSpec(3, (0, 2)), 27)]); "
                "print(*sorted(threads.openblas()))")
        first = ("import scipy.linalg; from openmaps import threads; "
                 "print(*sorted(threads.openblas()))")
        # listed before scipy is imported, as `cli_io.main` does
        before = ("import sys; from openmaps import threads; "
                  "print(*sorted(threads.openblas())); print(int('scipy' in sys.modules))")
        lazy, eager, listed = (subprocess.run([sys.executable, "-c", c], capture_output=True,
                                              text=True, timeout=120, check=True,
                                              env=CHILD_ENV).stdout
                               for c in (code, first, before))
        loaded, libs = lazy.splitlines()
        assert loaded == "0 0"
        assert libs == eager.strip()
        assert listed.splitlines() == [eager.strip(), "0"]


BASIS_SPECS = [SPEC32, BakerSpec(3, (0, 1)), BakerSpec(5, (0, 2, 4)), BakerSpec(4, (0, 3)),
               BakerSpec(2, (0, 1))]


class TestBasis:
    """The split `quantum_baker._basis` hands `spectra`, against the dense matrix."""

    @pytest.mark.parametrize("theta", [0.5, 0.0])
    @pytest.mark.parametrize("variant", ["FFT", "WALSH"])
    @pytest.mark.parametrize("spec", BASIS_SPECS, ids=["3-02", "3-01", "5-024", "4-03", "2-01"])
    def test_zeros_and_blocks_account_for_n(self, spec, variant, theta):
        op = build(spec, spec.a ** (7 - spec.a), variant=variant, theta=theta)
        name, zeros, tasks = quantum_baker._basis(op)
        assert zeros == eigenvalues(dense(op)).structural_zeros
        rec, = spectral_counting.spectra([op])
        assert (rec.basis, rec.structural_zeros) == (name, zeros)
        assert rec.blocks == tuple(len(task()[0]) for task in tasks)
        assert sum(rec.blocks) + rec.deflated + zeros == op.N
        assert rec.deflated >= 0 and (rec.deflated == 0 or name == "prolate")


def run_kernels(op):
    """Dense C = [G_N^{-1}]_{X,X} on the run X, the centred kernel K and
    the tridiagonal T of the same size, as the prolate basis defines them."""
    s, n = quantum_baker._run(op)
    N, j = op.N, np.arange(n)
    chain = (s + j) % N
    C = _fourier_matrix(N, 0.5).conj()[np.ix_(chain, chain)]
    y = j - n / 2 + 0.5
    K = np.exp(2j * np.pi * np.outer(y, y) / N) / math.sqrt(N)
    d = -math.cos(math.pi * n / N) * np.cos(np.pi * (2 * j + 1 - n) / N)
    e = np.sin(np.pi * j[1:] / N) * np.sin(np.pi * (n - j[1:]) / N)
    return C, K, np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def sector_matrix(sector, n):
    """The n x h matrix whose columns are a sector's vectors."""
    idx, mirror, w, v = sector
    S = np.zeros((n, idx.size))
    S[mirror, np.arange(idx.size)] = v
    S[idx, np.arange(idx.size)] = w  # after v: the centre is its own mirror
    return S


SMALL_RUNS = [(SPEC32, 27), (SPEC32, 81), (BakerSpec(3, (1,)), 27),
              (BakerSpec(3, (0, 1)), 81), (BakerSpec(5, (1, 2, 3)), 25),
              (BakerSpec(4, (3, 0)), 32), (BakerSpec(3, (1,)), 3)]
SMALL_IDS = ["3-02-27", "3-02-81", "3-1-27", "3-01-81", "5-123-25", "4-30-32", "3-1-3"]


class TestProlateRelations:
    """The identities the prolate basis rests on, against dense kernels."""

    @pytest.mark.parametrize("spec, N", SMALL_RUNS, ids=SMALL_IDS)
    def test_inverse_transform_is_phased_kernel(self, spec, N):
        op = build(spec, N)
        C, K, _ = run_kernels(op)
        p = quantum_baker._prolate_phases(*quantum_baker._run(op), N)
        assert np.max(np.abs(C - p[:, None] * K * p)) <= 1e-13

    @pytest.mark.parametrize("spec, N", SMALL_RUNS, ids=SMALL_IDS)
    def test_tridiagonal_commutes_with_kernel(self, spec, N):
        _, K, T = run_kernels(build(spec, N))
        assert np.linalg.norm(T @ K - K @ T) <= 1e-13

    @pytest.mark.parametrize("spec, N", SMALL_RUNS, ids=SMALL_IDS)
    def test_folded_kernels_are_compressions(self, spec, N):
        op = build(spec, N)
        _, K, T = run_kernels(op)
        n = quantum_baker._run(op)[1]
        halves = quantum_baker._halves(n)
        assert sum(half[0][0].size for half in halves) == n
        for half in halves:
            S = sector_matrix(half[0], n)
            d, e, kernel = quantum_baker._folded(n, N, half)
            folded = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            assert np.max(np.abs(S.T @ T @ S - folded)) <= 1e-15
            unit = 1 if half[1] > 0 else 1j
            assert np.max(np.abs(S.T @ K @ S - unit * kernel)) <= 1e-14
            assert np.linalg.norm(folded @ kernel - kernel @ folded) <= 1e-13

    def test_no_run_no_prolate_basis(self):
        for op in [build(SPEC32, 27, variant="WALSH"), build(SPEC32, 27, theta=0.0),
                   build(BakerSpec(5, (0, 2, 4)), 25), build(BakerSpec(4, (1, 3)), 16),
                   build(BakerSpec(2, (0, 1)), 16)]:
            assert quantum_baker._run(op) is None
            assert quantum_baker._basis(op)[0] == "position"


class TestProlateOracle:
    """The prolate-basis spectrum against the position-basis one."""

    @pytest.fixture(scope="class", params=[
        (SPEC32, 243), (SPEC32, 729), (BakerSpec(3, (0, 1)), 243),
        (BakerSpec(3, (0, 1)), 729), (BakerSpec(4, (0, 3)), 256),
        (BakerSpec(4, (1, 2)), 512),
    ], ids=["3-02-243", "3-02-729", "3-01-243", "3-01-729", "4-03-256", "4-12-512"])
    def pair(self, request):
        op = build(*request.param)
        rec, = spectral_counting.spectra([op])
        return rec, block_spectrum(op.N, *parity_blocks(op))

    def test_annulus_counts_identical(self, pair):
        rec, oracle = pair
        for nu in (0.25, 0.5, 0.85, 0.9):
            assert count_annulus(rec, nu) == count_annulus(oracle, nu)

    def test_large_eigenvalues_match(self, pair):
        rec, oracle = pair
        got = rec.eigenvalues[np.abs(rec.eigenvalues) >= 0.2]
        want = oracle.eigenvalues[np.abs(oracle.eigenvalues) >= 0.2]
        assert got.size == want.size
        gap = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(gap)
        assert gap[rows, cols].max() <= 1e-11

    def test_certificate_within_bound(self, pair):
        rec, _ = pair
        assert rec.backward_error <= 1e-12

    def test_columns_dropped_and_accounted(self, pair):
        rec, oracle = pair
        assert rec.basis == "prolate"
        assert rec.structural_zeros == oracle.structural_zeros
        assert rec.deflated > 0
        assert sum(rec.blocks) + rec.deflated == sum(oracle.blocks)
        assert np.count_nonzero(rec.eigenvalues == 0) >= rec.structural_zeros + rec.deflated

    @pytest.mark.parametrize("op", [
        build(SPEC32, 243, variant="WALSH"), build(SPEC32, 243, theta=0.0),
        build(BakerSpec(5, (0, 2, 4)), 625), build(BakerSpec(4, (1, 3)), 256),
    ], ids=["walsh", "theta-0", "5-024", "4-13"])
    def test_position_maps_are_the_old_result(self, op):
        rec, = spectral_counting.spectra([op])
        oracle = block_spectrum(op.N, *parity_blocks(op))
        assert np.array_equal(rec.eigenvalues, oracle.eigenvalues)
        assert rec.backward_error == oracle.backward_error
        assert (rec.basis, rec.deflated, rec.structural_zeros, rec.blocks) == (
            "position", 0, oracle.structural_zeros, oracle.blocks)

    def test_block_sizes(self):
        # about a third of each parity block is numerically null
        recs = spectral_counting.spectra([build(SPEC32, n) for n in (81, 243, 729)])
        assert [r.blocks for r in recs] == [(26, 25), (65, 64), (176, 176)]

    def test_dropped_columns_enter_certificate(self, monkeypatch):
        # a cut far above the null columns drops what the spectrum needs
        monkeypatch.setattr(quantum_baker, "PROLATE_NULL", 0.5)
        with pytest.raises(NoConvergence):
            spectral_counting.spectra([build(SPEC32, 81)])

    def test_wrong_basis_rejected(self, monkeypatch):
        # eigenvectors of a perturbed T are no eigenvectors of K: the
        # residual ||K V - V mu|| enters the certificate
        folded = quantum_baker._folded

        def perturbed(n, N, half):
            d, e, kernel = folded(n, N, half)
            return d + 1e-3 * np.arange(d.size), e, kernel

        monkeypatch.setattr(quantum_baker, "_folded", perturbed)
        with pytest.raises(NoConvergence):
            spectral_counting.spectra([build(SPEC32, 81)])


def walsh_necklace_spectrum(spec, k, theta=0.5):
    """Nonzero spectrum of the Walsh baker at N = a^k, from necklaces.

    With μ the nonzero eigenvalues of G_a* π_A (G_a the a-point kernel,
    π_A the projection on the alphabet), each necklace of length k over
    the μ, of primitive period p, gives the p-th roots of the product
    of its first p letters.
    """
    idx = np.arange(spec.a) + theta
    kernel = np.exp(-2j * np.pi * np.outer(idx, idx) / spec.a) / math.sqrt(spec.a)
    proj = np.diag([float(j in spec.alphabet) for j in range(spec.a)])
    mu = np.linalg.eigvals(kernel.conj().T @ proj)
    mu = mu[np.abs(mu) > 1e-12]
    out = []
    for word in itertools.product(range(mu.size), repeat=k):
        if word != min(word[i:] + word[:i] for i in range(k)):
            continue  # not the least rotation of its necklace
        p = next(p for p in range(1, k + 1) if word[:p] * (k // p) == word)
        root = np.prod(mu[list(word[:p])]) ** (1.0 / p)
        out += [root * np.exp(2j * np.pi * q / p) for q in range(p)]
    return np.array(out)


class TestWalshNecklaceOracle:
    """The Walsh baker's spectrum against its exact necklace form."""

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_large_eigenvalues_match(self, k):
        rec = eigenvalues(dense(build(SPEC32, 3 ** k, variant="WALSH")))
        want = walsh_necklace_spectrum(SPEC32, k)
        assert want.size == 2 ** k
        got = rec.eigenvalues[np.abs(rec.eigenvalues) >= 0.3]
        want = want[np.abs(want) >= 0.3]
        assert got.size == want.size
        moduli = np.sort(np.abs(got)) - np.sort(np.abs(want))
        assert np.max(np.abs(moduli)) <= 1e-12
        gap = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(gap)
        assert gap[rows, cols].max() <= 1e-12


class TestCountAnnulus:
    def test_zero_cutoff_counts_all(self):
        rec = synthetic_record(27, 10)
        assert count_annulus(rec, 0.0) == 27

    def test_above_one_counts_none(self):
        rec = eigenvalues(dense(build(SPEC32, 27)))
        assert count_annulus(rec, 1.0 + 1e-6) == 0

    def test_monotone_in_nu(self):
        rec = eigenvalues(dense(build(SPEC32, 81)))
        counts = [count_annulus(rec, nu) for nu in np.linspace(0, 1.1, 23)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_dead_band_tie_break(self):
        rec = synthetic_record(10, 4)  # moduli exactly 0.9
        assert count_annulus(rec, 0.9) == 4
        # a cutoff above the modulus by less than the band still counts
        assert count_annulus(rec, 0.9 + 5e-11) == 4
        assert count_annulus(rec, 0.9 + 1e-9) == 0

    def test_partition_counts_conserve(self):
        rec = eigenvalues(dense(build(SPEC32, 81)))
        cuts = [0.0, 0.25, 0.5, 0.75]
        per_annulus = [
            count_annulus(rec, lo) - (count_annulus(rec, hi) if hi else 0)
            for lo, hi in zip(cuts, cuts[1:] + [None])
        ]
        assert sum(per_annulus) == 81

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            count_annulus(synthetic_record(4, 2), -0.1)


class TestWeylFit:
    def test_exact_geometric_law(self):
        # counts 10, 20, 40, 80 at N = 27, 81, 243, 729: the law is
        # count = c·N^(log2/log3), so the slope is log2/log3 exactly
        recs = [synthetic_record(27 * 3**i, 10 * 2**i) for i in range(4)]
        fit = weyl_exponent(recs, 0.5)
        assert fit.slope == pytest.approx(math.log(2) / math.log(3), abs=1e-10)
        assert fit.stderr < 1e-10

    def test_too_few_records(self):
        with pytest.raises(DegenerateCounts):
            weyl_exponent([synthetic_record(27, 5)] * 2, 0.5)

    def test_repeated_n_degenerate(self):
        # four nonzero counts, but at two distinct N: the fit is singular
        recs = [synthetic_record(n, c) for n, c in [(27, 5), (27, 5), (81, 9), (81, 9)]]
        with pytest.raises(DegenerateCounts, match="3 distinct N"):
            weyl_exponent(recs, 0.5)

    def test_zero_counts_excluded(self):
        recs = [synthetic_record(27 * 3**i, 10 * 2**i) for i in range(3)]
        recs.append(synthetic_record(2187, 0))
        fit = weyl_exponent(recs, 0.5)
        # the zero-count point is reported but not fitted
        assert (2187, 0) in fit.points
        assert fit.slope == pytest.approx(math.log(2) / math.log(3), abs=1e-10)

    def test_all_zero_counts_degenerate(self):
        recs = [synthetic_record(27 * 3**i, 0) for i in range(4)]
        with pytest.raises(DegenerateCounts):
            weyl_exponent(recs, 0.5)

    def test_baker_fit_stability(self):
        # dropping the smallest dimension moves the slope by at most
        # 3 stderr (finite-size drift stays within its own error bar)
        recs = [eigenvalues(dense(build(SPEC32, 3**k))) for k in range(3, 7)]
        full = weyl_exponent(recs, 0.5)
        trimmed = weyl_exponent(recs[1:], 0.5)
        assert abs(trimmed.slope - full.slope) <= 3.0 * max(full.stderr, trimmed.stderr)


class TestGapExponent:
    def test_zero_boundary(self):
        # cutoff at half the decay rate sits exactly on the clamp edge
        nu = math.exp(-GAMMA_CL * math.log(3) / 2)
        assert annulus_gap_exponent(nu, D_H, math.log(3)) == pytest.approx(0.0, abs=1e-12)

    def test_clamp_inside(self):
        nu = math.exp(-GAMMA_CL * math.log(3))  # twice the boundary decay
        assert annulus_gap_exponent(nu, D_H, math.log(3)) == 0.0

    def test_near_one_saturates(self):
        assert annulus_gap_exponent(1.0, D_H, math.log(3)) == pytest.approx(
            1.0 - D_H, abs=1e-12
        )

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            annulus_gap_exponent(0.0, D_H, math.log(3))
        with pytest.raises(ValueError):
            annulus_gap_exponent(0.5, D_H, 0.0)


class TestBoundReport:
    def test_exact_law_ratios_constant(self):
        recs = [synthetic_record(27 * 3**i, 10 * 2**i) for i in range(4)]
        fit = weyl_exponent(recs, 0.5)
        rep = bound_report(fit, math.log(2) / math.log(3), 0.0)
        vals = [r for _, r in rep["ratios"]]
        assert max(vals) - min(vals) < 1e-10
        assert rep["bounded"]

    def test_growth_flagged(self):
        # counts growing like N while the claimed exponent is 0.2
        recs = [synthetic_record(27 * 3**i, 10 * 3**i) for i in range(4)]
        fit = weyl_exponent(recs, 0.5)
        rep = bound_report(fit, 0.2, 0.0)
        assert not rep["bounded"]

    def test_non_finite_rejected(self):
        recs = [synthetic_record(27 * 3**i, 10 * 2**i) for i in range(3)]
        fit = weyl_exponent(recs, 0.5)
        with pytest.raises(ValueError):
            bound_report(fit, float("nan"), 0.0)

