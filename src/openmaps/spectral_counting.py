"""Eigenvalue spectra of open maps, annulus counts, and Weyl-law fits.

The resonance proxy is the full eigenvalue set of the subunitary matrix;
counts in annuli {|z| >= nu} are regressed against the dimension to
extract the fractal Weyl exponent, and a report compares per-dimension
counts against an exponent improved by the spectral-gap function.

The eigensolve deflates the identically zero columns first (for the open
baker map, the excluded strips: N·(1 - m/a) of them), whose eigenvalues
are exactly zero, and takes the rest from complex Schur forms of the
kept diagonal blocks.  For a general matrix there is one block, the
compression to the kept indices.  A reflection-symmetric open map
(theta = 1/2, alphabet closed under j -> a-1-j) commutes with the
parity x -> 1 - x, and its even and odd blocks, each of half the size,
cost about a quarter of one full one; any other map is one sector.
Where the kept indices form one cyclic run (the FFT map at theta = 1/2
with an alphabet of consecutive digits, cyclically), `spectra` takes the
sectors in the prolate basis of `quantum_baker` instead: there about a
third of every block is numerically null (the uncertainty principle
between the kept position and momentum strips), and its columns,
those with |mu| <= PROLATE_NULL, are dropped before the Schur form;
at N = 2187 the two blocks of 729 become 504 and 503.  The Walsh
variant, theta = 0, alphabets that are no run and closed maps keep the
position basis.  `spectra` solves a list of maps on one thread pool,
largest N first, one task per sector: it builds the block straight from
the map and takes its Schur form by LAPACK zgees called through ctypes,
which releases the GIL.  Every task, a lone one too, runs with each
OpenBLAS on one thread, so a record's bits depend on neither the maps
solved beside it nor the number of CPUs.  No eigenvectors are formed.
The certificate is the Frobenius backward error of the whole
compression: the Schur residuals of the blocks with the norm of all
the split leaves out, relative to the norm of the compression.  In the
position basis that is the coupling between the sectors, zero by
symmetry only up to round-off; in the prolate basis also the dropped
columns' mu, the residual ||K V - V mu|| of the prolate basis and its
orthogonality ||V^T V - I||.
"""

from __future__ import annotations

import ctypes
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import DegenerateCounts, NoConvergence
from .quantum_baker import _basis, _coupling
from .threads import blas_threads, pool_size

# counting dead band: moduli within this of nu count as above
TIE_BAND = 1e-10
# largest accepted relative Schur backward error of an eigensolve
RESIDUAL_REL = 1e-8


@dataclass(frozen=True)
class SpectrumRecord:
    """All N eigenvalues of one matrix, sorted by decreasing modulus.

    ``backward_error`` is the relative Schur backward error of the
    eigensolve and ``structural_zeros`` the number of eigenvalues fixed
    at exactly zero by identically zero columns.  ``basis`` names the
    basis the blocks were taken in ("position" or "prolate") and
    ``deflated`` the number of prolate columns dropped as numerically
    null, whose eigenvalues are also exact zeros.  ``blocks`` holds the
    sizes of the blocks solved and ``workers`` the threads that solved
    them, each OpenBLAS on one thread (`_pooled`).
    """

    N: int
    eigenvalues: np.ndarray
    backward_error: float
    structural_zeros: int
    deflated: int
    basis: str
    blocks: tuple
    workers: int

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.complex128)
        if vals.shape != (self.N,):
            raise ValueError(f"{vals.shape} eigenvalues for N={self.N}")
        object.__setattr__(self, "eigenvalues", vals)


@dataclass(frozen=True)
class WeylFit:
    """Log-log slope of annulus counts against dimension."""

    nu: float
    points: tuple
    slope: float
    stderr: float


def eigenvalues(matrix):
    """Full dense spectrum of any square matrix, with its Schur certificate.

    With keep the columns that are not identically zero and A the
    compression matrix[keep, keep], a permutation puts the matrix in the
    block lower triangular form [[A, 0], [C, 0]]; its spectrum is eig(A)
    plus N - |keep| exact zeros, as computed by `block_eigenvalues`.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("square matrix expected")
    keep = np.flatnonzero(np.any(matrix != 0, axis=0))
    return block_eigenvalues(n, [matrix[np.ix_(keep, keep)]])


@cache
def _zgees():
    """LAPACK zgees at the pointer scipy's `cython_lapack` exports."""
    from scipy.linalg import cython_lapack

    capsule, api = cython_lapack.__pyx_capi__["zgees"], ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    ptr, num, char = ctypes.c_void_p, ctypes.POINTER(ctypes.c_int), ctypes.c_char_p
    return ctypes.CFUNCTYPE(None, char, char, ptr, num, ptr, num, num, ptr, ptr, num,
                            ptr, num, ptr, ptr, num)(get(capsule, name(capsule)))


def _schur(A):
    """Complex Schur form A = Z T Z*, as ``scipy.linalg.schur(A,
    output="complex")`` computes it: zgees on a Fortran-ordered copy,
    with the workspace its query asks for."""
    T = np.array(A, dtype=np.complex128, order="F")
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError("expected square matrix")
    if not np.isfinite(T).all():
        raise ValueError("array must not contain infs or NaNs")
    n = T.shape[0]
    Z = np.empty_like(T)
    w, rwork, bwork = np.empty(n, np.complex128), np.empty(n), np.empty(n, np.intc)
    ld, sdim, info = ctypes.c_int(max(n, 1)), ctypes.c_int(), ctypes.c_int()

    def zgees(work, lwork):
        _zgees()(b"V", b"N", None, ld, T.ctypes.data, ld, sdim, w.ctypes.data,
                 Z.ctypes.data, ld, work.ctypes.data, ctypes.c_int(lwork),
                 rwork.ctypes.data, bwork.ctypes.data, info)

    query = np.zeros(1, np.complex128)
    zgees(query, -1)
    work = np.empty(int(query[0].real), np.complex128)
    zgees(work, work.size)
    if info.value:
        raise NoConvergence(f"zgees failed with info={info.value}")
    return T, Z


def _solve(A):
    """eig(A) from its Schur form, and the Frobenius norms of the Schur
    residual A Z - Z T and of A."""
    from scipy.linalg.blas import ztrmm
    T, Z = _schur(A)
    resid = A @ Z
    resid -= ztrmm(1.0, T, Z, side=1, overwrite_b=True)
    return np.diag(T), np.linalg.norm(resid), np.linalg.norm(A)


def _solve_sector(build, op, own, others):
    """`_solve` of the block `build` gives a split, and the norm of what
    the block leaves out."""
    block, part = build(op, own, others)
    return _solve(block), part


def _pooled(tasks):
    """(results of the calls `tasks`, workers), every OpenBLAS on one
    thread whatever the number of tasks, so a result's bits depend on
    neither the tasks beside it nor the CPUs: on min(#tasks,
    `pool_size()`) threads, or in this thread if no OpenBLAS count can
    be set.  zgees gains nothing from more BLAS threads at n = 729; a
    lone block of 1458 takes about a quarter longer on one than on two."""
    with blas_threads(1) as threads:
        workers = min(len(tasks), pool_size()) if threads else 1
        if workers <= 1:
            return [task() for task in tasks], workers
        with ThreadPoolExecutor(workers) as pool:
            return list(pool.map(lambda task: task(), tasks)), workers


def _record(N, solved, coupling, workers, zeros, basis):
    """The record of the `_solve` of each block, `zeros` of the N
    eigenvalues structural, every other one outside the blocks deflated."""
    vals = [v for v, _, _ in solved]
    norm_a = math.hypot(*(a for _, _, a in solved), coupling)
    backward_error = math.hypot(*(r for _, r, _ in solved), coupling) / (norm_a or 1.0)
    if not backward_error <= RESIDUAL_REL:
        raise NoConvergence(
            f"Schur backward error {backward_error:.3e} above {RESIDUAL_REL:.0e}"
        )
    sizes = tuple(len(v) for v in vals)
    kept = sum(sizes)
    vals = np.concatenate(vals + [np.zeros(N - kept)])
    order = np.argsort(-np.abs(vals), kind="stable")
    return SpectrumRecord(N=N, eigenvalues=vals[order],
                          backward_error=backward_error,
                          structural_zeros=zeros, deflated=N - zeros - kept,
                          basis=basis, blocks=sizes,
                          workers=workers)


def block_eigenvalues(N, blocks, coupling=0.0):
    """Spectrum of an N x N matrix from the kept diagonal blocks A_b.

    In some orthonormal basis the matrix is [[A, 0], [C', 0]], where A
    has the diagonal blocks A_b and off-diagonal blocks of Frobenius
    norm ``coupling``; the spectrum is taken as that of the A_b plus
    N - sum |A_b| exact zeros.  Each eig(A_b) is the diagonal of the
    complex Schur form A_b = Z_b T_b Z_b*.  The certificate is the
    backward error of the whole of A,
    sqrt(sum ||A_b Z_b - Z_b T_b||^2 + coupling^2)
    / sqrt(sum ||A_b||^2 + coupling^2), so dropping the coupling is
    certified, not assumed; it must be finite and at most RESIDUAL_REL.
    Two or more blocks are solved on a thread pool, one block in the
    calling thread (see `_pooled`).
    """
    solved, workers = _pooled([partial(_solve, A) for A in blocks])
    return _record(N, solved, coupling, workers, N - sum(len(A) for A in blocks),
                   "position")


def spectra(ops):
    """Per operator, the record of its kept blocks in the sector basis of
    `quantum_baker._basis` (prolate or position) and the norm of all they
    leave out.  One pool (`_pooled`) runs a task per sector of each map,
    largest N first, which builds the block and solves it.  N above
    DENSE_CAP raises DimensionCap before any task runs."""
    bases = [_basis(op) for op in ops]
    tasks = sorted(((i, split) for i, (_, _, splits) in enumerate(bases) for split in splits),
                   key=lambda task: -ops[task[0]].N)
    solved, workers = _pooled(
        [partial(_solve_sector, bases[i][1], ops[i], *split) for i, split in tasks])
    done = [[] for _ in ops]
    for (i, _), result in zip(tasks, solved):
        done[i].append(result)
    return [_record(op.N, [s for s, _ in parts], _coupling(p for _, p in parts),
                    workers, op.N - len(op.spec.alphabet) * (op.N // op.spec.a),
                    name) for op, (name, _, _), parts in zip(ops, bases, done)]


def count_annulus(record, nu):
    """#{lambda : |lambda| >= nu}, with ties within the dead band counted."""
    if nu < 0:
        raise ValueError("nu >= 0")
    return int(np.sum(np.abs(record.eigenvalues) >= nu - TIE_BAND))


def weyl_exponent(records, nu):
    """Slope of log count vs log N over records at geometric dimensions.

    Zero counts cannot enter a log fit; they are dropped (and kept in the
    points list for the record).  Surviving points at fewer than three
    distinct N are an error rather than a degenerate answer.
    """
    if len(records) < 3:
        raise DegenerateCounts("need >= 3 spectra")
    points = tuple((rec.N, count_annulus(rec, nu)) for rec in records)
    used = [(n, c) for n, c in points if c >= 1]
    if len({n for n, _ in used}) < 3:
        raise DegenerateCounts(f"nonzero counts at fewer than 3 distinct N at nu={nu}")
    x = np.log([n for n, _ in used])
    y = np.log([c for _, c in used])
    design = np.column_stack([np.ones(x.size), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    var = float(resid @ resid) / (x.size - 2) / float(((x - x.mean()) ** 2).sum())
    return WeylFit(nu=float(nu), points=points, slope=float(coef[1]),
                   stderr=float(math.sqrt(var)))


def annulus_gap_exponent(nu, d_h, log_expansion):
    """Gap improvement for counts in {|z| >= nu} in the toy scaling.

    The radial cutoff nu corresponds to decay gamma = -log(nu)/log_expansion
    per unit time; the improvement is max(1 - d_h - 2*gamma, 0).
    """
    if not (0 < nu <= 1):
        raise ValueError("nu in (0, 1]")
    if log_expansion <= 0:
        raise ValueError("log_expansion > 0")
    gamma = -math.log(nu) / log_expansion
    return max(1.0 - d_h - 2.0 * gamma, 0.0)


def bound_report(fit, d_h, sigma_nu):
    """Per-dimension ratios against the improved exponent d_h - sigma.

    Ratios count / N^(d_h - sigma) should stay bounded if the improved
    upper bound holds; monotone growth by more than 2x across the range
    is flagged.
    """
    if not (math.isfinite(d_h) and math.isfinite(sigma_nu)):
        raise ValueError("finite d_h, sigma_nu required")
    exponent = d_h - sigma_nu
    ratios = [
        (int(n), float(c) / float(n) ** exponent)
        for n, c in fit.points
        if c >= 1
    ]
    vals = [r for _, r in ratios]
    growing = (
        len(vals) >= 2
        and all(b > a for a, b in zip(vals, vals[1:]))
        and vals[-1] > 2.0 * vals[0]
    )
    return {
        "nu": fit.nu,
        "exponent": exponent,
        "ratios": ratios,
        "bounded": not growing,
    }

