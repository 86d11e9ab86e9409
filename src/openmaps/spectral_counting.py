"""Eigenvalue spectra of open maps, annulus counts, and Weyl-law fits.

The resonance proxy is the full eigenvalue set of the subunitary matrix;
counts in annuli {|z| >= nu} are regressed against the dimension to
extract the fractal Weyl exponent, and a report compares per-dimension
counts against an exponent improved by the spectral-gap function.

Every spectrum takes one path: calls that each give a kept diagonal
block and the norm of what it leaves out, run on one pool (`_pooled`),
merged into one record (`_record`).  `spectra` takes the calls of each
map from `quantum_baker._basis`, which drops the N·(1 - m/a) identically
zero columns of the excluded strips as structural zeros and splits the
rest into parity sectors where the map is reflection symmetric (each
block of half the size costs about a quarter of a full one), in the
prolate basis where it applies: there about a third of every block is
numerically null, dropped (deflated) before the Schur form, and at
N = 2187 the two blocks of 729 become 504 and 503.  `eigenvalues` is
the one-block case for any matrix, the compression to the columns that
are not identically zero.  The pool runs the calls of all maps of a
list, largest N first, each building its block and taking its Schur
form by LAPACK zgees called through ctypes, which releases the GIL;
every call, a lone one too, runs with each OpenBLAS on one thread, so
a record's bits depend on neither the maps solved beside it nor the
number of CPUs.  No eigenvectors are formed.  The certificate is the
Frobenius backward error of the whole compression: the Schur residuals
of the blocks with the norm of all the split leaves out, relative to
the norm of the compression.  In the position basis that is the
coupling between the sectors, zero by symmetry only up to round-off; in
the prolate basis also the dropped columns' mu, the residual
||K V - V mu|| of the prolate basis and its orthogonality ||V^T V - I||.
"""

from __future__ import annotations

import ctypes
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .errors import DegenerateCounts, NoConvergence
from .quantum_baker import _basis
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
    plus N - |keep| exact zeros: the one-block case of `spectra`.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("square matrix expected")
    keep = np.flatnonzero(np.any(matrix != 0, axis=0))
    solved, workers = _pooled([lambda: (matrix[np.ix_(keep, keep)], 0.0)])
    return _record(n, solved, workers, n - keep.size, "position")


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


def _pooled(tasks):
    """(per call in `tasks`, the `_solve` of the block it gives with the
    norm it gives beside it; workers), every OpenBLAS on one thread
    whatever the number of tasks, so a result's bits depend on neither
    the tasks beside it nor the CPUs: on min(#tasks, `pool_size()`)
    threads, or in this thread if no OpenBLAS count can be set.  zgees
    gains nothing from more BLAS threads at n = 729; a lone block of 1458
    takes about a quarter longer on one than on two."""
    def solve(task):
        block, part = task()
        return _solve(block), part

    with blas_threads(1) as threads:
        workers = min(len(tasks), pool_size()) if threads else 1
        if workers <= 1:
            return [solve(task) for task in tasks], workers
        with ThreadPoolExecutor(workers) as pool:
            return list(pool.map(solve, tasks)), workers


def _coupling(parts):
    return reduce(math.hypot, parts, 0.0)  # in block order, bit for bit


def _record(N, solved, workers, zeros, basis):
    """The record of an N x N matrix from the `_pooled` results of its
    kept diagonal blocks A_b: `zeros` of its eigenvalues structural, the
    rest outside the blocks deflated.  In some orthonormal basis the
    matrix is [[A, 0], [C', 0]], A with the diagonal blocks A_b and, off
    them, entries of Frobenius norm `_coupling` of the norms beside the
    blocks.  Its spectrum is taken as that of the A_b, each the diagonal
    of a Schur form A_b = Z_b T_b Z_b*, plus exact zeros; the certificate
    is the backward error of the whole of A, sqrt(sum ||A_b Z_b - Z_b
    T_b||^2 + coupling^2) / sqrt(sum ||A_b||^2 + coupling^2), so dropping
    the coupling is certified, not assumed; it must be finite and at most
    RESIDUAL_REL."""
    vals = [v for (v, _, _), _ in solved]
    coupling = _coupling(part for _, part in solved)
    norm_a = math.hypot(*(a for (_, _, a), _ in solved), coupling)
    backward_error = math.hypot(*(r for (_, r, _), _ in solved), coupling) / (norm_a or 1.0)
    if not backward_error <= RESIDUAL_REL:
        raise NoConvergence(f"Schur backward error {backward_error:.3e} above {RESIDUAL_REL:.0e}")
    sizes = tuple(len(v) for v in vals)
    vals = np.concatenate(vals + [np.zeros(N - sum(sizes))])
    order = np.argsort(-np.abs(vals), kind="stable")
    return SpectrumRecord(N=N, eigenvalues=vals[order], backward_error=backward_error,
                          structural_zeros=zeros, deflated=N - zeros - sum(sizes),
                          basis=basis, blocks=sizes, workers=workers)


def spectra(ops):
    """Per operator, the record of its blocks in the basis of
    `quantum_baker._basis` (prolate or position).  One pool (`_pooled`)
    runs the block tasks of every map, largest N first, each building
    its block and solving it.  N above DENSE_CAP raises DimensionCap
    before any task runs."""
    bases = [_basis(op) for op in ops]
    tasks = sorted(((i, task) for i, basis in enumerate(bases) for task in basis[2]),
                   key=lambda task: -ops[task[0]].N)
    solved, workers = _pooled([task for _, task in tasks])
    done = [[] for _ in ops]
    for (i, _), result in zip(tasks, solved):
        done[i].append(result)
    return [_record(op.N, parts, workers, zeros, name)
            for op, (name, zeros, _), parts in zip(ops, bases, done)]


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

