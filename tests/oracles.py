"""Reference values the package does not compute, kept for the tests.

`parity_blocks` builds the kept diagonal blocks of one map in the
position basis, sector by sector in this thread, and their coupling: the
oracle of every basis `spectral_counting.spectra` takes.
`block_spectrum` solves given blocks one after the other in this
thread by `spectral_counting._solve` and merges them by `_record`, as
`spectra` does; `sector_spectrum` does so with the blocks of one map in
the basis `spectra` takes: the per-N oracle of `spectra`, which builds
and solves the blocks of many maps on one thread pool.  `norm_squared`
is the exact norm² of a wave packet, the oracle of its sampled norms.
"""

import math

import numpy as np

from openmaps.quantum_baker import _basis, _sector_block, _sectors
from openmaps.spectral_counting import _coupling, _record, _solve
from openmaps.threads import blas_threads


def parity_blocks(op):
    """Kept diagonal blocks of the map in its sector bases, and their coupling.

    Only the allowed-strip indices are kept; the others span excluded
    columns, which are structural zeros.  Each sector of
    `quantum_baker._sectors` gives its block by `_sector_block`, one after
    the other, and the coupling, zero by symmetry up to round-off and 0.0
    for one sector, is returned as its Frobenius norm.

    Returns (blocks, coupling); N minus the total block size is the
    number of structural zeros.
    """
    keep = np.flatnonzero(np.isin(np.arange(op.N) // (op.N // op.spec.a), op.spec.alphabet))
    sectors = _sectors(op, keep)
    blocks, parts = zip(*(_sector_block(op, own, [s for s in sectors if s is not own])
                          for own in sectors))
    return list(blocks), _coupling(parts)


def _serial(N, blocks, parts, zeros, basis):
    """`_record` of `blocks` solved one after the other in this thread,
    each OpenBLAS on one thread as in `spectral_counting._pooled`."""
    with blas_threads(1):
        solved = [(_solve(A), part) for A, part in zip(blocks, parts)]
    return _record(N, solved, 1, zeros, basis)


def block_spectrum(N, blocks, coupling=0.0):
    """The position-basis record of an N x N matrix from its kept diagonal
    `blocks`, whose coupling has the Frobenius norm `coupling`; N minus
    the total block size are structural zeros."""
    parts = [coupling] + [0.0] * (len(blocks) - 1)
    return _serial(N, blocks, parts, N - sum(map(len, blocks)), "position")


def sector_spectrum(op):
    """The record `spectral_counting.spectra([op])` gives but for
    `workers`: the blocks of `quantum_baker._basis` built one after the
    other in this thread, as in `spectra` with every OpenBLAS on one
    thread (a gemm's round-off may depend on its thread count), then
    solved one after the other."""
    name, zeros, tasks = _basis(op)
    with blas_threads(1):
        blocks, parts = zip(*(task() for task in tasks))
    return _serial(op.N, blocks, parts, zeros, name)


def norm_squared(wp):
    """Exact L² norm² of a `phase_space.WavePacket`: the n-th basis packet
    carries weight n!."""
    return float(sum(abs(z) ** 2 * math.factorial(n)
                     for n, z in enumerate(wp.hermite_coeffs)))
