"""Reference values the package does not compute, kept for the tests.

`parity_blocks` builds the kept diagonal blocks of one map in the
position basis, sector by sector in this thread, and their coupling: the
oracle of every basis `spectral_counting.spectra` takes.
`sector_spectrum` builds the blocks of one map in the basis `spectra`
takes, one after the other in this thread, and solves them: the per-N
oracle of `spectra`, which builds and solves the blocks of many maps on
one thread pool.  `norm_squared` is the exact norm² of a wave packet,
the oracle of its sampled norms.
"""

import math
from dataclasses import replace

from openmaps.quantum_baker import _basis, _coupling, _parity_split, _sector_block
from openmaps.spectral_counting import block_eigenvalues
from openmaps.threads import blas_threads


def parity_blocks(op):
    """Kept diagonal blocks of the map in its sector bases, and their coupling.

    Only the allowed-strip indices are kept; the others span excluded
    columns, which are structural zeros.  Each sector of
    `quantum_baker._sectors` gives its block by `_sector_block`, one after
    the other, and the coupling, zero by symmetry up to round-off and 0.0
    for one sector, is returned as its Frobenius norm.  N above DENSE_CAP
    raises DimensionCap.

    Returns (blocks, coupling); N minus the total block size is the
    number of structural zeros.
    """
    blocks, parts = zip(*(_sector_block(op, *split) for split in _parity_split(op)))
    return list(blocks), _coupling(parts)


def sector_spectrum(op):
    """The record `spectral_counting.spectra([op])` gives but for
    `workers`: the blocks of `quantum_baker._basis` built one after the
    other in this thread, solved by `block_eigenvalues`, the eigenvalues
    outside them split into the excluded strips' structural zeros and the
    deflated rest.  As in `spectra`, the blocks are built with every
    OpenBLAS on one thread: a gemm's round-off may depend on its thread
    count."""
    name, block, splits = _basis(op)
    with blas_threads(1):
        blocks, parts = zip(*(block(op, *split) for split in splits))
    record = block_eigenvalues(op.N, list(blocks), _coupling(parts))
    zeros = op.N - len(op.spec.alphabet) * (op.N // op.spec.a)
    return replace(record, structural_zeros=zeros,
                   deflated=record.structural_zeros - zeros, basis=name)


def norm_squared(wp):
    """Exact L² norm² of a `phase_space.WavePacket`: the n-th basis packet
    carries weight n!."""
    return float(sum(abs(z) ** 2 * math.factorial(n)
                     for n, z in enumerate(wp.hermite_coeffs)))
