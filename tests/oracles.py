"""Reference values the package does not compute, kept for the tests.

`parity_blocks` builds the kept diagonal blocks of one map, sector by
sector in this thread, and their coupling: the per-N oracle of
`spectral_counting.spectra`, which builds and solves the blocks of many
maps on one thread pool.  `norm_squared` is the exact norm² of a wave
packet, the oracle of its sampled norms.
"""

import math

from openmaps.quantum_baker import _coupling, _parity_split, _sector_block


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


def norm_squared(wp):
    """Exact L² norm² of a `phase_space.WavePacket`: the n-th basis packet
    carries weight n!."""
    return float(sum(abs(z) ** 2 * math.factorial(n)
                     for n, z in enumerate(wp.hermite_coeffs)))
