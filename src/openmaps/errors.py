"""Typed errors shared across the laboratory modules.

Every domain failure raises a subclass of LabError.  The CLI prints the
class name verbatim, so the names here are part of the external
interface; config-file problems use ConfigParse.  The exit code of each
is stated in the module docstring of `cli_io`.
"""


class LabError(Exception):
    """Base class for all domain errors raised by this package."""


# symbolic_pressure

class EmptyTable(LabError):
    """Cylinder table has no admissible words."""


class InsufficientDepths(LabError):
    """Too few table depths for extrapolation or a slope fit."""


class NoSignChange(LabError):
    """Root bracket endpoints do not straddle zero."""


class NotOpen(LabError):
    """Pressure of the escape weight is nonnegative: the system does not leak."""


# disk_billiard

class NoConvergence(LabError):
    """Iterative solve did not reach tolerance."""


class NotHyperbolic(LabError):
    """Closed-orbit monodromy trace has modulus <= 2."""


class TooFewSurvivors(LabError):
    """Monte-Carlo escape fit window is empty."""


# quantum_baker

class BadDimension(LabError):
    """Hilbert space dimension incompatible with the map (a must divide N)."""


class DimensionMismatch(LabError):
    """Operator and state dimensions differ."""


class DimensionCap(LabError):
    """Requested dense dimension exceeds the configured cap."""


# spectral_counting

class DegenerateCounts(LabError):
    """Fewer than 3 nonzero annulus counts: exponent fit impossible."""


# phase_space

class NotSymplectic(LabError):
    """2x2 matrix determinant differs from 1 by more than 1e-12."""


class DegenerateFrame(LabError):
    """Frame top row with |a+ib|² < 1e-300; raised to the caller."""


# cli_io

class ConfigParse(LabError):
    """Malformed or incomplete run configuration."""


class EmptyData(LabError):
    """Plot or export requested for an empty data set."""
