"""Eigenvalue spectra of open maps, annulus counts, and Weyl-law fits.

The resonance proxy is the full eigenvalue set of the subunitary matrix;
counts in annuli {|z| >= nu} are regressed against the dimension to
extract the fractal Weyl exponent, and a report compares per-dimension
counts against an exponent improved by the spectral-gap function.

The eigensolve deflates the identically zero columns first (for the open
baker map, the excluded strips: N·(1 - m/a) of them), whose eigenvalues
are exactly zero, and takes the rest from a complex Schur form of the
compression to the kept indices.  No eigenvectors are formed; the
certificate is the Schur backward error ||AZ - ZT||_F / ||A||_F.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateCounts, NoConvergence

# counting dead band: moduli within this of nu count as above
TIE_BAND = 1e-10
# largest accepted relative Schur backward error of an eigensolve
RESIDUAL_REL = 1e-8


@dataclass(frozen=True)
class SpectrumRecord:
    """All N eigenvalues of one matrix, sorted by decreasing modulus.

    ``backward_error`` is the relative Schur backward error of the
    eigensolve and ``structural_zeros`` the number of eigenvalues fixed
    at exactly zero by identically zero columns.  NaN and None mean "not
    computed" (records read back from CSV, which carries neither).
    """

    N: int
    eigenvalues: np.ndarray
    backward_error: float
    structural_zeros: int | None = None

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

    def to_json(self):
        return json.dumps(
            {
                "nu": self.nu,
                "points": [[int(n), int(c)] for n, c in self.points],
                "slope": self.slope,
                "stderr": self.stderr,
            },
            sort_keys=True,
        )


def eigenvalues(matrix):
    """Full dense spectrum with a Schur backward-error certificate.

    With keep the columns that are not identically zero and A the
    compression matrix[keep, keep], a permutation puts the matrix in the
    block lower triangular form [[A, 0], [C, 0]]; its spectrum is eig(A)
    plus N - |keep| exact zeros.  eig(A) is the diagonal of the complex
    Schur form A = Z T Z*, certified by ||AZ - ZT||_F / ||A||_F, which
    must be finite and at most RESIDUAL_REL.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("square matrix expected")
    keep = np.flatnonzero(np.any(matrix != 0, axis=0))
    A = matrix[np.ix_(keep, keep)]
    T, Z = scipy.linalg.schur(A, output="complex")
    resid = A @ Z
    resid -= scipy.linalg.blas.ztrmm(1.0, T, Z, side=1, overwrite_b=True)
    norm_a = np.linalg.norm(A)
    backward_error = float(np.linalg.norm(resid) / (norm_a if norm_a else 1.0))
    if not backward_error <= RESIDUAL_REL:
        raise NoConvergence(
            f"Schur backward error {backward_error:.3e} above {RESIDUAL_REL:.0e}"
        )
    vals = np.concatenate([np.diag(T), np.zeros(n - keep.size)])
    order = np.argsort(-np.abs(vals), kind="stable")
    return SpectrumRecord(N=n, eigenvalues=vals[order],
                          backward_error=backward_error,
                          structural_zeros=n - keep.size)


def count_annulus(record, nu):
    """#{lambda : |lambda| >= nu}, with ties within the dead band counted."""
    if nu < 0:
        raise ValueError("nu >= 0")
    return int(np.sum(np.abs(record.eigenvalues) >= nu - TIE_BAND))


def weyl_exponent(records, nu):
    """Slope of log count vs log N over records at geometric dimensions.

    Zero counts cannot enter a log fit; they are dropped (and kept in the
    points list for the record).  Fewer than three surviving points is an
    error rather than a degenerate answer.
    """
    if len(records) < 3:
        raise DegenerateCounts("need >= 3 spectra")
    points = tuple((rec.N, count_annulus(rec, nu)) for rec in records)
    used = [(n, c) for n, c in points if c >= 1]
    if len(used) < 3:
        raise DegenerateCounts(f"fewer than 3 nonzero counts at nu={nu}")
    x = np.log([n for n, _ in used])
    y = np.log([c for _, c in used])
    design = np.column_stack([np.ones(x.size), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = max(x.size - 2, 1)
    var = float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum())
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


def spectrum_to_csv(record):
    lines = ["re,im,modulus"]
    for z in record.eigenvalues:
        lines.append(f"{float(z.real)!r},{float(z.imag)!r},{float(abs(z))!r}")
    return "\n".join(lines) + "\n"


def spectrum_from_csv(text):
    rows = [ln for ln in text.strip().splitlines() if ln]
    if rows[0] != "re,im,modulus":
        raise ValueError(f"bad header {rows[0]!r}")
    vals = np.array(
        [complex(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows[1:]]
    )
    return SpectrumRecord(N=len(vals), eigenvalues=vals,
                          backward_error=float("nan"))
