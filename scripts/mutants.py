"""Mutation check of the certificate, error-bar and guard code.

Each mutant replaces one whole line of one module under src/openmaps.  For
each, the tree is copied to a temporary directory, the line is replaced
there (it must match exactly once, or the run stops: a stale list is an
error, not a pass), and the tests of the mutated code run with
tests/test_acceptance.py, stopping at the first failure.  A mutant is
killed when a test fails and survives when every test passes.

    python3 scripts/mutants.py            # every mutant, 2-17 s each on 2 cores
    python3 scripts/mutants.py M3 M8      # only these
    python3 scripts/mutants.py --dry-run  # check that each line matches once

Prints one line per mutant and the score; exits 1 when a mutant survives
or its run ends in neither a pass nor a test failure.  A change that adds
a certificate adds its mutant here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", "out", "__pycache__", ".pytest_cache",
                              ".hypothesis", "runs")


class Mutant(NamedTuple):
    name: str
    what: str
    module: str    # under src/openmaps
    line: str      # the whole line, indentation included
    mutated: str
    tests: str     # the test file of the mutated code, under tests/


MUTANTS = [
    Mutant("M1", "the block coupling left out of the backward error",
           "spectral_counting.py",
           "    backward_error = math.hypot(*(r for (_, r, _), _ in solved), coupling)"
           " / (norm_a or 1.0)",
           "    backward_error = math.hypot(*(r for (_, r, _), _ in solved))"
           " / (norm_a or 1.0)",
           "test_spectral_counting.py"),
    Mutant("M2", "the dead band's sign flipped in annulus counts",
           "spectral_counting.py",
           "    return int(np.sum(np.abs(record.eigenvalues) >= nu - TIE_BAND))",
           "    return int(np.sum(np.abs(record.eigenvalues) >= nu + TIE_BAND))",
           "test_spectral_counting.py"),
    Mutant("M3", "the prolate basis's ||G^T G - I|| left out of its part",
           "quantum_baker.py",
           "        resid, np.linalg.norm(G.T @ G - np.eye(len(d))))",
           "        resid, 0.0)",
           "test_spectral_counting.py"),  # the prolate basis is tested there
    Mutant("M4", "the pressure's extrapolation uncertainty set to 0",
           "symbolic_pressure.py",
           "    uncertainty = abs(per_depth[-1][1] - value)",
           "    uncertainty = 0.0",
           "test_symbolic_pressure.py"),
    Mutant("M5", "reflection curvature r in place of 1/r",
           "disk_billiard.py",
           "    refl[..., 1, 0] = 2.0 * (1.0 / radii) / np.abs(cosines)",
           "    refl[..., 1, 0] = 2.0 * radii / np.abs(cosines)",
           "test_disk_billiard.py"),
    Mutant("M6", "the Chebyshev series of e^{-tG} cut at 1e-9",
           "phase_space.py",
           "CHEB_TAIL = 1e-17  # the Chebyshev series of e^{-tG} stops at I_k/I_0 below this",
           "CHEB_TAIL = 1e-9",
           "test_phase_space.py"),
    Mutant("M7", "growth flagged only past 20x",
           "spectral_counting.py",
           "        and vals[-1] > 2.0 * vals[0]",
           "        and vals[-1] > 20.0 * vals[0]",
           "test_spectral_counting.py"),
    Mutant("M8", "split_core without its weight e^{t(lambda_max - lambda_min)}",
           "phase_space.py",
           "        weight = math.exp(params.t * np.ptp(np.concatenate(lam)))",
           "        weight = 1.0",
           "test_phase_space.py"),
    Mutant("M9", "the Monte-Carlo escape rate's stderr halved",
           "disk_billiard.py",
           "    return float(-coef[1]), stderr",
           "    return float(-coef[1]), stderr / 2",
           "test_disk_billiard.py"),
    Mutant("M10", "newton_residual_max written as the least residual",
           "cli_io.py",
           '    certificates = {"orbits": {"newton_residual_max":'
           " max(residual.tolist(), default=None),",
           '    certificates = {"orbits": {"newton_residual_max":'
           " min(residual.tolist(), default=None),",
           "test_cli_io.py"),
    Mutant("M11", "the decay rate from the bracket's midpoint, not its P >= 0 side",
           "symbolic_pressure.py",
           '    return _bisect(f, 0.0, hi, side="nonneg")',
           "    return _bisect(f, 0.0, hi)",
           "test_symbolic_pressure.py"),
    Mutant("M12", "the least-squares slope's stderr halved",
           "symbolic_pressure.py",
           "    return coef, math.sqrt(float(resid @ (w * resid)) / dof * cov[1, 1])",
           "    return coef, 0.5 * math.sqrt(float(resid @ (w * resid)) / dof * cov[1, 1])",
           "test_symbolic_pressure.py"),
]


def mutated(mutant):
    """The mutant's module source with its line replaced; raises unless
    the line matches exactly one line of the module."""
    lines = (ROOT / "src" / "openmaps" / mutant.module).read_text().split("\n")
    hits = [i for i, line in enumerate(lines) if line == mutant.line]
    if len(hits) != 1:
        raise SystemExit(f"{mutant.name}: the line matches {len(hits)} times in "
                         f"{mutant.module}, not once: {mutant.line.strip()!r}")
    lines[hits[0]] = mutant.mutated
    return "\n".join(lines)


def run(mutant):
    """(verdict, seconds, first failing test) of one mutant."""
    source = mutated(mutant)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        (tree / "src" / "openmaps" / mutant.module).write_text(source)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             f"tests/{mutant.tests}", "tests/test_acceptance.py"],
            cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = next((line.split()[1] for line in proc.stdout.splitlines()
                   if line.startswith("FAILED ")), "")
    verdict = {0: "survived", 1: "killed"}.get(proc.returncode, f"error {proc.returncode}")
    return verdict, seconds, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--dry-run", action="store_true",
                        help="only check that each mutant's line matches once")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    if unknown := [name for name in args.names if name not in known]:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or MUTANTS
    if args.dry_run:
        for mutant in chosen:
            mutated(mutant)
        print(f"{len(chosen)} mutant lines each match once")
        return 0
    killed = 0
    for mutant in chosen:
        verdict, seconds, failed = run(mutant)
        killed += verdict == "killed"
        print(f"{mutant.name:4} {verdict:9} {seconds:6.1f} s  {mutant.what}"
              + (f"\n     first failure: {failed}" if failed else ""), flush=True)
    print(f"score: {killed}/{len(chosen)} killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
