"""The benchmark's workloads, each a timed pass followed by tolerance checks.

A workload has four parts.  ``warm`` runs once per process before the
first pass and is not timed: it makes the first call, at the
workload's largest N, into the LAPACK routine that dominates the pass,
whose first call in a process can cost a second more than later ones.
``run`` makes the calls into openmaps and is the only part the pass
timer covers; it records raw results in a `Pass`.  ``collect`` turns them into the named values the checks read
(for ``reproduce`` it parses and hashes the payload files).  ``check``
maps those values to ``(operation, label, ok)`` triples; an operation
fails when its call raised or any of its checks is false.  The checks
mirror the acceptance gate in ``tests/test_acceptance.py``.

Every call goes through a module attribute (``cli_io.main``, not a
name imported here) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from openmaps import cli_io, disk_billiard, phase_space, symbolic_pressure
from openmaps.baker_classical import BakerSpec

D_H = math.log(2) / math.log(3)
LOG3 = math.log(3)
OPEN3 = BakerSpec(3, (0, 2))
TRI = disk_billiard.DiskConfig(
    centers=((0.0, 0.0), (6.0, 0.0), (3.0, 3.0 * math.sqrt(3.0))),
    radii=(1.0, 1.0, 1.0),
)

# (command, config, output directory): the chain of scripts/reproduce.sh
REPRODUCE = (
    ("pressure", "pressure.ini", "pressure"),
    ("dimension", "dimension.ini", "dimension"),
    ("sigma-curve", "sigma.ini", "sigma"),
    ("billiard-orbits", "orbits.ini", "orbits"),
    ("spectrum", "spectrum.ini", "spectrum"),
    ("weyl-fit", "weyl.ini", "weyl_nu_05"),
    ("weyl-fit", "weyl_high_cut.ini", "weyl_nu_09"),
    ("propagate", "propagate.ini", "propagate"),
    ("husimi-frames", "husimi.ini", "husimi"),
    ("trace-check", "trace.ini", "trace"),
)
COMMANDS = tuple(dict.fromkeys(c for c, _, _ in REPRODUCE))
WEYL_MAX_N = 2187  # largest N_list entry of scripts/configs/weyl*.ini

BILLIARD_DEPTHS = tuple(range(4, 9))
MC_SAMPLES = 10 ** 6


@dataclass
class Pass:
    """Operations attempted in one pass, those that raised, and raw results."""

    ops: list = field(default_factory=list)
    raised: set = field(default_factory=set)
    results: dict = field(default_factory=dict)

    def op(self, name, fn, *args, **kwargs):
        self.ops.append(name)
        try:
            self.results[name] = fn(*args, **kwargs)
        except Exception:  # a raising call is a failed operation, not a crash
            traceback.print_exc()
            self.raised.add(name)
            self.results[name] = None
        return self.results[name]

    def failed(self, checks):
        return self.raised | {op for op, _, ok in checks if not ok}


def _holds(pred, *vals):
    """pred(*vals) for present values; a missing value fails the check."""
    return all(v is not None for v in vals) and bool(pred(*vals))


# ------------------------------------------------------------ reproduce

def _run_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_io.main(argv)


def _diagonal(n):
    return np.diag(np.arange(1.0, n + 1)).astype(np.complex128)


def warm_reproduce():
    # spectral_counting.eigenvalues at weyl-fit's largest N
    scipy.linalg.eig(_diagonal(WEYL_MAX_N))


def run_reproduce(p, root, seed, scratch):
    configs = root / "scripts" / "configs"
    for command, config, sub in REPRODUCE:
        p.op(sub, _run_main, [command, "--config", str(configs / config),
                              "--out", str(scratch / sub), "--format", "all"])


def collect_reproduce(p, scratch):
    """Exit codes and checked fields of each payload, plus payload sha256s."""
    values, hashes, payload = {}, {}, {}
    for command, _, sub in REPRODUCE:
        values[f"{sub}.exit"] = p.results[sub]
        path = scratch / sub / f"{command}.json"
        payload[sub] = None
        if p.results[sub] == 0 and path.exists():
            data = path.read_bytes()
            hashes[sub] = hashlib.sha256(data).hexdigest()
            payload[sub] = json.loads(data)

    def field_of(sub, *keys):
        node = payload[sub]
        for key in keys:
            if node is None:
                return None
            node = node[key]
        return node

    eigs = field_of("spectrum", "eigenvalues")
    values.update({
        "dimension": field_of("dimension", "dimension"),
        "weyl_05_slope": field_of("weyl_nu_05", "fit", "slope"),
        "weyl_09_slope": field_of("weyl_nu_09", "fit", "slope"),
        "trace_exponent": field_of("trace", "exponent"),
        "spectrum_N": field_of("spectrum", "N"),
        "spectrum_count": None if eigs is None else len(eigs),
        "bytes_written": sum(f.stat().st_size for f in scratch.rglob("*")
                             if f.is_file()),
    })
    return values, {"payload_sha256": hashes}


def check_reproduce(v):
    lo, hi = D_H - 0.25, D_H + 0.10
    checks = [(sub, "exit 0", v[f"{sub}.exit"] == 0) for _, _, sub in REPRODUCE]
    checks += [
        ("dimension", "|dim - log2/log3| <= 1e-6",
         _holds(lambda d: abs(d - D_H) <= 1e-6, v["dimension"])),
        ("weyl_nu_05", "slope(0.5) in [d_H-0.25, d_H+0.10]",
         _holds(lambda s: lo <= s <= hi, v["weyl_05_slope"])),
        ("weyl_nu_09", "slope(0.9) <= slope(0.5)+0.05",
         _holds(lambda a, b: a <= b + 0.05, v["weyl_09_slope"], v["weyl_05_slope"])),
        ("trace", "exponent <= d_H+0.15",
         _holds(lambda e: e <= D_H + 0.15, v["trace_exponent"])),
        ("spectrum", "N eigenvalues",
         _holds(lambda n, c: n == c, v["spectrum_N"], v["spectrum_count"])),
    ]
    return checks


# ----------------------------------------------------------- damped_2187

DAMPED_N = 3 ** 7


def warm_damped():
    # the eigh that phase_space.damping_operator makes, at its N
    np.linalg.eigh(_diagonal(DAMPED_N))


def run_damped(p, root, seed, scratch):
    h = 1.0 / (2.0 * math.pi * DAMPED_N)
    params = phase_space.EscapeParams(h=h, delta=0.4, t=1.0)
    depth = phase_space.default_depth(OPEN3, params)
    # the trapped edge point of the first-generation gap, and a point
    # 2h^0.4 off it, as in acceptance criterion 09
    edge = (1.0 / 3.0, 0.0)
    far = (1.0 / 3.0 + 2.0 * h ** 0.4, 0.3)
    for name, rho, n_max in (("edge", edge, 3), ("far", far, 8)):
        p.op(name, lambda rho=rho, n_max=n_max: (
            phase_space.trapped_distance(OPEN3, rho, depth),
            phase_space.damped_propagation_experiment(
                OPEN3, DAMPED_N, rho, params, n_max=n_max)))


def collect_damped(p, scratch):
    values = {"h": 1.0 / (2.0 * math.pi * DAMPED_N)}
    for name in ("edge", "far"):
        dist, w = p.results[name] or (None, None)
        values[f"{name}_distance"] = dist
        values[f"{name}_w"] = None if w is None else [float(x) for x in w]
    return values, {}


def _log_slope(w):
    return float(np.polyfit(np.arange(len(w)), np.log(w), 1)[0])


def check_damped(v):
    h = v["h"]
    slope_bound = (D_H - 1.0) * LOG3 + 0.25
    return [
        ("edge", "edge point is trapped",
         _holds(lambda d: d == 0.0, v["edge_distance"])),
        ("edge", "log w_n slope <= (d_H-1) log 3 + 0.25",
         _holds(lambda w: _log_slope(w) <= slope_bound, v["edge_w"])),
        ("far", "far point distance >= h^0.4",
         _holds(lambda d: d >= h ** 0.4, v["far_distance"])),
        ("far", "w_8 <= h^2",
         _holds(lambda w: len(w) == 9 and w[-1] <= h ** 2, v["far_w"])),
    ]


# -------------------------------------------------------- billiard_3disk

def warm_billiard():
    """Nothing: the Newton solves and the Monte Carlo use no dense LAPACK."""


def run_billiard(p, root, seed, scratch):
    tables = [p.op(f"cylinder_table.d{n}", disk_billiard.cylinder_table, TRI, n)
              for n in BILLIARD_DEPTHS]
    p.op("classical_decay_rate", symbolic_pressure.classical_decay_rate, tables)
    p.op("bowen_dimension", symbolic_pressure.bowen_dimension, tables)
    p.op("escape_rate_mc", disk_billiard.escape_rate_mc, TRI, MC_SAMPLES,
         rng_seed=seed)
    p.op("trapped_box_dimension", disk_billiard.trapped_box_dimension, TRI)


def collect_billiard(p, scratch):
    rate = p.results["escape_rate_mc"]
    return {
        "gamma_cl": p.results["classical_decay_rate"],
        "bowen": p.results["bowen_dimension"],
        "mc_rate": rate and rate[0],
        "box": p.results["trapped_box_dimension"],
    }, {}


def check_billiard(v):
    return [
        ("escape_rate_mc", "|MC - gamma_cl| / gamma_cl <= 5%",
         _holds(lambda r, g: g > 0 and abs(r - g) / g <= 0.05,
                v["mc_rate"], v["gamma_cl"])),
        ("trapped_box_dimension", "|box - Bowen| <= 0.05",
         _holds(lambda b, d: abs(b - d) <= 0.05, v["box"], v["bowen"])),
    ]


@dataclass(frozen=True)
class Workload:
    warm: object
    run: object
    collect: object
    check: object


WORKLOADS = {
    "reproduce": Workload(warm_reproduce, run_reproduce, collect_reproduce,
                          check_reproduce),
    "damped_2187": Workload(warm_damped, run_damped, collect_damped,
                            check_damped),
    "billiard_3disk": Workload(warm_billiard, run_billiard, collect_billiard,
                               check_billiard),
}
