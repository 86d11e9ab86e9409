"""Per-layer metrics: what the tracer keys each call by, and how spans aggregate.

Every name in `PER_LAYER` is reported by every traced run, on every
workload, so that a layer a workload does not touch reads 0 calls and
0 s there; `BENCHMARK.json` lists the same names.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

import numpy as np

from perfbench.workloads import BILLIARD_DEPTHS, COMMANDS


def _matrix_key(matrix):
    m = np.ascontiguousarray(matrix)
    return (m.shape[0], hashlib.sha1(m).hexdigest())


def _operator_key(spec, N, params, depth=None, also_inverse=False):
    return repr((spec, N, params, depth))


def _orbit_key(config, word, closed=True):
    w = tuple(word)
    return (repr(config), min(w[i:] + w[:i] for i in range(len(w))), closed)


def _depth_key(config, n):
    return f"d{n}"


def _command_key(argv=None):
    return argv[0] if argv else None


# span name -> key of one call, from that call's arguments
KEYS = {
    # distinct input matrices; the N in the key gives the N^3 work count
    "spectral_counting.eigenvalues": _matrix_key,
    # one damping operator per (spec, N, params, depth)
    "phase_space.damping_operator": _operator_key,
    # one Newton solve per cyclic class (rotations give the same orbit)
    "disk_billiard.orbit_for_word": _orbit_key,
    "disk_billiard.cylinder_table": _depth_key,
    "cli_io.main": _command_key,
}

CALLS = (
    "spectral_counting.eigenvalues",
    "quantum_baker.dense",
    "quantum_baker.apply",
    "phase_space.damping_operator",
    "disk_billiard.orbit_for_word",
    "symbolic_pressure.pressure",
)
SELF = (
    "spectral_counting.eigenvalues",
    "spectral_counting.weyl_exponent",
    "quantum_baker.dense",
    "quantum_baker.apply",
    "phase_space.damping_operator",
    "phase_space.damped_propagation_experiment",
    "phase_space.hs_trace_experiment",
    "phase_space.coherent_grid_trace",
    "phase_space.husimi",
    "phase_space.torus_coherent",
    "disk_billiard.orbit_for_word",
    "disk_billiard.cylinder_table",
    "disk_billiard.escape_rate_mc",
    "disk_billiard.periodic_points",
    "disk_billiard.trapped_box_dimension",
    "symbolic_pressure.pressure",
    "symbolic_pressure.bowen_dimension",
    "symbolic_pressure.classical_decay_rate",
    "baker_classical.cylinder_table",
    "cli_io.plot_svg",
)
UNIQUE = (
    "spectral_counting.eigenvalues",
    "phase_space.damping_operator",
    "disk_billiard.orbit_for_word",
)
# span name -> the keys whose self time is reported separately
SELF_BY_KEY = {
    "disk_billiard.cylinder_table": tuple(f"d{n}" for n in BILLIARD_DEPTHS),
    "cli_io.main": COMMANDS,
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{n}.calls", "count", "lower") for n in CALLS]
    + [(f"{n}.self_s", "s", "lower") for n in SELF]
    + [(f"{n}.unique_frac", "ratio", "higher") for n in UNIQUE]
    + [("spectral_counting.eigenvalues.n3_sum", "count", "lower")]
    + [(f"{n}.{k}.self_s", "s", "lower")
       for n, keys in SELF_BY_KEY.items() for k in keys]
    + [
        ("cli_io.bytes_written", "bytes", "lower"),
        ("process.cpu_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.covered_frac", "ratio", "higher"),
    ]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(tracer, traced_wall_s, untraced_wall_s, cpu_s, bytes_written):
    """Every `PER_LAYER` metric as {name: value}, from one traced pass."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    keys = defaultdict(list)
    self_by_key = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        calls[span.name] += 1
        self_s[span.name] += own
        if span.key is not None:
            keys[span.name].append(span.key)
            self_by_key[span.name, span.key] += own
    out = {}
    for n in CALLS:
        out[f"{n}.calls"] = calls[n]
    for n in SELF:
        out[f"{n}.self_s"] = self_s[n]
    for n in UNIQUE:
        # no calls means no repeated work
        out[f"{n}.unique_frac"] = (len(set(keys[n])) / len(keys[n])
                                   if keys[n] else 1.0)
    out["spectral_counting.eigenvalues.n3_sum"] = sum(
        n ** 3 for n, _ in keys["spectral_counting.eigenvalues"])
    for n, ks in SELF_BY_KEY.items():
        for k in ks:
            out[f"{n}.{k}.self_s"] = self_by_key[n, k]
    out["cli_io.bytes_written"] = bytes_written
    out["process.cpu_s"] = cpu_s
    out["trace.wall_s"] = traced_wall_s
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    out["trace.covered_frac"] = tracer.top_level_s() / traced_wall_s
    return out
