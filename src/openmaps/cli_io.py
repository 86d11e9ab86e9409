"""Config-driven command line for the lab.

Commands read an INI-like config (one-level [section] headers over
key=value pairs), run one experiment, print a deterministic JSON payload
on stdout, and optionally write payload files under --out in the formats
requested.  This module is the only one that knows a file format: each
command is a function of its config alone and gives its payload, its
files, each file with a function that renders it, called only when the
file is written, and the certificates of its run.  Timestamps,
invocation details, certificates and the thread count of each OpenBLAS
(`blas_threads`) go to a separate metadata.json.  Payload bytes depend
only on the config: every command runs with each OpenBLAS on one
thread, whatever the CPU count, so a lone large eigensolve or a trace
at large N gets no BLAS threading on a many-core host.  The one
exception is a field SVG (a Husimi frame): its pixels are a PNG that
stdlib zlib compresses, so its bytes also depend on the zlib build, and
its tests compare the decoded pixels.  Every file is written by the
shared writers `_csv`, `plot_svg` and `_json`.

Each command is a generator: up to its bare `yield` it reads its config
and builds every object its experiment takes, so each value meets its
rules there (`_read`); then it runs the experiment and yields its result.

Exit codes, stated only here: 0 on success; 2 (`ConfigParse`), before
any experiment runs and any file is written, for text that does not
parse, a key given twice or missing, a value that breaks a rule (a
float that is NaN or infinite breaks every rule), or a section or key
the command never reads; 1 for `BadDimension`, `DimensionCap` and
anything raised while an experiment runs, a result JSON cannot hold
(NaN or infinity) and a float overflow included.  The error's class
name is printed on stderr.
"""

from __future__ import annotations

import argparse
import base64
import json
import math
import struct
import sys
import time
import zlib
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from .baker_classical import BakerSpec, cylinder_table
from .disk_billiard import DiskConfig, _cycle_orbits
from .errors import ConfigParse, EmptyData, LabError
from .phase_space import (
    EscapeParams,
    ExperimentParams,
    damped_propagation_experiment,
    hs_trace_experiment,
    husimi,
    husimi_mass,
    torus_coherent,
)
from .quantum_baker import _basis, apply, build
from .spectral_counting import (
    annulus_gap_exponent,
    bound_report,
    spectra,
    weyl_exponent,
)
from .symbolic_pressure import (
    bowen_dimension,
    classical_decay_rate,
    pressure,
    sigma_of_gamma,
)
from .threads import blas_threads

SVG_W, SVG_H, SVG_MARGIN = 640, 480, 40


# ---------------------------------------------------------------- config

class Config(dict):
    """Parsed config, {section: {key: text}}; `read` logs what `_get` looks up, in order."""

    def __init__(self):
        super().__init__()
        self.read = {}

    def unread(self):
        """The sections never looked up, then the unread keys of the others."""
        seen = {section for section, _ in self.read}
        names = [f"[{s}]" for s in self if s not in seen]
        return names + [f"[{s}] {k}" for s in self if s in seen
                        for k in self[s] if (s, k) not in self.read]


def parse_config(text):
    """INI-like parser: [section] headers over key=value lines."""
    sections = Config()
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigParse(f"line {lineno}: malformed section header")
            name = line[1:-1].strip()
            if not name:
                raise ConfigParse(f"line {lineno}: empty section name")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigParse(f"line {lineno}: expected key=value")
        if current is None:
            raise ConfigParse(f"line {lineno}: key before any [section]")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigParse(f"line {lineno}: empty key")
        if key in current:
            raise ConfigParse(f"line {lineno}: [{name}] {key} given twice")
        current[key] = val.strip()
    return sections


def load_config(path):
    if path is None:
        return Config()
    try:
        return parse_config(Path(path).read_text())
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc


_REQUIRED = object()


def _get(cfg, section, key, cast, default=_REQUIRED):
    cfg.read[section, key] = None
    sec = cfg.get(section, {})
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigParse(f"missing [{section}] {key}")
        return default
    return cast(sec[key])


def _check(ok, rule):
    if not ok:  # a rule no library object checks before the experiment
        raise ValueError(rule)


def _read(name, cfg):
    """Command `name` run on `cfg` up to its `yield`, the one value check:
    a ValueError or TypeError raised by then (by a cast, a library object
    or `_check`) is ConfigParse naming the first key given, in the order
    read, by which the values given so far, every later key at its
    default, raise that error again.  Other errors pass through.  Then a
    section or key given but never read is ConfigParse naming each."""
    command = COMMANDS[name]
    steps = command(cfg)
    try:
        next(steps)
    except (ValueError, TypeError) as exc:
        given = [(s, k) for s, k in cfg.read if k in cfg.get(s, ())]
        for n, (section, key) in enumerate(given, 1):
            trial = Config()
            for s, k in given[:n]:
                trial.setdefault(s, {})[k] = cfg[s][k]
            try:
                next(command(trial))
            except (LabError, ValueError, TypeError) as again:
                if type(again) is type(exc) and again.args == exc.args:
                    raise ConfigParse(f"bad value for [{section}] {key}: {exc}") from exc
        raise
    if unread := cfg.unread():
        raise ConfigParse(f"not read by {name}: {', '.join(unread)}")
    return steps


def _ints(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float(text):
    """The one float cast of a config value: NaN and ±inf break every rule."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _floats(text):
    return tuple(_float(v) for v in text.split(",") if v.strip())


def _point(text):
    x, y = _floats(text)
    return x, y


def _pairs(text):
    return tuple(map(_point, filter(str.strip, text.split(";"))))


def _baker_spec(cfg):
    return BakerSpec(_get(cfg, "map", "a", int, 3),
                     _get(cfg, "map", "alphabet", _ints, (0, 2)))


def _disk_config(cfg):
    centers = _get(cfg, "billiard", "centers", _pairs,
                   ((0.0, 0.0), (6.0, 0.0), (3.0, 3.0 * math.sqrt(3.0))))
    radii = _get(cfg, "billiard", "radii", _floats, (1.0, 1.0, 1.0))
    return DiskConfig(centers, radii)


def _tables(spec, depths):
    _check(len(set(depths)) == len(depths) >= 3,
           "the pressure fit needs >= 3 distinct depths")
    return [cylinder_table(spec, n) for n in depths]


def _ops(cfg, section, spec, default, least):
    """The maps at [section] N_list: BadDimension or DimensionCap (as
    `spectra` raises it) first, then `least` or more sizes, none repeated."""
    ops = [build(spec, N) for N in _get(cfg, section, "N_list", _ints, default)]
    for op in ops:
        _basis(op)
    _check(len({op.N for op in ops}) == len(ops) >= least,
           f"need {least} or more sizes, none repeated")
    return ops


# ------------------------------------------------------------------ SVG

def _fmt(v):
    return f"{v:.2f}"


def _png(image):
    """An 8-bit greyscale PNG of a 2-D uint8 array, row 0 on top: each
    row takes filter byte 0, the whole raster one zlib stream."""
    height, width = image.shape
    raw = np.pad(image, ((0, 0), (1, 0)))

    def chunk(tag, data):
        body = tag + data
        return struct.pack(">I", len(data)) + body + struct.pack(">I", zlib.crc32(body))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw.tobytes()))
            + chunk(b"IEND", b""))


def plot_svg(data, kind):
    """Render a series (list of (x, y)) or a 2D field to an SVG string.

    Series become a single polyline over light axes.  A field becomes one
    `<image>` over the plot area: a greyscale PNG with one pixel per
    cell, darker for larger values, x from the first index and the
    second index rising upwards.  Output bytes depend only on the data
    and, for a field, on the zlib build that compresses its pixels, so a
    field is checked by its decoded pixels, not its bytes.
    """
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_W}" '
            f'height="{SVG_H}" viewBox="0 0 {SVG_W} {SVG_H}">')
    parts = [head]
    if kind == "series":
        xs, ys = np.array([(float(x), float(y)) for x, y in data]).reshape(-1, 2).T
        if not xs.size:
            raise EmptyData("empty series")
        spanx = float(xs.max() - xs.min()) or 1.0
        spany = float(ys.max() - ys.min()) or 1.0
        w = SVG_W - 2 * SVG_MARGIN
        h = SVG_H - 2 * SVG_MARGIN
        px = SVG_MARGIN + (xs - xs.min()) / spanx * w
        py = SVG_H - SVG_MARGIN - (ys - ys.min()) / spany * h
        parts += [f'<line x1="{SVG_MARGIN}" y1="{SVG_H - SVG_MARGIN}" '
                  f'x2="{SVG_W - SVG_MARGIN}" y2="{SVG_H - SVG_MARGIN}" '
                  'stroke="#999" stroke-width="1"/>',
                  f'<line x1="{SVG_MARGIN}" y1="{SVG_MARGIN}" '
                  f'x2="{SVG_MARGIN}" y2="{SVG_H - SVG_MARGIN}" '
                  'stroke="#999" stroke-width="1"/>']
        coords = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     'stroke="#1f3a93" stroke-width="1.5"/>')
    elif kind == "field":
        field = np.asarray(data, dtype=float)
        if field.size == 0:
            raise EmptyData("empty field")
        if field.ndim != 2:
            raise ValueError("field must be 2D")
        if not np.all(np.isfinite(field)):
            raise ValueError("field must be finite")
        vmin = float(field.min())
        span = float(field.max()) - vmin or 1.0
        # np.round and round() both round half to even
        levels = np.round(255 * (1.0 - (field - vmin) / span)).astype(np.uint8)
        png = base64.b64encode(_png(levels.T[::-1])).decode("ascii")
        parts.append(f'<image x="{SVG_MARGIN}" y="{SVG_MARGIN}" '
                     f'width="{SVG_W - 2 * SVG_MARGIN}" height="{SVG_H - 2 * SVG_MARGIN}" '
                     'preserveAspectRatio="none" style="image-rendering:pixelated" '
                     f'href="data:image/png;base64,{png}"/>')
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ------------------------------------------------------------- formats

def _json(obj):
    """The one JSON encoding: keys sorted, floats as their shortest repr;
    NaN or ±inf, which JSON has no text for, is a ValueError."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _csv(header, rows):
    """CSV text, one line per row of strings, Python ints and floats.

    A Python float formats as its shortest round-trip repr, so every
    value reads back exactly.
    """
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _eigensolves(records):
    """The metadata of eigensolves, one entry per N: the certificate,
    basis, structural zeros, deflated columns, block sizes and workers
    of each."""
    return {"eigensolves": [{k: v for k, v in vars(r).items() if k != "eigenvalues"}
                            for r in records]}


def _files(header, rows, series=None):
    """The command's own CSV of `rows`, and its SVG of `series` if that
    has a point: an empty series has no plot, and writes none."""
    files = [(None, "csv", partial(_csv, header, rows))]
    if series:
        files.append((None, "svg", partial(plot_svg, series, kind="series")))
    return files


# ------------------------------------------------------------- commands

def cmd_pressure(cfg):
    spec = _baker_spec(cfg)
    tables = _tables(spec, _get(cfg, "pressure", "depths", _ints, (4, 5, 6)))
    c_j = _get(cfg, "pressure", "c_jacobian", _float)
    c_t = _get(cfg, "pressure", "c_return", _float)
    yield
    est = pressure(tables, c_j, c_t)
    rows = [(int(n), float(p)) for n, p in est.per_depth]
    payload = _json({"coeff_J": est.coeff_J, "coeff_t": est.coeff_t,
                     "per_depth": [list(r) for r in rows],
                     "value": est.value, "uncertainty": est.uncertainty})
    yield payload, _files(("depth", "p_n"), rows, rows), {}


def cmd_dimension(cfg):
    spec = _baker_spec(cfg)
    tables = _tables(spec, _get(cfg, "dimension", "depths", _ints, (4, 5, 6)))
    yield
    value = bowen_dimension(tables)
    payload = _json({"a": spec.a, "alphabet": list(spec.alphabet),
                     "depths": [tb.n for tb in tables], "dimension": value})
    yield payload, _files(("dimension",), [(float(value),)]), {}


def cmd_sigma_curve(cfg):
    spec = _baker_spec(cfg)
    tables = _tables(spec, _get(cfg, "sigma", "depths", _ints, (4, 5, 6)))
    n_points = _get(cfg, "sigma", "n_points", int, 9)
    _check(n_points >= 1, "n_points >= 1")
    yield
    lam = math.log(spec.a)
    gamma_cl = classical_decay_rate(tables)
    gammas = np.linspace(0.0, gamma_cl, n_points)
    rows = [(float(g), float(sigma_of_gamma(tables, g, lam))) for g in gammas]
    payload = _json({"gamma_cl": gamma_cl, "lambda_max": lam,
                     "points": [[g, s] for g, s in rows]})
    yield payload, _files(("gamma", "sigma"), rows, rows), {}


def cmd_billiard_orbits(cfg):
    config = _disk_config(cfg)
    depth = _get(cfg, "orbits", "depth", int, 3)
    _check(depth >= 2, "depth >= 2")
    yield
    words, angles, lengths, logj, t, residual = _cycle_orbits(config, depth)
    words, logj, t = words.tolist(), logj.tolist(), t.tolist()
    header = ("word", *(f"angle_{i}" for i in range(depth)),
              *(f"length_{i}" for i in range(depth)), "logJ", "t")
    rows = [("".join(map(str, w)), *a, *l, lj, tt) for w, a, l, lj, tt
            in zip(words, angles.tolist(), lengths.tolist(), logj, t)]
    payload = _json({"depth": depth, "orbits": [list(r) for r in zip(words, logj, t)]})
    certificates = {"orbits": {"newton_residual_max": max(residual.tolist(), default=None),
                               "hull_clearance_min": config.clearance}}
    yield payload, _files(header, rows, list(zip(t, logj))), certificates


def cmd_spectrum(cfg):
    op = build(_baker_spec(cfg), _get(cfg, "quantum", "N", int),
               variant=_get(cfg, "quantum", "variant", str, "FFT"),
               theta=_get(cfg, "quantum", "theta", _float, 0.5))
    yield
    record, = spectra([op])
    vals = record.eigenvalues.tolist()
    payload = _json({
        "N": op.N, "backward_error": record.backward_error,
        "basis": record.basis, "blocks": list(record.blocks),
        "structural_zeros": record.structural_zeros, "deflated": record.deflated,
        "eigenvalues": [[z.real, z.imag] for z in vals],
    })
    moduli = [abs(z) for z in vals]
    rows = [(z.real, z.imag, m) for z, m in zip(vals, moduli)]
    series = list(enumerate(moduli))
    yield payload, _files(("re", "im", "modulus"), rows, series), _eigensolves([record])


def cmd_weyl_fit(cfg):
    spec = _baker_spec(cfg)
    ops = _ops(cfg, "weyl", spec, (27, 81, 243), 3)
    nu = _get(cfg, "weyl", "nu", _float)
    d_h = bowen_dimension(_tables(spec, (4, 5, 6)))
    sigma_nu = annulus_gap_exponent(nu, d_h, math.log(spec.a))
    yield
    records = spectra(ops)
    fit = weyl_exponent(records, nu)
    report = bound_report(fit, d_h, sigma_nu)
    points = [[int(n), int(c)] for n, c in fit.points]
    payload = _json({"fit": {"nu": fit.nu, "points": points,
                             "slope": fit.slope, "stderr": fit.stderr},
                     "report": report})
    series = [(math.log(n), math.log(c)) for n, c in points if c > 0]
    # how far each count is from changing: the modulus nearest the cut
    gaps = [[r.N, float(np.min(np.abs(np.abs(r.eigenvalues) - nu)))] for r in records]
    yield payload, _files(("N", "count"), points, series), {
        **_eigensolves(records), "nu_gap": gaps}


def _escape_params(cfg, N):
    return EscapeParams(h=1.0 / (2.0 * math.pi * N),
                        delta=_get(cfg, "escape", "delta", _float, 0.4),
                        t=_get(cfg, "escape", "t", _float, 1.0))


def cmd_propagate(cfg):
    spec = _baker_spec(cfg)
    N = build(spec, _get(cfg, "quantum", "N", int)).N
    rho0 = _get(cfg, "propagate", "rho0", _point, (0.1, 0.1))
    n_max = _get(cfg, "propagate", "n_max", int, 10)
    _check(n_max >= 0, "n_max >= 0")
    params = _escape_params(cfg, N)
    yield
    w = damped_propagation_experiment(spec, N, rho0, params, n_max).tolist()
    payload = _json({
        "N": N, "a": spec.a, "alphabet": list(spec.alphabet), "rho0": list(rho0),
        "t": params.t, "delta": params.delta,
        "n": list(range(len(w))), "w": w,
    })
    rows = list(enumerate(w))
    yield payload, _files(("n", "w"), rows, rows), {}


def cmd_husimi_frames(cfg):
    op = build(_baker_spec(cfg), _get(cfg, "quantum", "N", int))
    N = op.N
    rho0 = _get(cfg, "husimi", "rho0", _point, (0.1, 0.1))
    frames = _get(cfg, "husimi", "frames", int, 3)
    _check(frames >= 1, "frames >= 1")
    _check(N >= 8, "N >= 8")
    yield
    state = torus_coherent(N, rho0)
    fields = [husimi(state)]
    for _ in range(frames - 1):
        state = apply(op, state)
        fields.append(husimi(state))
    masses = list(map(husimi_mass, fields))
    payload = _json({"N": N, "K": N, "frames": frames, "masses": masses})
    rows = list(enumerate(masses))
    files = _files(("frame", "mass"), rows, rows)
    # each frame's CSV is its N x N grid, one line per x index; an entry
    # below N eps^2 of the frame's maximum is written as 0.0, since the
    # FFT's round-off (about eps of the largest amplitude) leaves it few
    # or no correct digits
    header = ("x_index", *(f"xi_{j}" for j in range(N)))
    floor = N * np.finfo(float).eps ** 2
    for i, field in enumerate(fields):
        shown = np.where(field < floor * field.max(), 0.0, field)
        grid = [(x, *row) for x, row in enumerate(shown.tolist())]
        files += [(f"husimi_{i:03d}", "csv", partial(_csv, header, grid)),
                  (f"husimi_{i:03d}", "svg", partial(plot_svg, field, kind="field"))]
    yield payload, files, {}


def cmd_trace_check(cfg):
    spec = _baker_spec(cfg)
    sizes = [op.N for op in _ops(cfg, "trace", spec, (27, 81), 1)]
    params = _escape_params(cfg, max(sizes))
    lam = math.log(spec.a)
    slack = _get(cfg, "trace", "slack", _float, 0.0)
    vartheta = _get(cfg, "trace", "vartheta", _float, 1.0 / (6.0 * lam) * (1.0 + slack))
    ep = ExperimentParams(vartheta=vartheta, lambda_max=lam, slack=slack)
    yield
    out = hs_trace_experiment(spec, sizes, params, ep)
    entries = out["entries"]
    rows = [(e["N"], e["h"], e["n"], e["trace_direct"],
             "" if e["trace_quadrature"] is None else e["trace_quadrature"])
            for e in entries]
    series = [(math.log(1.0 / e["h"]), math.log(e["trace_direct"]))
              for e in entries]
    yield _json(out), _files(
        ("N", "h", "n", "trace_direct", "trace_quadrature"), rows, series), {}


COMMANDS = {
    "pressure": cmd_pressure,
    "dimension": cmd_dimension,
    "sigma-curve": cmd_sigma_curve,
    "billiard-orbits": cmd_billiard_orbits,
    "spectrum": cmd_spectrum,
    "weyl-fit": cmd_weyl_fit,
    "propagate": cmd_propagate,
    "husimi-frames": cmd_husimi_frames,
    "trace-check": cmd_trace_check,
}

# what `openmaps chain` runs: (command, config in scripts/configs/, directory under --out)
CHAIN = (
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


def _write_outputs(args, name, payload, files, certificates, compute_s):
    """Write the JSON payload and every file in a format asked for.

    `files` holds (stem, format, render) triples: stem None names the
    file after the command, and render() makes its text, called only
    when the file is written.  metadata.json lists what was written,
    the command's `certificates`, and as `stage_s` the seconds the
    command took (`compute_s`) and those its files took to render and
    write.
    """
    if not args.out:
        return
    start = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wants = {"json", "csv", "svg"} if args.format == "all" else {args.format}
    written = []
    for stem, fmt, render in [(None, "json", lambda: payload + "\n"), *files]:
        if fmt in wants:
            path = out / f"{stem or name}.{fmt}"
            path.write_text(render())
            written.append(path.name)
    meta = {
        "command": name,
        "config": args.config,
        "written": written,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "stage_s": {"compute": compute_s, "write": time.perf_counter() - start},
        **certificates,
    }
    (out / "metadata.json").write_text(_json(meta) + "\n")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="openmaps",
        description="numerical experiments for open maps and their "
                    "quantizations")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("chain").add_argument("--out", default="out", help="output directory")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI-like config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", default="json",
                       choices=["json", "csv", "svg", "all"])
    return parser


def run_chain(out):
    """CHAIN in this process, all formats into out/<directory>/, printing each
    command's wall time and the chain's; the first non-zero exit ends it."""
    configs = Path(__file__).resolve().parents[2] / "scripts" / "configs"
    chain = time.perf_counter()
    for command, config, sub in CHAIN:
        start = time.perf_counter()
        print(f"== {command} ({config})", flush=True)
        if code := main([command, "--config", str(configs / config),
                         "--out", str(Path(out) / sub), "--format", "all"]):
            return code
        print(f"   {command} ({config}): {time.perf_counter() - start:.2f} s")
    print(f"chain: {time.perf_counter() - chain:.2f} s")
    return 0


def main(argv=None):
    args = make_parser().parse_args(argv)
    if args.command == "chain":
        return run_chain(args.out)
    try:
        with blas_threads(1) as threads:
            cfg = load_config(args.config)
            start = time.perf_counter()
            payload, files, certificates = next(_read(args.command, cfg))
            compute_s = time.perf_counter() - start
            _write_outputs(args, args.command, payload, files,
                           {**certificates, "blas_threads": threads}, compute_s)
        print(payload)
    except (LabError, ValueError, ArithmeticError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigParse) else 1
    return 0
