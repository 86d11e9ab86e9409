"""Config-driven command line for the lab.

Commands read an INI-like config (one-level [section] headers over
key=value pairs), run one experiment, print a deterministic JSON payload
on stdout, and optionally write payload files under --out in the formats
requested.  This module is the only one that knows a file format: each
command is a function of its config alone and returns its payload, its
files, each file with a function that renders it, called only when the
file is written, and the certificates of its run.  Timestamps,
invocation details and certificates go to a separate metadata.json so
payload bytes depend only on the config.

Exit codes: 0 on success, 2 on config parse failure (a section or key
the command never reads is one, and stops it before any file is
written), 1 on any module error (the error class name is printed
verbatim on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from functools import cache, partial
from itertools import starmap
from pathlib import Path

import numpy as np

from .baker_classical import BakerSpec, cylinder_table
from .disk_billiard import DiskConfig, _cycle_orbits
from .errors import ConfigParse, EmptyData, LabError
from .phase_space import (
    EscapeParams,
    ExperimentParams,
    damped_propagation_experiment,
    default_vartheta,
    hs_trace_experiment,
    husimi,
    husimi_mass,
    torus_coherent,
)
from .quantum_baker import apply, build
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

SVG_W, SVG_H, SVG_MARGIN = 640, 480, 40


# ---------------------------------------------------------------- config

class Config(dict):
    """Parsed config, {section: {key: text}}, logging what `_get` looks up."""

    def __init__(self):
        super().__init__()
        self.read = set()

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
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


_REQUIRED = object()


def _get(cfg, section, key, cast, default=_REQUIRED):
    cfg.read.add((section, key))
    sec = cfg.get(section, {})
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigParse(f"missing [{section}] {key}")
        return default
    try:
        return cast(sec[key])
    except (ValueError, TypeError) as exc:
        raise ConfigParse(f"bad value for [{section}] {key}: {exc}") from exc


def _ints(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _point(text):
    x, y = _floats(text)
    return x, y


def _pairs(text):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        x, y = chunk.split(",")
        out.append((float(x), float(y)))
    return tuple(out)


def _baker_spec(cfg):
    a = _get(cfg, "map", "a", int, 3)
    alphabet = _get(cfg, "map", "alphabet", _ints, (0, 2))
    return BakerSpec(a, alphabet)


def _disk_config(cfg):
    sqrt3 = math.sqrt(3.0)
    centers = _get(cfg, "billiard", "centers", _pairs,
                   ((0.0, 0.0), (6.0, 0.0), (3.0, 3.0 * sqrt3)))
    radii = _get(cfg, "billiard", "radii", _floats, (1.0, 1.0, 1.0))
    return DiskConfig(centers, radii)


def _tables(spec, depths):
    return [cylinder_table(spec, n) for n in depths]


# ------------------------------------------------------------------ SVG

def _fmt(v):
    return f"{v:.2f}"


def _field_cells(shape):
    """The strings every field SVG of this shape shares: the `<rect`
    prefix of each cell (x from i, y from j, row-major) and the 256 grey
    fills, by level."""
    n1, n2 = shape
    cw = (SVG_W - 2 * SVG_MARGIN) / n1
    ch = (SVG_H - 2 * SVG_MARGIN) / n2
    size = f'width="{_fmt(cw)}" height="{_fmt(ch)}"'
    xs = [_fmt(SVG_MARGIN + i * cw) for i in range(n1)]
    ys = [_fmt(SVG_H - SVG_MARGIN - (j + 1) * ch) for j in range(n2)]
    rects = [f'<rect x="{x}" y="{y}" {size} ' for x in xs for y in ys]
    return rects, [f'fill="rgb({l},{l},{l})"/>' for l in range(256)]


def plot_svg(data, kind, cells=None):
    """Render a series (list of (x, y)) or a 2D field to an SVG string.

    Series become a single polyline over light axes; fields become one
    grayscale rect per cell, darker for larger values.  Output bytes
    depend only on the data.  A caller rendering many fields of one
    shape passes their shared `_field_cells` as `cells`.
    """
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_W}" '
            f'height="{SVG_H}" viewBox="0 0 {SVG_W} {SVG_H}">')
    parts = [head]
    if kind == "series":
        pts = [(float(x), float(y)) for x, y in data]
        if not pts:
            raise EmptyData("empty series")
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        spanx = float(xs.max() - xs.min()) or 1.0
        spany = float(ys.max() - ys.min()) or 1.0
        w = SVG_W - 2 * SVG_MARGIN
        h = SVG_H - 2 * SVG_MARGIN
        px = SVG_MARGIN + (xs - xs.min()) / spanx * w
        py = SVG_H - SVG_MARGIN - (ys - ys.min()) / spany * h
        parts.append(
            f'<line x1="{SVG_MARGIN}" y1="{SVG_H - SVG_MARGIN}" '
            f'x2="{SVG_W - SVG_MARGIN}" y2="{SVG_H - SVG_MARGIN}" '
            'stroke="#999" stroke-width="1"/>')
        parts.append(
            f'<line x1="{SVG_MARGIN}" y1="{SVG_MARGIN}" '
            f'x2="{SVG_MARGIN}" y2="{SVG_H - SVG_MARGIN}" '
            'stroke="#999" stroke-width="1"/>')
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
        rects, fills = cells or _field_cells(field.shape)
        # np.round and round() both round half to even
        levels = np.round(255 * (1.0 - (field - vmin) / span)).astype(int)
        parts.extend(map(str.__add__, rects, map(fills.__getitem__, levels.ravel().tolist())))
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ------------------------------------------------------------- formats

def _json(obj):
    """The one JSON encoding: keys sorted, floats as their shortest repr."""
    return json.dumps(obj, sort_keys=True)


def _csv(header, rows):
    """CSV text, one line per row of strings, Python ints and floats.

    A Python float formats as its shortest round-trip repr, so every
    value reads back exactly.
    """
    line = ",".join(["{}"] * len(header)) + "\n"
    return line.format(*header) + "".join(starmap(line.format, rows))


def _husimi_csv(field, prefixes):
    """One x_index,xi_index,value row per cell of a Husimi field, as `_csv`
    writes it; `prefixes` holds each cell's line break and "i,j," prefix,
    row-major, shared by the fields of one shape."""
    values = map(repr, field.ravel().tolist())
    return "x_index,xi_index,value" + "".join(map(str.__add__, prefixes, values)) + "\n"


def _eigensolves(records):
    """The metadata of eigensolves, one entry per N: the certificate,
    structural zeros, block sizes, workers and BLAS threads of each."""
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
    depths = _get(cfg, "pressure", "depths", _ints, (4, 5, 6))
    c_j = _get(cfg, "pressure", "c_jacobian", float)
    c_t = _get(cfg, "pressure", "c_return", float)
    est = pressure(_tables(spec, depths), c_j, c_t)
    rows = [(int(n), float(p)) for n, p in est.per_depth]
    payload = _json({"coeff_J": est.coeff_J, "coeff_t": est.coeff_t,
                     "per_depth": [list(r) for r in rows],
                     "value": est.value, "uncertainty": est.uncertainty})
    return payload, _files(("depth", "p_n"), rows, rows), {}


def cmd_dimension(cfg):
    spec = _baker_spec(cfg)
    depths = _get(cfg, "dimension", "depths", _ints, (4, 5, 6))
    value = bowen_dimension(_tables(spec, depths))
    payload = _json({"a": spec.a, "alphabet": list(spec.alphabet),
                     "depths": list(depths), "dimension": value})
    return payload, _files(("dimension",), [(float(value),)]), {}


def cmd_sigma_curve(cfg):
    spec = _baker_spec(cfg)
    depths = _get(cfg, "sigma", "depths", _ints, (4, 5, 6))
    n_points = _get(cfg, "sigma", "n_points", int, 9)
    if n_points < 1:
        raise ConfigParse(f"bad value for [sigma] n_points: {n_points} < 1")
    lam = math.log(spec.a)
    tables = _tables(spec, depths)
    gamma_cl = classical_decay_rate(tables)
    gammas = np.linspace(0.0, gamma_cl, n_points)
    rows = [(float(g), float(sigma_of_gamma(tables, g, lam))) for g in gammas]
    payload = _json({"gamma_cl": gamma_cl, "lambda_max": lam,
                     "points": [[g, s] for g, s in rows]})
    return payload, _files(("gamma", "sigma"), rows, rows), {}


def cmd_billiard_orbits(cfg):
    config = _disk_config(cfg)
    depth = _get(cfg, "orbits", "depth", int, 3)
    words, angles, lengths, logj, t, residual, dropped = _cycle_orbits(config, depth)
    words, logj, t = words.tolist(), logj.tolist(), t.tolist()
    header = ("word", *(f"angle_{i}" for i in range(depth)),
              *(f"length_{i}" for i in range(depth)), "logJ", "t")
    rows = [("".join(map(str, w)), *a, *l, lj, tt) for w, a, l, lj, tt
            in zip(words, angles.tolist(), lengths.tolist(), logj, t)]
    payload = _json({"depth": depth, "orbits": [list(r) for r in zip(words, logj, t)]})
    certificates = {"orbits": {"newton_residual_max": max(residual.tolist(), default=None),
                               "shadowed_words_dropped": dropped}}
    return payload, _files(header, rows, list(zip(t, logj))), certificates


def cmd_spectrum(cfg):
    spec = _baker_spec(cfg)
    N = _get(cfg, "quantum", "N", int)
    variant = _get(cfg, "quantum", "variant", str, "FFT")
    theta = _get(cfg, "quantum", "theta", float, 0.5)
    record, = spectra([build(spec, N, variant=variant, theta=theta)])
    vals = record.eigenvalues.tolist()
    payload = _json({
        "N": N, "backward_error": record.backward_error,
        "blocks": list(record.blocks),
        "structural_zeros": record.structural_zeros,
        "eigenvalues": [[z.real, z.imag] for z in vals],
    })
    moduli = [abs(z) for z in vals]
    rows = [(z.real, z.imag, m) for z, m in zip(vals, moduli)]
    series = list(enumerate(moduli))
    return payload, _files(("re", "im", "modulus"), rows, series), _eigensolves([record])


def cmd_weyl_fit(cfg):
    spec = _baker_spec(cfg)
    sizes = _get(cfg, "weyl", "N_list", _ints, (27, 81, 243))
    nu = _get(cfg, "weyl", "nu", float)
    if not 0 < nu <= 1:
        raise ConfigParse(f"bad value for [weyl] nu: {nu} not in (0, 1]")
    records = spectra([build(spec, n) for n in sizes])
    fit = weyl_exponent(records, nu)
    d_h = bowen_dimension(_tables(spec, (4, 5, 6)))
    report = bound_report(fit, d_h, annulus_gap_exponent(nu, d_h, math.log(spec.a)))
    points = [[int(n), int(c)] for n, c in fit.points]
    payload = _json({"fit": {"nu": fit.nu, "points": points,
                             "slope": fit.slope, "stderr": fit.stderr},
                     "report": report})
    series = [(math.log(n), math.log(c)) for n, c in points if c > 0]
    return payload, _files(("N", "count"), points, series), _eigensolves(records)


def _escape_params(cfg, N):
    return EscapeParams(
        h=1.0 / (2.0 * math.pi * N),
        delta=_get(cfg, "escape", "delta", float, 0.4),
        t=_get(cfg, "escape", "t", float, 1.0),
    )


def cmd_propagate(cfg):
    spec = _baker_spec(cfg)
    N = _get(cfg, "quantum", "N", int)
    rho0 = _get(cfg, "propagate", "rho0", _point, (0.1, 0.1))
    n_max = _get(cfg, "propagate", "n_max", int, 10)
    if n_max < 0:
        raise ConfigParse(f"bad value for [propagate] n_max: {n_max} < 0")
    params = _escape_params(cfg, N)
    w = damped_propagation_experiment(spec, N, rho0, params, n_max).tolist()
    payload = _json({
        "N": N, "a": spec.a, "alphabet": list(spec.alphabet), "rho0": list(rho0),
        "t": params.t, "delta": params.delta,
        "n": list(range(len(w))), "w": w,
    })
    rows = list(enumerate(w))
    return payload, _files(("n", "w"), rows, rows), {}


def cmd_husimi_frames(cfg):
    spec = _baker_spec(cfg)
    N = _get(cfg, "quantum", "N", int)
    rho0 = _get(cfg, "husimi", "rho0", _point, (0.1, 0.1))
    frames = _get(cfg, "husimi", "frames", int, 3)
    if frames < 1:
        raise ConfigParse(f"bad value for [husimi] frames: {frames} < 1")
    K = _get(cfg, "husimi", "K", int, N)
    op = build(spec, N)
    state = torus_coherent(N, rho0)
    masses = []
    fields = []
    for _ in range(frames):
        field = husimi(state, K)
        fields.append(field)
        masses.append(husimi_mass(field))
        state = apply(op, state)
    payload = _json({"N": N, "K": K, "frames": frames,
                     "masses": [float(m) for m in masses]})
    # every frame is K x K, so its CSV row prefixes and SVG cell strings
    # are built once, when the first file that needs them is written
    prefixes = cache(lambda: [f"\n{i},{j}," for i in range(K) for j in range(K)])
    cells = cache(partial(_field_cells, (K, K)))

    def csv(field):
        return _husimi_csv(field, prefixes())

    def svg(field):
        return plot_svg(field, kind="field", cells=cells())

    files = []
    for i, field in enumerate(fields):
        render = partial(svg, field)
        if i == frames - 1:
            # the last frame's SVG is also the command's own: cached, so
            # it is rendered once
            render = cache(render)
            files.append((None, "svg", render))
        files += [(f"husimi_{i:03d}", "csv", partial(csv, field)),
                  (f"husimi_{i:03d}", "svg", render)]
    return payload, files, {}


def cmd_trace_check(cfg):
    spec = _baker_spec(cfg)
    sizes = _get(cfg, "trace", "N_list", _ints, (27, 81))
    params = _escape_params(cfg, max(sizes))
    lam = math.log(spec.a)
    slack = _get(cfg, "trace", "slack", float, 0.0)
    vartheta = _get(cfg, "trace", "vartheta", float,
                    default_vartheta(0.0, lam) * (1.0 + slack))
    ep = ExperimentParams(vartheta=vartheta, lambda_max=lam, slack=slack)
    out = hs_trace_experiment(spec, sizes, params, ep)
    entries = out["entries"]
    rows = [(e["N"], e["h"], e["n"], e["trace_direct"],
             "" if e["trace_quadrature"] is None else e["trace_quadrature"])
            for e in entries]
    series = [(math.log(1.0 / e["h"]), math.log(e["trace_direct"]))
              for e in entries]
    return _json(out), _files(
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
    wants = ({"json", "csv", "svg"} if args.format == "all"
             else {args.format})
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
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI-like config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", default="json",
                       choices=["json", "csv", "svg", "all"])
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        start = time.perf_counter()
        payload, files, certificates = COMMANDS[args.command](cfg)
        compute_s = time.perf_counter() - start
        if unread := cfg.unread():
            raise ConfigParse(f"not read by {args.command}: {', '.join(unread)}")
        _write_outputs(args, args.command, payload, files, certificates, compute_s)
        print(payload)
    except ConfigParse as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (LabError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0
