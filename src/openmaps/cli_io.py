"""Config-driven command line for the lab.

Commands read an INI-like config (one-level [section] headers over
key=value pairs), run one experiment, print a deterministic JSON payload
on stdout, and optionally write payload files under --out in the formats
requested.  A command returns its SVG as a function that renders it,
called only when the SVG is written.  Timestamps and invocation details
go to a separate metadata.json so payload bytes depend only on the
config.

Exit codes: 0 on success, 2 on config parse failure, 1 on any module
error (the error class name is printed verbatim on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from .baker_classical import BakerSpec, cylinder_table
from .disk_billiard import DiskConfig, _cycle_orbits, orbit_to_csv_row
from .errors import ConfigParse, EmptyData, LabError
from .phase_space import (
    EscapeParams,
    ExperimentParams,
    damped_propagation_experiment,
    default_vartheta,
    hs_trace_experiment,
    husimi,
    husimi_mass,
    husimi_to_csv,
    propagation_to_json,
    torus_coherent,
)
from .quantum_baker import apply, build, parity_blocks
from .spectral_counting import (
    annulus_gap_exponent,
    block_eigenvalues,
    bound_report,
    spectrum_to_csv,
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

def parse_config(text):
    """INI-like parser: [section] headers over key=value lines."""
    sections = {}
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
        current[key] = val.strip()
    return sections


def load_config(path):
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


_REQUIRED = object()


def _get(cfg, section, key, cast, default=_REQUIRED):
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


def plot_svg(data, kind=None):
    """Render a series (list of (x, y)) or a 2D field to an SVG string.

    Series become a single polyline over light axes; fields become one
    grayscale rect per cell, darker for larger values.  Output bytes
    depend only on the data.
    """
    if kind is None:
        arr = np.asarray(data)
        kind = "field" if (isinstance(data, np.ndarray) and arr.ndim == 2) \
            else "series"
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
        n1, n2 = field.shape
        cw = (SVG_W - 2 * SVG_MARGIN) / n1
        ch = (SVG_H - 2 * SVG_MARGIN) / n2
        # x depends only on i, y only on j; np.round and round() both
        # round half to even
        levels = np.round(255 * (1.0 - (field - vmin) / span)).astype(int)
        xs = [_fmt(SVG_MARGIN + i * cw) for i in range(n1)]
        ys = [_fmt(SVG_H - SVG_MARGIN - (j + 1) * ch) for j in range(n2)]
        size = f'width="{_fmt(cw)}" height="{_fmt(ch)}"'
        for x, row in zip(xs, levels.tolist()):
            parts.extend(
                f'<rect x="{x}" y="{y}" {size} '
                f'fill="rgb({level},{level},{level})"/>'
                for y, level in zip(ys, row))
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ------------------------------------------------------------- commands

def cmd_pressure(cfg, args):
    spec = _baker_spec(cfg)
    depths = _get(cfg, "pressure", "depths", _ints, (4, 5, 6))
    c_j = _get(cfg, "pressure", "c_jacobian", float)
    c_t = _get(cfg, "pressure", "c_return", float)
    est = pressure(_tables(spec, depths), c_j, c_t)
    csv = "depth,p_n\n" + "".join(
        f"{n},{float(p)!r}\n" for n, p in est.per_depth)
    series = [(float(n), float(p)) for n, p in est.per_depth]
    return est.to_json(), csv, partial(plot_svg, series, kind="series")


def cmd_dimension(cfg, args):
    spec = _baker_spec(cfg)
    depths = _get(cfg, "dimension", "depths", _ints, (4, 5, 6))
    value = bowen_dimension(_tables(spec, depths))
    payload = json.dumps({"a": spec.a, "alphabet": list(spec.alphabet),
                          "depths": list(depths), "dimension": value},
                         sort_keys=True)
    csv = f"dimension\n{float(value)!r}\n"
    return payload, csv, None


def cmd_sigma_curve(cfg, args):
    spec = _baker_spec(cfg)
    depths = _get(cfg, "sigma", "depths", _ints, (4, 5, 6))
    n_points = _get(cfg, "sigma", "n_points", int, 9)
    lam = _get(cfg, "sigma", "lambda_max", float, math.log(spec.a))
    tables = _tables(spec, depths)
    gamma_cl = classical_decay_rate(tables)
    top = _get(cfg, "sigma", "max_gamma", float, gamma_cl)
    gammas = np.linspace(0.0, top, n_points)
    rows = [(float(g), float(sigma_of_gamma(tables, g, lam))) for g in gammas]
    payload = json.dumps({"gamma_cl": gamma_cl, "lambda_max": lam,
                          "points": [[g, s] for g, s in rows]},
                         sort_keys=True)
    csv = "gamma,sigma\n" + "".join(f"{g!r},{s!r}\n" for g, s in rows)
    return payload, csv, partial(plot_svg, rows, kind="series")


def cmd_billiard_orbits(cfg, args):
    config = _disk_config(cfg)
    depth = _get(cfg, "orbits", "depth", int, 3)
    orbits = _cycle_orbits(config, depth)
    header = ("word,"
              + ",".join(f"angle_{i}" for i in range(depth)) + ","
              + ",".join(f"length_{i}" for i in range(depth))
              + ",logJ,t\n")
    lines = []
    summary = []
    for word in sorted(orbits):
        seg = orbits[word]
        lines.append(orbit_to_csv_row(seg) + "\n")
        summary.append([word, seg.logJ, seg.t_total])
    payload = json.dumps({"depth": depth, "orbits": summary}, sort_keys=True)
    series = [(float(r[2]), float(r[1])) for r in summary]
    return payload, header + "".join(lines), partial(plot_svg, series,
                                                      kind="series")


def cmd_spectrum(cfg, args):
    spec = _baker_spec(cfg)
    N = _get(cfg, "quantum", "N", int)
    variant = _get(cfg, "quantum", "variant", str, "FFT")
    theta = _get(cfg, "quantum", "theta", float, 0.5)
    op = build(spec, N, variant=variant, theta=theta)
    blocks, coupling = parity_blocks(op)
    record = block_eigenvalues(N, blocks, coupling)
    moduli = np.abs(record.eigenvalues)
    payload = json.dumps({
        "N": N, "backward_error": record.backward_error,
        "blocks": [len(b) for b in blocks],
        "structural_zeros": record.structural_zeros,
        "eigenvalues": [[float(z.real), float(z.imag)]
                        for z in record.eigenvalues],
    }, sort_keys=True)
    series = [(float(i), float(m)) for i, m in enumerate(moduli)]
    return payload, spectrum_to_csv(record), partial(plot_svg, series,
                                                     kind="series")


def cmd_weyl_fit(cfg, args):
    spec = _baker_spec(cfg)
    sizes = _get(cfg, "weyl", "N_list", _ints, (27, 81, 243))
    nu = _get(cfg, "weyl", "nu", float)
    records = [block_eigenvalues(n, *parity_blocks(build(spec, n)))
               for n in sizes]
    fit = weyl_exponent(records, nu)
    depths = _get(cfg, "weyl", "depths", _ints, (4, 5, 6))
    d_h = _get(cfg, "weyl", "d_h", float,
               bowen_dimension(_tables(spec, depths)))
    sigma_nu = _get(cfg, "weyl", "sigma_nu", float,
                    annulus_gap_exponent(nu, d_h, math.log(spec.a)))
    report = bound_report(fit, d_h, sigma_nu)
    payload = json.dumps({"fit": json.loads(fit.to_json()),
                          "report": report}, sort_keys=True)
    csv = "N,count\n" + "".join(f"{n},{c}\n" for n, c in fit.points)
    series = [(math.log(float(n)), math.log(float(c)))
              for n, c in fit.points if c > 0]
    return payload, csv, partial(plot_svg, series, kind="series")


def _escape_params(cfg, N):
    return EscapeParams(
        h=1.0 / (2.0 * math.pi * N),
        delta=_get(cfg, "escape", "delta", float, 0.4),
        m_const=_get(cfg, "escape", "m_const", float, 1.0),
        t=_get(cfg, "escape", "t", float, 1.0),
    )


def cmd_propagate(cfg, args):
    spec = _baker_spec(cfg)
    N = _get(cfg, "quantum", "N", int)
    rho0 = _get(cfg, "propagate", "rho0", _floats, (0.1, 0.1))
    n_max = _get(cfg, "propagate", "n_max", int, 10)
    depth = _get(cfg, "escape", "depth", int, None)
    params = _escape_params(cfg, N)
    w = damped_propagation_experiment(spec, N, rho0, params, n_max, depth)
    payload = propagation_to_json(spec, N, rho0, params, w)
    csv = "n,w\n" + "".join(f"{n},{float(v)!r}\n" for n, v in enumerate(w))
    series = [(float(n), float(v)) for n, v in enumerate(w)]
    return payload, csv, partial(plot_svg, series, kind="series")


def cmd_husimi_frames(cfg, args):
    spec = _baker_spec(cfg)
    N = _get(cfg, "quantum", "N", int)
    rho0 = _get(cfg, "husimi", "rho0", _floats, (0.1, 0.1))
    frames = _get(cfg, "husimi", "frames", int, 3)
    K = _get(cfg, "husimi", "K", int, N)
    op = build(spec, N)
    state = torus_coherent(N, rho0, normalize=True)
    masses = []
    fields = []
    for _ in range(frames):
        field = husimi(state, K)
        fields.append(field)
        masses.append(husimi_mass(field))
        state = apply(op, state)
    svg = None
    if args is not None and args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.format in ("csv", "all"):
            for i, field in enumerate(fields):
                husimi_to_csv(field, out_dir / f"husimi_{i:03d}.csv")
        if args.format in ("svg", "all"):
            for i, field in enumerate(fields):
                svg = plot_svg(field, kind="field")
                (out_dir / f"husimi_{i:03d}.svg").write_text(svg)
    payload = json.dumps({"N": N, "K": K, "frames": frames,
                          "masses": [float(m) for m in masses]},
                         sort_keys=True)
    # the last frame's SVG, rendered above whenever SVGs are written
    return payload, None, lambda: svg


def cmd_trace_check(cfg, args):
    spec = _baker_spec(cfg)
    sizes = _get(cfg, "trace", "N_list", _ints, (27, 81))
    params = _escape_params(cfg, max(sizes))
    lam = _get(cfg, "trace", "lambda_max", float, math.log(spec.a))
    slack = _get(cfg, "trace", "slack", float, 0.0)
    vartheta = _get(cfg, "trace", "vartheta", float,
                    default_vartheta(0.0, lam) * (1.0 + slack))
    n_override = _get(cfg, "trace", "n", int, None)
    depth = _get(cfg, "escape", "depth", int, None)
    ep = ExperimentParams(vartheta=vartheta, lambda_max=lam, slack=slack,
                          n_override=n_override)
    out = hs_trace_experiment(spec, sizes, params, ep, depth)
    payload = json.dumps(out, sort_keys=True)
    csv = "N,h,n,trace_direct,trace_quadrature\n" + "".join(
        f"{e['N']},{e['h']!r},{e['n']},{e['trace_direct']!r},"
        f"{'' if e['trace_quadrature'] is None else repr(e['trace_quadrature'])}\n"
        for e in out["entries"])
    series = [(math.log(1.0 / e["h"]), math.log(e["trace_direct"]))
              for e in out["entries"]]
    return payload, csv, partial(plot_svg, series, kind="series")


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


def _write_outputs(args, name, payload, csv, render_svg):
    if not args.out:
        return []
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    wants = ({"json", "csv", "svg"} if args.format == "all"
             else {args.format})
    if "json" in wants and payload is not None:
        path = out / f"{name}.json"
        path.write_text(payload + "\n")
        written.append(path.name)
    if "csv" in wants and csv is not None:
        path = out / f"{name}.csv"
        path.write_text(csv)
        written.append(path.name)
    if "svg" in wants and render_svg is not None:
        path = out / f"{name}.svg"
        path.write_text(render_svg())
        written.append(path.name)
    meta = {
        "command": name,
        "config": args.config,
        "written": written,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (out / "metadata.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    return written


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
        payload, csv, render_svg = COMMANDS[args.command](cfg, args)
        _write_outputs(args, args.command, payload, csv, render_svg)
        if payload is not None:
            print(payload)
    except ConfigParse as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (LabError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
