"""Command line front end.

Subcommands
-----------
solve            one global solve, error metrics as a single CSV row
resonance-sweep  optimality ratios over a frequency grid and eps list
plane-wave       boundary-driven wave, amplitude-decay metric
dispersion       discrete wavenumber roots over propagation directions
band             root continuation along a normalized frequency grid
eps-r-sweep      worst-direction phase/dissipation errors across eps and r
stencil-dump     interface stencil weights as rows
selftest         quick invariant checks, exit status reports the outcome

Output is CSV with '#'-prefixed metadata lines (fully determined by the
configuration, so identical invocations produce byte-identical files).
Floats are written with repr, the shortest round-trip form; the one
exception is ``solve``'s ``residual_rel``, rounding noise that any
reordering of the trace solve's sums moves by several percent, which is
rounded to 2 significant digits first.  One table,
``_SPECS``, gives each subcommand its handler and its options with their
types, defaults and choices.  Options may also come from a flat key=value
file via --config, whose values are checked against the same choices and
become the parser's defaults: explicit flags win over the file, the file
wins over built-in defaults.

Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from . import dispersion, stencil
from .errors import HelmDpgError, MeshTooSmall, REnrichmentTooSmall
from .numkit import single_thread_blas, tensor_rule


def _floats(text: str):
    return tuple(float(p) for p in text.split(",") if p.strip())


def _ints(text: str):
    return tuple(int(p) for p in text.split(",") if p.strip())


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in {"1", "true", "yes", "on"}:
        return True
    if low in {"0", "false", "no", "off"}:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _fmt(value) -> str:
    """CSV cell: repr floats (shortest round trip), plain ints, '' for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------


def _parse(argv):
    """Parse ``argv`` under the subcommand table :data:`_SPECS`.

    Each option's default and choices come from the table.  A ``--config``
    file's values become the subcommand's defaults and ``argv`` is parsed
    again, so a flag wins over the file and the file over the table.
    Returns ``(args, parser)``.
    """
    parser = argparse.ArgumentParser(
        prog="helm-dpg",
        description="Dispersion and solver toolkit for the eps-scaled "
        "interface method on uniform square meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (_handler, spec) in _SPECS.items():
        p = sub.add_parser(cmd)
        for dest, (conv, default, *choices) in spec.items():
            kwargs = {"type": conv, "default": default, "choices": next(iter(choices), None)}
            if conv is _bool:
                # a bare --raw means yes; --raw=no overrides a config's yes
                kwargs.update(nargs="?", const=True)
            p.add_argument("--" + dest.replace("_", "-"), **kwargs)
        p.add_argument("--config")
        p.add_argument("--output")
    args = parser.parse_args(argv)
    if args.config:
        spec = _SPECS[args.command][1]
        sub.choices[args.command].set_defaults(**_load_config(args.config, spec, parser))
        args = parser.parse_args(argv)
    return args, parser


def _load_config(path: str, spec: dict, parser: argparse.ArgumentParser) -> dict:
    """The ``key=value`` lines of ``path``, converted by the options' types
    and checked against their choices; any fault is a usage error."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            parser.error(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, raw = text.partition("=")
        key, dest = key.strip(), key.strip().replace("-", "_")
        if dest not in spec:
            parser.error(f"{path}:{lineno}: unknown option {key!r}")
        conv, _default, *choices = spec[dest]
        try:
            values[dest] = conv(raw.strip())
        except ValueError as exc:
            parser.error(f"{path}:{lineno}: bad value for {key!r}: {exc}")
        if choices and values[dest] not in choices[0]:
            parser.error(f"{path}:{lineno}: {key!r} must be one of {', '.join(choices[0])}")
    return values


def _resonance_grid(*args):
    """``assembly.default_resonance_grid``, importing assembly on first use.

    helmdpg.assembly loads scipy.sparse, which more than doubles the
    start-up time of the subcommands without a mesh; only the mesh
    subcommands import it.
    """
    from . import assembly

    return assembly.default_resonance_grid(*args)


#: per sweep command, its frequency-grid rule and the options it takes, in order
_GRIDS = {
    "resonance-sweep": (_resonance_grid, ("omega_step", "omega_start", "omega_stop")),
    "band": (dispersion.band_grid, ("zeta_max", "zeta_step")),
}


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """The subcommand's option values from the parsed namespace.

    A grid step that is not positive, a direction count below one and an
    empty frequency grid are usage errors.
    """
    out = {dest: getattr(args, dest) for dest in _SPECS[args.command][1]}
    for dest, value in out.items():
        flag = "--" + dest.replace("_", "-")
        if dest.endswith("_step") and not value > 0:
            parser.error(f"{flag} must be positive, got {value!r}")
        if dest == "n_theta" and value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")
    if args.command in _GRIDS:
        grid, dests = _GRIDS[args.command]
        try:
            empty = grid(*(out[d] for d in dests)).size == 0
        except (ValueError, OverflowError):  # a NaN or infinite bound
            empty = True
        if empty:
            given = " ".join(f"--{d.replace('_', '-')} {out[d]!r}" for d in dests)
            parser.error(f"{given}: give no frequency grid")
    return out


class _CsvOut:
    """CSV sink with deterministic metadata, to a file or stdout."""

    def __init__(self, command: str, params: dict):
        self.buffer = io.StringIO()
        self.writer = csv.writer(self.buffer, lineterminator="\n")
        self.buffer.write(f"# helm-dpg {command}\n")
        for key in sorted(params):
            self.buffer.write(f"# {key}={_fmt(params[key])}\n")

    def header(self, columns: str):
        self.buffer.write(columns + "\n")

    def row(self, *cells):
        self.writer.writerow([_fmt(c) for c in cells])

    def comment(self, text: str):
        self.buffer.write(f"# {text}\n")

    def flush(self, output: str | None):
        text = self.buffer.getvalue()
        if output is None:
            sys.stdout.write(text)
        else:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _exact_for(cfg: dict):
    from . import assembly

    if cfg["exact"] == "manufactured":
        return assembly.manufactured_solution(cfg["omega"], cfg.get("sign", 1))
    if cfg["exact"] == "plane-wave":
        return assembly.plane_wave(cfg["omega"], cfg["theta"])
    return assembly.zero_solution(cfg["omega"])


def _cmd_solve(cfg: dict, out: _CsvOut):
    from . import assembly

    mesh = assembly.build_mesh(cfg["n"])
    rep = assembly.solve_method(
        cfg["method"], mesh, cfg["omega"], _exact_for(cfg),
        eps=cfg["eps"], r=cfg["r"],
    )
    out.header("method,n,omega,eps,r,exact,e_r,a,ratio,residual_rel")
    out.row(
        rep.method, rep.n, rep.omega, rep.eps, rep.r, cfg["exact"],
        rep.e_r, rep.a, rep.ratio, float(f"{rep.residual_rel:.1e}"),
    )
    print(
        f"wall time: {rep.wall_time:.3f}s fill_nnz: {rep.fill_nnz} "
        f"refinement_steps: {rep.refinement_steps}",
        file=sys.stderr,
    )


def _cmd_resonance(cfg: dict, out: _CsvOut):
    from . import assembly

    grid = _resonance_grid(cfg["omega_step"], cfg["omega_start"], cfg["omega_stop"])
    rows = assembly.resonance_sweep(grid, cfg["eps"], n=cfg["n"], r=cfg["r"])
    out.header("omega,eps,e_r,a,ratio,error")
    for row in rows:
        out.row(row.omega, row.eps, row.e_r, row.a, row.ratio, row.error)


def _cmd_plane_wave(cfg: dict, out: _CsvOut):
    from . import assembly

    rep = assembly.plane_wave_demo(
        cfg["method"], cfg["theta"], cfg["n"], cfg["omega"], cfg["eps"], cfg["r"]
    )
    out.header("method,n,omega,theta,eps,r,metric,e_r,ratio")
    r = rep.report
    out.row(
        r.method, r.n, r.omega, cfg["theta"], r.eps, r.r,
        rep.metric, r.e_r, r.ratio,
    )


def _cmd_dispersion(cfg: dict, out: _CsvOut):
    method, h = cfg["method"], cfg["h"]
    zeta = cfg["omega"] * h
    st = dispersion._method_stencils(method, zeta, cfg["eps"] * h, cfg["r"])
    eps, r = (cfg["eps"], cfg["r"]) if method == "dpg" else (None, None)
    if cfg["n_theta"] > 1:
        sweep = dispersion.theta_sweep(st, cfg["n_theta"])
    else:
        res = dispersion.solve_root(st, cfg["theta"], zeta)
        found = res.z, res.iters, res.det_abs, res.polished, res.scale
        sweep = dispersion.ThetaSweep(
            method, zeta, np.array([cfg["theta"]]), *(np.array([v]) for v in found)
        )
    out.header("method,r,eps,omega,h,theta,re_wh,im_wh,abs_detF,iters")
    for th, z, it, da in zip(sweep.thetas, sweep.z, sweep.iters, sweep.det_abs):
        out.row(method, r, eps, cfg["omega"], h, th, z.real / h, z.imag / h, da, it)
    out.comment(f"rho={_fmt(sweep.rho)}")
    out.comment(f"eta={_fmt(sweep.eta)}")
    # abs_detF is a certificate only against the scale of |det F| over the
    # starts; a sweep reports its weakest direction
    worst = int(np.argmax(sweep.det_abs / sweep.scale))
    theta, det_abs, scale = sweep.thetas[worst], sweep.det_abs[worst], sweep.scale[worst]
    print(
        f"scale: {_fmt(scale)} abs_detF/scale: {_fmt(det_abs / scale)} theta: {_fmt(theta)}",
        file=sys.stderr,
    )


def _cmd_band(cfg: dict, out: _CsvOut):
    method = cfg["method"]
    diagram = dispersion.band_diagram(
        method, cfg["eps_n"], cfg["r"], theta=cfg["theta"],
        zeta_max=cfg["zeta_max"], zeta_step=cfg["zeta_step"],
    )
    out.header("method,omega_h_norm,re,im")
    for zeta, z in zip(diagram.zetas, diagram.z):
        out.row(method, zeta, z.real, z.imag)


def _cmd_eps_r_sweep(cfg: dict, out: _CsvOut):
    rows = dispersion.epsilon_r_sweep(
        zeta=cfg["zeta"],
        eps_values=cfg["eps"],
        r_values=cfg["r"],
        include_baselines=not cfg["no_baselines"],
        n_theta=cfg["n_theta"],
    )
    out.header("method,r,eps,omega_h_norm,rho,eta")
    for row in rows:
        out.row(row.method, row.r, row.eps_n, row.zeta, row.rho, row.eta)


def _cmd_stencil_dump(cfg: dict, out: _CsvOut):
    st = stencil.extract_stencils(
        cfg["method"], cfg["omega_n"], cfg["eps_n"], cfg["r"], normalize=not cfg["raw"]
    )
    out.header("t,s,two_lx,two_ly,re_D,im_D")
    for t in st.types:
        for s in st.types:
            if (t, s) not in st.weights:
                continue
            for (lx, ly) in sorted(st.weights[(t, s)]):
                w = st.weights[(t, s)][(lx, ly)]
                out.row(t, s, lx, ly, w.real, w.imag)


def _selftest_checks():
    from . import assembly

    checks = []

    rule = tensor_rule(4)
    got = np.sum(rule.weights * rule.points[:, 0] ** 3 * rule.points[:, 1] ** 2)
    checks.append(("quadrature exactness", abs(got - 1.0 / 12.0) <= 1e-14,
                   f"int x^3 y^2 = {got!r}"))

    st = stencil.extract_stencils("dpg", np.pi / 4, 1e-2, 2)
    sizes = tuple(st.support_size(t) for t in st.types)
    checks.append(("interface stencil supports", sizes == (21, 13, 13),
                   f"sizes {sizes}"))
    fem = stencil.extract_stencils("fem", np.pi / 4)
    checks.append(("vertex stencil support", fem.support_size(1) == 9,
                   f"size {fem.support_size(1)}"))

    checks.append(("x-y reflection symmetry", stencil.xy_symmetric(st),
                   f"relative max diff {stencil.xy_asymmetry(st):.2e}"))

    raw = stencil.extract_stencils("fosls", np.pi / 4, normalize=False)
    res = dispersion.solve_root(raw, 0.3, np.pi / 4)
    checks.append(("dispersion root certificate",
                   res.det_abs <= 1e-10 * res.scale,
                   f"|det F| = {res.det_abs:.2e}, scale {res.scale:.2e}"))

    mesh = assembly.build_mesh(4)
    rep = assembly.solve_dpg(mesh, 2.0, 1e-2, 2, assembly.manufactured_solution(2.0))
    checks.append(("recovered fields near optimal",
                   1.0 - 1e-9 <= rep.ratio <= 2.0, f"ratio {rep.ratio:.6f}"))

    texts = []
    for _ in range(2):
        out = _CsvOut("stencil-dump", {"method": "fem", "omega_n": 2.0})
        _cmd_stencil_dump(
            {"method": "fem", "omega_n": 2.0, "eps_n": None, "r": None, "raw": False},
            out,
        )
        texts.append(out.buffer.getvalue())
    checks.append(("deterministic output", texts[0] == texts[1], "byte compare"))
    return checks


def _cmd_selftest(cfg: dict, out: _CsvOut) -> int:
    failures = 0
    for name, ok, detail in _selftest_checks():
        tag = "ok" if ok else "FAIL"
        print(f"{tag:4s} {name} ({detail})")
        failures += 0 if ok else 1
    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


#: per subcommand, its handler and its options as dest -> (type, default[,
#: choices]); every string option's type is str, which argparse applies to
#: string defaults as a no-op
_SPECS = {
    "solve": (_cmd_solve, {
        "method": (str, "dpg", ("dpg", "fosls")),
        "n": (int, 16),
        "omega": (float, 2.0),
        "eps": (float, 1e-2),
        "r": (int, 3),
        "exact": (str, "manufactured", ("manufactured", "plane-wave", "zero")),
        "theta": (float, 0.0),
        "sign": (int, 1),
    }),
    "resonance-sweep": (_cmd_resonance, {
        "omega_start": (float, 3.0),
        "omega_stop": (float, 6.0),
        "omega_step": (float, 0.05),
        "eps": (_floats, (1.0, 1e-1, 1e-2, 1e-3, 1e-4)),
        "n": (int, 16),
        "r": (int, 3),
    }),
    "plane-wave": (_cmd_plane_wave, {
        "method": (str, "dpg", ("dpg", "fosls")),
        "theta": (float, float(np.pi / 8)),
        "n": (int, 48),
        "omega": (float, float(6 * np.pi)),
        "eps": (float, 1e-6),
        "r": (int, 3),
    }),
    "dispersion": (_cmd_dispersion, {
        "method": (str, "dpg", ("dpg", "fem", "fosls")),
        "r": (int, 3),
        "eps": (float, 1e-6),
        "omega": (float, 1.0),
        "h": (float, float(2 * np.pi / 8)),
        "theta": (float, 0.0),
        "n_theta": (int, 1),
    }),
    "band": (_cmd_band, {
        "method": (str, "dpg", ("dpg", "fem", "fosls")),
        "eps_n": (float, 1e-6),
        "r": (int, 3),
        "theta": (float, 0.0),
        "zeta_max": (float, 6.0),
        "zeta_step": (float, 0.05),
    }),
    "eps-r-sweep": (_cmd_eps_r_sweep, {
        "zeta": (float, float(np.pi / 4)),
        "eps": (_floats, (1.0, 1e-1, 1e-2, 1e-4, 1e-6)),
        "r": (_ints, (2, 3, 4)),
        "n_theta": (int, dispersion.DEFAULT_N_THETA),
        "no_baselines": (_bool, False),
    }),
    "stencil-dump": (_cmd_stencil_dump, {
        "method": (str, "dpg", ("dpg", "fem", "fosls")),
        "omega_n": (float, float(np.pi / 4)),
        "eps_n": (float, 1e-6),
        "r": (int, 3),
        "raw": (_bool, False),
    }),
    "selftest": (_cmd_selftest, {}),
}


def main(argv=None) -> int:
    # numpy's pool is pinned here for every subcommand; importing assembly
    # pins scipy's as it loads it
    single_thread_blas()
    args, parser = _parse(argv)
    cfg = _resolve(args, parser)
    handler = _SPECS[args.command][0]
    if args.command == "selftest":
        return handler(cfg, None)
    out = _CsvOut(args.command, cfg)
    try:
        handler(cfg, out)
    except (ValueError, REnrichmentTooSmall, MeshTooSmall) as exc:
        # parameters the library rejects as out of range (a negative,
        # infinite or NaN eps, a frequency that is not positive and finite,
        # a non-finite theta, r < 2, n < 2), which the parser cannot see
        parser.error(str(exc))
    except HelmDpgError as exc:
        print(f"helm-dpg: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    out.flush(args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
