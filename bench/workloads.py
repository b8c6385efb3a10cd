"""The four benchmark workloads: seeded inputs, timed calls, checks.

Each workload is three functions.  ``inputs(rng)`` draws the frequencies
from narrow ranges around fixed centres; the program receives only these
generated values.  ``run(inputs, calls)`` makes the workload's top-level
calls through ``calls``, which times each one and keeps its result or its
exception.  ``check(inputs, results)`` runs after the timed part and
returns the operations (one sweep row, one frequency point, one solve or
one resonance row), each with its list of failures, and the failures of
the checks that compare operations with each other.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from helmdpg import assembly, dispersion, localforms, stencil

Op = tuple[str, list[str]]


class Calls:
    """Times top-level calls; a call that raises fails the operations it owns."""

    def __init__(self):
        self.seconds: list[float] = []

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            out, err = fn(*args, **kwargs), None
        except Exception as exc:  # noqa: BLE001 - reported as failed operations
            out, err = None, f"{type(exc).__name__}: {exc}"
        self.seconds.append(time.perf_counter() - t0)
        return out, err


def _around(rng, centre: float, rel: float) -> float:
    """centre * (1 + rel * U(-1, 1))."""
    return centre * (1.0 + rel * rng.uniform(-1.0, 1.0))


def _element_failures(omega_n: float, eps_n: float, r: int) -> list[str]:
    """B and the condensed S of one DPG element: Hermitian and PSD."""
    kit = localforms.element_kit(localforms.NormalizedParams(omega_n, eps_n, r))
    where = f"omega_n={omega_n:.6g} eps_n={eps_n:.3g} r={r}"
    return checks.check_hermitian_psd(kit.B, f"B ({where})") + checks.check_hermitian_psd(
        kit.S, f"S ({where})"
    )


def _ansatz_failures(st, theta: float, z: complex) -> list[str]:
    resid, _ = dispersion.ansatz_residual(st, theta, z)
    max_weight = max(st.max_abs(t) for t in st.types)
    return checks.check_ansatz(resid, max_weight, f"{st.method} theta={theta:.4f} z={z:.6g}")


def _raised(label: str, err: str, count: int) -> list[Op]:
    return [(f"{label} #{i}", [err]) for i in range(count)]


# ---------------------------------------------------------------------------
# theta-sweep: direction sweeps at zeta ~ 2 pi / 8
# ---------------------------------------------------------------------------

THETA_ZETA = 2 * math.pi / 8
THETA_REL = 0.01
THETA_N = 13
THETA_ROWS = (("fem", None, None), ("fosls", None, None), ("dpg", 1e-2, 3), ("dpg", 1e-6, 3))


def theta_inputs(rng) -> dict:
    return {"zeta": _around(rng, THETA_ZETA, THETA_REL), "n_theta": THETA_N, "rows": THETA_ROWS}


def _sweep_row(method, zeta, eps_n, r, n_theta):
    st = stencil.extract_stencils(method, zeta, eps_n, r, normalize=False)
    return st, dispersion.theta_sweep(st, n_theta)


def theta_run(inp: dict, calls: Calls) -> list:
    return [
        calls.call(_sweep_row, method, inp["zeta"], eps_n, r, inp["n_theta"])
        for method, eps_n, r in inp["rows"]
    ]


def theta_check(inp: dict, results: list) -> tuple[list[Op], list[str]]:
    zeta = inp["zeta"]
    ops: list[Op] = []
    rho = {}
    for (method, eps_n, r), (out, err) in zip(inp["rows"], results):
        label = f"{method} row" if r is None else f"{method} r={r} eps_n={eps_n:g} row"
        if err is not None:
            ops.append((label, [err]))
            continue
        st, sweep = out
        fails = checks.check_reflection(sweep.thetas, sweep.z)
        if method == "fem":
            fails += checks.check_fem_roots(zeta, sweep.thetas, sweep.z)
        for i in (0, inp["n_theta"] // 2, inp["n_theta"] - 1):
            fails += _ansatz_failures(st, float(sweep.thetas[i]), complex(sweep.z[i]))
        if method == "dpg":
            fails += checks.check_positive(sweep.eta, f"eta of {label}")
            fails += _element_failures(zeta, eps_n, r)
        ops.append((label, fails))
        rho[(method, eps_n)] = sweep.rho
    others = {"rho(fem)": ("fem", None), "rho(fosls)": ("fosls", None),
              "rho(dpg r=3 eps_n=1e-2)": ("dpg", 1e-2)}
    if ("dpg", 1e-6) not in rho or not all(key in rho for key in others.values()):
        return ops, []
    return ops, checks.check_below(
        rho[("dpg", 1e-6)], {name: rho[key] for name, key in others.items()},
        "rho(dpg r=3 eps_n=1e-6)",
    )


# ---------------------------------------------------------------------------
# frequency-track: one element, stencil and root per frequency point
# ---------------------------------------------------------------------------

TRACK_OMEGA = 1.0
TRACK_REL = 0.02
ALL_LEVELS = (3, 4, 5, 6, 7)
SMALL_EPS_LEVELS = (3, 5)
STUDIES = (
    ("fem", None, None, ALL_LEVELS, "fem"),
    ("fosls", None, None, ALL_LEVELS, "fosls"),
    ("dpg", 1.0, 3, ALL_LEVELS, "dpg(eps=1)"),
    ("dpg", 1e-6, 3, SMALL_EPS_LEVELS, "dpg(eps=1e-6) phase"),
    ("dpg", 0.0, 3, SMALL_EPS_LEVELS, "dpg(eps=0)"),
)
FEM_BAND = {"zeta_max": 6.0, "zeta_step": 0.05}
DPG_BAND_STEP = 0.75
DPG_BAND_POINTS = 2
DPG_BAND_EPS_N = 1e-6
DPG_BAND_PHASE_RTOL = 0.1


def track_inputs(rng) -> dict:
    step = _around(rng, DPG_BAND_STEP, TRACK_REL)
    return {
        "omega": _around(rng, TRACK_OMEGA, TRACK_REL),
        "studies": STUDIES,
        "fem_band": dict(FEM_BAND),
        "dpg_band": {"eps_n": DPG_BAND_EPS_N, "r": 3, "zeta_step": step,
                     "zeta_max": DPG_BAND_POINTS * step},
    }


def track_run(inp: dict, calls: Calls) -> list:
    out = [
        calls.call(dispersion.convergence_study, method, eps, r, levels=levels, omega=inp["omega"])
        for method, eps, r, levels, _ in inp["studies"]
    ]
    out.append(calls.call(dispersion.band_diagram, "fem", **inp["fem_band"]))
    out.append(calls.call(dispersion.band_diagram, "dpg", **inp["dpg_band"]))
    return out


def _dpg_point_failures(zeta, eps_n, r, z) -> list[str]:
    st = stencil.extract_stencils("dpg", zeta, eps_n, r, normalize=False)
    return (
        checks.check_positive(z.imag, f"Im z at zeta={zeta:.6g}")
        + _ansatz_failures(st, 0.0, z)
        + _element_failures(zeta, eps_n, r)
    )


def track_check(inp: dict, results: list) -> tuple[list[Op], list[str]]:
    ops: list[Op] = []
    aggregate: list[str] = []
    *studies, fem_band, dpg_band = results
    for (method, eps, r, levels, window), (study, err) in zip(inp["studies"], studies):
        label = f"{window.split(' ')[0]} study"
        if err is not None:
            ops += _raised(label, err, len(levels))
            continue
        for level, zeta, z in zip(study.levels, study.zetas, study.z):
            where = f"{label} level {level}"
            if method == "fem":
                fails = checks.check_fem_roots(zeta, 0.0, [z])
            elif method == "fosls":
                st = stencil.extract_stencils("fosls", zeta, normalize=False)
                fails = _ansatz_failures(st, 0.0, complex(z))
            else:
                h = 2.0 * np.pi / 2.0**level
                fails = _dpg_point_failures(zeta, eps * h, r, complex(z))
            ops.append((where, fails))
        errors = np.abs(study.z.real - study.zetas) if window.endswith("phase") else study.errors
        aggregate += checks.check_window(
            checks.loglog_slope(study.zetas, errors), checks.SLOPE_WINDOWS[window],
            f"{window} slope",
        )
    band, err = fem_band
    n_fem = int(round(inp["fem_band"]["zeta_max"] / inp["fem_band"]["zeta_step"]))
    if err is not None:
        ops += _raised("fem band", err, n_fem)
    else:
        for zeta, z in zip(band.zetas, band.z):
            ops.append((f"fem band zeta={zeta:.2f}", checks.check_fem_roots(zeta, 0.0, [z])))
    band, err = dpg_band
    if err is not None:
        ops += _raised("dpg band", err, DPG_BAND_POINTS)
    else:
        par = inp["dpg_band"]
        for zeta, z in zip(band.zetas, band.z):
            z = complex(z)
            fails = _dpg_point_failures(zeta, par["eps_n"], par["r"], z)
            if not abs(z.real - zeta) <= DPG_BAND_PHASE_RTOL * zeta:
                fails.append(f"dpg band Re z = {z.real:.6g} far from zeta = {zeta:.6g}")
            ops.append((f"dpg band zeta={zeta:.4f}", fails))
    return ops, aggregate


# ---------------------------------------------------------------------------
# mesh-solve: a few large solves
# ---------------------------------------------------------------------------

MESH_OMEGA = 2.0
MESH_REL = 0.02
MESH_NS = (32, 64, 96)
MESH_EPS = 1.0
MESH_R = 3
PLANE_OMEGA = 6 * math.pi
PLANE_THETA = math.pi / 8
PLANE_REL = 0.01
PLANE_N = 48
PLANE_RUNS = (("dpg", 1e-6), ("dpg", 1.0), ("fosls", None))


def mesh_inputs(rng) -> dict:
    return {
        "omega": _around(rng, MESH_OMEGA, MESH_REL),
        "ns": MESH_NS,
        "eps": MESH_EPS,
        "r": MESH_R,
        "plane_omega": _around(rng, PLANE_OMEGA, PLANE_REL),
        "plane_theta": _around(rng, PLANE_THETA, PLANE_REL),
        "plane_n": PLANE_N,
        "plane_runs": PLANE_RUNS,
    }


def _manufactured_solve(method, n, omega, eps, r):
    mesh = assembly.build_mesh(n)
    return assembly.solve_method(
        method, mesh, omega, assembly.manufactured_solution(omega), eps=eps, r=r
    )


def mesh_run(inp: dict, calls: Calls) -> list:
    out = []
    for n in inp["ns"]:
        for method in ("dpg", "fosls"):
            out.append(calls.call(_manufactured_solve, method, n, inp["omega"], inp["eps"], inp["r"]))
    for method, eps in inp["plane_runs"]:
        kwargs = {} if eps is None else {"eps": eps}
        out.append(calls.call(
            assembly.plane_wave_demo, method, inp["plane_theta"], inp["plane_n"],
            inp["plane_omega"], r=inp["r"], **kwargs,
        ))
    return out


def _solve_failures(rep, n, eps, r, fields) -> list[str]:
    dpg = rep.method == "dpg"
    fails = checks.check_residual(rep.residual_rel)
    if dpg:
        fails += checks.check_ratio(rep.ratio)
    fails += checks.check_best_approx(rep.a, checks.best_approx_reference(n, fields))
    if dpg:
        h = 1.0 / n
        fails += _element_failures(rep.omega * h, eps * h, r)
    return fails


def mesh_check(inp: dict, results: list) -> tuple[list[Op], list[str]]:
    ops: list[Op] = []
    aggregate: list[str] = []
    n_manufactured = 2 * len(inp["ns"])
    errors: dict[str, list[float]] = {"dpg": [], "fosls": []}
    fields = checks.manufactured_fields(inp["omega"])
    for i, (rep, err) in enumerate(results[:n_manufactured]):
        n, method = inp["ns"][i // 2], ("dpg", "fosls")[i % 2]
        label = f"{method} solve n={n}"
        if err is not None:
            ops.append((label, [err]))
            continue
        ops.append((label, _solve_failures(rep, n, inp["eps"], inp["r"], fields)))
        errors[method].append(rep.e_r)
    for method, errs in errors.items():
        if len(errs) == len(inp["ns"]):
            rate = -checks.loglog_slope(inp["ns"], errs)
            aggregate += checks.check_window(rate, checks.MESH_RATE_WINDOW, f"{method} field-error rate")
    plane_fields = checks.plane_wave_fields(inp["plane_omega"], inp["plane_theta"])
    amplitude = {}
    for (method, eps), (pw, err) in zip(inp["plane_runs"], results[n_manufactured:]):
        label = f"{method} plane wave" + ("" if eps is None else f" eps={eps:g}")
        if err is not None:
            ops.append((label, [err]))
            continue
        ops.append((label, _solve_failures(pw.report, inp["plane_n"], eps, inp["r"], plane_fields)))
        amplitude[(method, eps)] = pw.metric
    if len(amplitude) == len(inp["plane_runs"]):
        small = amplitude[("dpg", 1e-6)]
        if not small >= checks.PLANE_WAVE_FLOOR:
            aggregate.append(f"dpg(eps=1e-6) far amplitude {small:.4f} below {checks.PLANE_WAVE_FLOOR}")
        aggregate += [
            f"{name} amplitude {amplitude[key]:.4f} not below dpg(eps=1e-6) {small:.4f}"
            for name, key in (("dpg(eps=1)", ("dpg", 1.0)), ("fosls", ("fosls", None)))
            if not amplitude[key] < small
        ]
    return ops, aggregate


# ---------------------------------------------------------------------------
# resonance-sweep: many small solves across the domain resonance
# ---------------------------------------------------------------------------

RES_START, RES_STEP, RES_COUNT = 3.0, 0.05, 61
RES_SHIFT = 0.005
RES_EPS = (1.0, 1e-1)
RES_N = 16
RES_R = 3
RES_BELOW, RES_NEAR = 3.5, 4.4


def resonance_inputs(rng) -> dict:
    shift = RES_SHIFT * rng.uniform(-1.0, 1.0)
    omegas = RES_START + RES_STEP * np.arange(RES_COUNT) + shift
    return {"omegas": [float(om) for om in omegas], "eps": RES_EPS, "n": RES_N, "r": RES_R}


def resonance_run(inp: dict, calls: Calls) -> list:
    return [
        calls.call(assembly.resonance_sweep, inp["omegas"], (eps,), n=inp["n"], r=inp["r"])
        for eps in inp["eps"]
    ]


def resonance_check(inp: dict, results: list) -> tuple[list[Op], list[str]]:
    ops: list[Op] = []
    aggregate: list[str] = []
    n, r = inp["n"], inp["r"]
    h = 1.0 / n
    for eps, (rows, err) in zip(inp["eps"], results):
        if err is not None:
            ops += _raised(f"resonance eps={eps:g}", err, len(inp["omegas"]))
            continue
        for row in rows:
            label = f"resonance eps={eps:g} omega={row.omega:.4f}"
            if row.error is not None:
                ops.append((label, [row.error]))
                continue
            fails = checks.check_ratio(row.ratio)
            fails += checks.check_best_approx(
                row.a, checks.best_approx_reference(n, checks.manufactured_fields(row.omega))
            )
            fails += _element_failures(row.omega * h, eps * h, r)
            ops.append((label, fails))
        if eps == 1.0 and all(row.error is None for row in rows):
            om = np.array([row.omega for row in rows])
            ratio = np.array([row.ratio for row in rows])
            below = ratio[np.argmin(np.abs(om - RES_BELOW))]
            near = ratio[np.argmin(np.abs(om - RES_NEAR))]
            if not near > checks.RESONANCE_GROWTH * below:
                aggregate.append(
                    f"no growth toward the resonance: ratio near {RES_NEAR} = {near:.3f}, "
                    f"near {RES_BELOW} = {below:.3f}"
                )
    return ops, aggregate


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    "theta-sweep": Workload(theta_inputs, theta_run, theta_check),
    "frequency-track": Workload(track_inputs, track_run, track_check),
    "mesh-solve": Workload(mesh_inputs, mesh_run, mesh_check),
    "resonance-sweep": Workload(resonance_inputs, resonance_run, resonance_check),
}
