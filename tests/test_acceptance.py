"""Release acceptance gate: one test per criterion, one verdict line each.

Every test gathers the failures of its sub-checks into a list and reports
them together through ``_gate``, so the -v run shows exactly one pass/fail
line per criterion and a failing line carries all measured values needed to
understand the miss.  The criteria combine exact structural identities
(element scaling, Riesz solve, stencil supports, root certificates) with
accuracy orderings, convergence windows, and output determinism measured by
the dispersion and mesh drivers at their default settings.
"""

import numpy as np
import pytest

from helmdpg import assembly, cli, dispersion, numkit, refelem, stencil
from helmdpg import localforms as lf
from helmdpg.numkit import Precision, as_complex128, working_context
from helmdpg.stencil import HEDGE, VEDGE, VERTEX

from oracles import assemble_patch, dpg_element_physical, min_eigenvalue_bound

FIT_LEVELS = (3, 4, 5, 6, 7)
EPS_LADDER = (1.0, 1e-1, 1e-2, 1e-4, 1e-6)


def _gate(name, failures):
    verdict = "PASS" if not failures else "FAIL - " + "; ".join(failures)
    print(f"[acceptance] {name}: {verdict}")
    assert not failures, f"{name}: {verdict}"


def _fro(a):
    return float(np.sqrt(sum(float(abs(v)) ** 2 for v in np.asarray(a).ravel())))


@pytest.fixture(scope="module")
def quarter_sweep():
    """Worst-direction sweep rows at normalized frequency 2*pi/4."""
    rows = dispersion.epsilon_r_sweep(
        zeta=2 * np.pi / 4,
        eps_values=(1.0, 1e-2, 1e-4, 1e-6),
        r_values=(3,),
        include_baselines=True,
    )
    return {(row.method, row.eps_n): row for row in rows}


@pytest.fixture(scope="module")
def eighth_sweep():
    """Worst-direction sweep rows at normalized frequency 2*pi/8."""
    rows = dispersion.epsilon_r_sweep(
        zeta=2 * np.pi / 8,
        eps_values=EPS_LADDER,
        r_values=(3, 2),
        include_baselines=False,
    )
    return {(row.r, row.eps_n): row for row in rows}


def test_01_element_scaling_law():
    """Normalized element times h^2 equals direct physical assembly."""
    rng = np.random.default_rng(2026)
    failures = []
    for k in range(20):
        r = 2 if k < 10 else 3
        omega_n = rng.uniform(0.1, 3.0)
        eps_n = 10.0 ** rng.uniform(-2.0, 0.0)
        h = rng.uniform(0.05, 0.9)
        ref = lf.dpg_element(
            lf.NormalizedParams(omega_n, eps_n, r, precision=Precision.double())
        )
        b_scaled = lf.scale_to_physical(as_complex128(ref.B), h)
        b_direct = dpg_element_physical(omega_n / h, eps_n / h, h, r)
        err = np.linalg.norm(b_direct - b_scaled) / np.linalg.norm(b_direct)
        if err > 1e-10:
            failures.append(
                f"triple {k} (r={r}, omega_n={omega_n:.3f}, eps_n={eps_n:.2e}, "
                f"h={h:.3f}): rel err {err:.2e}"
            )
    _gate("element scaling law", failures)


def test_02_riesz_solve_and_element_symmetry():
    """G X = Bb residual, Hermitian symmetry, and PSD bound at r=2."""
    failures = []
    for omega_n in (0.3, np.pi / 4, 2.0):
        for eps_n in (1.0, 1e-3, 1e-6):
            e = lf.dpg_element(lf.NormalizedParams(omega_n, eps_n, 2))
            with working_context(e.precision_used):
                resid = e.G @ e.X - e.Bb
            rel = _fro(resid) / _fro(e.Bb)
            tag = f"(omega_n={omega_n:g}, eps_n={eps_n:g})"
            if rel > 1e-10:
                failures.append(f"{tag} riesz residual {rel:.2e}")
            b = as_complex128(e.B)
            herm = numkit.hermitian_error(b)
            if herm > 1e-10:
                failures.append(f"{tag} hermitian defect {herm:.2e}")
            bound = min_eigenvalue_bound(b)
            if bound < -1e-10 * np.linalg.norm(b):
                failures.append(f"{tag} min eigenvalue bound {bound:.2e}")
    _gate("riesz solve and element symmetry", failures)


def test_03_stencil_supports():
    """Assembly footprints of 21/13/13 couplings (9 for fem) and no
    leakage beyond them on a larger patch."""
    cases = [
        ("dpg", dict(eps_n=0.01, r=2), {VERTEX: 21, HEDGE: 13, VEDGE: 13}),
        ("dpg", dict(eps_n=1e-6, r=3), {VERTEX: 21, HEDGE: 13, VEDGE: 13}),
        ("fosls", {}, {VERTEX: 21, HEDGE: 13, VEDGE: 13}),
        ("fem", {}, {VERTEX: 9}),
    ]
    failures = []
    omega_n = 0.8
    for method, kw, want in cases:
        st = stencil.extract_stencils(method, omega_n, **kw)
        for t, expected in want.items():
            got = st.support_size(t)
            if got != expected:
                failures.append(
                    f"{method} center type {t}: support {got}, expected {expected}"
                )
        if method == "dpg":
            element = lf.element_kit(
                lf.NormalizedParams(omega_n, kw["eps_n"], kw["r"])
            ).S
        elif method == "fosls":
            element = lf.fosls_element(omega_n).M
        else:
            element = lf.fem_element(omega_n)
        a, touched, dof_type, pos2, centers = assemble_patch(element, n=5)
        for t, c in centers.items():
            row = [float(abs(v)) for v in a[c]]
            wmax = max(row)
            leak = 0.0
            for q, mag in enumerate(row):
                off = (int(pos2[q, 0] - pos2[c, 0]), int(pos2[q, 1] - pos2[c, 1]))
                if off not in st.weights.get((t, int(dof_type[q])), {}):
                    leak = max(leak, mag)
            if leak >= 1e-12 * wmax:
                failures.append(
                    f"{method} center type {t}: weight {leak:.2e} outside the "
                    f"support, row max {wmax:.2e}"
                )
    _gate("stencil supports", failures)


def test_04_root_certificates():
    """Determinant and independent ansatz residual for every found root."""
    battery = [
        ("fem", {}, 0.5, 0.0),
        ("fem", {}, 2.0, 0.3),
        ("fosls", {}, 0.7, 0.25),
        ("fosls", {}, 2 * np.pi / 8, 0.0),
        ("dpg", dict(eps_n=0.5, r=2), 0.8, 0.4),
        ("dpg", dict(eps_n=1.0, r=3), 2 * np.pi / 4, np.pi / 8),
        ("dpg", dict(eps_n=1e-6, r=3), 2 * np.pi / 16, 0.0),
        ("dpg", dict(eps_n=1e-3, r=4), np.pi / 4, 0.1),
        ("dpg", dict(eps_n=0.0, r=3), 0.3, 0.0),
    ]
    failures = []
    for method, kw, zeta, theta in battery:
        st = stencil.extract_stencils(method, zeta, normalize=False, **kw)
        res = dispersion.solve_root(st, theta, zeta)
        tag = f"{method} {kw} zeta={zeta:.4f} theta={theta:.3f}"
        if res.det_abs > 1e-10 * res.scale:
            failures.append(
                f"{tag}: |det F| {res.det_abs:.2e} above 1e-10*scale "
                f"({res.scale:.2e})"
            )
        resid, _ = dispersion.ansatz_residual(st, theta, res.z)
        wmax = max(st.max_abs(t) for t in st.types)
        if resid > 1e-8 * wmax:
            failures.append(
                f"{tag}: ansatz residual {resid:.2e} above 1e-8*max weight "
                f"({wmax:.2e})"
            )
    _gate("root certificates", failures)


def test_05_fem_cutoff():
    """Real roots below the fem cutoff, saturated Re = pi with growing
    dissipation above it."""
    failures = []
    for zeta in (0.5, 1.0, 2.0, 3.0, 3.4):
        st = stencil.extract_stencils("fem", zeta, normalize=False)
        z = dispersion.solve_root(st, 0.0, zeta).z
        if abs(z.imag) > 1e-10:
            failures.append(f"zeta={zeta:g}: |Im z| = {abs(z.imag):.2e}")
    ims = []
    for zeta in (3.6, 4.0, 5.0, 6.0):
        st = stencil.extract_stencils("fem", zeta, normalize=False)
        z = dispersion.solve_root(st, 0.0, zeta).z
        if abs(z.real - np.pi) > 1e-8:
            failures.append(f"zeta={zeta:g}: Re z = {z.real:.10f}, not pi")
        ims.append(z.imag)
    if not all(b > a for a, b in zip(ims, ims[1:])):
        failures.append(
            "Im z not strictly increasing above cutoff: "
            + ", ".join(f"{v:.4f}" for v in ims)
        )
    _gate("fem cutoff", failures)


def _phase_slope(study):
    """Least-squares rate of the phase error |Re z - zeta| over the study."""
    phase = np.abs(study.z.real - study.zetas)
    return float(np.polyfit(np.log(study.zetas), np.log(phase), 1)[0])


def test_06_convergence_rates():
    """Axis-direction wavenumber error rates over levels 3..7.

    The weakly dissipative r=3 element is held to the cubic rate in two
    ways.  Its limit eps = 0 must reach 2.7 on the full error |z - zeta|.
    At eps = 1e-6 the dissipation Im z levels off at about 15*eps, a floor
    that does not shrink with h (a nearly double real root splitting
    linearly in eps*h), so there the rate 2.7 is required of the phase
    error Re z - zeta alone, which stays cubic.
    """
    failures = []
    windows = [
        ("fem", None, None, 3.0, 0.3),
        ("fosls", None, None, 2.0, 0.3),
        ("dpg", 1.0, 3, 2.0, 0.4),
    ]
    for method, eps, r, target, width in windows:
        study = dispersion.convergence_study(method, eps=eps, r=r, levels=FIT_LEVELS)
        if abs(study.slope - target) > width:
            failures.append(
                f"{method}(eps={eps}) slope {study.slope:.4f} outside "
                f"{target}+-{width}"
            )
    # The dpg(eps=1) window above keeps that element's slope at or below 2.4,
    # so the 2.7 line below still tells a dissipative element from the limit.
    limit = dispersion.convergence_study("dpg", eps=0.0, r=3, levels=FIT_LEVELS)
    small = dispersion.convergence_study("dpg", eps=1e-6, r=3, levels=FIT_LEVELS)
    phase_slope = _phase_slope(small)
    if limit.slope < 2.7 or phase_slope < 2.7:
        detail = []
        for study in (limit, small):
            detail.append(
                f"dpg(eps={study.eps:g}) per-level Re z-zeta / Im z "
                + ", ".join(
                    f"L{lv} {z.real - zt:.3e}/{z.imag:.3e}"
                    for lv, zt, z in zip(study.levels, study.zetas, study.z)
                )
            )
        failures.append(
            f"dpg(eps=0) slope {limit.slope:.4f} or dpg(eps=1e-06) phase "
            f"slope {phase_slope:.4f} below 2.7; " + "; ".join(detail)
        )
    _gate("convergence rates", failures)


def test_07_eps_ordering(quarter_sweep, eighth_sweep):
    """Phase error orderings across the dissipation ladder.

    The r=3 phase error must not grow down to eps = 1e-4 and must end the
    ladder strictly below its eps = 1e-2 value.  The last rung is not held
    to the chain: there the worst direction has switched from the axis to
    the diagonal, whose error changes sign and settles at its eps -> 0
    limit slightly above the eps = 1e-4 value.
    """
    failures = []
    rho_q = {e: quarter_sweep[("dpg", e)].rho for e in (1.0, 1e-2, 1e-4)}
    if not rho_q[1e-4] < rho_q[1e-2] < rho_q[1.0]:
        failures.append(
            "quarter-frequency rho ordering broken: "
            + ", ".join(f"rho({e:g})={rho_q[e]:.6e}" for e in (1.0, 1e-2, 1e-4))
        )
    rows3 = {e: eighth_sweep[(3, e)] for e in EPS_LADDER}
    chain = [rows3[e].rho for e in EPS_LADDER[:-1]]
    eta3 = [rows3[e].eta for e in EPS_LADDER]
    if not (
        all(b <= a for a, b in zip(chain, chain[1:]))
        and rows3[1e-6].rho < rows3[1e-2].rho
    ):
        failures.append(
            "r=3 rho not nonincreasing over eps 1..1e-4 or rho(1e-6) not "
            "below rho(1e-2): "
            + ", ".join(
                f"rho({e:g})={row.rho:.6e} at theta "
                f"{np.degrees(row.theta_rho):.1f} deg"
                for e, row in rows3.items()
            )
        )
    if not all(b <= a for a, b in zip(eta3, eta3[1:])):
        failures.append(
            "r=3 eta not nonincreasing over the eps ladder: "
            + ", ".join(f"{v:.6e}" for v in eta3)
        )
    rho2 = [eighth_sweep[(2, e)].rho for e in EPS_LADDER]
    if not any(b > a for a, b in zip(rho2[2:], rho2[3:])):
        failures.append(
            "r=2 rho shows no turnaround below eps=1e-2: "
            + ", ".join(f"{v:.6e}" for v in rho2)
        )
    _gate("eps ordering", failures)


def test_08_method_ordering(quarter_sweep):
    """Weakly dissipative condensed element beats both baselines."""
    rho_dpg = quarter_sweep[("dpg", 1e-6)].rho
    rho_fem = quarter_sweep[("fem", None)].rho
    rho_fosls = quarter_sweep[("fosls", None)].rho
    failures = []
    if not rho_dpg < min(rho_fem, rho_fosls):
        failures.append(
            f"rho dpg(1e-6) {rho_dpg:.6e} not below fem {rho_fem:.6e} "
            f"and fosls {rho_fosls:.6e}"
        )
    _gate("method ordering", failures)


def test_09_resonance_ratios():
    """Optimality ratio of the mesh solver around the domain resonance."""
    failures = []
    eps_all = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
    for row in assembly.resonance_sweep(omegas=(2.0,), eps_values=eps_all):
        if row.error is not None:
            failures.append(f"omega=2 eps={row.eps:g}: solve failed ({row.error})")
        elif not row.ratio <= 1.5:
            failures.append(f"omega=2 eps={row.eps:g}: ratio {row.ratio:.3f} above 1.5")
    trend = {
        row.omega: row.ratio
        for row in assembly.resonance_sweep(omegas=(3.5, 4.4), eps_values=(1.0,))
    }
    if not trend[4.4] > 3 * trend[3.5]:
        failures.append(
            f"no blow-up toward the resonance: ratio(4.4)={trend[4.4]:.3f} "
            f"vs 3*ratio(3.5)={3 * trend[3.5]:.3f}"
        )
    sel = {
        row.eps: row.ratio
        for row in assembly.resonance_sweep(omegas=(5.0,), eps_values=(1.0, 1e-4))
    }
    if not sel[1e-4] < sel[1.0]:
        failures.append(
            f"omega=5 ordering broken: ratio(1e-4)={sel[1e-4]:.3f} "
            f"vs ratio(1)={sel[1.0]:.3f}"
        )
    _gate("resonance ratios", failures)


def test_10_plane_wave_dissipation():
    """Far-field amplitude survives only with weak dissipation."""
    small = assembly.plane_wave_demo("dpg", eps=1e-6).metric
    big = assembly.plane_wave_demo("dpg", eps=1.0).metric
    fosls = assembly.plane_wave_demo("fosls").metric
    failures = []
    if not small >= 0.9:
        failures.append(f"dpg(eps=1e-6) far amplitude {small:.4f} below 0.9")
    if not big < small:
        failures.append(
            f"dpg(eps=1) amplitude {big:.4f} not below dpg(eps=1e-6) {small:.4f}"
        )
    if not fosls < small:
        failures.append(
            f"fosls amplitude {fosls:.4f} not below dpg(eps=1e-6) {small:.4f}"
        )
    _gate("plane-wave dissipation", failures)


def test_11_property_suite(tmp_path):
    """Quadrature exactness, reflection symmetry, optimality bound,
    field-error rate, and byte-identical CSV reruns."""
    failures = []

    for r in (2, 3):
        rule = refelem.default_rule(r)
        deg = 2 * (r + 2) - 1
        x, y = rule.points[:, 0], rule.points[:, 1]
        val = float(np.sum(rule.weights * x**deg * y**deg))
        exact = 1.0 / (deg + 1) ** 2
        if abs(val - exact) > 1e-14 * abs(exact):
            failures.append(f"rule r={r} misses degree {deg}: {val!r} vs {exact!r}")

    st = stencil.extract_stencils("dpg", 0.9, 0.5, 2, normalize=False)
    z1 = dispersion.solve_root(st, 0.3, 0.9).z
    z2 = dispersion.solve_root(st, np.pi / 2 - 0.3, 0.9).z
    if abs(z1 - z2) > 1e-10:
        failures.append(f"reflection asymmetry |z(th)-z(pi/2-th)| = {abs(z1 - z2):.2e}")

    mesh = assembly.build_mesh(8)
    rep = assembly.solve_method(
        "dpg", mesh, 2.0, assembly.manufactured_solution(2.0), eps=1e-2, r=3
    )
    if not rep.ratio >= 1 - 1e-9:
        failures.append(f"field error below its best-approximation bound: {rep.ratio!r}")

    hc = assembly.h_convergence()
    if abs(hc.rate - 1.0) > 0.2:
        failures.append(f"field-error rate {hc.rate:.3f} outside 1.0+-0.2")

    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code = cli.main(
            ["dispersion", "--method", "dpg", "--r", "2", "--eps", "0.001",
             "--omega", "1.0", "--h", "0.7853981633974483",
             "--n-theta", "3", "--output", str(p)]
        )
        if code != 0:
            failures.append(f"cli run for {p.name} exited {code}")
    if paths[0].read_bytes() != paths[1].read_bytes():
        failures.append("identical cli reruns produced different bytes")

    _gate("property suite", failures)
