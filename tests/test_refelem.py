"""Tests for reference-square bases and tabulation."""

import numpy as np
import pytest

from helmdpg import numkit, refelem
from helmdpg.errors import REnrichmentTooSmall
from helmdpg.refelem import BOTTOM, LEFT, RIGHT, TOP

from oracles import edge_points, edge_traces, element_rule, element_rule_1d, hat_traces, tabulate_test_at


@pytest.mark.parametrize("r,expected", [(2, 21), (3, 40), (4, 65)])
def test_test_space_dimension(r, expected):
    # dim = 2 r (r+1) + (r+1)^2
    basis = refelem.build_test_basis(r)
    assert basis.dim == expected
    n_vec = sum(1 for c, _, _ in basis.members if c in ("vx", "vy"))
    n_sc = sum(1 for c, _, _ in basis.members if c == "sc")
    assert n_vec == 2 * r * (r + 1)
    assert n_sc == (r + 1) ** 2


def test_enrichment_floor():
    with pytest.raises(REnrichmentTooSmall):
        refelem.build_test_basis(1)


def test_shifted_legendre_values():
    x = np.array([0.0, 0.5, 1.0])
    vals, ders = refelem.shifted_legendre_table(3, x)
    # P_0 = 1, P_1(2x-1), endpoint values P_k(1)=1, P_k(-1)=(-1)^k
    assert np.allclose(vals[0], 1.0)
    assert np.allclose(vals[1], [-1.0, 0.0, 1.0])
    for k in range(4):
        assert abs(vals[k][2] - 1.0) < 1e-14
        assert abs(vals[k][0] - (-1.0) ** k) < 1e-14
    # orthogonality on [0,1]: int P_k P_l = delta_kl / (2k+1)
    xs, ws = numkit.gauss_legendre_1d(6)
    v, _ = refelem.shifted_legendre_table(3, xs)
    for k in range(4):
        for l in range(4):
            ip = ws @ (v[k] * v[l])
            expect = 1.0 / (2 * k + 1) if k == l else 0.0
            assert abs(ip - expect) < 1e-14


def test_derivatives_match_finite_differences():
    basis = refelem.build_test_basis(3)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.2, 0.8, size=(5, 2))
    h = 1e-6
    tab = tabulate_test_at(basis, pts)
    xp = pts.copy(); xp[:, 0] += h
    xm = pts.copy(); xm[:, 0] -= h
    yp = pts.copy(); yp[:, 1] += h
    ym = pts.copy(); ym[:, 1] -= h
    fd_x = (tabulate_test_at(basis, xp)["eta"] - tabulate_test_at(basis, xm)["eta"]) / (2 * h)
    fd_y = (tabulate_test_at(basis, yp)["eta"] - tabulate_test_at(basis, ym)["eta"]) / (2 * h)
    assert np.allclose(fd_x, tab["eta_x"], atol=1e-6)
    assert np.allclose(fd_y, tab["eta_y"], atol=1e-6)
    fd_div = (
        tabulate_test_at(basis, xp)["vx"] - tabulate_test_at(basis, xm)["vx"]
        + tabulate_test_at(basis, yp)["vy"] - tabulate_test_at(basis, ym)["vy"]
    ) / (2 * h)
    assert np.allclose(fd_div, tab["div"], atol=1e-6)


def test_edge_normal_traces():
    basis = refelem.build_test_basis(2)
    t = numkit.gauss_legendre_1d(4)[0]
    _, vn = edge_traces(basis, t)
    for k, (comp, i, j) in enumerate(basis.members):
        if comp == "sc":
            assert np.allclose(vn[:, k, :], 0.0)
        if comp == "vx":
            # vx functions have zero normal trace on horizontal edges
            assert np.allclose(vn[BOTTOM, k], 0.0)
            assert np.allclose(vn[TOP, k], 0.0)
            # P_i(1) = 1 on the right edge, P_i(-1) = (-1)^i on the left
            vals, _ = refelem.shifted_legendre_table(max(i, j), t)
            assert np.allclose(vn[RIGHT, k], vals[j])
            assert np.allclose(vn[LEFT, k], -((-1.0) ** i) * vals[j])
        if comp == "vy":
            assert np.allclose(vn[LEFT, k], 0.0)
            assert np.allclose(vn[RIGHT, k], 0.0)


def test_edge_sign_convention():
    # top/right edges agree with the global normals, bottom/left oppose them
    assert refelem.EDGE_SIGNS[TOP] == 1.0 and refelem.EDGE_SIGNS[RIGHT] == 1.0
    assert refelem.EDGE_SIGNS[BOTTOM] == -1.0 and refelem.EDGE_SIGNS[LEFT] == -1.0


def test_vertex_hats_are_nodal():
    for a, (va, vb) in enumerate(refelem.VERTICES_CCW):
        for b, (wa, wb) in enumerate(refelem.VERTICES_CCW):
            val = refelem.vertex_hat(va, vb, np.array([float(wa)]), np.array([float(wb)]))[0]
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-15


def test_trial_edge_tables_linear():
    t = numkit.gauss_legendre_1d(4)[0]
    hats = hat_traces(t)
    # vertex (0,0): along bottom edge equals 1-t, along top edge 0
    assert np.allclose(hats[0, BOTTOM], 1 - t)
    assert np.allclose(hats[0, TOP], 0.0)
    # vertex (1,1): right edge equals t, left edge 0
    assert np.allclose(hats[2, RIGHT], t)
    assert np.allclose(hats[2, LEFT], 0.0)


def test_conforming_basis_flux_normalization():
    rule = refelem.default_rule(2)
    tab = refelem.tabulate_conforming_basis(rule)
    x, y = rule.points[:, 0], rule.points[:, 1]
    # bottom flux: (0,1)-component is 1-y; divergence -1
    assert np.allclose(tab.vy[4], 1 - y)
    assert np.allclose(tab.div[4], -1.0)
    assert np.allclose(tab.vx[4], 0.0)
    # right flux: (1,0)-component x, divergence +1
    assert np.allclose(tab.vx[7], x)
    assert np.allclose(tab.div[7], 1.0)
    # scalar rows: hats sum to one, gradients sum to zero
    assert np.allclose(tab.eta[:4].sum(axis=0), 1.0)
    assert np.allclose(tab.eta_x[:4].sum(axis=0), 0.0)
    assert np.allclose(tab.vx[:4], 0.0)


def _volume_tables_by_member(basis, pts):
    """Member-by-member tables: the reference for the array program."""
    px, dpx = refelem.shifted_legendre_table(basis.r, pts[:, 0])
    py, dpy = refelem.shifted_legendre_table(basis.r, pts[:, 1])
    names = ("vx", "vy", "eta", "eta_x", "eta_y", "div")
    out = {name: np.full((basis.dim, len(pts)), pts[0, 0] * 0, dtype=px.dtype) for name in names}
    for k, (comp, i, j) in enumerate(basis.members):
        if comp == "vx":
            out["vx"][k], out["div"][k] = px[i] * py[j], dpx[i] * py[j]
        elif comp == "vy":
            out["vy"][k], out["div"][k] = px[i] * py[j], px[i] * dpy[j]
        else:
            out["eta"][k] = px[i] * py[j]
            out["eta_x"][k], out["eta_y"][k] = dpx[i] * py[j], px[i] * dpy[j]
    return out


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_volume_tables_match_member_loop(r, extended):
    basis = refelem.build_test_basis(r)
    kind, deg_x, deg_y = basis.layout
    assert not basis.layout.flags.writeable
    assert [(("vx", "vy", "sc")[k], i, j) for k, i, j in zip(kind, deg_x, deg_y)] == list(basis.members)
    precision = numkit.Precision.extended(30) if extended else numkit.Precision.double()
    # volume points, and the left edge, where every x is an exact zero
    for pts in (element_rule(r, precision).points, edge_points(LEFT, element_rule_1d(r, precision)[0])):
        got = refelem._volume_tables(basis, pts)
        for name, want in _volume_tables_by_member(basis, pts).items():
            assert got[name].dtype == want.dtype
            assert repr(got[name].tolist()) == repr(want.tolist()), name


def test_extended_tabulation_matches_double():
    basis = refelem.build_test_basis(2)
    rd = refelem.default_rule(2)
    re_ = element_rule(2, numkit.Precision.extended(30))
    td = refelem.tabulate_test_basis(basis, rd)
    te = refelem.tabulate_test_basis(basis, re_)
    assert np.allclose(numkit.as_complex128(te.eta).real, td.eta, atol=1e-15)
    assert np.allclose(numkit.as_complex128(te.div).real, td.div, atol=1e-13)
    vn_e, vn_d = (edge_traces(basis, element_rule_1d(2, p)[0])[1]
                  for p in (numkit.Precision.extended(30), numkit.Precision.double()))
    assert np.allclose(numkit.as_complex128(vn_e.reshape(4 * basis.dim, -1)).real,
                       vn_d.reshape(4 * basis.dim, -1), atol=1e-14)
