"""Mesh, global solve, and experiment-driver tests.

Oracles: frozen DOF ids from the numbering formulas, a closed-form
best-approximation distance for a linear field, an independent quadrature
reimplementation, exactness of boundary traces on imposed vertices, and the
sparse global assembly of ``oracles.assemble_global``, which the solver
never forms.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from helmdpg import assembly, localforms, refelem, stencil
from helmdpg.errors import (
    BCInconsistent,
    MeshTooSmall,
    OutsideEnvelope,
    PhaseMismatch,
    SolveFailure,
)
from helmdpg.numkit import tensor_rule
import oracles
from oracles import assemble_global


# ---------------------------------------------------------------------------
# mesh numbering
# ---------------------------------------------------------------------------


def _type_counts(m):
    # vertices, horizontal and vertical edges, counted through the lattice
    dof_type = np.zeros(m.n_dofs, dtype=int)
    dof_type[m.dofs] = stencil.TRACE_TYPES
    return tuple(np.bincount(dof_type, minlength=4)[1:])


def test_mesh_counts():
    m = assembly.build_mesh(2)
    assert (m.n_vertices, *_type_counts(m)) == (9, 9, 6, 6)
    m = assembly.build_mesh(16)
    assert (m.n_vertices, *_type_counts(m)) == (289, 289, 272, 272)
    assert m.n_dofs == 289 + 272 + 272


def test_mesh_too_small():
    with pytest.raises(MeshTooSmall):
        assembly.build_mesh(1)


def test_element_trace_dofs_frozen():
    # hand-computed from the numbering formulas for n = 2, element (0, 0):
    # vertices CCW, then bottom/top horizontal edges, then left/right
    # vertical edges
    m = assembly.build_mesh(2)
    assert m.element_trace_dofs(0, 0) == [0, 1, 4, 3, 9, 11, 15, 16]
    assert m.element_trace_dofs(1, 1) == [4, 5, 8, 7, 12, 14, 19, 20]


@pytest.mark.parametrize("method", ["dpg", "fosls"])
def test_patch_and_mesh_share_one_lattice(method):
    # the stencil patch and the mesh solve number the same lattice, so one
    # element assembles to the same matrix on a 3 x 3 patch and a 3 x 3 mesh
    if method == "dpg":
        element = localforms.element_kit(localforms.NormalizedParams(0.8, 0.5, 2)).S
    else:
        element = localforms.fosls_element(0.9).M
    patch = oracles.assemble_patch(element, 3)[0]
    glob = assemble_global(assembly.build_mesh(3), element).toarray()
    np.testing.assert_allclose(glob, patch, rtol=0, atol=1e-15 * np.max(np.abs(patch)))


def test_lattice_positions_are_vertex_coords():
    m = assembly.build_mesh(4)
    ndof, dofs, pos2 = assembly.lattice(4)
    assert ndof == m.n_dofs
    np.testing.assert_array_equal(dofs, m.dofs)
    xy = pos2[dofs[:, :4]] * m.h / 2
    np.testing.assert_array_equal(xy, m.vertex_coords()[dofs[:, :4]])


def test_boundary_vertices():
    m = assembly.build_mesh(2)
    ids = m.boundary_vertex_ids()
    assert len(ids) == 8
    assert 4 not in ids  # the center vertex is interior
    xy = m.vertex_coords()
    on_edge = (xy[:, 0] == 0) | (xy[:, 0] == 1) | (xy[:, 1] == 0) | (xy[:, 1] == 1)
    np.testing.assert_array_equal(np.sort(np.where(on_edge)[0]), ids)


def test_vertex_coords():
    m = assembly.build_mesh(4)
    xy = m.vertex_coords()
    # vertex (1, 3) is the first trace slot of element (1, 3)
    np.testing.assert_allclose(xy[m.element_trace_dofs(1, 3)[0]], [0.25, 0.75])


# ---------------------------------------------------------------------------
# exact-solution closures
# ---------------------------------------------------------------------------


def _at(field, x, y):
    return assembly._pointwise(field, x, y)


def test_manufactured_data_consistency():
    """f must equal the operator applied to (u, phi); check by finite
    differences at interior points."""
    ex = assembly.manufactured_solution(2.0)
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0.2, 0.8, 20), rng.uniform(0.2, 0.8, 20)
    d = 1e-6
    phi_x = (_at(ex.phi, x + d, y) - _at(ex.phi, x - d, y)) / (2 * d)
    phi_y = (_at(ex.phi, x, y + d) - _at(ex.phi, x, y - d)) / (2 * d)
    du1 = (_at(ex.u1, x + d, y) - _at(ex.u1, x - d, y)) / (2 * d)
    du2 = (_at(ex.u2, x, y + d) - _at(ex.u2, x, y - d)) / (2 * d)
    w = ex.omega
    np.testing.assert_allclose(_at(ex.f1, x, y), 1j * w * _at(ex.u1, x, y) + phi_x, atol=1e-8)
    np.testing.assert_allclose(_at(ex.f2, x, y), 1j * w * _at(ex.u2, x, y) + phi_y, atol=1e-8)
    np.testing.assert_allclose(_at(ex.f3, x, y), 1j * w * _at(ex.phi, x, y) + du1 + du2, atol=1e-8)


def test_manufactured_default_sign_kills_vector_data():
    ex = assembly.manufactured_solution(3.0)
    x = np.linspace(0.1, 0.9, 7)
    assert np.max(np.abs(_at(ex.f1, x, x))) < 1e-14
    assert np.max(np.abs(_at(ex.f2, x, x))) < 1e-14
    ex_flip = assembly.manufactured_solution(3.0, sign=-1)
    assert np.max(np.abs(_at(ex_flip.f1, x, x))) > 0.1


def test_plane_wave_data_vanishes():
    ex = assembly.plane_wave(6 * np.pi, np.pi / 8)
    rng = np.random.default_rng(11)
    x, y = rng.random(40), rng.random(40)
    for f in (ex.f1, ex.f2, ex.f3):
        assert np.max(np.abs(_at(f, x, y))) <= 1e-12
    # the fields themselves solve nothing trivial: |phi| = |u| = 1
    np.testing.assert_allclose(np.abs(_at(ex.phi, x, y)), 1.0)
    np.testing.assert_allclose(
        np.abs(_at(ex.u1, x, y)) ** 2 + np.abs(_at(ex.u2, x, y)) ** 2, 1.0
    )


def test_dirichlet_values_trace_exact():
    m = assembly.build_mesh(4)
    ex = assembly.plane_wave(2.0, 0.3)
    g = assembly.dirichlet_values(m, ex)
    ids = m.boundary_vertex_ids()
    xy = m.vertex_coords()[ids]
    np.testing.assert_allclose(g, np.exp(1j * 2.0 * (np.cos(0.3) * xy[:, 0] + np.sin(0.3) * xy[:, 1])))


# the four exact solutions of the mesh experiments and tests, each in the
# program's factor form and as the oracle's pointwise closures
EXACT_PAIRS = {
    "manufactured": (lambda: assembly.manufactured_solution(2.5),
                     lambda: oracles.pointwise_manufactured(2.5)),
    "manufactured-flipped": (lambda: assembly.manufactured_solution(2.5, sign=-1),
                             lambda: oracles.pointwise_manufactured(2.5, sign=-1)),
    "plane-wave": (lambda: assembly.plane_wave(2.5, 0.3),
                   lambda: oracles.pointwise_plane_wave(2.5, 0.3)),
    "zero": (lambda: assembly.zero_solution(2.5), oracles.pointwise_zero),
}


@pytest.mark.parametrize("name", list(EXACT_PAIRS))
@pytest.mark.parametrize("method", ["dpg", "fosls"])
def test_separable_loads_and_errors_match_pointwise_route(method, name, monkeypatch):
    # the solver's scattered loads and both error measures, from per-axis
    # tables of the factor form, against f, u and phi evaluated pointwise at
    # every quadrature point of every element
    exact, fields = EXACT_PAIRS[name][0](), EXACT_PAIRS[name][1]()
    omega, eps, r = 2.5, 1e-2, 3
    loads = []
    solve = assembly._constrained_solve

    def recording_solve(mesh, element, b, g):
        loads.append(b)
        return solve(mesh, element, b, g)

    monkeypatch.setattr(assembly, "_constrained_solve", recording_solve)
    erule = tensor_rule(assembly.ERROR_QUAD_1D)
    for n in (3, 5, 8):
        m = assembly.build_mesh(n)
        rep = assembly.solve_method(method, m, omega, exact, eps=eps, r=r)
        if method == "dpg":
            kit = localforms.element_kit(localforms.NormalizedParams(omega * m.h, eps * m.h, r))
            b = oracles.pointwise_dpg_loads(m, kit, fields)
            approx = rep.fields.T[:, :, None]
        else:
            b = oracles.pointwise_fosls_loads(m, localforms.fosls_element(omega * m.h), fields)
            etab = refelem.tabulate_conforming_basis(erule)
            xe = rep.trace[m.dofs]
            approx = (xe @ etab.vx, xe @ etab.vy, xe @ etab.eta)
        assert np.linalg.norm(loads.pop() - b) <= 1e-13 * np.linalg.norm(b), f"n = {n}"
        np.testing.assert_allclose(
            [rep.e_r, rep.a], oracles.pointwise_errors(m, fields, erule, approx), rtol=1e-13
        )
        if name == "zero":
            assert rep.e_r == rep.a == 0.0


def _q1_values(coef, points):
    # a Q1 field from its coefficients [e, i, j] of L_i(x) L_j(y), with
    # L_0 = 1 and L_1 = sqrt(3)(2t - 1), at the element's local points
    lx = np.stack([np.ones(len(points)), np.sqrt(3.0) * (2 * points[:, 0] - 1)])
    ly = np.stack([np.ones(len(points)), np.sqrt(3.0) * (2 * points[:, 1] - 1)])
    return np.einsum("eij,ip,jp->ep", coef, lx, ly)


# u1 has two terms, u2 none, phi one
TWO_TERM = assembly.ExactSolution(
    "two-term", 1.0,
    u1=((lambda t: np.exp(2j * t), lambda t: np.cos(3 * t)),
        (lambda t: t**2 + 0j, lambda t: 1 - t)),
    u2=(),
    phi=((lambda t: np.sin(np.pi * t) + 0j, np.exp),),
    f1=(), f2=(), f3=(),
)
TWO_TERM_POINTWISE = {
    "u1": lambda x, y: np.exp(2j * x) * np.cos(3 * y) + x**2 * (1 - y),
    "u2": lambda x, y: np.zeros(np.shape(x), complex),
    "phi": lambda x, y: np.sin(np.pi * x) * np.exp(y) + 0j,
}


@pytest.mark.parametrize("n", [2, 3, 7])
def test_projection_split_errors_match_pointwise_route(n):
    # e_r and a of random Q1 approximants, not solver output, against every
    # field evaluated at every point of the error rule; the u2 approximant
    # is 0 in the second case
    m = assembly.build_mesh(n)
    rule = tensor_rule(assembly.ERROR_QUAD_1D)
    rng = np.random.default_rng(n)
    coef = rng.standard_normal((3, n * n, 2, 2)) + 1j * rng.standard_normal((3, n * n, 2, 2))
    for approx in (list(coef), [coef[0], 0, coef[2]]):
        near = [0 if np.isscalar(c) else _q1_values(c, rule.points) for c in approx]
        want = oracles.pointwise_errors(m, TWO_TERM_POINTWISE, rule, near)
        got = assembly._errors(m, [TWO_TERM], [c if np.isscalar(c) else c[None] for c in approx])
        np.testing.assert_allclose(np.ravel(got), want, rtol=1e-13)
    best = oracles.pointwise_errors(m, TWO_TERM_POINTWISE, rule, (0, 0, 0))[1]
    np.testing.assert_allclose(assembly.best_approx_error(m, TWO_TERM), best, rtol=1e-13)


def test_bilinear_field_with_its_own_q1_coefficients_has_no_error():
    # phi = (1 + x)(2 - y)(0.8 - 0.6i)/4, of modulus 1/4 to 1, is in Q1 on
    # every element: in local coordinates s, a + b*x = a + b*(k + 1/2)h +
    # b*h/(2 sqrt 3) L_1(s) on element column k; e_r is rounding alone
    n = 5
    m = assembly.build_mesh(n)
    mid = (np.arange(n) + 0.5) * m.h
    slope = m.h / (2 * np.sqrt(3.0))
    cx = np.column_stack([1 + mid, np.full(n, slope)])
    cy = (0.2 - 0.15j) * np.column_stack([2 - mid, np.full(n, -slope)])
    coef = np.einsum("xi,yj->yxij", cx, cy).reshape(n * n, 2, 2)
    bilinear = assembly.ExactSolution(
        "bilinear", 1.0, u1=(), u2=(),
        phi=((lambda t: 1 + t + 0j, lambda t: (2 - t) * (0.2 - 0.15j)),),
        f1=(), f2=(), f3=(),
    )
    (e_r,), (a,) = assembly._errors(m, [bilinear], (0, 0, coef[None]))
    assert e_r <= 1e-15
    assert a > 0.01 * m.h


def test_cancelling_terms_give_zero_errors_not_nan():
    # phi = s e^{ikx} cos(y)/s - e^{ikx} cos(y) is 0 written as two terms
    # of norm about 1: its squared remainders cancel to a rounding residue
    # of either sign, so the norms are 0 or about sqrt(1e-16), never NaN
    rng = np.random.default_rng(0)
    m = assembly.build_mesh(3)
    for s, k in rng.uniform((0.1, 0.1), (3.0, 5.0), (20, 2)):
        zero = assembly.ExactSolution(
            "cancelling", 1.0, u1=(), u2=(),
            phi=((lambda t: s * np.exp(1j * k * t), lambda t: np.cos(t) / s + 0j),
                 (lambda t: -np.exp(1j * k * t), lambda t: np.cos(t) + 0j)),
            f1=(), f2=(), f3=(),
        )
        (e_r,), (a,) = assembly._errors(m, [zero], (0, 0, 0))
        assert 0 <= e_r <= 1e-7 and 0 <= a <= 1e-7, (s, k, e_r, a)


def test_best_approx_error_forms_no_array_over_the_error_points():
    # n^2 q^2 complex values at n = 128 are 9.4 MB; the per-axis route
    # needs a few (n^2, 2, 2) coefficient arrays
    import tracemalloc

    m, ex = assembly.build_mesh(128), assembly.manufactured_solution(2.0)
    assembly.best_approx_error(m, ex)
    tracemalloc.start()
    try:
        assembly.best_approx_error(m, ex)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak


# ---------------------------------------------------------------------------
# best-approximation distance
# ---------------------------------------------------------------------------


def _const(value):
    return lambda t: np.full_like(t, value, dtype=complex)


def test_best_approx_constant_fields_zero():
    m = assembly.build_mesh(3)
    one = _const(1.0)
    const = assembly.ExactSolution(
        "const", 1.0,
        phi=((_const(2 - 1j), one),),
        u1=((_const(0.5), one),),
        u2=((one, _const(-3.0)),),
        f1=(), f2=(), f3=(),
    )
    assert assembly.best_approx_error(m, const) <= 1e-14


def test_best_approx_linear_closed_form():
    """For phi = x the per-element distance to constants is h^2/sqrt(12),
    so the total over n^2 elements is h/sqrt(12)."""
    one = _const(1.0)
    lin = assembly.ExactSolution(
        "linear", 1.0,
        phi=((lambda t: np.asarray(t, dtype=complex), one),),
        u1=(), u2=(),
        f1=((one, one),),
        f2=(),
        f3=((lambda t: 1j * np.asarray(t, dtype=complex), one),),
    )
    for n in (2, 5, 8):
        m = assembly.build_mesh(n)
        np.testing.assert_allclose(
            assembly.best_approx_error(m, lin), m.h / np.sqrt(12.0), rtol=1e-13
        )


def test_best_approx_independent_quadrature():
    """Recompute the manufactured-solution distance from scratch with a
    finer rule and element means computed by this test."""
    m = assembly.build_mesh(5)
    ex = assembly.manufactured_solution(2.5)
    rule = tensor_rule(10)
    total = 0.0
    for ey in range(m.n):
        for exx in range(m.n):
            xs = (exx + rule.points[:, 0]) * m.h
            ys = (ey + rule.points[:, 1]) * m.h
            for comp in (_at(ex.u1, xs, ys), _at(ex.u2, xs, ys), _at(ex.phi, xs, ys)):
                mean = comp @ rule.weights
                total += np.sum(rule.weights * np.abs(comp - mean) ** 2)
    oracle = np.sqrt(total * m.h**2)
    np.testing.assert_allclose(assembly.best_approx_error(m, ex), oracle, rtol=1e-12)


# ---------------------------------------------------------------------------
# global solves
# ---------------------------------------------------------------------------


def test_global_matrix_hermitian_positive_definite():
    """Every condensed element is Hermitian PD, so the assembled matrix is
    too, before any boundary condition."""
    m = assembly.build_mesh(3)
    kit = localforms.element_kit(localforms.NormalizedParams(2.0 * m.h, 1e-2 * m.h, 2))
    a = assemble_global(m, m.h**2 * kit.S).toarray()
    herm = np.max(np.abs(a - a.conj().T))
    assert herm <= 1e-10 * np.max(np.abs(a))
    eigs = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    assert eigs[0] > 0


TREE_NS = [2, 3, 5, 16, 96, 100]


@pytest.mark.parametrize("n", TREE_NS)
def test_box_tree_holds_every_dof_once(n):
    # the boxes' interfaces, the root's among them, eliminate every DOF but
    # the boundary vertices, and each one once
    m = assembly.build_mesh(n)
    groups = assembly._topology(n).groups
    ids = np.concatenate([g.inner.ravel() for g in groups] + [m.boundary_vertex_ids()])
    np.testing.assert_array_equal(np.sort(ids), np.arange(m.n_dofs))
    root = groups[-1]
    assert root.shape == (n, n) and root.outer.size == 0


def _coverage(boxes, n):
    # how many of the boxes (x0, y0, w, h) hold each element of the mesh
    count = np.zeros((n + 1, n + 1), dtype=int)
    x0, y0, w, h = boxes.T
    for dx, dy, sign in ((0, 0, 1), (1, 0, -1), (0, 1, -1), (1, 1, 1)):
        np.add.at(count, (x0 + dx * w, y0 + dy * h), sign)
    return count.cumsum(0).cumsum(1)[:n, :n]


def _origins(g, pos2, boxes):
    # the first elements of group g's boxes in the order of its columns:
    # each column's least doubled position, halved.  As a set they are the
    # boxes of g's shape among the oracle's ``boxes``, which may order them
    # otherwise
    origins = pos2[np.concatenate([g.inner, g.outer])].min(axis=0) // 2
    want = boxes[(boxes[:, 2] == g.shape[0]) & (boxes[:, 3] == g.shape[1]), :2]
    assert len(origins) == len(want)
    assert set(map(tuple, origins.tolist())) == set(map(tuple, want.tolist()))
    return origins


@pytest.mark.parametrize("n", TREE_NS)
def test_box_tree_interfaces_decouple(n):
    # each level's boxes and the leaves above it tile the mesh, and a box's
    # split line runs along its longer side (x on a tie) through its middle
    # vertex line, the lower one for an odd extent, so no element straddles it
    leaves = np.zeros((0, 4), dtype=int)
    levels = oracles.box_levels(n)
    for level in levels:
        assert np.all(_coverage(np.concatenate([level, leaves]), n) == 1)
        leaves = np.concatenate([leaves, level[np.maximum(level[:, 2], level[:, 3]) == 1]])
    pos2, boxes = assembly.lattice(n)[2], np.concatenate(levels)
    for g in assembly._topology(n).groups:
        axis = int(g.shape[1] > g.shape[0])
        across = g.shape[1 - axis]
        local = pos2[g.inner[: 2 * across - 1]] - 2 * _origins(g, pos2, boxes)
        assert np.all(local[..., axis] == 2 * (g.shape[axis] // 2))
        np.testing.assert_array_equal(local[:, 0, 1 - axis], np.arange(1, 2 * across))


@pytest.mark.parametrize("n", TREE_NS)
def test_box_tree_groups_are_congruent(n):
    # one group per shape: its boxes are the tree's boxes of that shape, and
    # their DOFs are translates of one another.  A box at depth d has been
    # split a times along x and d - a times along y, |2a - d| <= 1, and
    # floor/ceil halving keeps its extents in {floor, ceil} of n / 2^a and
    # n / 2^(d-a): at most 4 shapes per split count, so per even depth
    # (odd ones hold two split counts: 5 shapes at n = 5 and 6 at n = 100)
    levels = oracles.box_levels(n)
    for d, level in enumerate(levels):
        allowed = {
            (w, h)
            for a in {d // 2, (d + 1) // 2}
            for w in {n >> a, -(-n >> a)}
            for h in {n >> (d - a), -(-n >> (d - a))}
        }
        assert {tuple(shape) for shape in level[:, 2:].tolist()} <= allowed
        assert d % 2 == 1 or len(np.unique(level[:, 2:], axis=0)) <= 4
    boxes = np.concatenate(levels)
    split = boxes[np.maximum(boxes[:, 2], boxes[:, 3]) >= 2]
    groups = assembly._topology(n).groups
    assert len({g.shape for g in groups}) == len(groups)
    grouped = np.concatenate([np.tile(g.shape, (g.inner.shape[1], 1)) for g in groups])
    for got, want in zip(np.unique(grouped, axis=0, return_counts=True),
                         np.unique(split[:, 2:], axis=0, return_counts=True)):
        np.testing.assert_array_equal(got, want)
    pos2 = assembly.lattice(n)[2]
    for g in groups:
        for ids in (g.inner, g.outer):
            local = pos2[ids] - 2 * _origins(g, pos2, boxes)
            assert np.all(local == local[:, :1])
    # every group comes after the groups of its two child shapes
    place = {g.shape: k for k, g in enumerate(groups)}
    for k, g in enumerate(groups):
        assert all(place.get(c, -1) < k for c in g.children)


@pytest.mark.parametrize("method", ["dpg", "fosls"])
def test_trace_matches_dense_reduced_solve(method):
    # zero data inside, a plane wave on the boundary vertices: the free
    # traces solve A_ff x = -A_fc g, done here densely in the lattice order;
    # odd n and n = 12 split boxes unevenly
    for n in (6, 5, 7, 12):
        m = assembly.build_mesh(n)
        omega = 2.5
        g = assembly.dirichlet_values(m, assembly.plane_wave(omega, 0.3))
        zero = assembly.zero_solution(omega)
        if method == "dpg":
            kit = localforms.element_kit(localforms.NormalizedParams(omega * m.h, 0.1 * m.h, 3))
            element = m.h**2 * kit.S
            rep = assembly.solve_dpg(m, omega, 0.1, 3, zero, bc=g)
        else:
            element = localforms.fosls_element(omega * m.h).M
            rep = assembly.solve_fosls(m, omega, zero, bc=g)
        a = assemble_global(m, element).toarray()
        fixed = m.boundary_vertex_ids()
        free = np.setdiff1d(np.arange(m.n_dofs), fixed)
        x_f = np.linalg.solve(a[np.ix_(free, free)], -a[np.ix_(free, fixed)] @ g)
        err = np.linalg.norm(rep.trace[free] - x_f) / np.linalg.norm(x_f)
        assert err <= 1e-12, f"n = {n}: {err:.2e}"
        np.testing.assert_array_equal(rep.trace[fixed], g)
        assert 0 <= rep.refinement_steps <= assembly.REFINEMENT_STEPS


@pytest.mark.parametrize("method", ["dpg", "fosls"])
def test_nested_dissection_fill_below_default_splu(method):
    m = assembly.build_mesh(64)
    omega = 2.0
    exact = assembly.manufactured_solution(omega)
    if method == "dpg":
        kit = localforms.element_kit(localforms.NormalizedParams(omega * m.h, 1.0 * m.h, 3))
        element = m.h**2 * kit.S
    else:
        element = localforms.fosls_element(omega * m.h).M
    rep = assembly.solve_method(method, m, omega, exact, eps=1.0, r=3)
    free = np.setdiff1d(np.arange(m.n_dofs), m.boundary_vertex_ids())
    a_ff = assemble_global(m, element)[free][:, free].tocsc()
    assert rep.fill_nnz <= 0.6 * spla.splu(a_ff).nnz


def _skew_solves(monkeypatch, skew, first_only):
    """Scale the factor's solves by ``1 + skew``: the first one only when
    ``first_only``, every one otherwise."""
    solve = assembly._Factor.solve
    count = []

    def skewed(self, rhs):
        count.append(1)
        x = solve(self, rhs)
        return x * (1 + skew) if len(count) == 1 or not first_only else x

    monkeypatch.setattr(assembly._Factor, "solve", skewed)


def test_refinement_repairs_an_inexact_first_solve(monkeypatch):
    _skew_solves(monkeypatch, 1e-8, first_only=True)
    rep = assembly.solve_dpg(assembly.build_mesh(4), 2.0, 1e-2, 2,
                             assembly.manufactured_solution(2.0))
    assert rep.refinement_steps >= 1
    assert rep.residual_rel <= assembly.RESIDUAL_RTOL


def test_solve_failure_when_refinement_cannot_converge(monkeypatch):
    # every solve returns nothing: the residual stays that of x = 0
    _skew_solves(monkeypatch, -1.0, first_only=False)
    with pytest.raises(SolveFailure, match="exceeds contract"):
        assembly.solve_dpg(assembly.build_mesh(4), 2.0, 1e-2, 2,
                           assembly.manufactured_solution(2.0))


def test_refinement_runs_only_on_the_frequencies_that_need_it(monkeypatch):
    # a block of three frequencies whose second first solve is off by 1e-8:
    # only that frequency is refined
    m = assembly.build_mesh(4)
    M = localforms.fosls_element(2.0 * m.h).M
    b = np.zeros((3, m.n_dofs), dtype=complex)
    g = np.tile(assembly.dirichlet_values(m, assembly.plane_wave(2.0, 0.3)), (3, 1))
    solve, calls = assembly._Factor.solve, []

    def skewed(self, rhs):
        calls.append(1)
        return solve(self, rhs) * (1 + 1e-8 if len(calls) == 2 else 1)

    monkeypatch.setattr(assembly._Factor, "solve", skewed)
    _, rel, _, steps, failed = assembly._constrained_solve(m, np.stack([M, M, M]), b, g)
    assert failed == [None] * 3 and np.all(rel <= assembly.RESIDUAL_RTOL)
    assert steps[0] == steps[2] == 0 and steps[1] >= 1
    assert len(calls) == 3 + steps[1]


@pytest.mark.parametrize("method", ["dpg", "fosls"])
def test_trace_system_is_factored_in_real_arithmetic(method, monkeypatch):
    dtypes = []
    factor = assembly._factor

    def recording_factor(topo, e_r):
        out = factor(topo, e_r)
        dtypes.append(e_r.dtype)
        dtypes.extend({a.dtype for block in out.blocks for a in block})
        return out

    monkeypatch.setattr(assembly, "_factor", recording_factor)
    rep = assembly.solve_method(method, assembly.build_mesh(6), 2.0,
                                assembly.manufactured_solution(2.0), eps=1e-2, r=3)
    assert dtypes == [np.float64, np.float64]
    assert rep.trace.dtype == complex and rep.residual_rel <= assembly.RESIDUAL_RTOL


def _hermitian_vertex_skew(element, size):
    # a Hermitian part coupling two vertex traces, whose phases are both 1:
    # it stays complex under the trial phases
    skew = np.zeros((8, 8), dtype=complex)
    skew[0, 1], skew[1, 0] = 1j, -1j
    return element + size * np.max(np.abs(element)) * skew


def test_phase_check_passes_fosls_and_rejects_a_non_phase_part():
    m = assembly.build_mesh(4)
    omega = 2.0
    M = localforms.fosls_element(omega * m.h).M
    t = localforms.TRIAL_PHASES[3:]
    assert np.max(np.abs((t.conj()[:, None] * M * t).imag)) == 0.0
    b = np.zeros((2, m.n_dofs), dtype=complex)
    g = np.tile(assembly.dirichlet_values(m, assembly.plane_wave(omega, 0.3)), (2, 1))
    *_, failed = assembly._constrained_solve(m, np.stack([M, M]), b, g)
    assert failed == [None, None]
    # one skewed element in a block aborts the whole block
    with pytest.raises(PhaseMismatch, match="not real under the trial phases"):
        assembly._constrained_solve(m, np.stack([M, _hermitian_vertex_skew(M, 1e-6)]), b, g)


def test_indefinite_system_raises_solve_failure_naming_the_box(monkeypatch):
    # -M is negative definite: the first interface block, the shared
    # horizontal edge of a 1 x 2 box, has a negative pivot; in a block, the
    # frequency of M still solves
    m = assembly.build_mesh(4)
    M = localforms.fosls_element(2.0 * m.h).M
    b = np.zeros((2, m.n_dofs), dtype=complex)
    g = np.tile(assembly.dirichlet_values(m, assembly.plane_wave(2.0, 0.3)), (2, 1))
    _, rel, _, _, failed = assembly._constrained_solve(m, np.stack([M, -M]), b, g)
    assert failed[0] is None and rel[0] <= assembly.RESIDUAL_RTOL
    assert "not positive definite" in str(failed[1]) and "1 x 2 box's interface block" in str(failed[1])
    fosls = localforms.fosls_element
    monkeypatch.setattr(localforms, "fosls_element", lambda w: replace(fosls(w), M=-fosls(w).M))
    with pytest.raises(SolveFailure, match="not positive definite: .* 1 x 2 box's interface block"):
        assembly.solve_fosls(m, 2.0, assembly.zero_solution(2.0), bc=g[0])


def test_resonance_sweep_reports_an_indefinite_system_as_a_row_error(monkeypatch):
    kit = localforms.element_kit

    def negated_kit(params):
        k = kit(params)
        return replace(k, S=-k.S)

    monkeypatch.setattr(localforms, "element_kit", negated_kit)
    (row,) = assembly.resonance_sweep([3.5], (1e-2,), n=4, r=2)
    assert "not positive definite" in row.error
    assert np.isnan(row.ratio)


def test_resonance_sweep_does_not_swallow_a_phase_mismatch(monkeypatch):
    assert not issubclass(PhaseMismatch, (SolveFailure, OutsideEnvelope))
    kit = localforms.element_kit

    def skewed_kit(params):
        k = kit(params)
        return replace(k, S=_hermitian_vertex_skew(k.S, 1e-6))

    monkeypatch.setattr(localforms, "element_kit", skewed_kit)
    with pytest.raises(PhaseMismatch):
        assembly.resonance_sweep([3.5], (1e-2,), n=4, r=2)


def _refined_dense_solve(a, b):
    """Dense LU solve of ``a x = b`` refined on residuals in long double,
    which leaves the factor's rounding out of the solution."""
    lu = scipy.linalg.lu_factor(a)
    x = scipy.linalg.lu_solve(lu, b).astype(np.clongdouble)
    a_l, b_l = a.astype(np.clongdouble), b.astype(np.clongdouble)
    for _ in range(4):
        x = x + scipy.linalg.lu_solve(lu, (b_l - a_l @ x).astype(complex))
    return x.astype(complex)


def test_plane_wave_trace_matches_the_30_digit_element(monkeypatch):
    # a second route to the element: the same plane wave (its data f is
    # exactly zero) on the kit's 30-digit element, solved densely and
    # refined; the trace system has condition 2e9 here, so two double
    # factorizations of it differ by about 1e-9 in their rounding alone
    n, omega, eps, r, theta = 16, 2 * np.pi, 1e-6, 3, np.pi / 8
    params = localforms.NormalizedParams(omega / n, eps / n, r)
    rep = assembly.plane_wave_demo("dpg", theta, n=n, omega=omega, eps=eps, r=r).report
    assert not localforms.element_kit(params).precision_used.is_extended
    # a zero limit sends every element down the kit's 30-digit fallback
    monkeypatch.setattr(localforms, "DOUBLE_COND_LIMIT", 0.0)
    localforms.element_kit.cache_clear()
    try:
        kit = localforms.element_kit(params)
    finally:
        localforms.element_kit.cache_clear()
    assert kit.precision_used.is_extended
    m = assembly.build_mesh(n)
    a = assemble_global(m, m.h**2 * kit.S).toarray()
    fixed = m.boundary_vertex_ids()
    free = np.setdiff1d(np.arange(m.n_dofs), fixed)
    g = assembly.dirichlet_values(m, assembly.plane_wave(omega, theta))
    x_f = _refined_dense_solve(a[np.ix_(free, free)], -a[np.ix_(free, fixed)] @ g)
    err = np.linalg.norm(rep.trace[free] - x_f) / np.linalg.norm(x_f)
    assert err <= 1e-9


def test_zero_data_zero_solution():
    m = assembly.build_mesh(4)
    rep = assembly.solve_dpg(m, 2.0, 1e-2, 2, assembly.zero_solution(2.0))
    assert rep.e_r == 0.0
    assert np.max(np.abs(rep.trace)) == 0.0
    assert np.max(np.abs(rep.fields)) == 0.0


def test_manufactured_near_optimal():
    m = assembly.build_mesh(16)
    rep = assembly.solve_dpg(m, 2.0, 1e-2, 3, assembly.manufactured_solution(2.0))
    assert rep.residual_rel <= 1e-10
    assert rep.ratio >= 1.0 - 1e-9
    assert rep.ratio <= 1.5
    assert rep.e_r < 0.01


def test_ratio_lower_bound_random_eps():
    """The recovered piecewise-constant fields can never beat the
    L2-optimal constants."""
    m = assembly.build_mesh(8)
    for eps in (1.0, 1e-3):
        rep = assembly.solve_dpg(m, 3.0, eps, 2, assembly.manufactured_solution(3.0))
        assert rep.ratio >= 1.0 - 1e-9


def test_fosls_solve_contract():
    m = assembly.build_mesh(16)
    rep = assembly.solve_fosls(m, 2.0, assembly.manufactured_solution(2.0))
    assert rep.residual_rel <= 1e-10
    assert rep.e_r < 0.01
    assert rep.method == "fosls"


def test_plane_wave_boundary_trace_imposed():
    """Boundary vertices carry the exact data, and the vertex grid is
    indexed [i, j] with i along x."""
    m = assembly.build_mesh(4)
    ex = assembly.plane_wave(2.0, np.pi / 8)
    rep = assembly.solve_dpg(m, 2.0, 1e-2, 2, ex)
    grid = rep.vertex_grid(m)
    h = m.h
    for i in range(5):
        np.testing.assert_allclose(grid[i, 0], complex(_at(ex.phi, i * h, 0.0)), rtol=1e-12)
        np.testing.assert_allclose(grid[0, i], complex(_at(ex.phi, 0.0, i * h)), rtol=1e-12)
        np.testing.assert_allclose(grid[i, 4], complex(_at(ex.phi, i * h, 1.0)), rtol=1e-12)


def test_bc_inconsistent():
    m = assembly.build_mesh(4)
    ex = assembly.manufactured_solution(2.0)
    with pytest.raises(BCInconsistent):
        assembly.solve_dpg(m, 2.0, 1e-2, 2, ex, bc=np.zeros(3, dtype=complex))
    bad = np.zeros(len(m.boundary_vertex_ids()), dtype=complex)
    bad[0] = np.nan
    with pytest.raises(BCInconsistent):
        assembly.solve_dpg(m, 2.0, 1e-2, 2, ex, bc=bad)


def test_solve_method_dispatch():
    m = assembly.build_mesh(4)
    ex = assembly.manufactured_solution(2.0)
    rep = assembly.solve_method("dpg", m, 2.0, ex, eps=1e-2, r=2)
    assert rep.method == "dpg"
    with pytest.raises(ValueError):
        assembly.solve_method("dpg", m, 2.0, ex)
    with pytest.raises(ValueError):
        assembly.solve_method("spectral", m, 2.0, ex)


# ---------------------------------------------------------------------------
# convergence and drivers
# ---------------------------------------------------------------------------


def test_h_convergence_rates():
    hc = assembly.h_convergence("dpg", ns=(8, 16, 32))
    assert abs(hc.rate - 1.0) <= 0.2
    hcf = assembly.h_convergence("fosls", ns=(8, 16, 32))
    assert abs(hcf.rate - 1.0) <= 0.3


def test_resonance_grid_skips_resonance():
    grid = assembly.default_resonance_grid()
    assert grid[0] == 3.0 and grid[-1] == 6.0
    assert np.min(np.abs(grid - assembly.RESONANCE_OMEGA)) >= 1e-3
    fine = assembly.default_resonance_grid(step=np.pi * np.sqrt(2.0) / 4443)
    assert np.min(np.abs(fine - assembly.RESONANCE_OMEGA)) >= 1e-3


def test_resonance_sweep_rows():
    rows = assembly.resonance_sweep(omegas=[4.4], eps_values=(1.0, 1e-4), n=16, r=3)
    assert len(rows) == 2
    assert all(row.error is None for row in rows)
    assert all(np.isfinite(row.ratio) for row in rows)
    by_eps = {row.eps: row.ratio for row in rows}
    # the classical test norm degrades near the resonance, the scaled one
    # much less
    assert by_eps[1.0] > 3.0
    assert by_eps[1e-4] < 2.0


def test_resonance_sweep_reports_envelope_rows():
    # eps = 0 at r = 4 and n = 32 lies outside the supported envelope; those
    # rows carry the message and the eps = 1 rows still solve
    rows = assembly.resonance_sweep(omegas=[3.0, 3.05], eps_values=(1.0, 0.0), n=32, r=4)
    assert len(rows) == 4
    assert all(row.error is None and np.isfinite(row.ratio) for row in rows[:2])
    for row in rows[2:]:
        assert row.eps == 0.0
        assert "Gram condition estimate" in row.error
        assert np.isnan(row.ratio)


@pytest.mark.parametrize("eps", [1.0, 1e-1, 1e-4])
def test_resonance_sweep_rows_match_one_at_a_time_solves(eps):
    # 11 frequencies across the resonance in blocks of 8: the last block is
    # partial; each row against solve_dpg on its own
    n, r = 16, 3
    omegas = 3.9 + 0.1 * np.arange(11)
    assert len(omegas) % assembly._block_size(n) != 0
    rows = assembly.resonance_sweep(omegas, (eps,), n=n, r=r)
    assert [row.omega for row in rows] == list(omegas)
    for row in rows:
        rep = assembly.solve_dpg(assembly.build_mesh(n), row.omega, eps, r,
                                 assembly.manufactured_solution(row.omega))
        assert row.error is None and row.eps == eps
        np.testing.assert_allclose([row.e_r, row.a, row.ratio], [rep.e_r, rep.a, rep.ratio],
                                   rtol=1e-12, atol=0)


def test_a_failing_row_leaves_the_rest_of_its_block_unchanged(monkeypatch):
    # blocks of 3 frequencies at n = 4, eps = 0: omega_n = 0.0125 lies outside
    # the envelope, and the factor of the fourth solve, omega = 3.2's, breaks
    # down; the other rows equal those of a sweep without both, bit for bit,
    # though they sit at other places in other blocks there
    n, r, eps = 4, 3, 0.0
    monkeypatch.setattr(assembly, "BLOCK_BYTES", 3 * assembly.BLOCK_BYTES_PER_ELEMENT * n * n)
    assert assembly._block_size(n) == 3
    omegas = [2.6, 2.8, 3.0, 0.05, 3.2, 3.4, 3.6]
    want = {row.omega: row for row in
            assembly.resonance_sweep([om for om in omegas if om not in (0.05, 3.2)], (eps,), n=n, r=r)}
    factor, calls = assembly._factor, []

    def failing_factor(topo, e_r):
        calls.append(1)
        if len(calls) == 4:
            raise SolveFailure("forced breakdown")
        return factor(topo, e_r)

    monkeypatch.setattr(assembly, "_factor", failing_factor)
    rows = assembly.resonance_sweep(omegas, (eps,), n=n, r=r)
    assert [row.omega for row in rows] == omegas and len(calls) == 6
    for row in rows:
        if row.omega == 0.05:
            assert "Gram condition estimate" in row.error and np.isnan(row.ratio)
        elif row.omega == 3.2:
            assert row.error == "forced breakdown" and np.isnan(row.e_r)
        else:
            assert row == want[row.omega]


def test_resonance_sweep_stacks_blocks_within_its_memory_budget():
    # one eps of the default 61-frequency grid at n = 16, after a warm-up
    # that caches its kits: blocks of 8 peak at 2.7 MB of Python-visible
    # allocations, one-at-a-time solves at 0.6 MB and one 61-frequency block
    # at 17.9 MB; the bound leaves a 1.3 MB margin over blocks of 8
    import tracemalloc

    assert assembly._block_size(16) == 8 and assembly._block_size(46) == 1
    grid = assembly.default_resonance_grid()
    assembly.resonance_sweep(grid, (1.0,))
    tracemalloc.start()
    try:
        assembly.resonance_sweep(grid, (1.0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_amplitude_metric_synthetic():
    flat = np.ones((17, 17))
    assert assembly.amplitude_metric(flat, np.pi / 8) == 1.0
    decay = np.outer(np.linspace(1, 0.2, 17), np.ones(17))
    # propagation along +x: far blocks live at large i where the envelope
    # is smallest
    got = assembly.amplitude_metric(decay, 0.0)
    assert got < 0.45
    with pytest.raises(ValueError):
        assembly.amplitude_metric(np.ones((2, 2)), 0.0)


@pytest.mark.parametrize("theta", [0.0, np.pi / 8, np.pi / 4, 1.2])
@pytest.mark.parametrize("m", [5, 49, 50])
def test_amplitude_metric_matches_window_loop(m, theta):
    rng = np.random.default_rng(m)
    grid = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    assert assembly.amplitude_metric(grid, theta) == oracles.amplitude_metric_loop(grid, theta)


def test_plane_wave_demo_small():
    rep = assembly.plane_wave_demo(
        method="dpg", theta=np.pi / 8, n=16, omega=2 * np.pi, eps=1e-6, r=3
    )
    assert rep.metric > 0.95
    assert rep.phi_grid.shape == (17, 17)
    repf = assembly.plane_wave_demo(
        method="fosls", theta=np.pi / 8, n=16, omega=2 * np.pi
    )
    assert repf.metric < rep.metric


# Times one dpg n = 64 solve (element, load scatter, the per-shape Cholesky
# factors and their solves, recovery, error quadrature) after a warm-up and
# prints its CPU and wall seconds.
_ONE_CORE_PROBE = """
import resource, time
from helmdpg import assembly
def solve():
    assembly.solve_method("dpg", assembly.build_mesh(64), 2.0,
                          assembly.manufactured_solution(2.0), eps=1e-2, r=3)
solve()
def cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime
c0, t0 = cpu(), time.perf_counter()
solve()
print(cpu() - c0, time.perf_counter() - t0)
"""


def test_mesh_solve_uses_one_core():
    # a process whose BLAS pools run one thread each cannot burn more CPU
    # than wall time; idle OpenBLAS workers spinning on a second core can
    src = Path(assembly.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_CORE_PROBE], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=300, check=True,
    )
    cpu_s, wall_s = map(float, proc.stdout.split())
    assert cpu_s <= 1.2 * wall_s + 0.05, f"cpu {cpu_s:.2f} s against wall {wall_s:.2f} s"
