import numpy as np
import pytest

from helmdpg import assembly, localforms, stencil
from helmdpg.errors import CenterRowDegenerate, MissingValue
from helmdpg.numkit import EXTENDED, working_context
from helmdpg.stencil import HEDGE, VEDGE, VERTEX

import oracles

DPG_KW = dict(eps_n=0.5, r=2)


def fem_vertex_oracle(omega_n):
    # Hand assembly of the four bilinear elements around one vertex using the
    # frozen closed forms: stiffness 2/3 self, -1/6 edge pair, -1/3 diagonal
    # pair; mass 1/9, 1/18, 1/36.
    self_w = 4 * (2.0 / 3.0 - omega_n**2 / 9.0)
    edge_w = 2 * (-1.0 / 6.0 - omega_n**2 / 18.0)
    diag_w = -1.0 / 3.0 - omega_n**2 / 36.0
    out = {(0, 0): self_w}
    for off in ((2, 0), (-2, 0), (0, 2), (0, -2)):
        out[off] = edge_w
    for off in ((2, 2), (2, -2), (-2, 2), (-2, -2)):
        out[off] = diag_w
    return out


def test_fem_matches_hand_assembly():
    omega_n = 1.5
    s = stencil.extract_stencils("fem", omega_n, normalize=False)
    assert s.types == (VERTEX,)
    expect = fem_vertex_oracle(omega_n)
    got = s.weights[(VERTEX, VERTEX)]
    assert set(got) == set(expect)
    for off, val in expect.items():
        assert got[off] == pytest.approx(val, abs=1e-13)


def test_fem_degenerate_center():
    with pytest.raises(CenterRowDegenerate):
        stencil.extract_stencils("fem", np.sqrt(6.0))


@pytest.mark.parametrize(
    "method,kw", [("dpg", DPG_KW), ("fosls", {}), ("fem", {})]
)
def test_support_counts(method, kw):
    s = stencil.extract_stencils(method, 0.8, **kw)
    if method == "fem":
        assert s.support_size(VERTEX) == 9
        return
    assert s.support_size(VERTEX) == 21
    assert s.support_size(HEDGE) == 13
    assert s.support_size(VEDGE) == 13
    assert len(s.weights[(VERTEX, VERTEX)]) == 9
    assert len(s.weights[(VERTEX, HEDGE)]) == 6
    assert len(s.weights[(VERTEX, VEDGE)]) == 6
    assert len(s.weights[(HEDGE, HEDGE)]) == 3
    assert len(s.weights[(HEDGE, VERTEX)]) == 6
    assert len(s.weights[(HEDGE, VEDGE)]) == 4


def test_support_offsets_geometry():
    s = stencil.extract_stencils("fosls", 1.1)
    assert set(s.weights[(VERTEX, VERTEX)]) == {
        (2 * i, 2 * j) for i in (-1, 0, 1) for j in (-1, 0, 1)
    }
    assert set(s.weights[(HEDGE, HEDGE)]) == {(0, -2), (0, 0), (0, 2)}
    assert set(s.weights[(VEDGE, VEDGE)]) == {(-2, 0), (0, 0), (2, 0)}
    assert set(s.weights[(HEDGE, VEDGE)]) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_lattice_numbering():
    # vertices, then horizontal-edge midpoints, then vertical-edge
    # midpoints, each row by row; every id belongs to some element
    n = 3
    ndof, dofs, pos2 = assembly.lattice(n)
    want = (
        [(2 * i, 2 * j) for j in range(n + 1) for i in range(n + 1)]
        + [(2 * i + 1, 2 * j) for j in range(n + 1) for i in range(n)]
        + [(2 * i, 2 * j + 1) for j in range(n) for i in range(n + 1)]
    )
    assert [tuple(p) for p in pos2.tolist()] == want
    assert np.array_equal(np.unique(dofs), np.arange(ndof))
    # element (1, 2): vertices CCW, bottom/top edges, left/right edges
    corner = np.array([2, 4])
    assert np.array_equal(pos2[dofs[2 * n + 1]], corner + stencil.TRACE_POS2)


def test_no_coupling_outside_patch_support():
    # Entries of the assembled patch outside the structural support must
    # vanish identically for every center row.
    element = localforms.element_kit(
        localforms.NormalizedParams(0.8, 0.5, 2)
    ).S
    a, touched, _, _, centers = oracles.assemble_patch(element)
    for c in centers.values():
        outside = a[c][~touched[c]]
        assert np.all(outside == 0)


def test_translation_invariance_larger_patch():
    element = localforms.fosls_element(0.9).M
    s = stencil.extract_stencils("fosls", 0.9, normalize=False)
    a, touched, dof_type, pos2, centers = oracles.assemble_patch(element, n=5)
    for t, c in centers.items():
        for q in np.flatnonzero(touched[c]):
            off = (int(pos2[q, 0] - pos2[c, 0]), int(pos2[q, 1] - pos2[c, 1]))
            want = s.weights[(t, int(dof_type[q]))][off]
            assert a[c, q] == pytest.approx(want, rel=1e-13, abs=1e-15)


def _bits(rows):
    # every weight in dict order, to the bit: repr of the real and imaginary
    # parts of a double, the mantissa-exponent tuples of an mpmath value
    return [
        (key, off, getattr(v, "_mpc_", None) or (repr(v.real), repr(v.imag)))
        for key, row in rows.items()
        for off, v in row.items()
    ]


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize(
    "method,omega_n,kw",
    [("fem", 0.5, {}), ("fosls", 0.9, {}), ("dpg", 0.8, DPG_KW),
     ("dpg", 2 * np.pi / 64, dict(eps_n=0.0, r=3))],
)
def test_slot_rows_match_patch_rows(method, omega_n, kw, normalize):
    # the rows summed from the element's slots are the center rows of an
    # assembled 3 x 3 and 5 x 5 patch, bit for bit and in the same order, on
    # the double element and on the 30-digit one where the element has it
    s = stencil.extract_stencils(method, omega_n, normalize=normalize, **kw)
    element, element_exact = stencil._element_matrix(method, omega_n, kw.get("eps_n"), kw.get("r"))
    assert (element_exact is not None) == (kw.get("eps_n") == 0.0)
    for n in (3, 5):
        assert _bits(s.weights) == _bits(oracles.patch_center_rows(element, n, normalize))
        if element_exact is not None:
            with working_context(EXTENDED):
                want = oracles.patch_center_rows(element_exact, n, normalize)
            assert _bits(s.exact) == _bits(want)
    # a vanishing self weight is a degenerate center row in either arithmetic
    for e in filter(lambda e: e is not None, (element, element_exact)):
        e = e.copy()
        e[range(4), range(4)] = 0
        with working_context(EXTENDED), pytest.raises(CenterRowDegenerate, match="vertex"):
            stencil._center_rows(e, True, method, omega_n)


@pytest.mark.parametrize("method,kw", [("dpg", DPG_KW), ("fosls", {})])
def test_xy_reflection_symmetry(method, kw):
    # Swapping x and y exchanges the two edge-midpoint lattices and
    # transposes offsets; the square element makes this an exact symmetry.
    swap = {VERTEX: VERTEX, HEDGE: VEDGE, VEDGE: HEDGE}
    s = stencil.extract_stencils(method, 0.9, **kw)
    for (t, u), row in s.weights.items():
        mirror = s.weights[(swap[t], swap[u])]
        for (lx, ly), val in row.items():
            assert mirror[(ly, lx)] == pytest.approx(val, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize(
    "method,args", [("fem", ()), ("fosls", ()), ("dpg", (1e-6, 3)), ("dpg", (0.0, 3))]
)
def test_xy_symmetric_predicate(method, args):
    # raw rows, the extended copy of the eps_n = 0 element included
    s = stencil.extract_stencils(method, np.pi / 4, *args, normalize=False)
    assert stencil.xy_asymmetry(s) <= 1e-12
    assert stencil.xy_symmetric(s)


def test_xy_symmetric_predicate_rejects():
    stiffer_x = {
        (VERTEX, VERTEX): {(0, 0): 3.0, (2, 0): -1.0, (-2, 0): -1.0, (0, 2): -0.5, (0, -2): -0.5}
    }
    s = stencil.StencilSet("custom", 1.0, None, None, (VERTEX,), stiffer_x)
    assert stencil.xy_asymmetry(s) == pytest.approx(0.5 / 3.0)
    assert not stencil.xy_symmetric(s)
    x_only = {(VERTEX, VERTEX): {(0, 0): 3.0, (2, 0): -1.0, (-2, 0): -1.0}}
    s = stencil.StencilSet("custom", 1.0, None, None, (VERTEX,), x_only)
    assert stencil.xy_asymmetry(s) == np.inf
    assert not stencil.xy_symmetric(s)


def test_raw_weights_hermitian_pairing():
    # The assembled interface matrix is Hermitian, so the raw weight from s
    # into t at offset l is the conjugate of the weight from t into s at -l.
    s = stencil.extract_stencils("dpg", 0.7, 0.3, 2, normalize=False)
    for (t, u), row in s.weights.items():
        back = s.weights[(u, t)]
        for (lx, ly), val in row.items():
            assert back[(-lx, -ly)] == pytest.approx(np.conj(val), rel=1e-12, abs=1e-14)


def test_normalization_scales_rows():
    raw = stencil.extract_stencils("dpg", 0.8, **DPG_KW, normalize=False)
    nrm = stencil.extract_stencils("dpg", 0.8, **DPG_KW)
    for t in nrm.types:
        assert nrm.weight(t, t, (0, 0)) == pytest.approx(1.0)
        self_w = raw.weight(t, t, (0, 0))
        for s in nrm.types:
            if (t, s) not in nrm.weights:
                continue
            for off, val in nrm.weights[(t, s)].items():
                assert val * self_w == pytest.approx(raw.weights[(t, s)][off], rel=1e-12)


def test_apply_stencil_delta_and_sum():
    s = stencil.extract_stencils("fosls", 1.0)

    def delta(kind, dx, dy):
        return 1.0 if (kind == VERTEX and dx == 0 and dy == 0) else 0.0

    assert stencil.apply_stencil(s, VERTEX, delta) == pytest.approx(1.0)
    total = stencil.apply_stencil(s, HEDGE, lambda kind, dx, dy: 1.0)
    want = sum(sum(d.values()) for (t, _), d in s.weights.items() if t == HEDGE)
    assert total == pytest.approx(want)


def test_missing_weight_raises():
    s = stencil.extract_stencils("fem", 1.0)
    with pytest.raises(MissingValue):
        s.weight(VERTEX, VERTEX, (17, 0))
    with pytest.raises(MissingValue):
        s.weight(VERTEX, HEDGE, (0, 0))


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        stencil.extract_stencils("spectral", 1.0)
    with pytest.raises(ValueError):
        stencil.extract_stencils("dpg", 1.0)
