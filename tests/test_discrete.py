"""Grid, finite-difference assembly, and exact-certificate tests.

Closed-form oracles: the one-field weak form on a flat two-torus is the
classical three-point stencil whose generalized eigenvalues are
(2/h)^2 sin^2(pi k / n), and central differences applied to samples of
sin(2 pi x) act diagonally with factor (2 cos(2 pi h) - 2)/h^2.  Both
are derived by direct computation and frozen below.
"""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import srlab.discrete as discrete
import srlab.expr as ex
from srlab.cli import build_structure, load_config
from srlab.complement import MetricExtension, canonical_complement
from srlab.discrete import (
    DiagonalMass,
    FieldFactor,
    Grid,
    GridError,
    PeriodicityError,
    SparseOperator,
    _weak_stencil,
    assemble_field,
    assemble_strong,
    assemble_weak_laplacian,
    check_periodicity,
    exact_constant_image,
    exact_green_defect,
    exact_symmetry_defect,
    node_mass,
    read_matrix_market,
    volume_density_values,
    write_matrix_market,
)
from srlab.geometry import SubRiemannianStructure, VectorField
from srlab.operators import (
    penalty_laplacian,
    riemannian_laplacian,
    sublaplacian,
    weighted_laplacian,
)
from srlab.spectrum import fourier_smallest, solve_weak_form

from conftest import (
    D1,
    DENSITY_CONFIGS,
    GRID_NAMES,
    STENCIL_CASES,
    _invariant_axes,
    cached_structure,
    density_form,
    oracle_constant,
    oracle_green,
    oracle_node_axes,
    oracle_node_values,
    oracle_symmetry,
    oracle_tables,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Grid basics


def test_grid_rejects_odd_sizes():
    with pytest.raises(GridError):
        Grid(shape=(7, 8), periods=(1.0, 1.0))


def test_grid_rejects_small_sizes():
    with pytest.raises(GridError):
        Grid(shape=(2, 8), periods=(1.0, 1.0))


def test_grid_rejects_length_mismatch():
    with pytest.raises(GridError):
        Grid(shape=(8, 8), periods=(1.0,))


def test_grid_rejects_nonpositive_periods():
    with pytest.raises(GridError):
        Grid(shape=(8, 8), periods=(1.0, 0.0))


def test_grid_geometry_properties():
    g = Grid(shape=(8, 4), periods=(2.0, 1.0))
    assert g.dim == 2
    assert g.size == 32
    assert g.h == (0.25, 0.25)
    assert g.cell_volume() == 0.0625
    pts = g.points()
    assert pts.shape == (32, 2)
    assert np.array_equal(pts[0], [0.0, 0.0])
    # row-major: the second node advances the last axis
    assert np.array_equal(pts[1], [0.0, 0.25])


def test_grid_size_is_exact_past_int64():
    # 2^21 nodes per axis give 2^63 nodes, one past the int64 range
    assert Grid(shape=(2**21,) * 3, periods=(1.0,) * 3).size == 2**63


def test_weak_budget_is_checked_before_any_node_array(contact, monkeypatch):
    def unreachable(*_):
        raise AssertionError("node array built before the budget check")

    monkeypatch.setattr(Grid, "points", unreachable)
    monkeypatch.setattr(Grid, "multi_indices", unreachable)
    grid = Grid(shape=(10**11,) * 3, periods=contact.periods)
    with pytest.raises(GridError, match="budget"):
        assemble_weak_laplacian(contact, grid)


def test_grid_ravel_wraps_indices():
    g = Grid(shape=(4, 6), periods=(1.0, 1.0))
    multi = np.array([[4, 0], [-1, 7]])
    # wraps to (0, 0) and (3, 1)
    assert np.array_equal(g.ravel(multi), [0, 3 * 6 + 1])


# ---------------------------------------------------------------------------
# node values and periodicity screening


def test_check_periodicity_matches_numpy():
    g = Grid(shape=(8, 4), periods=(1.0, 1.0))
    e = ex.parse("sin(6.283185307179586*x0)", dim=2)
    vals = check_periodicity(e, g)
    pts = g.points()
    assert np.allclose(vals, np.sin(TWO_PI * pts[:, 0]), atol=1e-14)


def test_constant_expression_broadcasts():
    g = Grid(shape=(4, 4), periods=(1.0, 1.0))
    vals = check_periodicity(ex.parse("3/2", dim=2), g)
    assert vals.shape == (16,)
    assert np.all(vals == 1.5)


def test_check_periodicity_evaluates_nodes_once(monkeypatch):
    # one evaluation at the nodes, then one per axis the coefficient reads
    calls = []
    evaluate = ex.evaluate

    def counted(e, pts):
        calls.append(len(pts))
        return evaluate(e, pts)

    monkeypatch.setattr(ex, "evaluate", counted)
    g = Grid(shape=(4, 4, 4), periods=(1.0, 1.0, TWO_PI))
    e = ex.parse("cos(6.283185307179586*x0) + sin(x2)", dim=3)
    vals = check_periodicity(e, g)
    assert calls == [g.size] * 3
    assert vals.tobytes() == evaluate(e, g.points()).tobytes()


def test_assemblies_build_the_node_points_once(monkeypatch, contact):
    # the field and strong assemblers screen every coefficient on one
    # (N, m) node array; the weak assembler builds none, and evaluates the
    # coefficients, det F and the density at its 16 slab nodes only (x1
    # is read by neither the frame nor the density)
    calls, evaluated = [], []
    points, evaluate = Grid.points, ex.evaluate
    frame_matrix = SubRiemannianStructure.frame_matrix

    def counted(grid):
        calls.append(grid.size)
        return points(grid)

    def counted_evaluate(e, pts):
        evaluated.append(len(pts))
        return evaluate(e, pts)

    def counted_frame(s, pts):
        evaluated.append(len(pts))
        return frame_matrix(s, pts)

    monkeypatch.setattr(Grid, "points", counted)
    monkeypatch.setattr(ex, "evaluate", counted_evaluate)
    monkeypatch.setattr(SubRiemannianStructure, "frame_matrix", counted_frame)
    g = Grid(shape=(4, 4, 4), periods=contact.periods)
    density = ex.parse(D1, dim=3)
    assemble_weak_laplacian(contact, g, eps=2.0, density=density)
    assert calls == [] and evaluated and set(evaluated) == {16}
    assemble_field(contact.horizontal[0], g)
    assemble_strong(sublaplacian(contact), g)
    assert calls == [g.size] * 2


def test_check_periodicity_accepts_periodic_coefficient():
    g = Grid(shape=(8, 8), periods=(1.0, 1.0))
    check_periodicity(ex.parse("cos(6.283185307179586*x1)", dim=2), g)


def test_check_periodicity_names_offending_axis():
    g = Grid(shape=(4, 4, 4), periods=(1.0, 1.0, 1.0))
    with pytest.raises(PeriodicityError, match="axis 1"):
        check_periodicity(ex.parse("-x1/2", dim=3), g)


def test_heisenberg_coefficients_fail_periodicity(heisenberg):
    g = Grid(shape=(4, 4, 4), periods=heisenberg.periods)
    bad = heisenberg.horizontal[0].coefficients[2]  # -x1/2
    with pytest.raises(PeriodicityError):
        check_periodicity(bad, g)


# ---------------------------------------------------------------------------
# first-order assembly


def test_field_matrix_annihilates_constants_exactly():
    g = Grid(shape=(8, 8), periods=(TWO_PI, TWO_PI))
    X = VectorField((ex.parse("cos(x1)", dim=2), ex.parse("sin(x0)", dim=2)))
    op = assemble_field(X, g)
    assert exact_constant_image(op) == 0.0
    # float matvec only cancels up to summation-order round-off
    assert np.max(np.abs(op.matvec(np.ones(g.size)))) < 1e-14


def test_field_matrix_central_difference_error_bound():
    # |D_h f - f'| <= h^2 max|f'''| / 6 for f = sin(2 pi x): bound 0.6460
    g = Grid(shape=(8, 8), periods=(1.0, 1.0))
    X = VectorField((ex.Const(1), ex.Const(0)))
    op = assemble_field(X, g)
    pts = g.points()
    f = np.sin(TWO_PI * pts[:, 0])
    err = np.max(np.abs(op.matvec(f) - TWO_PI * np.cos(TWO_PI * pts[:, 0])))
    bound = TWO_PI**3 * (1.0 / 8.0) ** 2 / 6.0
    assert err <= bound
    # frozen measurement guards against silent stencil changes
    assert abs(err - 0.6263310576872065) < 1e-12


def test_zero_field_matrix_is_empty():
    # one zero offset with no stored entry, and zero exact parts there
    g = Grid(shape=(4, 4), periods=(1.0, 1.0))
    op = assemble_field(VectorField([ex.ZERO, ex.ZERO]), g)
    N = g.size
    assert op.shape == (N, N)
    assert op.nnz == 0
    v = np.arange(N, dtype=float)
    assert op.matvec(v).tobytes() == np.zeros(N).tobytes()
    assert op.matrix.shape == (N, N) and op.matrix.nnz == 0
    assert exact_constant_image(op) == exact_symmetry_defect(op) == 0.0


def test_field_matrix_rejects_dimension_mismatch():
    g = Grid(shape=(8, 8), periods=(1.0, 1.0))
    X = VectorField((ex.Const(1), ex.Const(0), ex.Const(0)))
    with pytest.raises(GridError):
        assemble_field(X, g)


# ---------------------------------------------------------------------------
# weak assembly: flat-torus closed forms


def flat_line_structure():
    return SubRiemannianStructure(
        dim=2,
        periods=(1.0, 1.0),
        horizontal=(VectorField((ex.Const(1), ex.Const(0))),),
        complement=(VectorField((ex.Const(0), ex.Const(1))),),
    )


def test_weak_horizontal_is_three_point_stencil():
    s = flat_line_structure()
    n = 8
    g = Grid(shape=(n, n), periods=(1.0, 1.0))
    wf = assemble_weak_laplacian(s, g)
    A = wf.operator.matrix.toarray()
    multi = g.multi_indices()
    up = g.ravel(multi + [1, 0])
    dn = g.ravel(multi - [1, 0])
    B = np.zeros((g.size, g.size))
    idx = np.arange(g.size)
    B[idx, idx] = 2.0
    B[idx, up] = -1.0
    B[idx, dn] = -1.0
    assert np.array_equal(A, B)
    assert np.all(wf.mass.diagonal == g.cell_volume())


def test_weak_horizontal_eigenvalues_closed_form():
    s = flat_line_structure()
    n = 8
    h = 1.0 / n
    g = Grid(shape=(n, n), periods=(1.0, 1.0))
    wf = assemble_weak_laplacian(s, g)
    A = wf.operator.matrix.toarray()
    lam = np.sort(np.linalg.eigvalsh(A) / wf.mass.diagonal[0])
    pred = np.sort(
        np.array(
            [
                (2.0 / h) ** 2 * math.sin(math.pi * k / n) ** 2
                for k in range(n)
                for _ in range(n)
            ]
        )
    )
    assert np.allclose(lam, pred, atol=1e-9)


def test_weak_penalty_adds_scaled_transverse_stencil():
    s = flat_line_structure()
    g = Grid(shape=(8, 8), periods=(1.0, 1.0))
    wf = assemble_weak_laplacian(s, g, eps=2)
    A = wf.operator.matrix.toarray()
    p = int(g.ravel(np.array([[3, 4]]))[0])
    multi = g.multi_indices()
    row = {}
    for c in np.nonzero(A[p])[0]:
        off = tuple((multi[c] - multi[p]) % np.array(g.shape))
        row[off] = A[p, c]
    assert row == {
        (0, 0): 2.5,  # 2 + 2 / eps^2
        (1, 0): -1.0,
        (7, 0): -1.0,
        (0, 1): -0.25,  # -1 / eps^2
        (0, 7): -0.25,
    }


def test_weak_rejects_bad_eps_and_dimension(contact):
    s = flat_line_structure()
    g = Grid(shape=(8, 8), periods=(1.0, 1.0))
    with pytest.raises(GridError):
        assemble_weak_laplacian(s, g, eps=0)
    with pytest.raises(GridError):
        assemble_weak_laplacian(contact, g)


def test_weak_rejects_nonperiodic_structure(heisenberg):
    g = Grid(shape=(4, 4, 4), periods=heisenberg.periods)
    with pytest.raises(PeriodicityError):
        assemble_weak_laplacian(heisenberg, g)


def test_pair_budget_guard(monkeypatch):
    import srlab.discrete as disc

    # one entry short of the 16 nodes of 2 entries and the one slab row
    # (the frame reads no axis) of 1 * 2 + 1 + 9 + 4 * 1 * 6 entries (one
    # field in 2-D, 9 offsets of at most 6 terms), so the grid is refused
    # before any node array is built
    monkeypatch.setattr(disc, "_PAIR_BUDGET", 16 * 2 + 1 * 36 - 1)
    s = flat_line_structure()
    g = Grid(shape=(4, 4), periods=(1.0, 1.0))
    with pytest.raises(GridError, match="budget"):
        assemble_weak_laplacian(s, g)


# ---------------------------------------------------------------------------
# exact certificates on a curved frame


def contact_weak(contact, n=6, eps=None):
    g = Grid(shape=(n, n, n), periods=contact.periods)
    return g, assemble_weak_laplacian(contact, g, eps=eps)


def test_exact_symmetry_certificate(contact):
    _, wf = contact_weak(contact)
    assert exact_symmetry_defect(wf.operator) == 0.0
    M = wf.operator.matrix
    assert (M != M.T).nnz == 0


def test_exact_constant_certificate(contact):
    _, wf = contact_weak(contact)
    assert exact_constant_image(wf.operator) == 0.0


def test_exact_green_certificate(contact):
    _, wf = contact_weak(contact)
    assert exact_green_defect(wf) == 0.0


def test_exact_certificates_with_penalty(contact):
    _, wf = contact_weak(contact, eps=4)
    assert exact_symmetry_defect(wf.operator) == 0.0
    assert exact_constant_image(wf.operator) == 0.0


def fraction_reference(wf):
    """The corner quadrature summed over the rationals, each entry rounded once.

    Entry (col_a, col_b) collects w * c_a * c_b over every factor row, where
    (col, c) runs over the row's edge endpoints (hi, +v) and (lo, -v).  The
    factor rows are the slab cells', so every cell is reached by shifting
    their endpoints by each t along the invariant axes: the nodes whose
    slab image is node 0.
    """
    grid = wf.grid
    multi = grid.multi_indices()
    exact = {}
    for fac, t in itertools.product(wf.factors, multi[wf.operator.pos == 0]):
        los, his = (
            grid.ravel(multi[x.ravel()] + t).reshape(x.shape) for x in (fac.lo, fac.hi)
        )
        for w, lo, hi, vals in zip(
            wf.weights.tolist(), los.tolist(), his.tolist(), fac.values.tolist()
        ):
            ends = []
            for a, b, v in zip(lo, hi, vals):
                if v != 0.0:
                    ends += [(a, -Fraction(v)), (b, Fraction(v))]
            w = Fraction(w)
            for ca, va in ends:
                wa = w * va
                for cb, vb in ends:
                    exact[ca, cb] = exact.get((ca, cb), 0) + wa * vb
    keys = sorted(exact)
    data = np.array([float(exact[k]) for k in keys])
    rows = np.array([k[0] for k in keys])
    cols = np.array([k[1] for k in keys])
    keep = data != 0.0
    N = wf.grid.size
    return sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(N, N))


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(GRID_NAMES),
    n=st.sampled_from([4, 6]),
    eps=st.none() | st.floats(0.3, 40.0),
    density_seed=st.none() | st.integers(0, 2**32 - 1),
)
def test_weak_assembly_matches_fraction_reference(name, n, eps, density_seed):
    s = cached_structure(name)
    g = Grid(shape=(n,) * s.dim, periods=s.periods)
    density = None
    if density_seed is not None:
        density = np.random.default_rng(density_seed).uniform(0.05, 20.0, g.size)
    wf = assemble_weak_laplacian(s, g, eps=eps, density=density)
    M = wf.operator.matrix
    ref = fraction_reference(wf)
    assert M.data.tobytes() == ref.data.tobytes()
    assert np.array_equal(M.indices, ref.indices)
    assert np.array_equal(M.indptr, ref.indptr)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_weak_stencil_shape(m):
    stencil = _weak_stencil(m)
    # offsets 0, +-e_l and +-e_l +-e_l2 (l < l2); no +-2 e_l reach
    assert len(stencil) == 1 + 2 * m + 4 * math.comb(m, 2)
    assert all(set(offset) <= {-1, 0, 1} for offset in stencil)
    coefs = [abs(c) for terms in stencil.values() for *_, c in terms]
    # powers of two, so scaling an exact product by them is exact
    assert all(math.frexp(c)[0] == 0.5 for c in coefs)


def _grid_form(name, n, eps, density_seed=None):
    s = cached_structure(name)
    g = Grid(shape=(n,) * s.dim, periods=s.periods)
    density = None
    if density_seed is not None:
        density = np.random.default_rng(density_seed).uniform(0.05, 20.0, g.size)
    return assemble_weak_laplacian(s, g, eps=eps, density=density)


@pytest.mark.parametrize("name", GRID_NAMES)
@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("eps", [None, 0.7, 25.0])
@pytest.mark.parametrize("density_seed", [None, 3])
def test_green_verdict_on_penalized_and_weighted_forms(name, n, eps, density_seed):
    assert exact_green_defect(_grid_form(name, n, eps, density_seed)) == 0.0


@pytest.mark.parametrize("doubled", [False, True])
def test_green_verdict_reads_rows_in_any_order(contact, doubled):
    # the residual comes from the factor rows alone: shuffling them and
    # splitting each into two rows of half the weight keeps it zero, and
    # a doubled coefficient in one copy still shows
    _, wf = contact_weak(contact, n=4, eps=2)
    rng = np.random.default_rng(4)
    order = np.repeat(rng.permutation(wf.weights.size), 2)
    factors = [
        FieldFactor(lo=fac.lo[order], hi=fac.hi[order], values=fac.values[order])
        for fac in wf.factors
    ]
    wf = dataclasses.replace(wf, _quadrature=(factors, wf.weights[order] / 2))
    if doubled:
        wf.factors[1].values[7, 2] *= 2.0
    assert (exact_green_defect(wf) > 0.0) == doubled


@settings(max_examples=24, deadline=None)
@given(
    name=st.sampled_from(GRID_NAMES),
    n=st.sampled_from([4, 6]),
    eps=st.none() | st.floats(0.3, 40.0),
    mutation=st.sampled_from([None, "entry-ulp", "factor-double"]),
    data=st.data(),
)
def test_green_certificate_detects_one_changed_value(name, n, eps, mutation, data):
    # a one-ulp change of one entry part and a doubled quadrature
    # coefficient must both show, as the full-grid oracle's max |D_ij|,
    # and the form as assembled must give exactly 0.0.  The tables changed
    # are the slab rows' and the slab cells', which every other row and
    # cell repeats, so the oracle changes every copy
    wf = _grid_form(name, n, eps)
    exact, factors, weights = oracle_tables(wf, cached_structure(name))
    pos = wf.operator.pos
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    if mutation == "entry-ulp":
        offset = sorted(exact)[rng.integers(len(exact))]
        parts = wf.operator.exact[offset]
        r, j = rng.choice(np.argwhere(parts != 0))
        parts[r, j] = np.nextafter(parts[r, j], np.inf)
        exact[offset][1][pos == r, j] = parts[r, j]
    elif mutation == "factor-double":
        k = rng.integers(len(wf.factors))
        values = wf.factors[k].values
        i, j = rng.choice(np.argwhere(values != 0))
        values[i, j] *= 2.0
        # row i is corner i // S of the slab cell at slab row i % S
        corner, r = divmod(i, wf.operator.slab.size)
        factors[k].values[corner * pos.size + np.flatnonzero(pos == r), j] *= 2.0
    vanishes, worst = oracle_green(wf.grid, exact, factors, weights)
    assert exact_green_defect(wf) == worst
    assert vanishes == (mutation is None) == (worst == 0.0)


def _oracle_density(s, grid, kind):
    """None, a random node density (an array: no invariant axis), or the
    expression 2 + cos along axis 0 (invariant along the others where
    the frame is)."""
    if kind == "random":
        return np.random.default_rng(3).uniform(0.05, 20.0, grid.size)
    if kind == "cos":
        return ex.parse("2 + cos(%r*x0)" % (2.0 * np.pi / s.periods[0]), dim=s.dim)
    return None


@pytest.mark.parametrize("name", GRID_NAMES)
@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("eps", [None, 0.7, 25.0])
@pytest.mark.parametrize("density", [None, "random", "cos"])
def test_slab_certificates_match_the_full_grid_oracle(name, n, eps, density):
    # the certificates read the slab rows; the oracle builds the exact
    # parts of every row and the quadrature rows of every cell.  Every
    # row's parts are its slab image's bit for bit, and the symmetry,
    # constant and Green verdicts and max |D_ij| agree, also once one
    # slab part (and every row repeating it) is one ulp off
    s = cached_structure(name)
    grid = Grid(shape=(n,) * s.dim, periods=s.periods)
    rho = _oracle_density(s, grid, density)
    wf = assemble_weak_laplacian(s, grid, eps=eps, density=rho)
    exact, factors, weights = oracle_tables(wf, s, rho)
    op = wf.operator
    pos = op.pos
    assert sorted(exact) == sorted(op.exact)
    for offset, (_, parts) in exact.items():
        assert parts.tobytes() == op.exact[offset][pos].tobytes()
    assert exact_symmetry_defect(op) == oracle_symmetry(exact) == 0.0
    assert exact_constant_image(op) == oracle_constant(exact) == 0.0
    assert oracle_green(grid, exact, factors, weights) == (True, 0.0)
    assert exact_green_defect(wf) == 0.0
    rng = np.random.default_rng(n)

    offset = sorted(exact)[rng.integers(len(exact))]
    parts = op.exact[offset]
    r, j = rng.choice(np.argwhere(parts != 0))
    parts[r, j] = np.nextafter(parts[r, j], np.inf)
    exact[offset][1][pos == r, j] = parts[r, j]
    vanishes, worst = oracle_green(grid, exact, factors, weights)
    assert exact_green_defect(wf) == worst > 0.0
    assert vanishes is False


def test_weak_assembly_rejects_inexact_products(contact):
    g = Grid(shape=(4, 4, 4), periods=contact.periods)
    density = np.ones(g.size)
    density[5] = 1e-300
    with pytest.raises(GridError, match="exact float products"):
        assemble_weak_laplacian(contact, g, density=density)


@pytest.mark.parametrize("eps", [None, 2])
def test_float_matrix_is_the_quadrature_form_of_every_cell(contact, eps):
    # the matrix the solvers use, in floats, against sum_fields <B e, B f>_W
    # from the quadrature rows of every cell: equal up to round-off, and
    # f^T L f >= 0.  The exact certificate reads the entry parts, not the
    # rounded matrix
    g, wf = contact_weak(contact, eps=eps)
    _, factors, weights = oracle_tables(wf, contact)
    rng = np.random.default_rng(7)
    e, f = rng.standard_normal((2, g.size))

    def B(fac, u):
        return np.sum(fac.values * (u[fac.hi] - u[fac.lo]), axis=1)

    green = sum(float(weights @ (B(fac, e) * B(fac, f))) for fac in factors)
    energy = sum(float(weights @ B(fac, f) ** 2) for fac in factors)
    Le, Lf = wf.operator.matvec(e), wf.operator.matvec(f)
    assert energy >= 0.0
    assert abs(float(f @ Lf) - energy) <= 1e-12 * max(1.0, energy)
    assert abs(float(f @ Le) - green) <= 1e-12 * max(1.0, abs(green))
    assert abs(float(e @ Lf) - green) <= 1e-12 * max(1.0, abs(green))


def test_mass_is_density_times_cell_volume(contact):
    g, wf = contact_weak(contact)
    rho = volume_density_values(contact, g)
    assert np.array_equal(wf.mass.diagonal, rho * g.cell_volume())
    # the rotating contact frame is orthonormal: density is one
    assert np.allclose(rho, 1.0, atol=1e-12)


def test_node_mass_rejects_nonpositive_density():
    g = Grid(shape=(4, 4), periods=(1.0, 1.0))
    with pytest.raises(GridError):
        node_mass(g, np.zeros(g.size))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_node_mass_rejects_a_nonfinite_density(bad):
    g = Grid(shape=(4, 4), periods=(1.0, 1.0))
    density = np.ones(g.size)
    density[5] = bad
    with pytest.raises(GridError, match="^mass density must be finite and positive"):
        node_mass(g, density)


def test_mass_solve_inverts_matvec():
    g = Grid(shape=(4, 4), periods=(1.0, 1.0))
    mass = node_mass(g, np.full(g.size, 2.0))
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.size)
    assert np.allclose(mass.solve(mass.matvec(f)), f, atol=1e-14)


# ---------------------------------------------------------------------------
# strong assembly


def test_strong_operator_diagonalizes_fourier_mode():
    s = flat_line_structure()
    n = 8
    h = 1.0 / n
    g = Grid(shape=(n, n), periods=(1.0, 1.0))
    S = assemble_strong(sublaplacian(s), g)
    pts = g.points()
    f = np.sin(TWO_PI * pts[:, 0])
    factor = (2.0 * math.cos(TWO_PI * h) - 2.0) / h**2
    assert np.max(np.abs(S.matvec(f) - factor * f)) < 1e-12


def test_strong_matches_weak_on_smooth_function(contact):
    g, wf = contact_weak(contact, n=8)
    S = assemble_strong(sublaplacian(contact), g)
    f = check_periodicity(ex.parse("sin(x2)", dim=3), g)
    strong = S.matvec(f)
    weak = -wf.mass.solve(wf.operator.matvec(f))
    scale = np.max(np.abs(strong))
    assert scale > 0.1
    assert np.max(np.abs(strong - weak)) <= 0.5 * scale


def test_strong_rejects_dimension_mismatch(contact):
    g = Grid(shape=(8, 8), periods=(1.0, 1.0))
    with pytest.raises(GridError):
        assemble_strong(sublaplacian(contact), g)


# ---------------------------------------------------------------------------
# Matrix Market I/O


def test_matrix_market_round_trip_is_exact(contact):
    import os
    import tempfile

    _, wf = contact_weak(contact)
    M = wf.operator.matrix
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "op.mtx")
        write_matrix_market(path, wf.operator, comment="weak form")
        back = read_matrix_market(path)
    assert (back != M).nnz == 0
    # repr round-trip keeps every float bit-for-bit
    assert np.array_equal(np.sort(back.data), np.sort(M.data))


def test_matrix_market_writes_diagonal_mass(tmp_path):
    mass = DiagonalMass(diagonal=np.array([1.5, 2.5, 0.125]))
    path = tmp_path / "mass.mtx"
    write_matrix_market(str(path), mass)
    back = read_matrix_market(str(path))
    assert np.array_equal(back.toarray(), np.diag([1.5, 2.5, 0.125]))


def test_matrix_market_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n1 1\n3.0\n")
    with pytest.raises(GridError):
        read_matrix_market(str(path))


def coo_reference(op):
    """Reference CSR matrix of an offset assembler's nonzero entries, built
    through COO without the operator's values: one column per offset of
    ``op.exact``, each entry the fsum of its exact parts, the slab row's
    for a row it repeats."""
    N = op.shape[0]
    multi = op._grid.multi_indices()
    rows, cols, data = [], [], []
    for offset, parts in op.exact.items():
        col = op._grid.ravel(multi + offset)
        vals = np.array([math.fsum(row) for row in parts.tolist()])
        vals = vals[op.pos]
        keep = vals != 0.0
        rows.append(np.flatnonzero(keep))
        cols.append(col[keep])
        data.append(vals[keep])
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
    )


def assert_stencil_matches(op, ref):
    """shape and nnz from the values without the CSR, the lazy CSR equal
    to ``ref`` array by array and holding no zero, and matvec equal to its
    product bit for bit."""
    assert op.shape == ref.shape
    assert op.nnz == ref.nnz
    assert op._matrix is None
    mat = op.matrix
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(mat, name), getattr(ref, name)), name
    assert mat.nnz == op.nnz and np.all(mat.data != 0)
    for v in np.random.default_rng(5).standard_normal((3, op.shape[0])):
        assert op.matvec(v).tobytes() == (mat @ v).tobytes()


@pytest.mark.parametrize("name, density, n, eps", STENCIL_CASES)
def test_weak_stencil_matrix_matches_coo_reference(name, density, n, eps):
    op = density_form(name, density, n, eps=eps).operator
    assert_stencil_matches(op, coo_reference(op))


@pytest.mark.parametrize(
    "name, density, n, eps",
    STENCIL_CASES
    + [
        (name, density, n, eps)
        for name, density in DENSITY_CONFIGS
        for n in (4, 8)
        for eps in (None, 2.0)
    ]
    + [(name, None, 8, eps) for name in GRID_NAMES for eps in (None, 2.0)],
)
def test_node_criterion_finds_the_invariant_axes_of_the_form(name, density, n, eps):
    # the axes that neither the frame nor the density reads are exactly
    # those of the node criterion, on node values evaluated at every node,
    # and those under whose shift the stencil and the mass are invariant
    wf = density_form(name, density, n, eps)
    s, rho = build_structure(dict(load_config(name), density=density))
    axes, slab, pos = wf.invariance, wf.operator.slab, wf.operator.pos
    assert axes == oracle_node_axes(wf.grid, *oracle_node_values(s, wf.grid, eps, rho))
    assert axes == _invariant_axes(wf.operator, wf.mass.diagonal, wf.grid)
    # slab[pos[i]] is node i moved to index 0 along the axes
    image = wf.grid.multi_indices()
    image[:, axes] = 0
    assert np.array_equal(wf.grid.multi_indices()[slab[pos]], image)
    assert slab.size == wf.grid.size // math.prod(wf.grid.shape[a] for a in axes)


@pytest.mark.parametrize("eps", [None, 2.0])
def test_a_complement_that_reads_an_axis_leaves_no_invariance_along_it(eps):
    # T = (2 + cos(x0)) d1 enters det F, so the volume density varies
    # along x0 even without the complement's own field (eps None), though
    # no horizontal coefficient reads x0
    s = SubRiemannianStructure(
        dim=2,
        periods=(TWO_PI, TWO_PI),
        horizontal=(VectorField((ex.Const(1), ex.Const(0))),),
        complement=(VectorField((ex.Const(0), ex.parse("2 + cos(x0)", dim=2))),),
    )
    g = Grid(shape=(6, 6), periods=s.periods)
    wf = assemble_weak_laplacian(s, g, eps=eps)
    assert wf.invariance == [1]
    assert oracle_node_axes(g, *oracle_node_values(s, g, eps)) == [1]
    assert _invariant_axes(wf.operator, wf.mass.diagonal, g) == [1]


@pytest.mark.parametrize("name", GRID_NAMES)
@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("eps", [None, 2.0])
@pytest.mark.parametrize("density", [None, "cos", "random"])
def test_the_operator_is_the_one_record_of_its_slab(name, n, eps, density):
    # the slab is the nodes at index 0 along the form's axes, in order,
    # and every row maps to the slab row of its image there; a form
    # without the decision keeps the operator and its slab
    s = cached_structure(name)
    grid = Grid(shape=(n,) * s.dim, periods=s.periods)
    wf = assemble_weak_laplacian(
        s, grid, eps=eps, density=_oracle_density(s, grid, density)
    )
    op, axes = wf.operator, wf.invariance
    multi = grid.multi_indices()
    assert np.array_equal(op.pos[op.slab], np.arange(op.slab.size))
    assert np.array_equal(op.slab, np.flatnonzero(~np.any(multi[:, axes], axis=1)))
    by_axes = op.pos.reshape(grid.shape)
    for a in axes:
        assert np.all(by_axes == np.take(by_axes, [0], axis=a))
    if density == "random":
        assert axes == []
    copy = dataclasses.replace(wf)
    assert copy.operator is op and copy.invariance is None
    assert fourier_smallest(copy, 4) is None
    whole = np.arange(grid.size)
    for other in (
        assemble_field(s.horizontal[0], grid),
        assemble_strong(strong_spec(name, None, "sublaplacian"), grid),
    ):
        assert np.array_equal(other.slab, whole)
        assert np.array_equal(other.pos, whole)


def test_one_ulp_of_density_leaves_no_row_to_copy(contact):
    # a slab that covered the changed node's row would copy a value that
    # the fsum of its exact parts does not give.  An array density reads
    # every axis, so its form has no invariant axis
    g = Grid(shape=(6, 6, 6), periods=contact.periods)
    wf = assemble_weak_laplacian(contact, g, density=ex.parse("1", dim=3))
    assert wf.invariance == [0, 1]
    density = np.ones(g.size)
    density[37] = np.nextafter(1.0, np.inf)
    wf = assemble_weak_laplacian(contact, g, density=density)
    axes, slab, pos = wf.invariance, wf.operator.slab, wf.operator.pos
    assert axes == []
    assert np.array_equal(slab, np.arange(g.size))
    assert np.array_equal(pos, np.arange(g.size))
    assert_stencil_matches(wf.operator, coo_reference(wf.operator))


def test_fourier_solve_leaves_the_quadrature_unbuilt():
    wf = density_form("contact3torus", D1, 6, eps=2.0)
    assert solve_weak_form(wf, 4, 1e-9, 0).method == "fourier"
    assert callable(wf._quadrature)
    # the first read builds factors and weights together, once
    factors = wf.factors
    assert wf.factors is factors
    # one row per corner of every slab cell
    assert wf.weights.shape == (8 * wf.operator.slab.size,)
    assert not callable(wf._quadrature)


def _held_arrays(objects):
    """The numpy arrays among ``objects``, in lists and tuples too."""
    for obj in objects:
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            yield from _held_arrays(obj)


def test_invariant_form_holds_its_stencil_on_the_slab():
    # no (N, K) table: what the operator holds for its products is
    # bounded by a multiple of S K + N, before and after a product.  No
    # (N, m) field table either: the lazy builders of the exact parts and
    # of the quadrature hold slab values, and pos as their one N-long array
    for density, n in [(None, 16), (D1, 8)]:
        wf = density_form("contact3torus", density, n, eps=2.0)
        op = wf.operator
        N, (S, K) = wf.grid.size, op._values.shape
        assert S == op.slab.size < N
        cells = [c.cell_contents for c in op._build_exact.__closure__]
        for lazy in (cells, wf._quadrature.args):
            held = list(_held_arrays(lazy))
            assert any(a is op.pos for a in held)
            assert all(a.size <= N for a in held)
            assert sum(a.nbytes for a in held) <= 24 * (S * K + N)
        for _ in range(2):
            held = [a for a in vars(op).values() if isinstance(a, np.ndarray)]
            held += [a for a in op._order or () if isinstance(a, np.ndarray)]
            assert all(a.size < N * K for a in held)
            assert sum(a.nbytes for a in held) <= 24 * (S * K + N)
            op.matvec(np.ones(N))
        assert op._exact is None and op._matrix is None


def test_weak_assembly_peak_memory_scales_with_the_slab():
    # contact3torus at n = 48: 110,592 nodes and a 48-row slab.  The node
    # values, product tables and stencil are built on the slab; the mass
    # diagonal and pos are the only N-long arrays, about 0.9 MB each
    s = cached_structure("contact3torus")
    grid = Grid(shape=(48,) * 3, periods=s.periods)
    tracemalloc.start()
    try:
        wf = assemble_weak_laplacian(s, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wf.operator.slab.size == 48
    assert peak <= 4 * 2**20


# the stencil cases and every density config, at both grid sizes
MATVEC_CASES = STENCIL_CASES + [
    (name, density, n, eps)
    for name, density in DENSITY_CONFIGS[2:]
    for n in (4, 6)
    for eps in (None, 2.0)
]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(MATVEC_CASES), seed=st.integers(0, 2**32 - 1))
def test_slab_matvec_and_matrix_match_the_reference(case, seed):
    # rows repeated from the slab and columns from the grid give the
    # product of the CSR matrix bit for bit, and the CSR matrix holds the
    # entries of the reference built from the exact parts, row by row in
    # ascending column order
    op = density_form(*case).operator
    v = np.random.default_rng(seed).standard_normal(op.shape[0])
    assert op.matvec(v).tobytes() == (op.matrix @ v).tobytes()
    mat, ref = op.matrix, coo_reference(op)
    assert ref.has_sorted_indices
    assert np.array_equal(mat.indptr, ref.indptr)
    assert np.array_equal(mat.indices, ref.indices)
    assert mat.data.tobytes() == ref.data.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(MATVEC_CASES),
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 7),
    rows=st.sampled_from([1, 7, 64, discrete._MATVEC_ROWS]),
    slab=st.booleans(),
)
def test_block_matvec_gives_every_column_the_matrix_product(
    case, seed, width, rows, slab
):
    # a block (N, c) gets, column by column, the CSR product of that
    # column bit for bit, however the rows are split into blocks; so does
    # the CSR product of the block, which the dense and Lanczos reports
    # apply.  Without the slab every row is its own slab row
    op = density_form(*case).operator
    if not slab:
        op = SparseOperator((op._offsets, op._values[op.pos]), op._grid)
    N = op.shape[0]
    V = np.random.default_rng(seed).standard_normal((N, width))
    with mock.patch.object(discrete, "_MATVEC_ROWS", rows):
        LV = op.matvec(V)
        lone = op.matvec(V[:, 0])
    block = op.matrix @ V
    assert LV.shape == block.shape == (N, width)
    for j in range(width):
        column = (op.matrix @ V[:, j]).tobytes()
        assert LV[:, j].tobytes() == column
        assert block[:, j].tobytes() == column
    assert lone.tobytes() == LV[:, 0].tobytes()


def test_fourier_solve_leaves_the_exact_parts_unbuilt():
    wf = density_form("contact3torus", D1, 6, eps=2.0)
    assert solve_weak_form(wf, 4, 1e-9, 0).method == "fourier"
    op = wf.operator
    assert op._exact is None
    assert op._matrix is None
    exact = op.exact
    assert op.exact is exact
    assert exact_constant_image(op) == 0.0


@pytest.mark.parametrize("name", GRID_NAMES)
def test_every_assembler_stores_exactly_its_nonzero_entries(name):
    # the field, strong and weak operators of a grid fixture, and a field
    # whose coefficients sin and 1 - cos vanish on the nodes x0 = 0: nnz
    # counts the nonzero values, the CSR matrix holds each of them and no
    # zero, and matvec is its product bit for bit
    s = cached_structure(name)
    g = Grid(shape=(6,) * s.dim, periods=s.periods)
    c = 2.0 * math.pi / s.periods[0]
    vanishing = VectorField(
        [ex.parse("sin(%r*x0)" % c, dim=s.dim)]
        + [ex.ZERO] * (s.dim - 2)
        + [ex.parse("1 - cos(%r*x0)" % c, dim=s.dim)]
    )
    fields = [assemble_field(X, g) for X in [*s.horizontal, *s.complement, vanishing]]
    for op in fields:
        assert_stencil_matches(op, coo_reference(op))
    field = fields[-1]
    assert 0 < field.nnz < field._values.size  # some values are zero
    strong = [
        assemble_strong(strong_spec(name, None, kind), g)
        for kind in ("sublaplacian", "penalty", "riemannian")
    ]
    weak = [assemble_weak_laplacian(s, g, eps=eps).operator for eps in (None, 2.0)]
    v = np.random.default_rng(1).standard_normal(g.size)
    for op in fields + strong + weak:
        mat = op.matrix
        assert op.nnz == mat.nnz == np.count_nonzero(op._values[op.pos])
        assert np.all(mat.data != 0)
        assert op.matvec(v).tobytes() == (mat @ v).tobytes()


# the sublaplacian, penalty (eps 0.7) and Riemannian operators of every grid
# fixture, and the density-weighted sublaplacians, the only ones with a drift
STRONG_CASES = [
    (name, None, kind, n)
    for name in GRID_NAMES
    for kind in ("sublaplacian", "penalty", "riemannian")
    for n in (4, 6)
] + [
    (name, density, "sublaplacian", n)
    for name, density in DENSITY_CONFIGS
    for n in (4, 6, 8)
]


@lru_cache(maxsize=None)
def strong_spec(name, density, kind):
    """The coordinate form of one of ``verify``'s operators of a fixture,
    weighted by the config's density if it has one."""
    cfg = load_config(name)
    cfg["density"] = density
    s, rho = build_structure(cfg)
    adapted = canonical_complement(s).as_structure()
    if kind == "penalty":
        return penalty_laplacian(MetricExtension(adapted, epsilon=0.7))
    if kind == "riemannian":
        return riemannian_laplacian(MetricExtension(adapted))
    op = sublaplacian(MetricExtension(adapted))
    return op if rho is None else weighted_laplacian(op, adapted.horizontal, rho)


def strong_reference(spec, grid):
    """CSR matrix of the central-difference operator built as a sum of
    scipy sparse matrices without the stencil: diag(a^{jl}) times the
    second or the composed first differences in (j, l) order, then
    diag(b^j) times the first differences; indices sorted."""
    N = grid.size

    def shift(axis, step):
        multi = grid.multi_indices()
        multi[:, axis] += step
        cols = grid.ravel(multi)
        return sp.csr_matrix((np.ones(N), cols, np.arange(N + 1)), shape=(N, N))

    def first(j):
        return (shift(j, 1) - shift(j, -1)) * (0.5 / grid.h[j])

    def second(j):
        diff = shift(j, 1) - 2.0 * shift(j, 0) + shift(j, -1)
        return diff * (1.0 / grid.h[j] ** 2)

    total = sp.csr_matrix((N, N))
    terms = [
        (spec.a[j][l], second(j) if j == l else first(j) @ first(l))
        for j, l in itertools.product(range(grid.dim), repeat=2)
    ] + [(spec.b[j], first(j)) for j in range(grid.dim)]
    for coeff, diff in terms:
        if not (isinstance(coeff, ex.Const) and coeff.value == 0):
            total = total + sp.diags(check_periodicity(coeff, grid)) @ diff
    total = sp.csr_matrix(total)
    total.sort_indices()
    return total


@pytest.mark.parametrize("name, density, kind, n", STRONG_CASES)
def test_strong_stencil_matrix_matches_sparse_sum_reference(name, density, kind, n):
    spec = strong_spec(name, density, kind)
    drift = any(not (isinstance(c, ex.Const) and c.value == 0) for c in spec.b)
    assert drift == (density is not None)
    grid = Grid(shape=(n,) * spec.dim, periods=cached_structure(name).periods)
    assert_stencil_matches(assemble_strong(spec, grid), strong_reference(spec, grid))
