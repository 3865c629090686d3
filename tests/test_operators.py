"""Frame Laplacians, connections, divergences, curvature, potentials."""


import numpy as np
import pytest

from srlab import expr as ex
from srlab.complement import (
    MetricExtension,
    canonical_complement,
    reference_mean_curvature,
)
from srlab.geometry import (
    SubRiemannianStructure,
    VectorField,
    linear_combination,
    structure_constants,
)
from srlab.operators import (
    FrameError,
    OperatorSpec,
    connection_coefficients,
    connection_sums,
    horizontal_connection,
    horizontal_divergence,
    horizontal_gradient,
    mean_curvature_field,
    penalty_laplacian,
    potential_residual,
    product_rule_residual,
    promoted_structure_constants,
    riemannian_divergence,
    riemannian_laplacian,
    sublaplacian,
)

from conftest import sample_points


def _vf(*texts):
    return VectorField([ex.parse(t) for t in texts])


def _adapted(s):
    return canonical_complement(s).as_structure()


@pytest.fixture(scope="module")
def curved_plane():
    """A 2-torus frame whose second field has varying length in x0.

    E1 = d/dx0, E2 = (2 + sin(x0)) d/dx1: the adapted volume density is
    1/(2 + sin(x0)), so E1 has nonzero Riemannian divergence.  This is
    the regression case for the connection sign conventions, which every
    shipped fixture is blind to (their frames are all divergence-free).
    """
    return SubRiemannianStructure(
        dim=2,
        periods=(2 * np.pi, 1.0),
        horizontal=(_vf("1", "0"),),
        complement=(_vf("0", "2 + sin(x0)"),),
    )


# ---------------------------------------------------------------------------
# connection coefficients


def test_connection_axioms_on_random_tables():
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = rng.standard_normal((5, 5, 5))
        c = c - c.transpose(1, 0, 2)
        g = connection_coefficients(c)
        # metric compatibility: antisymmetry in the last two slots
        assert np.max(np.abs(g + g.transpose(0, 2, 1))) < 1e-13
        # torsion matches the bracket
        assert np.max(np.abs(g - g.transpose(1, 0, 2) - c)) < 1e-13


def test_connection_scalar_formula():
    rng = np.random.default_rng(1)
    c = rng.standard_normal((3, 3, 3))
    c = c - c.transpose(1, 0, 2)
    g = connection_coefficients(c)
    for u in range(3):
        for v in range(3):
            for w in range(3):
                want = 0.5 * (c[u, v, w] - c[v, w, u] + c[w, u, v])
                assert abs(g[u, v, w] - want) < 1e-14


def test_horizontal_connection_vanishes_on_flat_frames(heisenberg, carnot):
    for s in (heisenberg, carnot):
        adapted = _adapted(s)
        for p in sample_points(s, 5):
            gam = horizontal_connection(adapted, p)
            assert gam.shape == (s.k,) * 3
            assert np.max(np.abs(gam)) < 1e-12


def test_connection_axioms_pointwise_on_fixtures(contact, engel, martinet):
    for s in (contact, engel, martinet):
        adapted = _adapted(s)
        for p in sample_points(s, 10):
            table = structure_constants(adapted, p).table
            gam = connection_coefficients(table)
            assert np.max(np.abs(gam + gam.transpose(0, 2, 1))) < 1e-10
            assert np.max(np.abs(gam - gam.transpose(1, 0, 2) - table)) < 1e-10


def test_promoted_constants_exact_for_contact(contact):
    table = promoted_structure_constants(_adapted(contact))
    want = np.zeros((3, 3, 3))
    want[0, 1, 2] = -1.0
    want[1, 0, 2] = 1.0
    want[1, 2, 0] = -1.0
    want[2, 1, 0] = 1.0
    assert np.array_equal(table, want)


def test_promoted_constants_reject_varying_table(martinet):
    with pytest.raises(FrameError):
        promoted_structure_constants(_adapted(martinet))


def test_connection_sums_survive_varying_table(martinet):
    adapted = _adapted(martinet)
    sums = connection_sums(adapted, [0, 1], [0, 1])
    assert np.array_equal(sums, np.zeros(2))


def test_connection_sums_reject_varying_sums(curved_plane):
    with pytest.raises(FrameError):
        connection_sums(curved_plane, [0, 1], [0, 1])


# ---------------------------------------------------------------------------
# sublaplacian and penalty operators


def test_heisenberg_sublaplacian_oracle(heisenberg):
    op = sublaplacian(MetricExtension(_adapted(heisenberg)))
    out = op.apply(ex.parse("x0^2 + x1^2"))
    for p in sample_points(heisenberg, 5):
        assert abs(ex.evaluate(out, p) - 4.0) < 1e-13


def test_heisenberg_penalty_oracle(heisenberg):
    adapted = _adapted(heisenberg)
    g = ex.parse("x2^2")
    for eps in (1, 2, 10):
        op = penalty_laplacian(MetricExtension(adapted, epsilon=eps))
        val = ex.evaluate(op.apply(g), np.zeros(3))
        assert val == 2.0 / eps**2


def test_contact_sublaplacian_oracle(contact):
    op = sublaplacian(MetricExtension(_adapted(contact)))
    out = op.apply(ex.parse("sin(x2)"))
    for p in sample_points(contact, 8):
        assert abs(ex.evaluate(out, p) + np.sin(p[2])) < 1e-13
    # principal symbol at x2 = 0: a = diag-ish [[0,0,0],[0,1,0],[0,0,1]]
    a = op.principal_symbol(np.zeros(3))
    want = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(a, want, atol=1e-14)
    assert np.allclose(op.drift(np.zeros(3)), 0.0, atol=1e-14)


def test_operator_annihilates_constants(heisenberg, contact, martinet):
    for s in (heisenberg, contact, martinet):
        op = sublaplacian(MetricExtension(_adapted(s)))
        out = op.apply(ex.ONE)
        assert ex.equivalent(out, ex.ZERO, dim=s.dim)


def test_principal_symbol_is_psd(engel):
    op = sublaplacian(MetricExtension(_adapted(engel)))
    for p in sample_points(engel, 5):
        a = op.principal_symbol(p)
        assert np.allclose(a, a.T, atol=1e-14)
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() > -1e-12


def test_martinet_sublaplacian_is_sum_of_squares(martinet):
    op = sublaplacian(MetricExtension(_adapted(martinet)))
    for e in op.b:
        assert ex.equivalent(e, ex.ZERO, dim=3)
    f = ex.parse("sin(2*x0) + x1*x2")
    # X1^2 + X2^2 with X1 = d0, X2 = d1 + x0^2 d2
    for p in sample_points(martinet, 6):
        want = -4 * np.sin(2 * p[0]) + 2 * p[0] ** 2 * 1.0
        assert abs(ex.evaluate(op.apply(f), p) - want) < 1e-12


def test_penalty_symbol_splits_exactly(heisenberg):
    adapted = _adapted(heisenberg)
    base = sublaplacian(MetricExtension(adapted))
    for eps in (2, 5):
        pen = penalty_laplacian(MetricExtension(adapted, epsilon=eps))
        for p in sample_points(heisenberg, 4):
            diff = pen.principal_symbol(p) - base.principal_symbol(p)
            T = adapted.complement[0].evaluate(p)
            assert np.allclose(diff, np.outer(T, T) / eps**2, atol=1e-15)


def test_penalty_reduces_to_sublaplacian_on_vertical_constants(trivial):
    adapted = _adapted(trivial)
    base = sublaplacian(MetricExtension(adapted))
    pen = penalty_laplacian(MetricExtension(adapted, epsilon=7))
    f = ex.parse("sin(2*3.141592653589793*x0)")
    assert ex.equivalent(base.apply(f), pen.apply(f), dim=2)


def test_penalty_requires_epsilon(heisenberg):
    with pytest.raises(FrameError):
        penalty_laplacian(MetricExtension(_adapted(heisenberg)))
    # a plain structure has no epsilon either
    with pytest.raises(FrameError):
        penalty_laplacian(_adapted(heisenberg))


def test_operators_take_any_structure(contact):
    # an extension without epsilon is the structure itself, so every
    # operator renders the same from either
    adapted = _adapted(contact)
    ext = MetricExtension(adapted)
    for build in (sublaplacian, riemannian_laplacian):
        assert build(ext).to_dict() == build(adapted).to_dict()
    f = ex.parse("sin(x2) + cos(x0)")
    for E in adapted.frame:
        assert ex.render(riemannian_divergence(ext, E)) == ex.render(
            riemannian_divergence(adapted, E)
        )
    grad = horizontal_gradient(ext, f)[1]
    assert ex.render(horizontal_divergence(ext, grad)) == ex.render(
        horizontal_divergence(adapted, horizontal_gradient(adapted, f)[1])
    )


def test_operator_spec_dict_round_trip(contact):
    op = sublaplacian(MetricExtension(_adapted(contact)))
    d = op.to_dict()
    again = OperatorSpec.from_dict(d)
    assert again.kind == op.kind and again.dim == op.dim
    f = ex.parse("sin(x2) + cos(x0)")
    for p in sample_points(contact, 5):
        assert abs(
            ex.evaluate(op.apply(f), p) - ex.evaluate(again.apply(f), p)
        ) < 1e-12
    pen = penalty_laplacian(MetricExtension(_adapted(contact), epsilon=3))
    assert OperatorSpec.from_dict(pen.to_dict()).eps == 3.0


# ---------------------------------------------------------------------------
# gradient, divergence, identities


def test_horizontal_gradient_defining_identity(heisenberg):
    f = ex.parse("x2")
    field, comps = horizontal_gradient(heisenberg, f)
    # Heisenberg: grad^H x2 = -(x1/2) X1 + (x0/2) X2
    p = np.array([0.4, 0.6, -0.2])
    assert abs(ex.evaluate(comps[0], p) + 0.3) < 1e-14
    assert abs(ex.evaluate(comps[1], p) - 0.2) < 1e-14
    # defining identity g(grad f, X_i) = X_i f: components ARE X_i f
    for s, g in ((heisenberg, ex.parse("sin(x0)*x1")),):
        _, comps = horizontal_gradient(s, g)
        for i in range(s.k):
            direct = s.horizontal[i].apply(g)
            assert ex.equivalent(comps[i], direct, dim=s.dim)


def test_laplacian_equals_div_grad(heisenberg, contact, engel, martinet):
    for s in (heisenberg, contact, engel, martinet):
        adapted = _adapted(s)
        op = sublaplacian(MetricExtension(adapted))
        f = ex.parse("sin(x1) + x0*x2") if s.dim >= 3 else ex.parse("sin(x0)")
        lhs = op.apply(f)
        _, comps = horizontal_gradient(adapted, f)
        rhs = horizontal_divergence(adapted, comps)
        for p in sample_points(s, 10):
            assert abs(ex.evaluate(lhs, p) - ex.evaluate(rhs, p)) < 1e-9


def test_product_rule(heisenberg):
    adapted = _adapted(heisenberg)
    op = sublaplacian(MetricExtension(adapted))
    u = ex.parse("sin(x0) + x1*x2/4")
    res = product_rule_residual(
        op, list(adapted.horizontal), u, sample_points(heisenberg, 20)
    )
    assert res < 1e-9


def test_riemannian_divergence_matches_connection_trace(curved_plane):
    ext = MetricExtension(curved_plane)
    pts = sample_points(curved_plane, 12)
    for v in range(2):
        div_expr = riemannian_divergence(ext, curved_plane.frame[v])
        for p in pts:
            gam = connection_coefficients(
                structure_constants(curved_plane, p).table
            )
            want = float(gam.trace(axis1=0, axis2=2)[v])
            assert abs(float(ex.evaluate(div_expr, p)) - want) < 1e-10


def test_curved_plane_divergence_closed_form(curved_plane):
    # div E1 = -cos(x0)/(2+sin(x0)) against the density 1/(2+sin(x0))
    ext = MetricExtension(curved_plane)
    div_expr = riemannian_divergence(ext, curved_plane.frame[0])
    for p in sample_points(curved_plane, 10):
        want = -np.cos(p[0]) / (2 + np.sin(p[0]))
        assert abs(float(ex.evaluate(div_expr, p)) - want) < 1e-12


def test_riemannian_laplacian_needs_constant_sums(curved_plane):
    with pytest.raises(FrameError):
        riemannian_laplacian(curved_plane)
    # the horizontal operator only sums over E1 and stays constant
    op = sublaplacian(MetricExtension(curved_plane))
    f = ex.parse("sin(x0)")
    assert ex.equivalent(op.apply(f), ex.parse("-sin(x0)"), dim=2)


# ---------------------------------------------------------------------------
# mean curvature and potentials


def _tilted_heisenberg(heisenberg, c=0.3):
    T = linear_combination(
        [ex.Const(c), ex.ZERO], heisenberg.horizontal, base=heisenberg.complement[0]
    )
    return SubRiemannianStructure(
        dim=3,
        periods=heisenberg.periods,
        horizontal=heisenberg.horizontal,
        complement=(T,),
    )


def test_mean_curvature_zero_for_canonical(heisenberg, contact):
    for s in (heisenberg, contact):
        curv = mean_curvature_field(_adapted(s))
        assert curv.exprs is not None
        for e in curv.exprs:
            assert ex.equivalent(e, ex.ZERO, dim=s.dim)
        assert np.allclose(curv.vector_at(np.zeros(s.dim)), 0.0)


def test_mean_curvature_of_tilted_complement(heisenberg):
    tilted = _tilted_heisenberg(heisenberg, 0.3)
    curv = mean_curvature_field(tilted)
    for p in sample_points(tilted, 6):
        assert np.allclose(curv.components_at(p), [0.0, -0.3], atol=1e-12)
    vec = curv.vector_at(np.zeros(3))
    assert np.allclose(vec, -0.3 * np.array([0.0, 1.0, 0.0]), atol=1e-12)


def test_mean_curvature_of_varying_tilt_is_pointwise(heisenberg):
    # a complement tilted by sin(x1) X_1 has a varying mean curvature, so
    # the field keeps its pointwise components
    X1 = heisenberg.horizontal[0]
    T = linear_combination(
        [ex.parse("sin(x1)", dim=3)], [X1], base=heisenberg.complement[0]
    )
    tilted = SubRiemannianStructure(
        dim=3,
        periods=heisenberg.periods,
        horizontal=heisenberg.horizontal,
        complement=(T,),
    )
    curv = mean_curvature_field(tilted)
    assert curv.exprs is None
    pts = sample_points(tilted, 12, seed=4)
    comps = curv.components_at(pts)
    want = reference_mean_curvature(tilted, pts).sum(axis=-2)
    assert comps.tobytes() == want.tobytes()
    assert np.ptp(comps[:, 1]) > 0.1  # H_2 varies with x1
    frame = np.stack([X.evaluate(pts) for X in tilted.horizontal], axis=1)
    vec = (comps[:, None, :] @ frame)[:, 0, :]
    assert curv.vector_at(pts).tobytes() == vec.tobytes()
    # with u = 1 the logarithmic derivative vanishes: the defect is |H|
    worst = np.max(np.sqrt(np.sum(comps * comps, axis=-1)))
    assert potential_residual(tilted, curv, ex.ONE, pts) == worst


def test_potential_flat_case(heisenberg):
    adapted = _adapted(heisenberg)
    curv = mean_curvature_field(adapted)
    res = potential_residual(
        adapted, curv, ex.ONE, sample_points(heisenberg, 10)
    )
    assert res == 0.0


def test_potential_for_gradient_curvature(heisenberg):
    tilted = _tilted_heisenberg(heisenberg, 0.3)
    curv = mean_curvature_field(tilted)
    pts = sample_points(tilted, 15)
    # H = -0.3 X2 = grad^H(-0.3 x1), so u = exp(-0.3 x1) is a potential
    good = ex.parse("exp(-0.3*x1)")
    assert potential_residual(tilted, curv, good, pts) < 1e-10
    # constants are not: the defect equals |H|
    res = potential_residual(tilted, curv, ex.ONE, pts)
    assert abs(res - 0.3) < 1e-12


def test_potential_requires_positive_samples(heisenberg):
    adapted = _adapted(heisenberg)
    curv = mean_curvature_field(adapted)
    with pytest.raises(ValueError):
        potential_residual(
            adapted, curv, ex.parse("-1"), np.zeros((1, 3))
        )
    with pytest.raises(ValueError):
        potential_residual(
            adapted, curv, ex.parse("x0"), np.zeros((1, 3))
        )
