"""Canonical complements: solving, promotion, verification, extensions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab import expr as ex
from srlab.complement import (
    ComplementError,
    MetricExtension,
    canonical_complement,
    reference_mean_curvature,
    solve_canonical_complement,
    verify_flat_complement,
)
from srlab.geometry import SubRiemannianStructure, VectorField, linear_combination

from conftest import batch_cases, batch_points, sample_points, structure


def _vf(*texts):
    return VectorField([ex.parse(t) for t in texts])


def _tilt(s, coeffs):
    """Replace each reference complement field T by T + sum c_i X_i."""
    tilted = tuple(
        linear_combination(coeffs, s.horizontal, base=T) for T in s.complement
    )
    return SubRiemannianStructure(
        dim=s.dim,
        periods=s.periods,
        horizontal=s.horizontal,
        complement=tilted,
        name=s.name + "-tilted",
    )


# ---------------------------------------------------------------------------
# already-canonical fixtures


@pytest.mark.parametrize("name", ["heisenberg", "carnot-step2", "contact3torus"])
def test_fixture_complements_are_already_canonical(name):
    s = structure(name)
    ac = canonical_complement(s)
    assert ac.mode == "exact-symbolic"
    lattice = s.sample_lattice(5 if s.dim <= 3 else 3)
    assert verify_flat_complement(s, ac, lattice) < 1e-10
    # the tilt matrix vanishes: the declared complement is the canonical one
    for p in sample_points(s, 5):
        assert np.max(np.abs(ac.coefficients_at(p))) < 1e-12


def test_reference_mean_curvature_vanishes_on_heisenberg(heisenberg):
    for p in sample_points(heisenberg, 5):
        F = reference_mean_curvature(heisenberg, p)
        assert F.shape == (1, 2)
        assert np.max(np.abs(F)) < 1e-14


# ---------------------------------------------------------------------------
# tilt recovery and invariance


def test_constant_tilt_is_recovered_exactly(heisenberg):
    tilted = _tilt(heisenberg, [ex.Const(0.25), ex.ZERO])
    ps = solve_canonical_complement(tilted, np.array([0.3, -0.1, 0.2]))
    assert list(ps.modes) == ["unique"]
    assert np.allclose(ps.A, [[-0.25, 0.0]], atol=1e-13)
    ac = canonical_complement(tilted)
    assert ac.mode == "exact-symbolic"
    assert verify_flat_complement(tilted, ac) < 1e-12


def test_adapted_field_invariant_under_reference_tilt(heisenberg, contact):
    for s in (heisenberg, contact):
        base = canonical_complement(s)
        tilted = _tilt(s, [ex.Const(0.25), ex.parse("-1/3")])
        moved = canonical_complement(tilted)
        for p in sample_points(s, 10, seed=3):
            a = base.adapted_values(p)
            b = moved.adapted_values(p)
            assert np.max(np.abs(a - b)) < 1e-10


def test_tilted_reference_has_nonzero_curvature(heisenberg):
    tilted = _tilt(heisenberg, [ex.Const(0.3), ex.ZERO])
    worst = 0.0
    for p in sample_points(tilted, 5):
        worst = max(worst, np.max(np.abs(reference_mean_curvature(tilted, p))))
    assert worst > 1e-3


@settings(max_examples=60, deadline=None)
@given(case=batch_cases(), tilt=st.sampled_from(["0", "3/10", "sin(x0)/4 + x1/5"]))
def test_batched_complement_solve_equals_pointwise(case, tilt):
    s, pts = batch_points(case)
    if tilt != "0":
        s = _tilt(s, [ex.parse(tilt, dim=s.dim)] + [ex.ZERO] * (s.k - 1))
    k = s.k
    curvature = reference_mean_curvature(s, pts)
    assert curvature.shape == (len(pts), s.dim - k, k)
    for p, F in zip(pts, curvature):
        frame = s.frame_matrix(p)
        for b in range(s.dim - k):
            for i in range(k):
                w = s.bracket((i, k + b)).evaluate(p)
                assert F[b, i] == np.linalg.solve(frame, w)[k + b]
    try:
        batch = solve_canonical_complement(s, pts)
    except ComplementError as err:
        # the batch reports the first point that fails on its own
        with pytest.raises(ComplementError) as first:
            for p in pts:
                solve_canonical_complement(s, p)
        assert str(err) == str(first.value)
        return
    warnings = []
    for i, p in enumerate(pts):
        single = solve_canonical_complement(s, p)
        assert np.array_equal(batch.A[i], single.A)
        assert batch.modes[i] == single.modes
        assert np.array_equal(batch.residuals[i], single.residuals)
        assert np.array_equal(batch.condition_numbers[i], single.condition_numbers)
        warnings.extend(single.warnings)
    assert batch.warnings == warnings


# ---------------------------------------------------------------------------
# pointwise mode


def _variable_tilt_heisenberg():
    s = structure("heisenberg")
    phi = ex.parse("sin(2*3.141592653589793*x0)/4")
    return s, phi, _tilt(s, [phi, ex.ZERO])


def test_variable_tilt_forces_pointwise_mode():
    s, phi, tilted = _variable_tilt_heisenberg()
    ac = canonical_complement(tilted)
    assert ac.mode == "pointwise"
    with pytest.raises(ComplementError):
        ac.as_structure()
    # the canonical field is the untilted vertical direction at every point
    for p in sample_points(tilted, 10, seed=2):
        A = ac.coefficients_at(p)
        assert abs(A[0, 0] + float(ex.evaluate(phi, p))) < 1e-12
        vals = ac.adapted_values(p)
        assert np.allclose(vals, [[0.0, 0.0, 1.0]], atol=1e-12)
    assert verify_flat_complement(tilted, ac) < 1e-10


# ---------------------------------------------------------------------------
# infeasible structures


def test_unremovable_curvature_raises():
    # with one horizontal field there are no vertical brackets to solve
    # with, so nonzero reference curvature is a hard obstruction
    s = SubRiemannianStructure(
        dim=2,
        periods=(1.0, 1.0),
        horizontal=(_vf("1", "0"),),
        complement=(_vf("0", "2 + sin(2*3.141592653589793*x0)"),),
    )
    with pytest.raises(ComplementError):
        solve_canonical_complement(s, np.zeros(2))
    with pytest.raises(ComplementError):
        canonical_complement(s)


def test_flat_rank_deficient_solve_is_least_squares(trivial):
    ps = solve_canonical_complement(trivial, np.zeros(2))
    assert list(ps.modes) == ["least-squares"]
    assert np.max(np.abs(ps.A)) < 1e-13


@pytest.mark.parametrize("x0", [1e-309, 2.225073858507203e-309])
def test_subnormal_bracket_solve_is_least_squares(x0):
    # martinet's vertical bracket is 2 x0, subnormal here: 1/sv overflows,
    # so the solve must count it as rank-deficient instead of returning nan
    ps = solve_canonical_complement(structure("martinet"), np.array([x0, 0.0, 0.0]))
    assert list(ps.modes) == ["least-squares"]
    assert np.all(np.isfinite(ps.A))


# ---------------------------------------------------------------------------
# condition warnings


def test_wide_bracket_scale_spread_warns():
    s = SubRiemannianStructure(
        dim=5,
        periods=(1.0,) * 5,
        horizontal=(
            _vf("1", "0", "0", "0", "0"),
            _vf("0", "1", "0", "0", "x0"),
            _vf("0", "0", "1", "0", "0"),
            _vf("0", "0", "0", "1", "x2/1000000000"),
        ),
        complement=(_vf("0", "0", "0", "0", "1"),),
    )
    ps = solve_canonical_complement(s, np.zeros(5))
    assert list(ps.modes) == ["unique"]
    ac = canonical_complement(s)
    assert any("condition" in w.lower() for w in ac.warnings)


# ---------------------------------------------------------------------------
# metric extensions


@pytest.mark.parametrize("epsilon", [0, -2, float("nan"), float("inf"), -float("inf")])
def test_extension_requires_finite_positive_epsilon(heisenberg, epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        MetricExtension(heisenberg, epsilon=epsilon)


def test_extension_is_a_structure_sharing_the_bracket_store(heisenberg):
    ext = MetricExtension(heisenberg)
    assert isinstance(ext, SubRiemannianStructure)
    assert (ext.structure, ext.epsilon) == (heisenberg, None)
    assert ext.frame == heisenberg.frame
    assert ext._brackets is heisenberg._brackets
    rescaled = MetricExtension(heisenberg, epsilon=4)
    assert (rescaled.structure, rescaled.epsilon) == (heisenberg, 4)
    assert rescaled.horizontal == heisenberg.horizontal
    assert rescaled._brackets is not heisenberg._brackets


def test_volume_density_oracles(heisenberg, contact):
    ext = MetricExtension(heisenberg)
    for p in sample_points(heisenberg, 5):
        assert abs(ext.volume_density(p) - 1.0) < 1e-14
    ext = MetricExtension(contact)
    for p in sample_points(contact, 5):
        assert abs(ext.volume_density(p) - 1.0) < 1e-14


def test_density_expr_matches_pointwise(engel):
    ext = MetricExtension(engel)
    rho, det = ext.density_expr()
    for p in sample_points(engel, 8):
        assert abs(ex.evaluate(rho, p) - ext.volume_density(p)) < 1e-12
        assert abs(abs(ex.evaluate(det, p)) * ext.volume_density(p) - 1.0) < 1e-12


def test_density_scales_like_epsilon_power(heisenberg, engel):
    for s, q in ((heisenberg, 1), (engel, 2)):
        base = MetricExtension(s)
        for eps in (2, 10, 100):
            ext = MetricExtension(s, epsilon=eps)
            for p in sample_points(s, 4):
                lhs = ext.volume_density(p)
                rhs = eps**q * base.volume_density(p)
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_rescaled_frame_divides_complement(heisenberg):
    ext = MetricExtension(heisenberg, epsilon=4)
    p = np.array([0.2, 0.5, -0.1])
    T = heisenberg.complement[0].evaluate(p)
    T_eps = ext.complement[0].evaluate(p)
    assert np.allclose(T_eps, T / 4.0, atol=1e-15)


def test_empty_complement_has_a_zero_width_tilt():
    # k = m: the horizontal fields span, so the tilt has no rows
    s = SubRiemannianStructure(
        dim=2,
        periods=(2 * np.pi, 2 * np.pi),
        horizontal=(_vf("2+sin(x1)", "0"), _vf("0", "1")),
        complement=(),
    )
    ac = canonical_complement(s)
    assert ac.mode == "exact-symbolic"
    assert ac.adapted_fields == () and ac.solvability == []
    p = sample_points(s, count=7)
    assert ac.coefficients_at(p).shape == (7, 0, 2)
    assert ac.adapted_values(p).shape == (7, 0, 2)
    assert ac.adapted_values(p[0]).shape == (0, 2)
    assert verify_flat_complement(s, ac, p) == 0.0
