"""Frames, brackets, flags, regularity, fatness."""

import numpy as np
import pytest
from hypothesis import example, given, settings

from srlab import expr as ex
from srlab import geometry
from srlab.cli import main
from srlab.geometry import (
    StructureError,
    SubRiemannianStructure,
    VectorField,
    cartan_residual,
    hausdorff_dimension,
    hormander_flag,
    is_fat,
    is_regular,
    lie_bracket,
    linear_combination,
    structure_constants,
)

from conftest import (
    FIXTURE_NAMES,
    batch_cases,
    batch_points,
    cached_structure,
    sample_points,
    structure,
)


def _vf(*texts):
    return VectorField([ex.parse(t) for t in texts])


# ---------------------------------------------------------------------------
# fields and brackets


def test_vector_field_applies_as_derivation(heisenberg):
    X1 = heisenberg.horizontal[0]  # (1, 0, -x1/2)
    out = X1.apply(ex.parse("x2"))
    p = np.array([0.3, 0.8, 0.1])
    assert abs(ex.evaluate(out, p) - (-0.4)) < 1e-15


def test_vector_field_batch_evaluation(heisenberg):
    X2 = heisenberg.horizontal[1]  # (0, 1, x0/2)
    pts = np.array([[0.2, 0.0, 0.0], [0.6, 0.1, 0.3]])
    vals = X2.evaluate(pts)
    assert vals.shape == (2, 3)
    assert np.allclose(vals, [[0.0, 1.0, 0.1], [0.0, 1.0, 0.3]])


def test_heisenberg_bracket_is_vertical(heisenberg):
    X1, X2 = heisenberg.horizontal
    B = lie_bracket(X1, X2)
    # [X1, X2] = d/dx2: coefficients (0, 0, 1)
    for j, want in enumerate([0.0, 0.0, 1.0]):
        assert ex.equivalent(B.coefficients[j], ex.Const(want), dim=3)


def test_engel_bracket_tower(engel):
    X1, X2 = engel.horizontal
    B = lie_bracket(X1, X2)  # = d/dx2
    for j, want in enumerate([0.0, 0.0, 1.0, 0.0]):
        assert ex.equivalent(B.coefficients[j], ex.Const(want), dim=4)
    B2 = lie_bracket(B, X2)  # = d/dx3
    for j, want in enumerate([0.0, 0.0, 0.0, 1.0]):
        assert ex.equivalent(B2.coefficients[j], ex.Const(want), dim=4)


def test_bracket_antisymmetry_and_jacobi_numeric(contact):
    fields = list(contact.frame)
    pts = sample_points(contact, 10)
    a, b, c = fields
    ab = lie_bracket(a, b)
    ba = lie_bracket(b, a)
    for p in pts:
        assert np.allclose(ab.evaluate(p), -ba.evaluate(p), atol=1e-12)
    jac = [
        lie_bracket(lie_bracket(a, b), c),
        lie_bracket(lie_bracket(b, c), a),
        lie_bracket(lie_bracket(c, a), b),
    ]
    for p in pts:
        total = sum(f.evaluate(p) for f in jac)
        assert np.max(np.abs(total)) < 1e-12


def test_linear_combination_matches_pointwise(heisenberg):
    X1, X2 = heisenberg.horizontal
    T = heisenberg.complement[0]
    combo = linear_combination(
        [ex.Const(2), ex.parse("x1")], [X1, X2], base=T
    )
    p = np.array([0.4, -0.3, 0.2])
    want = 2 * X1.evaluate(p) + (-0.3) * X2.evaluate(p) + T.evaluate(p)
    assert np.allclose(combo.evaluate(p), want, atol=1e-15)


def test_fields_take_expressions_only(heisenberg):
    with pytest.raises(TypeError, match="parse strings first"):
        VectorField([1, 0])
    with pytest.raises(TypeError, match="parse strings first"):
        VectorField([ex.ONE, "x0"])
    with pytest.raises(TypeError):
        linear_combination([0.5], heisenberg.horizontal[:1])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_bracket_store_renders_as_the_layer_construction(name):
    # each flag layer as [X, f] for f in the layer below and X horizontal,
    # and each frame pair as [E_u, E_v], built here without the store
    s = structure(name)
    layer = list(s.horizontal)
    words = [(i,) for i in range(s.k)]
    for _ in range(3):
        assert [repr(s.bracket(w)) for w in words] == [repr(f) for f in layer]
        layer = [lie_bracket(X, f) for f in layer for X in s.horizontal]
        words = [(i,) + w for w in words for i in range(s.k)]
    for u in range(s.dim):
        for v in range(u + 1, s.dim):
            want = lie_bracket(s.frame[u], s.frame[v])
            assert repr(s.bracket((u, v))) == repr(want)


def test_check_builds_each_bracket_once(capsys, monkeypatch):
    # the flag and the structure constants share [X_i, X_j]: 21 brackets
    # for carnot-step2, where one store per use built 24
    calls = []
    bracket = geometry.lie_bracket

    def counted(X, Y):
        calls.append(1)
        return bracket(X, Y)

    monkeypatch.setattr(geometry, "lie_bracket", counted)
    assert main(["check", "carnot-step2", "--lattice", "4"]) == 0
    capsys.readouterr()
    assert len(calls) == 21


# ---------------------------------------------------------------------------
# structure constants


def test_heisenberg_structure_constants(heisenberg):
    data = structure_constants(heisenberg, np.array([0.3, -0.2, 0.5]))
    table = data.table
    # [X1, X2] = T exactly, everything else zero
    want = np.zeros((3, 3, 3))
    want[0, 1, 2] = 1.0
    want[1, 0, 2] = -1.0
    assert np.allclose(table, want, atol=1e-14)
    assert np.allclose(data.C_vertical[0, 1], [1.0])
    assert np.allclose(data.C_horizontal, 0.0)


def test_structure_constants_antisymmetry(engel):
    for p in sample_points(engel, 5):
        table = structure_constants(engel, p).table
        assert np.allclose(table, -table.transpose(1, 0, 2), atol=1e-12)


def test_contact_constants_match_frame_expansion(contact):
    # [X1, X2] = -T and [X2, T] = -X1 for the rotating contact frame
    for p in sample_points(contact, 6):
        table = structure_constants(contact, p).table
        want = np.zeros((3, 3, 3))
        want[0, 1, 2] = -1.0
        want[1, 0, 2] = 1.0
        want[1, 2, 0] = -1.0
        want[2, 1, 0] = 1.0
        assert np.allclose(table, want, atol=1e-12)


# ---------------------------------------------------------------------------
# flags, degree, dimension


def test_flag_dims_and_degree_all_fixtures(
    heisenberg, carnot, contact, engel, martinet, trivial, integrable
):
    origin = {
        "heisenberg": ((2, 3), 2, 4),
        "carnot": ((3, 6), 2, 9),
        "contact": ((2, 3), 2, 4),
        "engel": ((2, 3, 4), 3, 7),
        "martinet": ((2, 2, 3), 3, 5),
    }
    structures = {
        "heisenberg": heisenberg,
        "carnot": carnot,
        "contact": contact,
        "engel": engel,
        "martinet": martinet,
    }
    for name, (dims, degree, Q) in origin.items():
        s = structures[name]
        flag = hormander_flag(s, np.zeros(s.dim))
        assert tuple(flag.dims) == dims, name
        assert flag.degree == degree, name
        assert hausdorff_dimension(flag.dims) == Q, name
    # the non-generating controls never fill the tangent space
    for s in (trivial, integrable):
        flag = hormander_flag(s, np.zeros(s.dim))
        assert flag.degree is None
        assert flag.dims[-1] < s.dim


def test_martinet_degree_jumps_off_the_singular_line(martinet):
    generic = hormander_flag(martinet, np.array([0.23, 0.0, 0.0]))
    assert tuple(generic.dims) == (2, 3)
    assert generic.degree == 2
    singular = hormander_flag(martinet, np.zeros(3))
    assert singular.degree == 3


def test_flag_dims_monotone(engel, contact):
    for s in (engel, contact):
        for p in sample_points(s, 8):
            dims = hormander_flag(s, p).dims
            assert all(b >= a for a, b in zip(dims, dims[1:]))
            assert dims[-1] <= s.dim


def test_regularity_verdicts(heisenberg, carnot, engel, martinet, integrable):
    assert is_regular(heisenberg).regular
    assert is_regular(carnot).regular
    assert is_regular(engel).regular
    assert is_regular(integrable).regular
    assert not is_regular(martinet).regular


BLOCK_SIZES = (1, 1023, 1024, 1025, 2049)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_blocked_regularity_matches_one_batch_flags(name, monkeypatch):
    # the points straddle the 1024-point blocks; the origin, on martinet's
    # singular line, sits in the second block
    s = cached_structure(name)
    points = sample_points(s, max(BLOCK_SIZES), seed=5)
    points[1024] = 0.0
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_FLAG_BLOCK", len(points))  # one batch
        flags = hormander_flag(s, points)
    padded = [f.dims + (s.dim,) * (6 - len(f.dims)) for f in flags]
    for i in (0, 1022, 1023, 1024, 1025, 2047, 2048):
        assert flags[i] == hormander_flag(s, points[i])
    for n in BLOCK_SIZES:
        report = is_regular(s, points[:n])
        assert report.dims.shape == (n, 6)
        assert [tuple(row) for row in report.dims.tolist()] == padded[:n]
        assert report.regular == (len(set(padded[:n])) == 1)
        assert s.validate(points[:n])
    assert is_regular(s, points[:1024]).regular
    assert is_regular(s, points).regular == (name != "martinet")


def _one_batch_validate(s, points, tol=1e-10):
    """The frame check on the whole batch at once: the message naming the
    first singular point, or None."""
    F = s.frame_matrix(points)
    norms = np.linalg.norm(F, axis=1)
    scale = np.maximum(np.prod(norms, axis=-1), np.finfo(float).tiny)
    bad = np.abs(np.linalg.det(F)) <= tol * scale
    if not np.any(bad):
        return None
    p = np.asarray(points)[bad][0]
    return "frame matrix singular at point %s" % np.array2string(p, precision=6)


def test_validate_names_the_first_singular_point_of_a_later_block():
    # det F = sin(x1): singular on x1 = 0 only, first met in the second block
    s = SubRiemannianStructure(
        dim=2,
        periods=(2 * np.pi, 2 * np.pi),
        horizontal=(_vf("1", "0"), _vf("cos(x1)", "sin(x1)")),
        complement=(),
    )
    points = np.random.default_rng(3).uniform(0.5, 2.5, size=(2049, 2))
    points[[1500, 1800, 2048], 1] = 0.0
    points[1500, 0] = 1.0 / 3.0
    want = _one_batch_validate(s, points)
    assert want == "frame matrix singular at point [0.333333 0.      ]"
    for n in (1501, 2049):
        with pytest.raises(StructureError) as info:
            s.validate(points[:n])
        assert str(info.value) == want
    assert s.validate(points[:1500])
    assert _one_batch_validate(s, points[:1500]) is None


def test_hausdorff_dimension_formula():
    assert hausdorff_dimension((2, 3)) == 4
    assert hausdorff_dimension((3, 6)) == 9
    assert hausdorff_dimension((2, 3, 4)) == 7
    assert hausdorff_dimension((2, 2, 3)) == 5


@settings(max_examples=60, deadline=None)
@given(case=batch_cases())
@example(
    case=(
        "martinet",
        [[4e-11, 0.3, 0.6, 0, 0, 0], [0.9, 0.2, 0.1, 0, 0, 0], [0.0] * 6],
    )
)
@example(case=("contact3torus", [[0.11, 0.37, 0.62, 0, 0, 0], [0.8, 0.05, 0.93, 0, 0, 0]]))
def test_batched_flag_and_constants_equal_pointwise(case):
    s, pts = batch_points(case)
    flags = hormander_flag(s, pts)
    tables = structure_constants(s, pts).table
    assert len(flags) == len(pts)
    assert tables.shape == (len(pts),) + (s.dim,) * 3
    for p, flag, table in zip(pts, flags, tables):
        assert flag == hormander_flag(s, p)
        assert np.array_equal(table, structure_constants(s, p).table)
        F = s.frame_matrix(p)
        for u in range(s.dim):
            assert not np.any(table[u, u])
            for v in range(u + 1, s.dim):
                want = np.linalg.solve(F, s.bracket((u, v)).evaluate(p))
                assert np.array_equal(table[u, v], want)
                assert np.array_equal(table[v, u], -want)


# ---------------------------------------------------------------------------
# fatness


def test_fatness_verdicts(heisenberg, contact, engel, carnot, trivial):
    assert is_fat(heisenberg, np.zeros(3)).fat
    assert is_fat(contact, np.zeros(3)).fat
    engel_res = is_fat(engel, np.zeros(4))
    assert not engel_res.fat
    assert engel_res.witness is not None
    # odd vertical rank forces a singular pencil entry
    assert not is_fat(carnot, np.zeros(6)).fat
    trivial_res = is_fat(trivial, np.zeros(2))
    assert not trivial_res.fat
    assert trivial_res.witness is not None


def test_fat_witness_is_annihilator_direction(engel):
    res = is_fat(engel, np.zeros(4))
    lam = res.witness
    data = structure_constants(engel, np.zeros(4))
    M = np.tensordot(data.C_vertical, lam, axes=([2], [0]))
    assert abs(np.linalg.det(M)) < 1e-12


def test_fatness_seeded_and_deterministic(heisenberg):
    a = is_fat(heisenberg, np.zeros(3), rng=np.random.default_rng(42))
    b = is_fat(heisenberg, np.zeros(3), rng=np.random.default_rng(42))
    assert a.fat == b.fat and a.tested == b.tested


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fatness_takes_a_seed_or_a_generator(name):
    s = cached_structure(name)
    for point in np.vstack([np.zeros(s.dim), sample_points(s, 3)]):
        for seed in (0, 7, 42):
            a = is_fat(s, point, rng=seed)
            b = is_fat(s, point, rng=np.random.default_rng(seed))
            assert (a.fat, a.tested) == (b.fat, b.tested)
            if a.witness is None:
                assert b.witness is None
            else:
                assert a.witness.tobytes() == b.witness.tobytes()
        # None, passed on by a caller with no rng of its own, is seed 42
        a, b = is_fat(s, point, rng=None), is_fat(s, point, rng=42)
        assert (a.fat, a.tested) == (b.fat, b.tested)
        assert (a.witness is None) == (b.witness is None)
        if a.witness is not None:
            assert a.witness.tobytes() == b.witness.tobytes()


def test_fatness_draws_only_past_the_basis_covectors(heisenberg, carnot):
    # carnot-step2: e_0 is singular at the origin, so no random covector
    # is drawn; heisenberg is fat, so all 32 are drawn and tested
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    res = is_fat(carnot, np.zeros(6), rng=rng)
    assert rng.bit_generator.state == state
    assert not res.fat and res.tested == 3 + 32
    assert res.witness.tobytes() == np.eye(3)[0].tobytes()
    res = is_fat(heisenberg, np.zeros(3), rng=rng)
    assert res.fat and res.witness is None and res.tested == 1 + 32
    drawn = np.random.default_rng(7)
    drawn.normal(size=(32, 1))
    assert rng.bit_generator.state == drawn.bit_generator.state
    assert is_fat(heisenberg, np.zeros(3)) == res


def _is_fat_loop(s, point, samples=32, rng=None, tol=1e-10):
    """Reference strong-bracket test: one covector at a time, first hit wins."""
    C = structure_constants(s, point).C_vertical
    q = s.dim - s.k
    if q == 0:
        return True, None, 0
    lams = [np.eye(q)[b] for b in range(q)]
    while len(lams) < q + samples:
        v = rng.normal(size=q)
        if np.linalg.norm(v) > 1e-12:
            lams.append(v / np.linalg.norm(v))
    for lam in lams:
        M = np.tensordot(C, lam, axes=([2], [0]))
        scale = max(float(np.prod(np.linalg.norm(M, axis=1))), np.finfo(float).tiny)
        if abs(np.linalg.det(M)) <= tol * scale:
            return False, lam, len(lams)
    return True, None, len(lams)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_batched_fatness_matches_covector_loop(name):
    s = cached_structure(name)
    for point in np.vstack([np.zeros(s.dim), sample_points(s, 3)]):
        for seed in (0, 7, 42):
            got = is_fat(s, point, rng=np.random.default_rng(seed))
            fat, witness, tested = _is_fat_loop(
                s, point, rng=np.random.default_rng(seed)
            )
            assert (got.fat, got.tested) == (fat, tested)
            if witness is None:
                assert got.witness is None
            else:
                assert got.witness.tobytes() == witness.tobytes()


# ---------------------------------------------------------------------------
# exterior calculus spot check


def test_cartan_residual_vanishes(contact):
    omega = [ex.parse("sin(x1)"), ex.ZERO, ex.parse("x0")]
    X, Y = contact.horizontal
    for p in sample_points(contact, 10):
        assert cartan_residual(omega, X, Y, p) < 1e-12


# ---------------------------------------------------------------------------
# structure validation


def test_structure_requires_matching_counts():
    X = _vf("1", "0")
    with pytest.raises(StructureError):
        SubRiemannianStructure(
            dim=2, periods=(1.0,), horizontal=(X,), complement=()
        )
    with pytest.raises(StructureError):
        SubRiemannianStructure(
            dim=2, periods=(1.0, 1.0), horizontal=(X,), complement=()
        )
    with pytest.raises(StructureError):
        SubRiemannianStructure(
            dim=2, periods=(1.0, -1.0), horizontal=(X,), complement=(_vf("0", "1"),)
        )


def test_validate_rejects_degenerate_frame():
    X = _vf("1", "0")
    s = SubRiemannianStructure(
        dim=2, periods=(1.0, 1.0), horizontal=(X, X), complement=()
    )
    with pytest.raises(StructureError):
        s.validate()


def test_sample_lattice_includes_origin(contact):
    pts = contact.sample_lattice(5)
    assert pts.shape == (125, 3)
    assert np.allclose(pts[0], 0.0)
    assert np.max(pts) < 2 * np.pi
