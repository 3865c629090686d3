"""Frames, brackets, flags, regularity, fatness."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srlab import expr as ex
from srlab import geometry
from srlab.cli import build_structure, main
from srlab.expr import render
from srlab.geometry import (
    FlagResult,
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

from commands import SINGULAR
from conftest import (
    _FRACTIONS,
    FIXTURE_NAMES,
    batch_cases,
    batch_points,
    cached_structure,
    full_lattice,
    oracle_distinct_points,
    oracle_flag_dims,
    oracle_lie_bracket,
    oracle_validate,
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
    # and each frame pair as [E_u, E_v], built here without the store or
    # the cached partials; every field's partials are d_i c_j
    s = structure(name)
    layer = list(s.horizontal)
    words = [(i,) for i in range(s.k)]
    for depth in range(1, 4):
        fields = [s.bracket(w) for w in words]
        assert [repr(f) for f in fields] == [repr(f) for f in layer]
        for f in fields:
            assert [[render(d) for d in row] for row in f._partial_table()] == [
                [render(ex.differentiate(c, i)) for c in f.coefficients]
                for i in range(s.dim)
            ]
        layer = [oracle_lie_bracket(X, f) for f in layer for X in s.horizontal]
        words = [(i,) + w for w in words for i in range(s.k)]
    for u in range(s.dim):
        for v in range(u + 1, s.dim):
            want = oracle_lie_bracket(s.frame[u], s.frame[v])
            assert repr(s.bracket((u, v))) == repr(want)


@pytest.mark.parametrize(
    "argv, brackets, partials",
    [
        # k = 3 is odd, so fatness needs no structure constant: the 9
        # brackets of the flag's second layer, whose partials read the 3
        # horizontal fields' tables of 6 * 6 entries
        (("carnot-step2", "--lattice", "4"), 9, 3 * 36),
        # k = 2: the flag's 4 + 8 brackets and the 6 frame pairs share
        # [X_0, X_1], and 8 fields (the frame and 4 brackets) are
        # differentiated, 4 * 4 entries each
        (("engel",), 17, 8 * 16),
    ],
)
def test_check_builds_each_bracket_once(
    capsys, monkeypatch, argv, brackets, partials
):
    calls = {"lie_bracket": 0, "differentiate": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(geometry, name, counted(name, getattr(geometry, name)))
    assert main(["check", *argv]) == 0
    capsys.readouterr()
    assert calls == {"lie_bracket": brackets, "differentiate": partials}


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
    assert np.allclose(table[:2, :2, :2], 0.0)


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
    want = oracle_validate(s, points)
    assert want == "frame matrix singular at point [0.333333 0.      ]"
    for n in (1501, 2049):
        with pytest.raises(StructureError) as info:
            s.validate(points[:n])
        assert str(info.value) == want
    assert s.validate(points[:1500])
    assert oracle_validate(s, points[:1500]) is None


def _singular_structure():
    """det F = cos(x0) on the 2 pi torus: singular on x0 = pi / 2, a point
    of every lattice with a multiple of 4 points per axis."""
    return build_structure(SINGULAR)[0]


@st.composite
def swept_points(draw):
    """(structure, points, block): a fixture's lattice, or the singular
    frame's lattice of 4 per axis, and random points, with some points
    repeated, shuffled, swept in blocks of ``block``; at most 416 points,
    so a block of 3 stays fast."""
    name = draw(st.sampled_from(FIXTURE_NAMES + ["singular"]))
    if name == "singular":
        s, per_axis = _singular_structure(), 4
    else:
        s = cached_structure(name)
        per_axis = draw(st.integers(1, max(1, int(200 ** (1 / s.dim)))))
    fractions = draw(st.lists(st.lists(_FRACTIONS, min_size=6, max_size=6), max_size=8))
    points = s.sample_lattice(per_axis)
    if fractions:
        points = np.vstack(
            [points, np.asarray(fractions)[:, : s.dim] * np.asarray(s.periods)]
        )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    repeats = rng.integers(0, len(points), size=draw(st.integers(0, len(points))))
    points = rng.permutation(np.vstack([points, points[repeats]]))
    return s, points, draw(st.sampled_from([3, 64, 1024]))


@settings(max_examples=60, deadline=None)
@given(case=swept_points())
@example(case=(_singular_structure(), _singular_structure().sample_lattice(4), 3))
def test_distinct_point_sweeps_match_the_per_point_oracle(case):
    s, points, block = case
    with mock.patch.object(geometry, "_FLAG_BLOCK", block):
        want = oracle_validate(s, points)
        try:
            got = s.validate(points) and None
        except StructureError as err:
            got = str(err)
        assert got == want
        dims = oracle_flag_dims(s, points)
        report = is_regular(s, points)
        assert np.array_equal(report.dims, dims)
        assert report.regular == bool(np.all(dims == dims[0]))
        flags = hormander_flag(s, points)
    full = dims == s.dim
    for row, is_full, flag in zip(dims.tolist(), full, flags):
        degree = int(is_full.argmax()) + 1 if is_full.any() else None
        assert flag == FlagResult(dims=tuple(row[: degree or 6]), degree=degree)


def test_distinct_points_read_only_the_axes_of_the_frame(carnot):
    # carnot-step2's frame reads x0..x2: its 4^6 lattice has 4^3 distinct
    # points, first seen in lattice order, and sample_lattice builds those
    full = full_lattice(carnot, 4)
    index, inverse = oracle_distinct_points(carnot, full)
    assert len(index) == 64 and list(index) == sorted(index)
    assert np.array_equal(full[index][inverse][:, :3], full[:, :3])
    points = carnot.sample_lattice(4)
    assert points.tobytes() == full[index].tobytes()
    assert not np.any(points[:, 3:])
    # a frame that reads no axis has one lattice point, the origin
    constant = SubRiemannianStructure(
        dim=2,
        periods=(1.0, 1.0),
        horizontal=(_vf("1", "0"),),
        complement=(_vf("0", "1"),),
    )
    index, inverse = oracle_distinct_points(constant, full_lattice(constant, 3))
    assert list(index) == [0] and list(inverse) == [0] * 9
    assert constant.sample_lattice(3).tobytes() == np.zeros((1, 2)).tobytes()
    # a frame reading all six axes: 2000^6 codes overflow int64 at the last
    # axis, so the oracle renumbers its codes first; -0.0 and 0.0 differ in
    # bits; its lattice is the full one
    wide = SubRiemannianStructure(
        dim=6,
        periods=(1.0,) * 6,
        horizontal=tuple(
            _vf(*("x%d" % j if i == j else "0" for i in range(6))) for j in range(6)
        ),
        complement=(),
    )
    rng = np.random.default_rng(4)
    points = rng.uniform(size=(2000, 6))
    points[:2] = [[0.0] * 6, [-0.0] + [0.0] * 5]
    points = rng.permutation(np.vstack([points, points[::3]]))
    index, inverse = oracle_distinct_points(wide, points)
    assert len(index) == 2000 and list(index) == sorted(index)
    assert points[index][inverse].tobytes() == points.tobytes()
    assert wide.sample_lattice(3).tobytes() == full_lattice(wide, 3).tobytes()


@pytest.mark.parametrize("per_axis", range(1, 7))
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_sample_lattice_is_the_first_of_each_distinct_point(name, per_axis):
    # the lattice on the read axes is, bit for bit and in order, the first
    # occurrence of each distinct point of the full per_axis^m lattice
    s = cached_structure(name)
    full = full_lattice(s, per_axis)
    index, _ = oracle_distinct_points(s, full)
    assert s.sample_lattice(per_axis).tobytes() == full[index].tobytes()


@settings(max_examples=100, deadline=None)
@given(
    k=st.sampled_from([1, 3, 5, 7]),
    q=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_odd_rank_parity_is_the_first_singular_answer(k, q, seed, scale):
    # an odd skew M(lambda) is singular: the parity answer e_0 is the
    # covector _first_singular picks among the basis covectors
    upper = np.random.default_rng(seed).normal(size=(k, k, q)) * scale
    C = np.triu(upper.transpose(2, 0, 1), 1).transpose(1, 2, 0)
    C = C - C.transpose(1, 0, 2)
    witness = geometry._first_singular(C, list(np.eye(q)))
    assert witness.tobytes() == np.eye(q)[0].tobytes()


def test_odd_rank_is_decided_without_structure_constants(carnot, monkeypatch):
    def unreachable(*_):
        raise AssertionError("structure constants built for an odd rank")

    monkeypatch.setattr(geometry, "structure_constants", unreachable)
    res = is_fat(carnot, np.zeros(6))
    assert (res.fat, res.tested) == (False, 3 + 32)
    assert res.witness.tobytes() == np.eye(3)[0].tobytes()


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


def _step2(C):
    """The step-2 frame on the unit (k + q)-torus whose vertical structure
    constants are a skew (k, k, q) table C at every point:
    X_i = d_i + sum_(j, b) C_ji^b x_j / 2 d_(k+b) and T_b = d_(k+b)."""
    k, _, q = C.shape
    m = k + q

    def unit(a):
        return [ex.ONE if j == a else ex.ZERO for j in range(m)]

    horizontal = []
    for i in range(k):
        coefficients = unit(i)[:k] + [
            ex.add_terms(
                ex.Mul(ex.Const(float(C[j, i, b]) / 2), ex.Var(j))
                for j in range(k)
                if C[j, i, b]
            )
            for b in range(q)
        ]
        horizontal.append(VectorField(coefficients))
    return SubRiemannianStructure(
        dim=m,
        periods=(1.0,) * m,
        horizontal=tuple(horizontal),
        complement=tuple(VectorField(unit(k + b)) for b in range(q)),
    )


def _skew(pairs, k, q):
    """(k, k, q) table with C[i, j] = -C[j, i] = c for (i, j, c) in pairs."""
    C = np.zeros((k, k, q))
    for i, j, c in pairs:
        C[i, j], C[j, i] = c, -np.asarray(c, dtype=float)
    return C


# ROADMAP's notfat: [X0, X1] = T0 + T1 and [X2, X3] = T0 - T1, so M(lambda)
# is singular at lambda ~ (1, -1) and (1, 1), at neither basis covector
_NOTFAT = _skew([(0, 1, (1, 1)), (2, 3, (1, -1))], 4, 2)
# notfat with the T1 coefficients 3.7 and -1.3: M(lambda) is singular at
# lambda ~ (3.7, -1) and (1.3, 1), where the rows of M that vanish are
# rounding noise, so a test relative to M's own rows misses the root
_NOTFAT37 = _skew([(0, 1, (1, 3.7)), (2, 3, (1, -1.3))], 4, 2)
# left multiplication by i, j and k on the quaternions: M(lambda)^2 =
# -|lambda|^2, so every pencil of them is fat
_QUATERNION = _skew(
    [(1, 0, (1, 0, 0)), (3, 2, (1, 0, 0)), (2, 0, (0, 1, 0)), (1, 3, (0, 1, 0)),
     (3, 0, (0, 0, 1)), (2, 1, (0, 0, 1))],
    4,
    3,
)
STEP2_TABLES = {
    "notfat": _NOTFAT,
    "notfat37": _NOTFAT37,
    "quat2": _QUATERNION[..., :2],
    "quat3": _QUATERNION,
}


def _fatness_structure(name):
    if name in STEP2_TABLES:
        return _step2(STEP2_TABLES[name])
    return cached_structure(name)


def test_fatness_draws_only_past_the_basis_covectors(heisenberg, carnot):
    # carnot-step2: e_0 is singular at the origin; heisenberg (q = 1) and
    # quat2 (q = 2) are decided without random covectors; quat3 (q = 3) is
    # fat, so all 32 are drawn and tested
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    res = is_fat(carnot, np.zeros(6), rng=rng)
    assert not res.fat and res.tested == 3 + 32
    assert res.witness.tobytes() == np.eye(3)[0].tobytes()
    res = is_fat(heisenberg, np.zeros(3), rng=rng)
    assert res.fat and res.witness is None and res.tested == 1
    res = is_fat(_fatness_structure("quat2"), np.zeros(6), rng=rng)
    assert res.fat and res.witness is None and res.tested == 2 + 4
    assert rng.bit_generator.state == state
    quat3 = _fatness_structure("quat3")
    res = is_fat(quat3, np.zeros(7), rng=rng)
    assert res.fat and res.witness is None and res.tested == 3 + 32
    drawn = np.random.default_rng(7)
    drawn.normal(size=(32, 3))
    assert rng.bit_generator.state == drawn.bit_generator.state
    assert is_fat(quat3, np.zeros(7)) == res


def test_q2_fatness_is_decided_by_the_pencil_eigenvalues():
    # notfat: B^-1 A has the eigenvalues 1, 1, -1, -1; the first gives the
    # witness (1, -1) / sqrt(2).  notfat37: the witness is parallel to
    # (3.7, -1) or (1.3, 1).  quat2: B^-1 A has the eigenvalues +-i, so no
    # covector is singular
    notfat, quat2 = _fatness_structure("notfat"), _fatness_structure("quat2")
    notfat37 = _fatness_structure("notfat37")
    roots = [np.array([3.7, -1.0]), np.array([1.3, 1.0])]
    for point in np.vstack([np.zeros(6), sample_points(notfat, 3)]):
        res = is_fat(notfat, point)
        assert (res.fat, res.tested) == (False, 2 + 4)
        assert np.allclose(res.witness, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)
        res = is_fat(notfat37, point)
        assert (res.fat, res.tested) == (False, 2 + 4)
        cosines = [abs(res.witness @ r) / np.linalg.norm(r) for r in roots]
        assert max(cosines) > 1 - 1e-12
        res = is_fat(quat2, point)
        assert (res.fat, res.witness, res.tested) == (True, None, 2 + 4)
    assert is_fat(notfat, np.zeros(6)).witness.tobytes() == (
        np.array([1.0, -1.0]) / np.sqrt(2)
    ).tobytes()


@settings(max_examples=60, deadline=None)
# e0 is 6.1e-5 rad from a root: M(e0) is far from singular next to C
@example(seed=0, theta=6.103515625e-05, apart=1.0, scales=(0.125, 2.0))
@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.one_of(
        st.floats(-np.pi / 2, np.pi / 2),
        st.sampled_from([0.0, np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2]),
    ),
    apart=st.floats(0.2, np.pi - 0.2),
    scales=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
)
def test_q2_planted_singular_covector_is_the_witness(seed, theta, apart, scales):
    # M(lambda) = P^T diag(r_0 <lambda, n_0> J, r_1 <lambda, n_1> J) P with
    # n_i normal to the planted unit covectors lambda_i: M(lambda) is
    # singular at lambda ~ lambda_0 and lambda_1 only.  A 4 x 4 pencil with
    # one real singular direction has a second one, so both are planted,
    # at least 0.2 apart; the witness is parallel to one of them
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    P = Q * rng.uniform(0.5, 2.0, size=4)
    planted = [np.array([np.cos(t), np.sin(t)]) for t in (theta, theta + apart)]
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    C = np.zeros((4, 4, 2))
    for b in range(2):
        D = np.zeros((4, 4))
        for i, (lam, r) in enumerate(zip(planted, scales)):
            D[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = r * (-lam[1], lam[0])[b] * J
        C[..., b] = P.T @ D @ P
    C = (C - C.transpose(1, 0, 2)) / 2
    res = is_fat(_step2(C), np.zeros(6))
    assert not res.fat and res.tested == 2 + 4
    assert abs(np.linalg.norm(res.witness) - 1.0) < 1e-12
    assert max(abs(res.witness @ lam) for lam in planted) > 1 - 1e-9


def _is_fat_loop(s, point, samples=32, rng=None, tol=1e-10):
    """Reference strong-bracket test: one covector at a time, first hit
    wins, over the basis covectors, then per eigenvalue mu of B^-1 A the
    covector (1, -Re mu) for q = 2, or ``samples`` random ones for q >= 3;
    M(lambda) is singular when sigma_min(M(lambda)) <= tol ||C||_F."""
    C = structure_constants(s, point).C_vertical
    q = s.dim - s.k
    if q == 0:
        return True, None, 0

    def covectors():
        yield from np.eye(q)
        if q == 2:
            for mu in np.linalg.eigvals(np.linalg.solve(C[..., 1], C[..., 0])):
                lam = np.array([1.0, -mu.real])
                yield lam / np.sqrt(np.sum(lam * lam))
        drawn = 0
        while q > 2 and drawn < samples:
            v = rng.normal(size=q)
            if np.linalg.norm(v) > 1e-12:
                drawn += 1
                yield v / np.linalg.norm(v)

    tested = q + {1: 0, 2: s.k}.get(q, samples)
    for lam in covectors():
        M = np.tensordot(C, lam, axes=([2], [0]))
        if np.linalg.svd(M, compute_uv=False)[-1] <= tol * np.linalg.norm(C):
            return False, lam, tested
    return True, None, tested


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(STEP2_TABLES))
def test_batched_fatness_matches_covector_loop(name):
    s = _fatness_structure(name)
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
    # contact3torus's frame reads x2 only: 5 of the 125 lattice points
    pts = contact.sample_lattice(5)
    full = full_lattice(contact, 5)
    index, _ = oracle_distinct_points(contact, full)
    assert pts.shape == (5, 3)
    assert pts.tobytes() == full[index].tobytes()
    assert np.allclose(pts[0], 0.0)
    assert np.max(pts) < 2 * np.pi
