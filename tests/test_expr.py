"""Expression kernel: parsing, printing, calculus, and simplification."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srlab import expr as ex


# ---------------------------------------------------------------------------
# parsing and rendering


def test_parse_literals_are_exact_rationals():
    assert ex.parse("5").value == Fraction(5)
    assert ex.simplify(ex.parse("2/4")).value == Fraction(1, 2)
    assert ex.simplify(ex.parse("1/3 + 1/6")).value == Fraction(1, 2)


def test_parse_float_literals_stay_floats():
    c = ex.parse("0.25")
    assert isinstance(c, ex.Const)
    assert c.value == 0.25


def test_precedence_and_grouping():
    assert ex.evaluate(ex.parse("2+3*4"), np.zeros(1)) == 14.0
    assert ex.evaluate(ex.parse("(2+3)*4"), np.zeros(1)) == 20.0
    assert ex.evaluate(ex.parse("2*3^2"), np.zeros(1)) == 18.0
    assert ex.evaluate(ex.parse("-x0^2"), np.array([2.0])) == -4.0
    assert ex.evaluate(ex.parse("2^-1"), np.zeros(1)) == 0.5


def test_parse_functions_and_variables():
    e = ex.parse("sin(x0)*cos(x1) + exp(x2)")
    p = np.array([0.3, 0.7, -0.2])
    want = np.sin(0.3) * np.cos(0.7) + np.exp(-0.2)
    assert abs(ex.evaluate(e, p) - want) < 1e-15
    assert ex.variables(e) == {0, 1, 2}


def test_parse_error_carries_position():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x0 + ")
    assert err.value.position == 5
    with pytest.raises(ex.ParseError) as err:
        ex.parse("2 + foo")
    assert err.value.position == 4
    with pytest.raises(ex.ParseError):
        ex.parse("x0^x1")  # exponents must be integer literals
    with pytest.raises(ex.ParseError):
        ex.parse("(x0")


def test_parse_dim_bounds_variable_indices():
    ex.parse("x2", dim=3)
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x3", dim=3)
    assert "x3" in str(err.value)


def test_literal_zero_denominator_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse("1/0")
    with pytest.raises(ex.ExprError):
        ex.Div(ex.ONE, ex.Const(0))
    # a denominator that merely folds to zero parses, but simplify and
    # evaluation both refuse it
    e = ex.parse("x0/(1-1)")
    with pytest.raises(ex.ExprError):
        ex.simplify(e)
    with pytest.raises(ex.EvalError):
        ex.evaluate(e, np.array([1.0]))


def test_render_parse_round_trip_examples():
    for text in [
        "x0^2 + 2*x1",
        "sin(x2)*cos(x0) - 1/2",
        "exp(-x0) / (2 + sin(x1))",
        "-(x0 + x1)^3",
        "1/3 + x0*0.125",
    ]:
        e = ex.parse(text)
        again = ex.parse(ex.render(e))
        assert ex.equivalent(e, again, dim=3)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_batched_points():
    e = ex.parse("x0^2 + x1")
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
    out = ex.evaluate(e, pts)
    assert out.shape == (3,)
    assert np.allclose(out, [3.0, 13.0, 0.0])


def test_evaluate_division_by_zero_raises():
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse("1/x0"), np.zeros(1))


def test_evaluate_nonfinite_raises():
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse("exp(x0)"), np.array([1e6]))


# ---------------------------------------------------------------------------
# calculus


def test_derivative_oracles():
    x = np.array([0.37])
    d = ex.differentiate(ex.parse("sin(x0)"), 0)
    assert abs(ex.evaluate(d, x) - np.cos(0.37)) < 1e-15
    d = ex.differentiate(ex.parse("exp(2*x0)"), 0)
    assert abs(ex.evaluate(d, x) - 2 * np.exp(0.74)) < 1e-14
    d = ex.differentiate(ex.parse("x0^3"), 0)
    assert abs(ex.evaluate(d, x) - 3 * 0.37**2) < 1e-15
    # quotient rule
    d = ex.differentiate(ex.parse("x0/(1+x0^2)"), 0)
    t = 0.37
    want = (1 - t * t) / (1 + t * t) ** 2
    assert abs(ex.evaluate(d, x) - want) < 1e-14
    # derivative along an absent axis is zero
    d = ex.differentiate(ex.parse("sin(x0)"), 1)
    assert ex.equivalent(d, ex.ZERO, dim=2)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(5)
    exprs = [
        "sin(x0)*cos(x1) + x0^2*x1",
        "exp(x0/2) - x1/(2+sin(x0))",
        "(x0 + 2*x1)^3 / 4",
    ]
    h = 1e-6
    for text in exprs:
        e = ex.parse(text)
        for axis in (0, 1):
            d = ex.differentiate(e, axis)
            for _ in range(5):
                p = rng.uniform(-1, 1, size=2)
                step = np.zeros(2)
                step[axis] = h
                fd = (ex.evaluate(e, p + step) - ex.evaluate(e, p - step)) / (
                    2 * h
                )
                assert abs(ex.evaluate(d, p) - fd) < 1e-8


# ---------------------------------------------------------------------------
# simplification


def test_simplify_folds_and_prunes():
    assert ex.simplify(ex.parse("2+3")).value == Fraction(5)
    x = ex.Var(0)
    assert ex.simplify(ex.Add(x, ex.ZERO)) is x
    assert ex.simplify(ex.Mul(x, ex.ONE)) is x
    assert ex.simplify(ex.Mul(x, ex.ZERO)).value == 0
    assert ex.simplify(ex.Neg(ex.Neg(x))) is x


def test_simplify_preserves_value_on_samples():
    texts = [
        "0*sin(x0) + (1+1)*x1 - x1",
        "x0*1 + 0/(-2) + cos(0*x1)",
        "-(-(x0)) + 2^3",
    ]
    for text in texts:
        e = ex.parse(text)
        assert ex.equivalent(e, ex.simplify(e), dim=2)


def test_equivalent_detects_difference():
    a = ex.parse("sin(x0)^2 + cos(x0)^2")
    assert ex.equivalent(a, ex.ONE, dim=1)
    assert not ex.equivalent(ex.parse("x0"), ex.parse("x0 + 1/1000000"), dim=1)


# ---------------------------------------------------------------------------
# property tests: random expression trees


def _leaves():
    consts = st.one_of(
        st.integers(min_value=-4, max_value=4).map(lambda n: ex.Const(Fraction(n))),
        st.fractions(
            min_value=-3, max_value=3, max_denominator=8
        ).map(ex.Const),
        st.floats(
            min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False
        ).map(ex.Const),
    )
    return st.one_of(consts, st.integers(0, 2).map(ex.Var))


def _combine(children):
    unary = st.one_of(
        children.map(ex.Neg),
        children.map(ex.Sin),
        children.map(ex.Cos),
    )
    binary = st.one_of(
        st.tuples(children, children).map(lambda t: ex.Add(*t)),
        st.tuples(children, children).map(lambda t: ex.Mul(*t)),
        # keep denominators bounded away from zero so evaluation is total
        st.tuples(children, children).map(
            lambda t: ex.Div(t[0], ex.Add(ex.Const(Fraction(3)), ex.Sin(t[1])))
        ),
        st.tuples(children, st.integers(0, 3)).map(lambda t: ex.Pow(*t)),
    )
    return st.one_of(unary, binary)


def expressions():
    return st.recursive(_leaves(), _combine, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(expressions(), st.integers(0, 2**31 - 1))
def test_property_render_parse_round_trip(e, seed):
    rng = np.random.default_rng(seed)
    text = ex.render(e)
    again = ex.parse(text, dim=3)
    pts = rng.uniform(-2, 2, size=(8, 3))
    a = np.asarray(ex.evaluate(e, pts))
    b = np.asarray(ex.evaluate(again, pts))
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


@settings(max_examples=120, deadline=None)
@given(expressions(), st.integers(0, 2**31 - 1))
def test_property_simplify_is_equivalent(e, seed):
    rng = np.random.default_rng(seed)
    simple = ex.simplify(e)
    pts = rng.uniform(-2, 2, size=(8, 3))
    a = np.asarray(ex.evaluate(e, pts))
    b = np.asarray(ex.evaluate(simple, pts))
    scale = 1.0 + np.max(np.abs(a))
    assert np.max(np.abs(a - b)) <= 1e-11 * scale


@settings(max_examples=80, deadline=None)
@given(expressions(), st.integers(0, 2), st.integers(0, 2**31 - 1))
def test_property_derivative_matches_finite_differences(e, axis, seed):
    rng = np.random.default_rng(seed)
    d = ex.differentiate(e, axis)
    p = rng.uniform(-1, 1, size=3)
    h = 1e-5
    step = np.zeros(3)
    step[axis] = h
    f_plus = float(ex.evaluate(e, p + step))
    f_minus = float(ex.evaluate(e, p - step))
    val = float(ex.evaluate(d, p))
    assume(abs(f_plus) < 1e4 and abs(f_minus) < 1e4 and abs(val) < 1e4)
    fd = (f_plus - f_minus) / (2 * h)
    # second-order stencil: error ~ h^2 * |f'''|; tolerate scale
    assert abs(val - fd) <= 1e-4 * (1.0 + abs(val) + abs(fd))


@settings(max_examples=60, deadline=None)
@given(expressions(), expressions(), st.integers(0, 2))
def test_property_derivative_is_linear_and_leibniz(a, b, axis):
    pts = np.random.default_rng(7).uniform(-1, 1, size=(5, 3))
    da = ex.differentiate(a, axis)
    db = ex.differentiate(b, axis)
    d_sum = ex.differentiate(ex.Add(a, b), axis)
    d_prod = ex.differentiate(ex.Mul(a, b), axis)
    va = np.asarray(ex.evaluate(a, pts))
    vb = np.asarray(ex.evaluate(b, pts))
    vda = np.asarray(ex.evaluate(da, pts))
    vdb = np.asarray(ex.evaluate(db, pts))
    scale = 1.0 + np.max(np.abs(va)) + np.max(np.abs(vb)) + np.max(
        np.abs(vda)
    ) + np.max(np.abs(vdb))
    assume(scale < 1e5)
    assert np.max(
        np.abs(np.asarray(ex.evaluate(d_sum, pts)) - (vda + vdb))
    ) <= 1e-9 * scale
    assert np.max(
        np.abs(np.asarray(ex.evaluate(d_prod, pts)) - (vda * vb + va * vdb))
    ) <= 1e-9 * scale**2


def _nested(flat, shape):
    """``flat`` arranged as nested lists of ``shape``."""
    if len(shape) == 1:
        return list(flat)
    step = int(np.prod(shape[1:]))
    return [_nested(flat[i * step : (i + 1) * step], shape[1:]) for i in range(shape[0])]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_property_evaluate_array_matches_evaluate(data, dims):
    # a zero ends the shape: an empty list has no inner dimensions
    shape = tuple(dims[: dims.index(0) + 1] if 0 in dims else dims)
    size = int(np.prod(shape))
    flat = data.draw(st.lists(expressions(), min_size=size, max_size=size))
    exprs = _nested(flat, shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    count = data.draw(st.integers(0, 4))
    for pts in (rng.uniform(-2, 2, size=3), rng.uniform(-2, 2, size=(count, 3))):
        out = ex.evaluate_array(exprs, pts)
        assert out.shape == pts.shape[:-1] + shape
        for index, e in zip(np.ndindex(*shape), flat):
            want = np.asarray(ex.evaluate(e, pts), dtype=float)
            assert out[(...,) + index].tobytes() == want.tobytes()


def test_evaluate_array_shapes():
    x0, x1 = ex.parse("x0"), ex.parse("x1")
    p = np.array([2.0, 3.0])
    square = ex.evaluate_array([[x0, x1], [x1, x0]], p)
    assert square.tolist() == [[2.0, 3.0], [3.0, 2.0]]
    batch = np.array([[2.0, 3.0], [5.0, 7.0], [1.0, 0.0]])
    assert ex.evaluate_array((x0, x1), batch).tolist() == batch.tolist()
    assert ex.evaluate_array([], batch).shape == (3, 0)
    assert ex.evaluate_array([[], []], p).shape == (2, 0)


@settings(max_examples=80, deadline=None)
@given(st.lists(expressions(), max_size=5))
def test_property_add_terms_is_the_simplified_left_fold(terms):
    total = None
    for t in terms:
        total = t if total is None else ex.Add(total, t)
    want = ex.ZERO if total is None else ex.simplify(total)
    assert ex.render(ex.add_terms(terms)) == ex.render(want)
    assert ex.render(ex.add_terms(iter(terms))) == ex.render(want)


@settings(max_examples=120, deadline=None)
@given(expressions())
def test_property_simplify_is_idempotent(e):
    once = ex.simplify(e)
    assert ex.render(ex.simplify(once)) == ex.render(once)
