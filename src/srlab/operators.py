"""Second-order operators attached to an orthonormal frame.

Every operator here is a sum over declared-orthonormal fields E_u of
E_u^2 - nabla_{E_u} E_u, expanded into coordinate form

    L f = sum_{j,l} a^{jl} d_j d_l f + sum_j b^j d_j f,

with a^{jl} = sum_u E_u^j E_u^l and b^j = sum_u E_u(E_u^j)
- sum_u sum_w Gamma_{uuw} E_w^j.  The connection coefficients in an
orthonormal frame depend only on the frame's structure constants,

    Gamma_{uvw} = (c_uv^w - c_vw^u + c_wu^v) / 2,

which for the frames shipped here are constant over the torus; the
builder verifies that constancy on a sample set and refuses frames
where it fails.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import expr as ex
from .expr import differentiate, simplify
from .geometry import SubRiemannianStructure, VectorField, structure_constants
from .complement import _norms, reference_mean_curvature


class FrameError(ValueError):
    """Frame data violates an assumption (e.g. non-constant constants)."""


def _frame_samples(s):
    """The origin and 9 points drawn with seed 3."""
    pts = [np.zeros(s.dim)]
    pts.extend(s.sample_points(9, seed=3))
    return np.stack(pts)


def _promote_constants(samples, what):
    """Require stacked per-point arrays to agree; snap and return the base.

    The arrays agree when their spread is at most 1e-9 * max(1, |base|).
    Zeroes entries below 1e-12 and rounds near-integer and
    near-half-integer values so downstream algebra is exact.
    """
    samples = np.asarray(samples, dtype=float)
    base = samples[0]
    spread = float(np.max(np.abs(samples - base[None])))
    scale = max(1.0, float(np.max(np.abs(base))))
    if spread > 1e-9 * scale:
        raise FrameError(
            "%s vary over the sample set (spread %.3e); "
            "constant-coefficient reduction does not apply" % (what, spread)
        )
    out = base.copy()
    out[np.abs(out) < 1e-12] = 0.0
    doubled = 2.0 * out
    near = np.abs(doubled - np.round(doubled)) < 1e-12 * np.maximum(
        1.0, np.abs(np.round(doubled))
    )
    out[near] = np.round(doubled[near]) / 2.0
    return out


def promoted_structure_constants(s):
    """The full table of frame structure constants, verified constant."""
    tables = structure_constants(s, _frame_samples(s)).table
    return _promote_constants(tables, "frame structure constants")


def connection_sums(s, use, project):
    """The constants sum_{u in use} Gamma_uuw for w in ``project``.

    These sums are the only connection data the divergence-form
    operators need, and they can stay constant over the torus even when
    the full table of structure constants does not (the table may vary
    while its diagonal traces are fixed).  They must agree, to 1e-9
    relative, at the origin and 9 points drawn with seed 3.
    """
    gamma = connection_coefficients(structure_constants(s, _frame_samples(s)).table)
    rows = np.stack([sum(gamma[:, u, u, w] for u in use) for w in project], axis=-1)
    return _promote_constants(rows, "connection sums")


def connection_coefficients(table):
    """Gamma[..., u, v, w] of the Levi-Civita connection in an orthonormal frame.

    Gamma_uvw = (c_uv^w - c_vw^u + c_wu^v) / 2; on the last three axes
    the moves below read c_vw^u as c.transpose(2, 0, 1) and c_wu^v as
    c.transpose(1, 2, 0), so a leading batch axis passes through.
    """
    c = np.asarray(table, dtype=float)
    return 0.5 * (c - np.moveaxis(c, -1, -3) + np.moveaxis(c, -3, -1))


def horizontal_connection(s, point):
    """Gamma[..., i, j, a] = g(D_{X_i} X_j, X_a) at one point or a batch.

    The horizontal connection is the horizontal block of the
    orthonormal-frame Levi-Civita coefficients of the frame's metric.
    """
    table = structure_constants(s, np.asarray(point, dtype=float)).table
    k = s.k
    return connection_coefficients(table)[..., :k, :k, :k]


def _as_const(v):
    """Exact Const for a snapped float (integers and halves stay exact)."""
    f = Fraction(v).limit_denominator(1 << 30)
    if float(f) == v:
        return ex.Const(f)
    return ex.Const(v)


@dataclass
class OperatorSpec:
    """Coordinate form of a frame Laplacian; applies symbolically."""

    kind: str
    dim: int
    eps: object  # None for the horizontal operator
    a: tuple  # (m, m) nested tuple of Expr, symmetric
    b: tuple  # (m,) tuple of Expr

    def apply(self, f):
        """The expression sum a^{jl} d_j d_l f + sum b^j d_j f."""
        m = self.dim
        df = [differentiate(f, j) for j in range(m)]
        terms = [
            ex.Mul(self.a[j][l], differentiate(df[j], l))
            for j in range(m)
            for l in range(m)
            if not _is_zero(self.a[j][l])
        ]
        terms += [ex.Mul(self.b[j], df[j]) for j in range(m) if not _is_zero(self.b[j])]
        return ex.add_terms(terms)

    def principal_symbol(self, point):
        """The matrix a^{jl}(p) at one point, or one per point of a batch."""
        return ex.evaluate_array(self.a, point)

    def drift(self, point):
        """The vector b^j(p) at one point, or one per point of a batch."""
        return ex.evaluate_array(self.b, point)

    def to_dict(self):
        d = {
            "kind": self.kind,
            "dim": self.dim,
            "a": [[ex.render(e) for e in row] for row in self.a],
            "b": [ex.render(e) for e in self.b],
        }
        if self.eps is not None:
            d["eps"] = float(self.eps)
        return d

    @classmethod
    def from_dict(cls, d):
        m = int(d["dim"])
        a = tuple(
            tuple(ex.parse(t, dim=m) for t in row) for row in d["a"]
        )
        b = tuple(ex.parse(t, dim=m) for t in d["b"])
        return cls(
            kind=str(d["kind"]),
            dim=m,
            eps=d.get("eps"),
            a=a,
            b=b,
        )


def _is_zero(e):
    return isinstance(e, ex.Const) and e.value == 0


def _frame_laplacian(kind, eps, s, use, project):
    """Sum of E_u^2 - nabla_{E_u}E_u over u in ``use``.

    ``project`` lists the frame indices spanning the range of the
    connection term (the horizontal ones for the horizontal operator,
    all of them for the full Laplacian).
    """
    fields = s.frame
    m = s.dim
    sums = connection_sums(s, use, project)
    a = [[ex.ZERO for _ in range(m)] for _ in range(m)]
    for j in range(m):
        for l in range(j, m):
            a[j][l] = a[l][j] = ex.add_terms(
                ex.Mul(fields[u].coefficients[j], fields[u].coefficients[l]) for u in use
            )
    b = []
    for j in range(m):
        terms = [fields[u].apply(fields[u].coefficients[j]) for u in use]
        terms += [
            ex.Neg(ex.Mul(_as_const(g), fields[w].coefficients[j]))
            for g, w in zip(sums, project)
            if g != 0.0
        ]
        b.append(ex.add_terms(terms))
    return OperatorSpec(
        kind=kind,
        dim=m,
        eps=eps,
        a=tuple(tuple(row) for row in a),
        b=tuple(b),
    )


def sublaplacian(s):
    """The horizontal Laplacian sum_i X_i^2 - P nabla_{X_i} X_i."""
    horizontal = list(range(s.k))
    return _frame_laplacian("sublaplacian", None, s, horizontal, horizontal)


def penalty_laplacian(ext):
    """The Laplace-Beltrami operator of a MetricExtension's rescaled frame."""
    if getattr(ext, "epsilon", None) is None:
        raise FrameError("penalty operator requires a positive epsilon")
    everything = list(range(ext.dim))
    return _frame_laplacian("penalty", ext.epsilon, ext, everything, everything)


def riemannian_laplacian(s):
    """The full-frame Laplacian of the metric that makes the frame orthonormal."""
    everything = list(range(s.dim))
    return _frame_laplacian("riemannian", None, s, everything, everything)


def weighted_laplacian(op, fields, density):
    """The Laplacian of ``fields`` against rho times op's volume.

    If op is sum_i X_i^2 - nabla_{X_i} X_i over the fields X_i against a
    volume mu, then (1 / (rho mu)) sum_i div(rho mu (X_i f) X_i) is
    op f + sum_i (X_i rho / rho) X_i f for rho = ``density``: only the
    drift changes, b^j gaining sum_i (X_i rho / rho) X_i^j.  A constant
    density leaves op's b as it is.
    """
    rates = [(simplify(ex.Div(X.apply(density), density)), X) for X in fields]
    rates = [(rate, X) for rate, X in rates if not _is_zero(rate)]
    b = tuple(
        ex.add_terms([e] + [ex.Mul(rate, X.coefficients[j]) for rate, X in rates])
        if rates
        else e
        for j, e in enumerate(op.b)
    )
    return replace(op, b=b)


# ---------------------------------------------------------------------------


def horizontal_gradient(s, f):
    """(field, frame components) of grad^H f = sum_i (X_i f) X_i."""
    comps = [s.horizontal[i].apply(f) for i in range(s.k)]
    coeffs = [
        ex.add_terms(ex.Mul(c, X.coefficients[j]) for c, X in zip(comps, s.horizontal))
        for j in range(s.dim)
    ]
    return VectorField(coeffs), comps


def horizontal_divergence(s, components):
    """div of sum_j c_j X_j as an expression, via frame connection sums.

    div^H = sum_i X_i(c_i) + sum_j c_j sum_i Gamma_iji, and the inner
    sum equals -sum_i Gamma_iij by metric compatibility.
    """
    k = s.k
    horizontal = list(range(k))
    sums = connection_sums(s, horizontal, horizontal)
    terms = [s.horizontal[i].apply(components[i]) for i in range(k)]
    terms += [
        ex.Mul(_as_const(-g), c) for g, c in zip(sums, components) if g != 0.0
    ]
    return ex.add_terms(terms)


def riemannian_divergence(s, X):
    """div X against the frame's volume, as an expression.

    Uses the density rho = 1/|det F|: div X = sum_j d_j X^j
    - X^j (d_j det)/det, the sign of det cancelling.
    """
    _, det = s.density_expr()
    terms = []
    for j in range(s.dim):
        terms.append(differentiate(X.coefficients[j], j))
        dd = differentiate(det, j)
        if not _is_zero(dd):
            terms.append(ex.Neg(ex.Div(ex.Mul(X.coefficients[j], dd), det)))
    return ex.add_terms(terms)


# ---------------------------------------------------------------------------


@dataclass
class HorizontalField:
    """A field given by horizontal-frame components, pointwise or symbolic."""

    structure: SubRiemannianStructure
    components_fn: object  # points (..., m) -> (..., k) array
    exprs: object = None  # tuple of Expr when components are symbolic

    def components_at(self, point):
        """Horizontal-frame components, (k,) at a point or (n, k) for a batch."""
        p = np.asarray(point, dtype=float)
        if self.exprs is not None:
            return ex.evaluate_array(self.exprs, p)
        return np.asarray(self.components_fn(p))

    def vector_at(self, point):
        """Coordinate components, (m,) at a point or (n, m) for a batch."""
        p = np.asarray(point, dtype=float)
        comp = self.components_at(p)
        X = ex.evaluate_array([f.coefficients for f in self.structure.horizontal], p)
        return (comp[..., None, :] @ X)[..., 0, :]


def mean_curvature_field(s):
    """Mean curvature of the complement of ``s`` as a horizontal field.

    Components H_i(p) = sum_b gbar(T_b, [X_i, T_b])(p); the field is
    promoted to constant symbolic components when they agree, to 1e-10
    relative, at the origin and 6 points drawn with seed 5.
    """
    def comps(p):
        return reference_mean_curvature(s, p).sum(axis=-2)

    exprs = None
    pts = [np.zeros(s.dim)]
    pts.extend(s.sample_points(6, seed=5))
    vals = comps(np.stack(pts))
    if float(np.max(np.abs(vals - vals[0][None]))) <= 1e-10 * max(
        1.0, float(np.max(np.abs(vals[0])))
    ):
        cleaned = vals[0].copy()
        cleaned[np.abs(cleaned) < 1e-12] = 0.0
        exprs = tuple(_as_const(v) for v in cleaned)
    return HorizontalField(structure=s, components_fn=comps, exprs=exprs)


def product_rule_residual(op, fields, u, points):
    """Max defect of L(u^2) = 2 u Lu + 2 sum_E (E u)^2 over sample points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lhs = op.apply(simplify(ex.Mul(u, u)))
    lu = op.apply(u)
    grads = [f.apply(u) for f in fields]
    left = ex.evaluate(lhs, points)
    right = 2.0 * ex.evaluate(u, points) * ex.evaluate(lu, points)
    right += 2.0 * sum(ex.evaluate(g, points) ** 2 for g in grads)
    return float(np.max(np.abs(left - right), initial=0.0))


def potential_residual(s, curvature, u, points):
    """Max over points of || (X_i u / u)(p) - H_i(p) ||_2.

    ``u`` must be positive at every sample; the logarithmic horizontal
    derivative is formed as a quotient of expressions.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    quotients = [
        simplify(ex.Div(s.horizontal[i].apply(u), u)) for i in range(s.k)
    ]
    up = ex.evaluate(u, points)
    if np.any(up <= 0):
        first = int(np.argmax(up <= 0))
        raise ValueError(
            "potential must be positive on the sample set; got %r at %s"
            % (float(up[first]), np.array2string(points[first], precision=6))
        )
    q = ex.evaluate_array(quotients, points)
    return float(np.max(_norms(q - curvature.components_at(points)), initial=0.0))
