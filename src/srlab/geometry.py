"""Vector fields with symbolic coefficients and sub-Riemannian frame data.

A structure consists of m periodic coordinates, k horizontal fields X_i
declared orthonormal for the horizontal metric, and m-k reference
complement fields T_b completing them to a frame declared orthonormal for
a reference extension.  Everything metric is therefore read off from
frame expansion coefficients: expanding a vector in the frame at a point
is one dense m-by-m solve.

Frame evaluation is batch-first: structure constants and Hörmander flags
take one point (m,) or a batch (n, m) and evaluate each bracket once over
the batch; the stacked solves and SVDs give every point the arithmetic it
would get alone.  The sweeps over many points (the frame check, the flag
and regularity) take them ``_FLAG_BLOCK`` at a time, so their work
memory does not grow with the point count, and the lattice they sweep
(``sample_lattice``) varies only the axes the frame reads.  A field
differentiates its coefficients once, on its first bracket.
"""

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .expr import Expr, differentiate, evaluate, render, simplify


# points per block of a pointwise sweep (frame check, flag); bounds the
# stacked frame and bracket rows
_FLAG_BLOCK = 1024

_MAX_DEPTH = 6  # deepest bracket order of hormander_flag and is_regular


class StructureError(ValueError):
    """A frame fails its structural preconditions."""


class VectorField:
    """A vector field given by m coordinate coefficient expressions."""

    __slots__ = ("coefficients", "_partials")

    def __init__(self, coefficients):
        self.coefficients = tuple(coefficients)
        for c in self.coefficients:
            if not isinstance(c, Expr):
                raise TypeError(
                    "coefficients must be expressions; parse strings first, got %r"
                    % (c,)
                )
        self._partials = None

    @property
    def dim(self):
        return len(self.coefficients)

    def _partial_table(self):
        """table[i][j] = d_i c_j, differentiated once, on first use."""
        if self._partials is None:
            self._partials = [
                [differentiate(c, i) for c in self.coefficients]
                for i in range(self.dim)
            ]
        return self._partials

    def evaluate(self, point):
        """Coordinate components at one point (m,) or a batch (n, m)."""
        return ex.evaluate_array(self.coefficients, point)

    def apply(self, f):
        """Directional derivative X f = sum_j X^j d_j f as an expression."""
        return ex.add_terms(
            ex.Mul(c, differentiate(f, j)) for j, c in enumerate(self.coefficients)
        )

    def __repr__(self):
        return "VectorField(%s)" % ", ".join(render(c) for c in self.coefficients)


def lie_bracket(X, Y):
    """[X, Y]^j = sum_i (X^i d_i Y^j - Y^i d_i X^j)."""
    if X.dim != Y.dim:
        raise ValueError("bracket of fields with different dimensions")
    Xc, Yc = X.coefficients, Y.coefficients
    dX, dY = X._partial_table(), Y._partial_table()
    return VectorField(
        [
            ex.add_terms(
                ex.Add(
                    ex.Mul(Xc[i], dY[i][j]),
                    ex.Neg(ex.Mul(Yc[i], dX[i][j])),
                )
                for i in range(X.dim)
            )
            for j in range(X.dim)
        ]
    )


def linear_combination(coeffs, fields, base=None):
    """sum_i coeffs[i] * fields[i] (+ base), coefficients expressions."""
    rows = [[ex.Mul(c, fc) for fc in f.coefficients] for c, f in zip(coeffs, fields)]
    if base is not None:
        rows.insert(0, base.coefficients)
    return VectorField([ex.add_terms(terms) for terms in zip(*rows)])


def det_expr(rows):
    """Determinant of a square matrix of expressions, by Laplace expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    terms = []
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = ex.Mul(rows[0][j], det_expr(minor))
        terms.append(ex.Neg(term) if j % 2 == 1 else term)
    return ex.add_terms(terms)


# ---------------------------------------------------------------------------


@dataclass
class SubRiemannianStructure:
    """Periodic coordinates, horizontal frame and reference complement.

    The declared inner products make the full frame orthonormal; the
    horizontal metric is its restriction to span(X_1..X_k).
    """

    dim: int
    periods: tuple
    horizontal: tuple
    complement: tuple
    name: str = ""
    _brackets: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.periods = tuple(float(L) for L in self.periods)
        self.horizontal = tuple(self.horizontal)
        self.complement = tuple(self.complement)
        if len(self.periods) != self.dim:
            raise StructureError("need one period per coordinate")
        if any(L <= 0 for L in self.periods):
            raise StructureError("periods must be positive")
        k = len(self.horizontal)
        if not 1 <= k <= self.dim:
            raise StructureError("need between 1 and m horizontal fields")
        if len(self.complement) != self.dim - k:
            raise StructureError(
                "complement must have %d fields, got %d"
                % (self.dim - k, len(self.complement))
            )
        for f in self.frame:
            if f.dim != self.dim:
                raise StructureError("field dimension mismatch")

    @property
    def k(self):
        return len(self.horizontal)

    @property
    def frame(self):
        return self.horizontal + self.complement

    # -- frame algebra at one point or a batch ----------------------------

    def frame_matrix(self, point):
        """Columns are the frame fields' coordinate components at ``point``."""
        return ex.evaluate_array(list(zip(*(f.coefficients for f in self.frame))), point)

    def sample_lattice(self, per_axis=5):
        """Uniform lattice i * L_j / per_axis including the origin.

        Only the axes some frame coefficient reads get the per_axis
        values; every other axis is 0.  The frame and its brackets read no
        other axis, so this is one point per lattice point they can tell
        apart, in lattice order.
        """
        read = set().union(*(ex.variables(c) for f in self.frame for c in f.coefficients))
        axes = [
            np.arange(per_axis if j in read else 1) * (L / per_axis)
            for j, L in enumerate(self.periods)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def sample_points(self, count, rng):
        """Uniform sample inside the period box, drawn from ``rng``."""
        return rng.uniform(0.0, self.periods, size=(count, self.dim))

    def validate(self, points=None):
        """Check the frame condition: invertible frame matrix at samples.

        A point is singular where |det F| <= 1e-10 * prod(column norms of
        F).  The frame is evaluated ``_FLAG_BLOCK`` points at a time; the
        first block holding a singular point raises StructureError naming
        the earliest singular point.
        """
        if points is None:
            points = self.sample_lattice()
        points = np.atleast_2d(np.asarray(points))
        for start in range(0, len(points), _FLAG_BLOCK):
            block = points[start : start + _FLAG_BLOCK]
            F = self.frame_matrix(block)
            dets = np.linalg.det(F)
            norms = np.linalg.norm(F, axis=1)  # column 2-norms
            scale = np.maximum(np.prod(norms, axis=-1), np.finfo(float).tiny)
            bad = np.abs(dets) <= 1e-10 * scale
            if np.any(bad):
                p = block[bad][0]
                raise StructureError(
                    "frame matrix singular at point %s"
                    % np.array2string(p, precision=6)
                )
        return True

    def volume_density(self, point):
        """Density of the frame's volume against dx, = 1/|det F|."""
        return 1.0 / np.abs(np.linalg.det(self.frame_matrix(point)))

    def density_expr(self):
        """Symbolic 1/det as an expression (sign fixed from a base point).

        The logarithmic derivative d_j(rho)/rho = -d_j(det)/det that
        divergence formulas need is insensitive to the sign choice.
        """
        rows = [[f.coefficients[j] for f in self.frame] for j in range(self.dim)]
        det = det_expr(rows)
        if ex.evaluate(det, np.zeros(self.dim)) < 0:
            det = simplify(ex.Neg(det))
        return simplify(ex.Div(ex.ONE, det)), det

    # -- the bracket store ---------------------------------------------------

    def bracket(self, word):
        """Symbolic [E_w0, [E_w1, [..., E_wn]]] of a word of frame indices.

        A one-index word is the frame field itself; a longer word is
        ``lie_bracket(frame[w0], bracket(word[1:]))``, built once and
        kept in ``_brackets``.
        """
        if len(word) == 1:
            return self.frame[word[0]]
        if word not in self._brackets:
            inner = self.bracket(word[1:])
            self._brackets[word] = lie_bracket(self.frame[word[0]], inner)
        return self._brackets[word]


@dataclass
class StructureData:
    """Frame expansion of all pairwise frame brackets at one point or a batch.

    table[..., u, v, w] is the E_w coefficient of [E_u, E_v]; a batch of n
    points puts its axis first, table (n, m, m, m).
    """

    k: int
    table: np.ndarray

    @property
    def C_vertical(self):
        """C_ij^b: complement components of horizontal brackets."""
        k = self.k
        return self.table[..., :k, :k, k:]


def structure_constants(s, point):
    """Expand every [E_u, E_v] in the frame at one point (m,) or a batch (n, m).

    Each bracket is its own batched solve against the frame matrices, so
    every point gets the same LAPACK call as a lone point would.
    """
    m = s.dim
    point = np.asarray(point, dtype=float)
    F = s.frame_matrix(point)
    table = np.zeros(point.shape[:-1] + (m, m, m))
    for u in range(m):
        for v in range(u + 1, m):
            w = s.bracket((u, v)).evaluate(point)
            c = np.linalg.solve(F, w[..., None])[..., 0]
            table[..., u, v, :] = c
            table[..., v, u, :] = -c
    return StructureData(k=s.k, table=table)


# ---------------------------------------------------------------------------
# flags, regularity, fatness


@dataclass
class FlagResult:
    dims: tuple
    degree: object  # int or None


def _flag_ranks(s, points):
    """(n, _MAX_DEPTH) ranks of Sigma_1, ..., Sigma_6 at n points.

    Each layer is evaluated once per block of ``_FLAG_BLOCK`` points,
    and every point keeps its own SVD rank cutoff max(sigma_0, 1) *
    1e-10.  A block stops once all its points have full rank; its later
    columns stay 0, so a column past a point's first full rank depends
    on its block.
    """
    m = s.dim
    ranks = np.zeros((len(points), _MAX_DEPTH), dtype=int)
    for start in range(0, len(points), _FLAG_BLOCK):
        block = points[start : start + _FLAG_BLOCK]
        block_ranks = ranks[start : start + len(block)]
        rows = np.empty((len(block), 0, m))
        words = [()]
        for depth in range(1, _MAX_DEPTH + 1):
            # the words of order depth: (i,) + w for every word w of the
            # order below and every horizontal index i
            words = [(i,) + w for w in words for i in range(s.k)]
            layer = [s.bracket(w) for w in words]
            grown = np.empty((len(block), rows.shape[1] + len(layer), m))
            grown[:, : rows.shape[1]] = rows
            grown[:, rows.shape[1] :] = ex.evaluate_array(
                [f.coefficients for f in layer], block
            )
            rows = grown
            sv = np.linalg.svd(rows, compute_uv=False)
            cutoff = np.maximum(sv[:, :1], 1.0) * 1e-10
            block_ranks[:, depth - 1] = np.sum(sv > cutoff, axis=1)
            if np.all(np.any(block_ranks[:, :depth] == m, axis=1)):
                break
    return ranks


def hormander_flag(s, point):
    """Dimensions of Sigma_1 <= Sigma_2 <= ... <= Sigma_6 at one point or a batch.

    Sigma_d is spanned by brackets of the horizontal fields of order up
    to d, for d up to 6.  Returns the dims and the degree (first d with
    full rank), or degree None when the flag is not full by order 6.  A
    batch (n, m) returns a list of n results, from the same blocked sweep
    (``_flag_ranks``) that ``is_regular`` reads.
    """
    point = np.asarray(point, dtype=float)
    ranks = _flag_ranks(s, np.atleast_2d(point))
    full = ranks == s.dim
    degrees = np.where(full.any(axis=1), full.argmax(axis=1) + 1, 0).tolist()
    results = [
        FlagResult(dims=tuple(r[: d or _MAX_DEPTH]), degree=d or None)
        for r, d in zip(ranks.tolist(), degrees)
    ]
    return results[0] if point.ndim == 1 else results


def hausdorff_dimension(dims):
    """Q = sum_i i * (dim Sigma_i - dim Sigma_{i-1}) for a full flag."""
    q = 0
    prev = 0
    for i, d in enumerate(dims, start=1):
        q += i * (d - prev)
        prev = d
    return q


@dataclass
class RegularityReport:
    regular: bool
    dims: np.ndarray  # (n, 6) int flag dims, padded with m


def is_regular(s, points=None):
    """Same flag dimensions, up to bracket order 6, at every sample point.

    ``dims`` is an (n, 6) int array: row i holds point i's flag
    dims, padded with the manifold dimension m from the first full one
    on.  The points are swept in blocks (``_flag_ranks``), so besides the
    points only this array grows with n.
    """
    if points is None:
        points = s.sample_lattice()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dims = _flag_ranks(s, points)
    dims[np.maximum.accumulate(dims == s.dim, axis=1)] = s.dim
    regular = len(dims) > 0 and bool(np.all(dims == dims[0]))
    return RegularityReport(regular=regular, dims=dims)


@dataclass
class FatnessResult:
    fat: bool
    witness: object  # covector over the complement indices, or None
    tested: int


def is_fat(s, point, rng=None):
    """Strong-bracket test at ``point``.

    For every annihilator direction lambda, the matrix M(lambda)_ij =
    sum_b lambda_b C_ij^b must be invertible: M(lambda) is singular when
    its smallest singular value is at most 1e-10 times the Frobenius
    norm of the whole pencil C, so a root is judged against the size of
    C, not against rows of M that vanish there.  The q basis
    covectors are tested first.  For q = 1 that is every direction up to
    sign.  For q = 2, M(lambda) = lambda_0 A + lambda_1 B with B = M(e_1)
    invertible is singular exactly at lambda ~ (1, -mu) for a real
    eigenvalue mu of B^-1 A, so (1, -Re mu), normalised, is tested for
    each of the k eigenvalues.  For q >= 3, 32 random unit covectors
    follow, drawn from ``rng`` only when no basis covector is singular:
    a seed or a Generator, as ``numpy.random.default_rng`` takes it, and
    None means seed 42.  Returns the first singular lambda as a witness,
    and ``tested``, the size of the covector set: q, q + k or q + 32.  An
    odd k is decided by parity: every M(lambda) is then an odd skew
    matrix, singular, so the witness is the first basis covector and no
    bracket is built.
    """
    q = s.dim - s.k
    tested = q + {1: 0, 2: s.k}.get(q, 32)
    if q and s.k % 2:
        return FatnessResult(fat=False, witness=np.eye(q)[0], tested=tested)
    data = structure_constants(s, point)
    C = data.C_vertical
    if q == 0:
        return FatnessResult(fat=True, witness=None, tested=0)
    witness = _first_singular(C, list(np.eye(q)))
    if witness is None and q == 2:
        mu = np.linalg.eigvals(np.linalg.solve(C[..., 1], C[..., 0])).real
        lams = np.stack([np.ones_like(mu), -mu], axis=-1)
        witness = _first_singular(C, list(lams / np.linalg.norm(lams, axis=-1)[:, None]))
    elif witness is None and q > 2:
        rng = np.random.default_rng(42 if rng is None else rng)
        lams = []
        while len(lams) < 32:
            v = rng.normal(size=q)
            n = np.linalg.norm(v)
            if n > 1e-12:
                lams.append(v / n)
        witness = _first_singular(C, lams)
    return FatnessResult(fat=witness is None, witness=witness, tested=tested)


def _first_singular(C, lams):
    """The first lambda in ``lams`` whose M(lambda) has a smallest singular
    value at most 1e-10 ||C||_F, or None."""
    q = C.shape[-1]
    # M[l] = M(lams[l]), one (k*k, q) @ (q, 1) product each as np.tensordot forms it
    M = (C.reshape(-1, q) @ np.stack(lams)[..., None]).reshape(-1, *C.shape[:2])
    sigma_min = np.linalg.svd(M, compute_uv=False)[:, -1]
    singular = sigma_min <= 1e-10 * np.linalg.norm(C)
    return lams[int(np.argmax(singular))] if singular.any() else None


# ---------------------------------------------------------------------------
# exterior calculus spot check


def cartan_residual(omega, X, Y, point):
    """|d(omega)(X,Y) - (X(omega(Y)) - Y(omega(X)) - omega([X,Y]))| at a point.

    ``omega`` is a covector field given by coordinate coefficient
    expressions, so both sides are computable independently: the left
    through coefficient partials, the right through directional
    derivatives and the bracket.
    A batch of points (n, m) gives one residual per point.
    """
    m = X.dim
    point = np.asarray(point, dtype=float)

    Xv, Yv = X.evaluate(point), Y.evaluate(point)
    lhs = 0.0
    for a in range(m):
        for b in range(a + 1, m):
            d_ab = evaluate(
                simplify(ex.Add(differentiate(omega[b], a), ex.Neg(differentiate(omega[a], b)))),
                point,
            )
            lhs += d_ab * (Xv[..., a] * Yv[..., b] - Xv[..., b] * Yv[..., a])

    def pair(w, Z):
        return ex.add_terms(ex.Mul(c, zc) for c, zc in zip(w, Z.coefficients))

    omega_Y = pair(omega, Y)
    omega_X = pair(omega, X)
    bracket = lie_bracket(X, Y)
    rhs = (
        evaluate(X.apply(omega_Y), point)
        - evaluate(Y.apply(omega_X), point)
        - evaluate(pair(omega, bracket), point)
    )
    return abs(lhs - rhs)
