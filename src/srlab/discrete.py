"""Periodic-grid discretizations.

Strong-form operators use central differences, each entry summed from
coefficient-times-weight terms in a fixed order.  The weak Laplacian is
assembled cell by cell: every grid cell contributes one quadrature row
per corner, each row holding the one-sided edge differences leaving that
corner weighted by the field coefficients at the corner node and by
cellvolume / 2^m of the measure density there.  Summing B^T W B over
the declared-orthonormal fields gives a positive semidefinite operator
whose entries are exact sums of float products (Dekker's error-free
product over a fixed node stencil), each rounded once by ``math.fsum``,
so symmetry, the vanishing image of constants, and the match between
the assembled matrix and its quadrature factors are exact statements
about the stored floats, not approximate ones.

The match, Green's identity f^T L e = sum_fields <B e, B f>_W, is
bilinear in (e, f): its defect is |sum_ij f_i e_j D_ij| for the residual
D between the exact entries and the quadrature rows.  So it holds for
every pair exactly when every D_ij is zero, which one ``math.fsum`` per
entry decides once per weak form; a form whose D is not zero gets each
pair's defect summed exactly from the same tables of D.

A weak form whose node tables (the exact parts of w v_l v_l2 for every
field, the node weights and the mass diagonal) equal their one-node
shift bit for bit along some grid axes has an invariant stencil and
mass along them, since every entry is one fixed function of those
tables at shifted nodes.  It is stored on its slab, the nodes at index
0 along those axes: the tables are built at the slab nodes only, its
entries are rounded once there, and every other row repeats its slab
image's row; with no such axis the slab is every node.  The operator
is the one record of the slab: it holds the slab nodes and every row's
slab image (``SparseOperator.slab``, ``pos``).  The form carries only
the decision, the invariant axes, as ``WeakForm.invariance``: it is
made once, here, and the Fourier eigensolver reads it with the
operator's slab.  What only the certificates read is built on
first access, on the slab too: the exact parts of the slab rows
(``SparseOperator.exact``) and the quadrature factors and weights of
the slab cells (``WeakForm.factors``, ``weights``).  Every table the
certificates read is invariant along the axes, so symmetry, the image
of constants and the Green residual are decided on the slab rows; only
a pair's products, which vary per node, are swept over every row, a
block at a time.  The assembly budget counts the arrays the assembler
holds at once (``_weak_size``): per node its coefficient tables and
vectors, per slab row its stencil tables.

Every assembler (``assemble_weak_laplacian``, ``assemble_field``,
``assemble_strong``) returns a ``SparseOperator``, the one record of
its matrix: the value of each stencil offset per slab row, with the
columns given by the grid and the offsets.  The matrix stores exactly
the nonzero values.  The field and strong operators have no invariant
axis: their slab is every node.  The CSR matrix, and with it
``scipy.sparse``, is built only when a caller asks for
``SparseOperator.matrix``, as the dense and Lanczos eigensolvers and
the Matrix Market writer do; scipy is imported by the functions that
need it, not with the module.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .expr import Expr


class GridError(ValueError):
    pass


class PeriodicityError(ValueError):
    """A coefficient is not periodic with the declared periods."""


# most float64 entries a weak assembly may hold at once (``_weak_size``)
_PAIR_BUDGET = 16_000_000
# rows per block of SparseOperator.matvec; bounds its rank index arrays
# and its products to this many rows
_MATVEC_ROWS = 1 << 14


# ---------------------------------------------------------------------------
# error-free float products (Dekker 1971, Veltkamp splitting)

_SPLITTER = 134217729.0  # 2^27 + 1


def _exact_product(a, b):
    """(p, err) with p + err == a * b exactly, elementwise.

    Exactness fails if a product of nonzero values falls below 2^-969 or
    a value overflows (beyond about 2^996 in the split, leaving err not
    finite); both raise GridError instead of returning an inexact part.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = a * b
        t = _SPLITTER * a
        a_hi = t - (t - a)
        a_lo = a - a_hi
        t = _SPLITTER * b
        b_hi = t - (t - b)
        b_lo = b - b_hi
        err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    if not np.all(np.isfinite(err)) or np.any(
        (np.abs(p) < 2.0**-969) & (a != 0) & (b != 0)
    ):
        raise GridError("values out of the range of exact float products")
    return p, err


def _times(parts, x):
    """Exact products of every part with x: twice as many parts."""
    return [q for part in parts for q in _exact_product(part, x)]


def _fsum_rows(parts):
    """Correctly rounded exact sum of each row of a 2-D array, as a list.

    Rows go to Python floats a block of about 2^16 values at a time.
    """
    chunk = max(1, (1 << 16) // max(1, parts.shape[1]))
    return [
        math.fsum(row)
        for start in range(0, len(parts), chunk)
        for row in parts[start : start + chunk].tolist()
    ]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid; axis j has shape[j] nodes, spacing h[j]."""

    shape: tuple
    periods: tuple

    def __post_init__(self):
        if len(self.shape) != len(self.periods):
            raise GridError("shape and periods must have the same length")
        for n in self.shape:
            if n < 4 or n % 2:
                raise GridError(
                    "grid sizes must be even and at least 4; got %r" % (n,)
                )
        for L in self.periods:
            if not (L > 0):
                raise GridError("periods must be positive")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(
            self, "periods", tuple(float(L) for L in self.periods)
        )

    @property
    def dim(self):
        return len(self.shape)

    @property
    def h(self):
        return tuple(L / n for L, n in zip(self.periods, self.shape))

    @property
    def size(self):
        return math.prod(self.shape)

    def multi_indices(self):
        """(N, m) integer multi-indices in row-major order."""
        grids = np.indices(self.shape).reshape(self.dim, -1).T
        return np.ascontiguousarray(grids)

    def points(self):
        """(N, m) node coordinates."""
        return self.multi_indices() * np.asarray(self.h)

    def ravel(self, multi):
        wrapped = multi % np.array(self.shape)
        return np.ravel_multi_index(tuple(wrapped.T), self.shape)

    def cell_volume(self):
        return float(np.prod(self.h))


def check_periodicity(e, grid, points=None):
    """Compare values at x and x + L_j e_j on the whole node set.

    A defect above 1e-8 * max(1, |values|) along any axis raises
    PeriodicityError.  Returns the node values of ``e``.  ``points`` is
    ``grid.points()``, passed in by a caller that screens several
    coefficients so the nodes are built once.
    """
    pts = grid.points() if points is None else points
    base = ex.evaluate(e, pts)
    scale = max(1.0, float(np.max(np.abs(base))))
    for j in sorted(ex.variables(e)):
        shifted = pts.copy()
        shifted[:, j] += grid.periods[j]
        other = ex.evaluate(e, shifted)
        worst = float(np.max(np.abs(other - base)))
        if worst > 1e-8 * scale:
            raise PeriodicityError(
                "coefficient %s is not periodic along axis %d "
                "(defect %.3e over period %g)" % (ex.render(e), j, worst, grid.periods[j])
            )
    return base


# ---------------------------------------------------------------------------


class SparseOperator:
    """Sparse grid operator stored as its offset stencil on a slab.

    ``SparseOperator((offsets, values), grid, exact=, slab=, pos=)`` is
    the whole record: the K offsets in {-1, 0, 1}^m, the (S, K) values
    of the S slab rows at them, ``slab`` (S,) the node of each slab row
    and ``pos`` (N,) the slab row that each of the N rows repeats, so
    ``pos[slab]`` is ``arange(S)``; without a slab both are
    ``arange(N)``.  The column of row i at offset k is node i plus that
    offset on the periodic grid.  The matrix stores exactly the nonzero
    values.

    ``shape``, ``nnz`` and ``matvec`` answer from these tables without
    scipy.  ``matvec`` adds one column rank at a time: the r-th entry of
    every row in ascending column order, as scipy's CSR product adds a
    row's terms, so for a finite v it equals ``matrix @ v`` bit for bit;
    a block (N, c) gets that product column by column.  ``matrix``, the
    CSR matrix, is built from the same ranks on first access.
    """

    def __init__(self, stencil, grid, *, exact=None, slab=None, pos=None):
        offsets, values = stencil
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._values = np.ascontiguousarray(values)
        self._grid = grid
        if slab is None:
            slab = pos = np.arange(grid.size)
        self.slab, self.pos = slab, pos
        # ``exact`` is the dict ``self.exact`` or a function that builds it
        # on first access
        self._exact, self._build_exact = exact, None
        if callable(exact):
            self._exact, self._build_exact = None, exact
        self._matrix = None
        self._order = None

    @property
    def exact(self):
        """{offset in {-1, 0, 1}^m: parts (S, k)}, or None; the entry of
        slab row r at node slab[r] plus offset is exactly the sum of the
        floats parts[r].  Every other row's parts are its slab image's
        (``pos``)."""
        if self._build_exact is not None:
            self._exact, self._build_exact = self._build_exact(), None
        return self._exact

    @property
    def matrix(self):
        if self._matrix is None:
            import scipy.sparse as sp

            # (N, K) tables of every row's entries in ascending column order
            at, cols = (np.stack(t, axis=1) for t in zip(*self._ranks()))
            N, K = at.shape
            values = self._values.ravel()[at].ravel()
            indptr = np.arange(0, N * K + 1, K)
            self._matrix = sp.csr_matrix((values, cols.ravel(), indptr), shape=(N, N))
            self._matrix.eliminate_zeros()
        return self._matrix

    @property
    def shape(self):
        return (self.pos.size,) * 2

    @property
    def nnz(self):
        return int(np.sum(np.count_nonzero(self._values, axis=1)[self.pos]))

    def matvec(self, v):
        """L v for a vector v (N,), or for each column of a block v (N, c):
        the rows are swept in blocks of ``_MATVEC_ROWS``, and every
        column gets the sums a lone vector would."""
        v = np.asarray(v)
        N = self.shape[0]
        out = np.zeros((N,) + v.shape[1:], dtype=np.result_type(self._values, v))
        flat = self._values.ravel()
        for start in range(0, N, _MATVEC_ROWS):
            rows = slice(start, min(start + _MATVEC_ROWS, N))
            for at, cols in self._ranks(rows):
                a = flat[at].reshape((-1,) + (1,) * (v.ndim - 1))
                out[rows] += a * v[cols]
        return out

    def _ranks(self, rows=slice(None)):
        """Yield (at, cols) for r = 0, ..., K - 1: the index into the
        raveled (S, K) tables and the column of the r-th entry of every
        row in the slice ``rows``, in ascending column order."""
        if self._order is None:
            self._order = _wrap_classes(self._grid, self._offsets)
        cls, orders, shifts = self._order
        cls = cls[rows]
        index = np.arange(self.shape[0])[rows]
        base = self._values.shape[1] * self.pos[rows]
        for order, shift in zip(orders, shifts):
            yield base + order[cls], index + shift[cls]

    def _slab_tables(self):
        """(cols, values) of the slab rows: (S, K) tables, cols[r, k] the
        node slab[r] plus offset k."""
        node = _node_index(self._grid, self.slab)
        cols = np.stack([node(offset) for offset in self._offsets], axis=1)
        return cols, self._values


def _wrap_classes(grid, offsets):
    """(cls, orders, shifts) for a grid stencil's (K, m) offsets in
    {-1, 0, 1}^m.

    The nodes fall into boxes that every offset wraps alike: along each
    axis that an offset moves, the first node, the interior and the last
    node.  cls (N,) numbers every node's box.  In a row of box c, the
    r-th smallest column is the row plus shifts[r, c], at offset
    orders[r, c].
    """
    shape = np.array(grid.shape)
    strides = np.array([math.prod(grid.shape[a + 1 :]) for a in range(grid.dim)])
    spans = [
        [(0, 1), (1, n - 1), (n - 1, n)] if np.any(offsets[:, a]) else [(0, n)]
        for a, n in enumerate(grid.shape)
    ]
    labels = [np.repeat(np.arange(len(s)), [b - a for a, b in s]) for s in spans]
    boxes = [len(s) for s in spans]
    cls = np.ravel_multi_index(np.ix_(*labels), boxes).ravel()
    orders, shifts = [], []
    for box in itertools.product(*spans):
        lo, hi = np.array(box).T
        below, above = lo + offsets < 0, hi - 1 + offsets >= shape
        wrap = shape * (below.astype(np.int64) - above)
        shift = (offsets + wrap) @ strides
        order = np.argsort(shift)
        orders.append(order)
        shifts.append(shift[order])
    return cls, np.array(orders).T.copy(), np.array(shifts).T.copy()


@dataclass
class DiagonalMass:
    """Diagonal mass matrix from nodal density times cell volume."""

    diagonal: np.ndarray

    def matvec(self, v):
        return self.diagonal * v

    def solve(self, v):
        return v / self.diagonal


@dataclass
class FieldFactor:
    """Edge-difference factor of one frame field over quadrature rows.

    Row r evaluates sum_l values[r, l] * (f[hi[r, l]] - f[lo[r, l]]),
    the directional derivative of f along the field at the row's corner.
    """

    lo: np.ndarray  # (R, m) node column of the lower edge endpoint
    hi: np.ndarray  # (R, m)
    values: np.ndarray  # (R, m) coefficient / h, including any 1/eps


@dataclass
class WeakForm:
    """Quadrature-factored weak Laplacian with exact assembled entries.

    ``factors`` (one ``FieldFactor`` per field) and ``weights`` (the (R,)
    quadrature weights) are the rows of the slab cells, the cells whose
    origin node is in the slab, with global node numbers in ``lo`` and
    ``hi``; every other cell is a slab cell shifted along the invariant
    axes.  They are built together on first access to either: no solve
    reads them, only the Green certificate and ``quadratic_form``.  The
    slab and every row's slab image are the operator's
    (``SparseOperator.slab``, ``pos``).
    """

    grid: Grid
    operator: SparseOperator
    mass: DiagonalMass
    eps: object = None
    # (factors, weights), or a function that builds them on first access
    _quadrature: object = field(default=None, repr=False)
    # whether the Green residual is exactly zero, decided on first use
    _green_exact: object = field(default=None, init=False, repr=False)
    # the grid axes along which the assembler found the form exactly
    # invariant, its slab the nodes at index 0 along them.  Not an init
    # field, so a form built by hand or by ``dataclasses.replace``
    # carries none.
    invariance: object = field(default=None, init=False, repr=False)

    def _rows(self):
        if callable(self._quadrature):
            self._quadrature = self._quadrature()
        return self._quadrature

    @property
    def factors(self):
        return self._rows()[0]

    @property
    def weights(self):
        return self._rows()[1]

    def quadratic_form(self, f):
        """sum_fields <B f, B f>_W over every cell: the slab cells' rows with
        every endpoint shifted by each t along the invariant axes, the
        nodes whose slab image is node 0."""
        grid = self.grid
        multi = grid.multi_indices()
        total = 0.0
        for t in multi[self.operator.pos == 0]:
            for fac in self.factors:
                lo, hi = (
                    grid.ravel(multi[x.ravel()] + t).reshape(x.shape)
                    for x in (fac.lo, fac.hi)
                )
                g = np.sum(fac.values * (f[hi] - f[lo]), axis=1)
                total += float(np.sum(self.weights * g * g))
        return total


# ---------------------------------------------------------------------------


def assemble_field(X, grid):
    """Central-difference matrix of the first-order operator f -> X f.

    Row p holds X^j(p)/(2 h_j) at columns p +/- e_j; the exact entry
    table witnesses that constants are annihilated exactly.
    """
    m = grid.dim
    if X.dim != m:
        raise GridError("field dimension %d does not match grid %d" % (X.dim, m))
    pts = grid.points()
    exact = {}
    for j in range(m):
        coeff = X.coefficients[j]
        if isinstance(coeff, ex.Const) and coeff.value == 0:
            continue
        vals = check_periodicity(coeff, grid, pts) / (2.0 * grid.h[j])
        step = tuple(int(a == j) for a in range(m))
        exact[step] = vals[:, None]
        exact[tuple(-a for a in step)] = -vals[:, None]
    if not exact:  # the zero field: one zero offset
        exact[(0,) * m] = np.zeros((grid.size, 1))
    values = np.hstack(list(exact.values()))
    return SparseOperator((list(exact), values), grid, exact=exact)


def assemble_strong(spec, grid):
    """Central-difference stencil of a coordinate-form second-order operator.

    Pure second derivatives use the three-point stencil (1, -2, 1)/h_j^2;
    mixed ones compose central first differences, +-1/(4 h_j h_l) at the
    offsets +-e_j +-e_l; the drift uses central first differences
    +-1/(2 h_j).  Each term is coefficient-at-the-row-node times the
    stencil weight, so the whole operator is second-order consistent.
    Every offset sums its terms in one fixed order, the a^{jl} terms in
    (j, l) order and then the b^j terms, and the nonzero sums are stored.
    """
    m = grid.dim
    if spec.dim != m:
        raise GridError("operator dimension mismatch")
    unit = np.eye(m, dtype=np.int64)
    inv = [1.0 / h**2 for h in grid.h]
    half = [0.5 / h for h in grid.h]
    terms = []  # (coefficient, [(offset, weight), ...]) in summation order
    for j, l in itertools.product(range(m), repeat=2):
        if j == l:
            weights = [
                (unit[j], inv[j]), (0 * unit[j], -2.0 * inv[j]), (-unit[j], inv[j])
            ]
        else:
            weights = [
                (sj * unit[j] + sl * unit[l], sj * sl * (half[j] * half[l]))
                for sj, sl in itertools.product((1, -1), repeat=2)
            ]
        terms.append((spec.a[j][l], weights))
    terms += [(spec.b[j], [(unit[j], half[j]), (-unit[j], -half[j])]) for j in range(m)]

    # offset -> (N,) entry values; the zero offset keeps a spec whose
    # coefficients are all zero a stencil with one zero column
    sums = {(0,) * m: np.zeros(grid.size)}
    pts = grid.points()
    for coeff, weights in terms:
        if isinstance(coeff, ex.Const) and coeff.value == 0:
            continue
        vals = check_periodicity(coeff, grid, pts)
        for offset, w in weights:
            acc = sums.setdefault(tuple(offset.tolist()), np.zeros(grid.size))
            acc += vals * w
    values = np.stack(list(sums.values()), axis=1)
    return SparseOperator((list(sums), values), grid)


# ---------------------------------------------------------------------------


def volume_density_values(structure, grid, points=None):
    """Nodal values of 1/|det F| for the structure's frame; ``points`` is
    ``grid.points()`` when the caller holds it."""
    F = structure.frame_matrix(grid.points() if points is None else points)
    det = np.abs(np.linalg.det(F))
    if np.any(det < 1e-14):
        raise GridError("frame matrix numerically singular on the grid")
    return 1.0 / det


def node_mass(grid, density):
    """Diagonal mass: nodal density times the cell volume."""
    diag = np.asarray(density, dtype=float) * grid.cell_volume()
    if not np.all(np.isfinite(diag) & (diag > 0)):
        raise GridError("mass density must be finite and positive on all nodes")
    return DiagonalMass(diagonal=diag)


@functools.lru_cache(maxsize=None)
def _weak_stencil(m):
    """The node stencil of the corner quadrature in m dimensions.

    {offset: [(shift, l, l2, coef), ...]}, l <= l2: entry L[i, i + offset]
    sums coef * w * v_l * v_l2 at node i + shift over the fields and terms
    (w the node's quadrature weight, v_l a field's scaled coefficient).
    It merges the edge-coefficient products of the 2^m rows at a corner,
    which difference each axis forward or backward.  The 1 + 2m + 4 C(m, 2)
    offsets lie in {-1, 0, 1}^m, on distinct columns since Grid has n >= 4,
    and every coef is +-2^k, so scaling an exact product by it is exact.
    """
    unit = np.eye(m, dtype=np.int64)
    terms = {}
    for sigma in itertools.product((0, 1), repeat=m):
        sigma = np.array(sigma)
        # (edge endpoint relative to the corner, axis, sign) of this row
        ends = [(d, l, -1) for l, d in enumerate(-sigma[:, None] * unit)]
        ends += [(d, l, 1) for l, d in enumerate((1 - sigma)[:, None] * unit)]
        for (oa, l, sa), (ob, l2, sb) in itertools.product(ends, repeat=2):
            offset, shift = tuple((ob - oa).tolist()), tuple((-oa).tolist())
            key = (offset, shift, min(l, l2), max(l, l2))
            terms[key] = terms.get(key, 0) + sa * sb
    stencil = {}
    for (offset, shift, l, l2), coef in sorted(terms.items()):
        if coef:
            stencil.setdefault(offset, []).append((shift, l, l2, float(coef)))
    return stencil


def assemble_weak_laplacian(structure, grid, eps=None, density=None):
    """Corner-quadrature weak form of the frame Laplacian.

    With eps=None only the horizontal fields enter (the horizontal
    operator); with a positive eps the complement fields enter with
    weight 1/eps (the penalty operator).  ``density`` optionally
    multiplies the geometric volume density on the nodes.

    The stencil is stored on its slab: the nodes at index 0 along the axes
    where the node tables are invariant (``_invariant_node_axes``).  Only
    the slab rows are built and rounded by ``math.fsum``, into (S, K)
    tables; every other row repeats its slab image's row, and its columns
    come from the grid and the offsets (``SparseOperator``), which holds
    the slab and every row's slab image.  The form carries the axes as
    ``invariance``.  The operator's exact parts and the form's quadrature
    factors and weights are built on first access, at the slab rows and
    the slab cells.  A grid whose arrays (``_weak_size``) exceed the
    budget raises GridError before they are built.
    """
    m = grid.dim
    if structure.dim != m:
        raise GridError("structure dimension %d does not match grid" % structure.dim)
    fields = list(structure.horizontal)
    scales = [1.0] * len(fields)
    if eps is not None:
        if not (eps > 0):
            raise GridError("eps must be positive")
        for T in structure.complement:
            fields.append(T)
            scales.append(1.0 / float(eps))
    # before any node array is built; Grid.size is exact past int64
    N = grid.size
    _check_budget(_weak_size(m, len(fields), N, 0))
    # (N, m) scaled node values of every field, screened before the density;
    # the node points are built once for every coefficient
    pts = grid.points()
    V = [
        np.stack(
            [check_periodicity(c, grid, points=pts) for c in f.coefficients], axis=1
        )
        * (scale / np.asarray(grid.h))
        for f, scale in zip(fields, scales)
    ]

    rho = volume_density_values(structure, grid, pts)
    if density is not None:
        if isinstance(density, Expr):
            extra = check_periodicity(density, grid, pts)
        else:
            extra = np.asarray(density, dtype=float)
            if extra.shape != (N,):
                raise GridError("density array must have one value per node")
        rho = rho * extra
    del pts
    mass = node_mass(grid, rho)
    node_weight = rho * (grid.cell_volume() / (1 << m))

    # the product tables, one at a time, decide the axes; row i holds the
    # values of row pos[i] of the slab, its image at index 0 along them
    tables = (t for _, t in _node_products(V, node_weight))
    axes = _invariant_node_axes(
        grid, itertools.chain([mass.diagonal, node_weight], tables)
    )
    sub = [1 if a in axes else n for a, n in enumerate(grid.shape)]
    pos = np.broadcast_to(np.arange(math.prod(sub)).reshape(sub), grid.shape).ravel()
    slab = np.arange(N).reshape(grid.shape)[tuple(slice(0, n) for n in sub)].ravel()
    _check_budget(_weak_size(m, len(fields), N, slab.size))
    # the tables are invariant along the axes, so at any node they equal
    # their value at the node's slab image: only the slab's are built
    offsets, values = [], []
    for offset, parts in _slab_parts(grid, V, node_weight, slab, pos):
        if not np.all(np.isfinite(parts)):
            raise GridError("values out of the range of exact float products")
        offsets.append(offset)
        values.append(_fsum_rows(parts))
    values = np.array(values).T
    op = SparseOperator(
        (offsets, values),
        grid,
        exact=lambda: dict(_slab_parts(grid, V, node_weight, slab, pos)),
        slab=slab,
        pos=pos,
    )
    quadrature = functools.partial(_quadrature, grid, V, node_weight, slab)
    wf = WeakForm(grid=grid, operator=op, mass=mass, eps=eps, _quadrature=quadrature)
    wf.invariance = axes
    return wf


def _check_budget(size):
    if size > _PAIR_BUDGET:
        raise GridError(
            "weak assembly size %d exceeds the supported budget; "
            "use a smaller grid" % size
        )


def _weak_size(m, fields, N, S):
    """Entries of the arrays a weak assembly of N nodes and S slab rows
    holds at once, counted as float64s: per node, the m scaled
    coefficients of each field, one table of four exact parts and four
    vectors (density, mass, node weights, slab images); per slab row, the
    value of every offset and the exact parts of one offset, four per
    field and term.  The certificates' tables, built later per slab row,
    are not counted."""
    stencil = _weak_stencil(m)
    terms = max(len(t) for t in stencil.values())
    return N * (fields * m + 8) + S * (len(stencil) + 4 * fields * terms)


def _quadrature(grid, V, node_weight, slab):
    """(factors, weights) of the corner quadrature of the slab cells, the
    cells whose origin node is in ``slab``: one row per corner of each,
    one ``FieldFactor`` per field's scaled node values V."""
    m = grid.dim
    node = _node_index(grid, slab)
    # rows: corner sigma of every cell; axis l runs forward from the corner
    # when sigma_l = 0 and backward into it when sigma_l = 1
    unit = np.eye(m, dtype=np.int64)
    corner, lo, hi = [], [], []
    for bits in range(1 << m):
        sigma = np.array([(bits >> l) & 1 for l in range(m)])
        corner.append(node(sigma))
        lo.append(np.stack([node(d) for d in sigma - sigma[:, None] * unit], 1))
        hi.append(np.stack([node(d) for d in sigma + (1 - sigma)[:, None] * unit], 1))
    corner, lo, hi = (np.concatenate(x) for x in (corner, lo, hi))
    factors = [FieldFactor(lo=lo, hi=hi, values=v[corner]) for v in V]
    return factors, node_weight[corner]


def _node_index(grid, rows):
    """node(offset): the numbers of the nodes at every node of ``rows``
    plus offset, each offset's array built once."""
    multi = np.stack(np.unravel_index(rows, grid.shape), axis=1)
    nodes = {}

    def node(offset):
        key = tuple(int(d) for d in offset)
        if key not in nodes:
            nodes[key] = grid.ravel(multi + offset)
        return nodes[key]

    return node


def _node_products(V, node_weight, rows=slice(None)):
    """Yield ((l, l2), table) per field and pair l <= l2 of the axes where
    its (N, m) scaled coefficients V are not all zero: the (len(rows), 4)
    exact parts of w v_l v_l2 at the nodes ``rows``."""
    for v in V:
        live = [l for l in range(v.shape[1]) if np.any(v[:, l])]
        for l, l2 in itertools.combinations_with_replacement(live, 2):
            parts = _times(_exact_product(v[rows, l], v[rows, l2]), node_weight[rows])
            yield (l, l2), np.stack(parts, axis=1)


def _product_tables(V, node_weight, rows=slice(None)):
    """{(l, l2): the tables of ``_node_products``, one per field}."""
    products = {}
    for key, table in _node_products(V, node_weight, rows):
        products.setdefault(key, []).append(table)
    return products


def _invariant_node_axes(grid, tables):
    """Grid axes along which every (N, ...) node table equals its one-node
    shift bit for bit, so that +0.0 and -0.0 differ: along such an axis,
    each slice of the table equals the next.  The tables are read one at
    a time.

    Every weak stencil value is one fixed function of the tables at
    shifted nodes, so the stencil is invariant along these axes too, and
    so is the mass when its diagonal is one of the tables.
    """
    axes = list(range(grid.dim))
    for t in tables:
        u = t.view(np.uint64).reshape(grid.shape + t.shape[1:])
        axes = [
            a
            for a in axes
            if np.array_equal(
                u[(slice(None),) * a + (slice(1, None),)],
                u[(slice(None),) * a + (slice(None, -1),)],
            )
        ]
        if not axes:
            break
    return axes


def _slab_parts(grid, V, node_weight, slab, pos):
    """Yield (offset, parts) over the weak stencil's offsets: row r of
    parts holds the exact parts of the entry of row slab[r] at the node
    slab[r] + offset.  The product tables are built at the slab nodes,
    and pos maps every node to its slab image's row in them."""
    node = _node_index(grid, slab)
    products = _product_tables(V, node_weight, slab)
    for offset, terms in _weak_stencil(grid.dim).items():
        blocks = [
            coef * P[pos[node(shift)]]
            for shift, l, l2, coef in terms
            for P in products.get((l, l2), ())
        ]
        if blocks:
            yield offset, np.hstack(blocks)


# ---------------------------------------------------------------------------
# exact certificates


def exact_symmetry_defect(op):
    """max |L_ij - L_ji| computed in exact arithmetic, as a float."""
    if op.exact is None:
        raise GridError("operator carries no exact entries")
    node = _node_index(op._grid, op.slab)
    worst = 0.0
    for offset, parts in op.exact.items():
        mirror = op.exact.get(tuple(-d for d in offset))
        if mirror is not None:
            # entry (j, slab[r]), j = node(offset)[r], sits at the mirrored
            # offset in row j, whose parts are its slab image's
            parts = np.hstack([parts, -mirror[op.pos[node(offset)]]])
        worst = max(worst, *map(abs, _fsum_rows(parts)))
    return worst


def exact_constant_image(op):
    """max_i |sum_j L_ij| in exact arithmetic, as a float."""
    if op.exact is None:
        raise GridError("operator carries no exact entries")
    sums = _fsum_rows(np.hstack(list(op.exact.values())))
    return max(map(abs, sums))


def exact_green_defect(weak, e, f):
    """|f^T L e - sum_fields <B e, B f>_W| in exact arithmetic, as a float.

    The defect is |sum_ij f_i e_j D_ij| for the bilinear Green residual D
    (``_green_residual_vanishes``), so it is 0 for every pair exactly when
    D is exactly zero.  That is decided once per weak form, on the first
    call, and cached on it; a form whose D vanishes answers 0.0 for any
    pair.  Otherwise the pair's defect is summed exactly from D
    (``_green_pair_defect``).  Either way the entry parts of every row
    times f and e are split exactly first, so a pair outside the range of
    exact float products raises GridError instead of answering.
    """
    op = weak.operator
    if op.exact is None:
        raise GridError("operator carries no exact entries")
    e = np.asarray(e, dtype=float)
    f = np.asarray(f, dtype=float)
    for _ in _pair_parts(weak, e, f, op.exact.items()):
        pass
    if weak._green_exact is None:
        weak._green_exact = _green_residual_vanishes(weak)
    if weak._green_exact:
        return 0.0
    return _green_pair_defect(weak, e, f)


def _pair_parts(weak, e, f, tables):
    """Yield the exact parts of f_i e_j T_ij over every row i, one
    (offset, T) of ``tables`` and a block of about 2^18 values at a time:
    T holds the slab rows, row i reads row pos[i] of it, and j is node i
    plus offset."""
    grid = weak.grid
    pos = weak.operator.pos
    multi = grid.multi_indices()
    for offset, table in tables:
        cols = grid.ravel(multi + offset)
        step = max(1, (1 << 18) // max(1, table.shape[1]))
        for i in range(0, grid.size, step):
            rows = slice(i, i + step)
            parts = _times([table[pos[rows]]], f[rows, None])
            yield from _times(parts, e[cols[rows], None])


def _green_residual_vanishes(weak):
    """Whether the bilinear Green residual D is exactly zero.

    Each entry is one ``math.fsum`` of exact parts, and an exact sum of
    floats that is not zero rounds to a float that is not zero.
    """
    return not any(any(_fsum_rows(table)) for _, table in _green_residual(weak))


def _green_residual(weak):
    """Yield (offset, table) for the Green residual D on the slab rows,
    one wrapped offset at a time.

    D_ij is the exact value of L_ij, from its entry parts, minus
    w * c_a * c_b summed over the quadrature rows of the field factors
    and the row's pairs of edge endpoints (col_a, c_a), (col_b, c_b) with
    (col_a, col_b) = (i, j), where c = +v at hi and -v at lo.  It is built
    from the factor rows, not from the assembly stencil, so it checks the
    stencil.  The factor rows are the slab cells'; each term goes to the
    slab row pos[col_a] at the offset col_b - col_a.  A slab row collects
    its node's terms shifted along the invariant axes, where every table
    they read is invariant, so row r of a table holds exact parts that sum
    to D[slab[r], slab[r] + offset], and row i of D repeats row pos[i].
    Grouping terms by offset means no array holds every term at once.
    """
    grid = weak.grid
    slab, pos = weak.operator.slab, weak.operator.pos
    S = slab.size
    multi = grid.multi_indices()
    runs = {}  # offset code -> [(nodes, parts, sign)], slab rows without repeats

    def add(A, B, parts, sign):
        # a corner block of quadrature rows shares one offset: split the
        # terms where it changes, then into pieces that repeat no slab row
        codes = grid.ravel(multi[B] - multi[A])
        cut = np.flatnonzero(codes[1:] != codes[:-1]) + 1
        for a, b in zip(np.r_[0, cut], np.r_[cut, codes.size]):
            for piece in _distinct_pieces(pos[A[a:b]], S):
                piece = slice(a, b) if piece is None else a + piece
                runs.setdefault(int(codes[a]), []).append(
                    (A[piece], parts[piece], sign)
                )

    node = _node_index(grid, slab)
    for offset, parts in weak.operator.exact.items():
        add(slab, node(offset), parts, 1.0)
    for fac in weak.factors:
        v = fac.values
        ends = ((-1.0, fac.lo), (1.0, fac.hi))
        live = np.flatnonzero(np.any(v, axis=0))
        for l, l2 in itertools.combinations_with_replacement(live, 2):
            P = np.stack(_times(_exact_product(v[:, l], v[:, l2]), weak.weights), 1)
            for la, lb in {(l, l2), (l2, l)}:
                for (sa, A), (sb, B) in itertools.product(ends, repeat=2):
                    add(A[:, la], B[:, lb], P, -sa * sb)

    # one entry per row of a table whose columns hold each piece's parts
    for code, pieces in runs.items():
        table = np.zeros((S, sum(p.shape[1] for _, p, _ in pieces)))
        at = 0
        for nodes, parts, sign in pieces:
            rows = pos[nodes]
            table[rows, at : at + parts.shape[1]] = parts if sign > 0 else -parts
            at += parts.shape[1]
        yield np.array(np.unravel_index(code, grid.shape)), table


def _distinct_pieces(rows, N):
    """Split rows into pieces that repeat no value.

    [None] stands for all of rows when no value repeats; otherwise each
    piece is an index array into rows.
    """
    seen = np.zeros(N, dtype=bool)
    seen[rows] = True
    if np.count_nonzero(seen) == rows.size:
        return [None]
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    rank = np.arange(rows.size) - np.searchsorted(ranked, ranked)
    return [order[rank == k] for k in range(rank.max() + 1)]


def _green_pair_defect(weak, e, f):
    """The Green defect of one pair, summed exactly from D.

    |sum_i f_i e[j] D[i, j]| over every row i and the tables of
    ``_green_residual``: every product is split exactly and one
    ``math.fsum`` rounds the whole sum.
    """
    products = _pair_parts(weak, e, f, _green_residual(weak))
    parts = (p.ravel().tolist() for p in products)
    return abs(math.fsum(itertools.chain.from_iterable(parts)))


# ---------------------------------------------------------------------------
# Matrix Market coordinate I/O (float64 values round-trip bit for bit)


def write_matrix_market(path, op, comment=""):
    import scipy.sparse as sp
    from scipy.io import mmwrite

    mat = sp.diags(op.diagonal) if isinstance(op, DiagonalMass) else op.matrix
    with open(path, "wb") as fh:  # a path would gain a ".mtx" suffix
        mmwrite(fh, mat, comment=comment, symmetry="general")


def read_matrix_market(path):
    from scipy.io import mminfo, mmread

    try:
        header = mminfo(path)[3:5]
    except ValueError as err:
        raise GridError("unsupported matrix market file: %s" % err)
    if header != ("coordinate", "real"):
        raise GridError("unsupported matrix market header: %s %s" % header)
    return mmread(path).tocsr()
