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
tables at shifted nodes.  Its entries are rounded once on the slab, the
nodes at index 0 along those axes, and every other row is copied from
its slab image; with no such axis the slab is every node.  The form
carries that decision, the axes, the slab and every row's slab image,
as ``WeakForm.invariance``: it is made once, here, and the Fourier
eigensolver reads it.  The exact parts themselves, which only the
certificates read, are built on first access to
``SparseOperator.exact``.

Every assembler (``assemble_weak_laplacian``, ``assemble_field``,
``assemble_strong``) keeps its matrix in one stored form, the offset
stencil: per row, the column and the value of each stencil offset,
sorted by column.  Its shape, nonzero count and products come from
those tables; the CSR matrix, and with it ``scipy.sparse``, is built
only when a caller asks for ``SparseOperator.matrix``, as the dense and
Lanczos eigensolvers and the Matrix Market writer do.  scipy is
imported by the functions that need it, not with the module.
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


_PAIR_BUDGET = 50_000_000


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

    def shifted(self, multi, axis, step):
        out = multi.copy()
        out[:, axis] = (out[:, axis] + step) % self.shape[axis]
        return out

    def cell_volume(self):
        return float(np.prod(self.h))


def evaluate_on_grid(e, grid):
    """Node values of an expression, checked for declared periodicity."""
    return check_periodicity(e, grid)


def check_periodicity(e, grid, tol=1e-8):
    """Compare values at x and x + L_j e_j on the whole node set.

    Returns the node values of ``e``, or None when ``e`` is not an
    expression.
    """
    if not isinstance(e, Expr):
        return None
    pts = grid.points()
    base = ex.evaluate(e, pts)
    scale = max(1.0, float(np.max(np.abs(base))))
    for j in sorted(ex.variables(e)):
        shifted = pts.copy()
        shifted[:, j] += grid.periods[j]
        other = ex.evaluate(e, shifted)
        worst = float(np.max(np.abs(other - base)))
        if worst > tol * scale:
            raise PeriodicityError(
                "coefficient %s is not periodic along axis %d "
                "(defect %.3e over period %g)" % (ex.render(e), j, worst, grid.periods[j])
            )
    return base


# ---------------------------------------------------------------------------


class SparseOperator:
    """Sparse operator stored as its offset stencil.

    The stencil ``(cols, values, stored)`` holds (N, K) tables whose row
    i holds the columns of the row's K offsets in ascending order, the
    entry values there, and which of them the matrix stores (a weak form
    or a strong operator stores its nonzero values, a field matrix every
    entry).  ``shape``, ``nnz`` and ``matvec`` answer from it without
    scipy; ``matrix`` is the CSR matrix of the stored entries, built from
    it on first access.  ``matvec`` adds each row's terms in ascending
    column order, as scipy's CSR product does, so for a finite v it
    equals ``matrix @ v`` bit for bit.
    """

    def __init__(self, stencil, symmetric=False, exact=None):
        self.stencil = stencil
        self.symmetric = symmetric
        # ``exact`` is the dict ``self.exact`` or a function that builds it
        # on first access
        self._exact, self._build_exact = exact, None
        if callable(exact):
            self._exact, self._build_exact = None, exact
        self._matrix = None

    @property
    def exact(self):
        """{offset in {-1, 0, 1}^m: (cols (N,), parts (N, k))}, or None;
        entry (i, cols[i]) is exactly the sum of the floats parts[i]."""
        if self._build_exact is not None:
            self._exact, self._build_exact = self._build_exact(), None
        return self._exact

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = _stencil_csr(*self.stencil)
        return self._matrix

    @property
    def shape(self):
        return (len(self.stencil[0]),) * 2

    @property
    def nnz(self):
        return int(np.count_nonzero(self.stencil[2]))

    def matvec(self, v):
        cols, values, _ = self.stencil
        v = np.asarray(v)
        out = np.zeros(len(cols), dtype=np.result_type(values, v))
        for k in range(cols.shape[1]):
            out += values[:, k] * v[cols[:, k]]
        return out


@dataclass
class DiagonalMass:
    """Diagonal mass matrix from nodal density times cell volume."""

    diagonal: np.ndarray

    @property
    def shape(self):
        return (self.diagonal.size, self.diagonal.size)

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

    def apply(self, f):
        return np.sum(self.values * (f[self.hi] - f[self.lo]), axis=1)


@dataclass
class WeakForm:
    """Quadrature-factored weak Laplacian with exact assembled entries."""

    grid: Grid
    operator: SparseOperator
    mass: DiagonalMass
    factors: list
    weights: np.ndarray  # (R,) quadrature weights
    eps: object = None
    # whether the Green residual is exactly zero, decided on first use
    _green_exact: object = field(default=None, init=False, repr=False)
    # (axes, slab, pos) from the assembler: the grid axes along which the
    # form is exactly invariant, the nodes at index 0 along them, and the
    # row of every node's slab image in ``slab``.  Not an init field, so
    # a form built by hand or by ``dataclasses.replace`` carries none.
    invariance: object = field(default=None, init=False, repr=False)

    def quadratic_form(self, f):
        total = 0.0
        for fac in self.factors:
            g = fac.apply(f)
            total += float(np.sum(self.weights * g * g))
        return total


# ---------------------------------------------------------------------------


def _row_sorted(cols, values):
    """(N, K) column and value tables from K per-offset (N,) arrays, each
    row in ascending column order, as a CSR row is stored."""
    cols, values = np.stack(cols, axis=1), np.stack(values, axis=1)
    order = np.argsort(cols, axis=1)
    return np.take_along_axis(cols, order, 1), np.take_along_axis(values, order, 1)


def _stencil_csr(cols, values, stored):
    """N x N CSR matrix of the ``stored`` entries of a row-sorted stencil."""
    import scipy.sparse as sp

    N = len(cols)
    indptr = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(stored, axis=1), out=indptr[1:])
    return sp.csr_matrix((values[stored], cols[stored], indptr), shape=(N, N))


def assemble_field(X, grid):
    """Central-difference matrix of the first-order operator f -> X f.

    Row p holds X^j(p)/(2 h_j) at columns p +/- e_j; the exact entry
    table witnesses that constants are annihilated exactly.
    """
    m = grid.dim
    if X.dim != m:
        raise GridError("field dimension %d does not match grid %d" % (X.dim, m))
    multi = grid.multi_indices()
    cols, values = [], []
    exact = {}
    for j in range(m):
        coeff = X.coefficients[j]
        if isinstance(coeff, ex.Const) and coeff.value == 0:
            continue
        vals = evaluate_on_grid(coeff, grid) / (2.0 * grid.h[j])
        up = grid.ravel(grid.shifted(multi, j, +1))
        dn = grid.ravel(grid.shifted(multi, j, -1))
        cols.extend([up, dn])
        values.extend([vals, -vals])
        step = tuple(int(a == j) for a in range(m))
        exact[step] = (up, vals[:, None])
        exact[tuple(-a for a in step)] = (dn, -vals[:, None])
    cols, values = _row_sorted(cols, values)
    stencil = (cols, values, np.ones(cols.shape, dtype=bool))
    return SparseOperator(symmetric=False, exact=exact, stencil=stencil)


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

    multi = grid.multi_indices()
    # offset -> (N,) entry values; the zero offset keeps a spec whose
    # coefficients are all zero a stencil with one unstored column
    sums = {(0,) * m: np.zeros(grid.size)}
    for coeff, weights in terms:
        if isinstance(coeff, ex.Const) and coeff.value == 0:
            continue
        vals = evaluate_on_grid(coeff, grid)
        for offset, w in weights:
            acc = sums.setdefault(tuple(offset.tolist()), np.zeros(grid.size))
            acc += vals * w
    cols = [grid.ravel(multi + np.array(offset)) for offset in sums]
    cols, values = _row_sorted(cols, list(sums.values()))
    return SparseOperator(symmetric=False, stencil=(cols, values, values != 0))


# ---------------------------------------------------------------------------


def volume_density_values(structure, grid):
    """Nodal values of 1/|det F| for the structure's frame."""
    F = structure.frame_matrix(grid.points())
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

    Every entry is rounded by ``math.fsum`` on the slab rows only: the
    nodes at index 0 along the axes where the node tables are invariant
    (``_invariant_node_axes``).  Every other row is the copy of its slab
    image's row.  The form carries the axes, the slab and every row's
    slab image as ``invariance``.  The operator's exact parts are built
    on first access.
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
    R = N * (1 << m)
    if R * m * m * len(fields) > _PAIR_BUDGET:
        raise GridError(
            "weak assembly size %d exceeds the supported budget; "
            "use a smaller grid" % (R * m * m * len(fields))
        )
    # (N, m) node values of every field, screened before the density
    coeffs = [
        np.stack([check_periodicity(c, grid) for c in f.coefficients], axis=1)
        for f in fields
    ]

    rho = volume_density_values(structure, grid)
    if density is not None:
        if isinstance(density, Expr):
            extra = evaluate_on_grid(density, grid)
        else:
            extra = np.asarray(density, dtype=float)
            if extra.shape != (N,):
                raise GridError("density array must have one value per node")
        rho = rho * extra
    mass = node_mass(grid, rho)

    node_weight = rho * (grid.cell_volume() / (1 << m))
    node = _node_index(grid)

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

    V = [c * (scale / np.asarray(grid.h)) for c, scale in zip(coeffs, scales)]
    factors = [FieldFactor(lo=lo, hi=hi, values=v[corner]) for v in V]
    products = _node_products(V, node_weight)

    # row i holds the values of row pos[i] of the slab, its image at index 0
    # along the invariant axes
    tables = itertools.chain.from_iterable(products.values())
    axes = _invariant_node_axes(grid, [mass.diagonal, node_weight, *tables])
    image = grid.multi_indices()
    image[:, axes] = 0
    slab, pos = np.unique(grid.ravel(image), return_inverse=True)
    cols, values = [], []
    for offset, parts in _weak_parts(m, products, node, slab):
        if not np.all(np.isfinite(parts)):
            raise GridError("values out of the range of exact float products")
        cols.append(node(offset))
        values.append(np.array(_fsum_rows(parts))[pos])
    cols, values = _row_sorted(cols, values)
    stencil = (cols, values, values != 0)
    exact = functools.partial(_weak_exact, grid, V, node_weight)
    op = SparseOperator(symmetric=True, exact=exact, stencil=stencil)
    wf = WeakForm(
        grid=grid,
        operator=op,
        mass=mass,
        factors=factors,
        weights=node_weight[corner],
        eps=eps,
    )
    wf.invariance = (axes, slab, pos)
    return wf


def _node_index(grid):
    """node(offset): the (N,) numbers of the nodes at every node plus
    offset, each offset's array built once."""
    multi = grid.multi_indices()
    nodes = {}

    def node(offset):
        key = tuple(int(d) for d in offset)
        if key not in nodes:
            nodes[key] = grid.ravel(multi + offset)
        return nodes[key]

    return node


def _node_products(V, node_weight):
    """{(l, l2): per field, the (N, 4) exact parts of w v_l v_l2}, l <= l2
    over the axes where the field's (N, m) scaled coefficients V are not
    all zero."""
    products = {}
    for v in V:
        live = [l for l in range(v.shape[1]) if np.any(v[:, l])]
        for l, l2 in itertools.combinations_with_replacement(live, 2):
            parts = _times(_exact_product(v[:, l], v[:, l2]), node_weight)
            products.setdefault((l, l2), []).append(np.stack(parts, axis=1))
    return products


def _invariant_node_axes(grid, tables):
    """Grid axes along which every (N, ...) node table equals its one-node
    shift bit for bit, so that +0.0 and -0.0 differ.

    Every weak stencil value is one fixed function of the tables at
    shifted nodes, so the stencil is invariant along these axes too, and
    so is the mass when its diagonal is one of the tables.
    """
    multi = grid.multi_indices()
    axes = []
    for a in range(grid.dim):
        perm = grid.ravel(grid.shifted(multi, a, 1))
        if all(
            np.array_equal(t.view(np.uint64)[perm], t.view(np.uint64))
            for t in tables
        ):
            axes.append(a)
    return axes


def _weak_parts(m, products, node, rows):
    """Yield (offset, parts) over the weak stencil's offsets: row r of
    parts holds the exact parts of entry (rows[r], rows[r] + offset)."""
    for offset, terms in _weak_stencil(m).items():
        blocks = [
            coef * P[node(shift)[rows]]
            for shift, l, l2, coef in terms
            for P in products.get((l, l2), ())
        ]
        if blocks:
            yield offset, np.hstack(blocks)


def _weak_exact(grid, V, node_weight):
    """The exact parts {offset: (cols, parts)} of every row of a weak form."""
    node = _node_index(grid)
    products = _node_products(V, node_weight)
    return {
        offset: (node(offset), parts)
        for offset, parts in _weak_parts(grid.dim, products, node, slice(None))
    }


# ---------------------------------------------------------------------------
# exact certificates


def exact_symmetry_defect(op):
    """max |L_ij - L_ji| computed in exact arithmetic, as a float."""
    if op.exact is None:
        raise GridError("operator carries no exact entries")
    worst = 0.0
    for offset, (cols, parts) in op.exact.items():
        mirror = op.exact.get(tuple(-d for d in offset))
        if mirror is not None:
            # entry (cols[i], i) sits at the mirrored offset in row cols[i]
            parts = np.hstack([parts, -mirror[1][cols]])
        worst = max(worst, *map(abs, _fsum_rows(parts)))
    return worst


def exact_constant_image(op):
    """max_i |sum_j L_ij| in exact arithmetic, as a float."""
    if op.exact is None:
        raise GridError("operator carries no exact entries")
    sums = _fsum_rows(np.hstack([parts for _, parts in op.exact.values()]))
    return max(map(abs, sums))


def exact_green_defect(weak, e, f):
    """|f^T L e - sum_fields <B e, B f>_W| in exact arithmetic, as a float.

    The defect is |sum_ij f_i e_j D_ij| for the bilinear Green residual D
    (``_green_residual_vanishes``), so it is 0 for every pair exactly when
    D is exactly zero.  That is decided once per weak form, on the first
    call, and cached on it; a form whose D vanishes answers 0.0 for any
    pair.  Otherwise the pair's defect is summed exactly from D
    (``_green_pair_defect``).  Either way the entry parts times f and e
    are split exactly first, so a pair outside the range of exact float
    products raises GridError instead of answering.
    """
    op = weak.operator
    if op.exact is None:
        raise GridError("operator carries no exact entries")
    e = np.asarray(e, dtype=float)
    f = np.asarray(f, dtype=float)
    for cols, parts in op.exact.values():
        _times(_times([parts], f[:, None]), e[cols][:, None])
    if weak._green_exact is None:
        weak._green_exact = _green_residual_vanishes(weak)
    if weak._green_exact:
        return 0.0
    return _green_pair_defect(weak, e, f)


def _green_residual_vanishes(weak):
    """Whether the bilinear Green residual D is exactly zero.

    Each entry is one ``math.fsum`` of exact parts, and an exact sum of
    floats that is not zero rounds to a float that is not zero.
    """
    return not any(any(_fsum_rows(table)) for _, table in _green_residual(weak))


def _green_residual(weak):
    """Yield (cols, table) for the Green residual D, one wrapped offset at a time.

    D_ij is the exact value of L_ij, from its entry parts, minus
    w * c_a * c_b summed over the quadrature rows of the field factors
    and the row's pairs of edge endpoints (col_a, c_a), (col_b, c_b) with
    (col_a, col_b) = (i, j), where c = +v at hi and -v at lo.  It is built
    from the factor rows, not from the assembly stencil, so it checks the
    stencil.  Row i of a table holds exact parts that sum to D[i, cols[i]];
    grouping terms by offset means no array holds every term at once.
    """
    grid = weak.grid
    N = grid.size
    multi = grid.multi_indices()
    runs = {}  # offset code -> [(rows, parts, sign)], rows without repeats

    def add(rows, cols, parts, sign):
        # a corner block of quadrature rows shares one offset: split the
        # terms where it changes, then into pieces that repeat no row
        codes = grid.ravel(multi[cols] - multi[rows])
        cut = np.flatnonzero(codes[1:] != codes[:-1]) + 1
        for a, b in zip(np.r_[0, cut], np.r_[cut, codes.size]):
            for piece in _distinct_pieces(rows[a:b], N):
                piece = slice(a, b) if piece is None else a + piece
                runs.setdefault(int(codes[a]), []).append(
                    (rows[piece], parts[piece], sign)
                )

    for cols, parts in weak.operator.exact.values():
        add(np.arange(N), cols, parts, 1.0)
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
        table = np.zeros((N, sum(p.shape[1] for _, p, _ in pieces)))
        at = 0
        for rows, parts, sign in pieces:
            table[rows, at : at + parts.shape[1]] = parts if sign > 0 else -parts
            at += parts.shape[1]
        offset = np.array(np.unravel_index(code, grid.shape))
        yield grid.ravel(multi + offset), table


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

    |sum_i f_i e[cols_i] D[i, cols_i]| over the tables of
    ``_green_residual``: every product is split exactly and one
    ``math.fsum`` rounds the whole sum.
    """
    parts = (
        p.ravel().tolist()
        for cols, table in _green_residual(weak)
        for p in _times(_times([table], f[:, None]), e[cols][:, None])
    )
    return abs(math.fsum(itertools.chain.from_iterable(parts)))


# ---------------------------------------------------------------------------
# Matrix Market coordinate I/O (float64 values round-trip bit for bit)


def write_matrix_market(path, op, comment=""):
    import scipy.sparse as sp
    from scipy.io import mmwrite

    if isinstance(op, DiagonalMass):
        mat, symmetric = sp.diags(op.diagonal), True
    elif isinstance(op, SparseOperator):
        mat, symmetric = op.matrix, op.symmetric
    else:
        mat, symmetric = sp.coo_matrix(op), False
    with open(path, "wb") as fh:  # a path would gain a ".mtx" suffix
        mmwrite(fh, mat, comment=comment, symmetry="general")
    return symmetric


def read_matrix_market(path):
    from scipy.io import mminfo, mmread

    try:
        header = mminfo(path)[3:5]
    except ValueError as err:
        raise GridError("unsupported matrix market file: %s" % err)
    if header != ("coordinate", "real"):
        raise GridError("unsupported matrix market header: %s %s" % header)
    return mmread(path).tocsr()
