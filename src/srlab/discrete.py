"""Periodic-grid discretizations.

Strong-form operators use central differences.  The weak Laplacian is
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
entry decides once per weak form.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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
        return int(np.prod(self.shape))

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
    pts = grid.points()
    vals = np.asarray(ex.evaluate(e, pts), dtype=float)
    if vals.ndim == 0:
        vals = np.full(grid.size, float(vals))
    check_periodicity(e, grid)
    return vals


def check_periodicity(e, grid, tol=1e-8):
    """Compare values at x and x + L_j e_j on the whole node set."""
    if not isinstance(e, Expr):
        return
    axes = ex.variables(e)
    if not axes:
        return
    pts = grid.points()
    base = np.asarray(ex.evaluate(e, pts), dtype=float)
    if base.ndim == 0:
        return
    scale = max(1.0, float(np.max(np.abs(base))))
    for j in sorted(axes):
        shifted = pts.copy()
        shifted[:, j] += grid.periods[j]
        other = np.asarray(ex.evaluate(e, shifted), dtype=float)
        worst = float(np.max(np.abs(other - base)))
        if worst > tol * scale:
            raise PeriodicityError(
                "coefficient %s is not periodic along axis %d "
                "(defect %.3e over period %g)" % (ex.render(e), j, worst, grid.periods[j])
            )


# ---------------------------------------------------------------------------


@dataclass
class SparseOperator:
    """CSR operator, optionally carrying its exact entries."""

    matrix: object  # scipy CSR
    symmetric: bool = False
    # {offset in {-1, 0, 1}^m: (cols (N,), parts (N, k))}, or None; entry
    # (i, cols[i]) is exactly the sum of the floats parts[i]
    exact: object = None

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def nnz(self):
        return self.matrix.nnz

    def matvec(self, v):
        return self.matrix @ v

    def toarray(self):
        return self.matrix.toarray()


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

    def quadratic_form(self, f):
        total = 0.0
        for fac in self.factors:
            g = fac.apply(f)
            total += float(np.sum(self.weights * g * g))
        return total


# ---------------------------------------------------------------------------


def _shift_matrix(grid, axis, step):
    N = grid.size
    multi = grid.multi_indices()
    cols = grid.ravel(grid.shifted(multi, axis, step))
    return sp.csr_matrix(
        (np.ones(N), (np.arange(N), cols)), shape=(N, N)
    )


def _central_difference(grid, axis):
    h = grid.h[axis]
    return (
        _shift_matrix(grid, axis, +1) - _shift_matrix(grid, axis, -1)
    ) * (0.5 / h)


def _second_difference(grid, axis):
    h = grid.h[axis]
    return (
        _shift_matrix(grid, axis, +1)
        - 2.0 * sp.identity(grid.size, format="csr")
        + _shift_matrix(grid, axis, -1)
    ) * (1.0 / h**2)


def assemble_field(X, grid):
    """Central-difference matrix of the first-order operator f -> X f.

    Row p holds X^j(p)/(2 h_j) at columns p +/- e_j; the exact entry
    table witnesses that constants are annihilated exactly.
    """
    m = grid.dim
    if X.dim != m:
        raise GridError("field dimension %d does not match grid %d" % (X.dim, m))
    multi = grid.multi_indices()
    N = grid.size
    rows, cols, data = [], [], []
    exact = {}
    for j in range(m):
        coeff = X.coefficients[j]
        if isinstance(coeff, ex.Const) and coeff.value == 0:
            continue
        vals = evaluate_on_grid(coeff, grid) / (2.0 * grid.h[j])
        up = grid.ravel(grid.shifted(multi, j, +1))
        dn = grid.ravel(grid.shifted(multi, j, -1))
        rows.extend([np.arange(N), np.arange(N)])
        cols.extend([up, dn])
        data.extend([vals, -vals])
        step = tuple(int(a == j) for a in range(m))
        exact[step] = (up, vals[:, None])
        exact[tuple(-a for a in step)] = (dn, -vals[:, None])
    mat = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
    )
    return SparseOperator(matrix=mat, symmetric=False, exact=exact)


def assemble_strong(spec, grid):
    """Central-difference matrix of a coordinate-form second-order operator.

    Pure second derivatives use the three-point stencil; mixed ones
    compose central first differences; the drift uses central first
    differences.  Each term is coefficient-at-the-row-node times the
    stencil, so the whole matrix is second-order consistent.
    """
    m = grid.dim
    if spec.dim != m:
        raise GridError("operator dimension mismatch")
    N = grid.size
    total = sp.csr_matrix((N, N))
    firsts = {}

    def first(j):
        if j not in firsts:
            firsts[j] = _central_difference(grid, j)
        return firsts[j]

    for j in range(m):
        for l in range(m):
            coeff = spec.a[j][l]
            if isinstance(coeff, ex.Const) and coeff.value == 0:
                continue
            diag = sp.diags(evaluate_on_grid(coeff, grid))
            if j == l:
                total = total + diag @ _second_difference(grid, j)
            else:
                total = total + diag @ (first(j) @ first(l))
    for j in range(m):
        coeff = spec.b[j]
        if isinstance(coeff, ex.Const) and coeff.value == 0:
            continue
        total = total + sp.diags(evaluate_on_grid(coeff, grid)) @ first(j)
    return SparseOperator(matrix=sp.csr_matrix(total), symmetric=False)


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
    if np.any(diag <= 0):
        raise GridError("mass density must be positive on all nodes")
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
    for f in fields:
        for c in f.coefficients:
            check_periodicity(c, grid)

    N = grid.size
    R = N * (1 << m)
    if R * m * m * len(fields) > _PAIR_BUDGET:
        raise GridError(
            "weak assembly size %d exceeds the supported budget; "
            "use a smaller grid" % (R * m * m * len(fields))
        )
    pts = grid.points()
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

    multi = grid.multi_indices()
    node_weight = rho * (grid.cell_volume() / (1 << m))

    def node(offset):
        return grid.ravel(multi + offset)

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

    factors = []
    products = {}  # (l, l2) -> per field, (N, 4) exact parts of w v_l v_l2
    for f, scale in zip(fields, scales):
        V = (f.evaluate(pts) * (scale / np.asarray(grid.h))).astype(float)
        factors.append(FieldFactor(lo=lo, hi=hi, values=V[corner]))
        live = [l for l in range(m) if np.any(V[:, l])]
        for l, l2 in itertools.combinations_with_replacement(live, 2):
            parts = _times(_exact_product(V[:, l], V[:, l2]), node_weight)
            products.setdefault((l, l2), []).append(np.stack(parts, axis=1))

    rows, cols, data = [], [], []
    exact = {}
    for offset, terms in _weak_stencil(m).items():
        blocks = [
            coef * P[node(shift)]
            for shift, l, l2, coef in terms
            for P in products.get((l, l2), ())
        ]
        if not blocks:
            continue
        parts = np.hstack(blocks)
        if not np.all(np.isfinite(parts)):
            raise GridError("values out of the range of exact float products")
        col = node(offset)
        exact[offset] = (col, parts)
        vals = np.array(_fsum_rows(parts))
        keep = vals != 0.0
        rows.append(np.flatnonzero(keep))
        cols.append(col[keep])
        data.append(vals[keep])
    mat = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
    )
    op = SparseOperator(matrix=mat, symmetric=True, exact=exact)
    return WeakForm(
        grid=grid,
        operator=op,
        mass=mass,
        factors=factors,
        weights=node_weight[corner],
        eps=eps,
    )


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
    pair.  Otherwise the pair's defect is summed in full
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

    D_ij is the exact value of L_ij, from its entry parts, minus
    w * c_a * c_b summed over the quadrature rows of the field factors
    and the row's pairs of edge endpoints (col_a, c_a), (col_b, c_b) with
    (col_a, col_b) = (i, j), where c = +v at hi and -v at lo.  It is built
    from the factor rows, not from the assembly stencil, so it checks the
    stencil.  Each entry is one ``math.fsum`` of exact parts, and an exact
    sum of floats that is not zero rounds to a float that is not zero.
    Terms are grouped by the wrapped offset of their column from their
    row, one offset at a time, so no array holds every term at once.
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
    for pieces in runs.values():
        table = np.zeros((N, sum(p.shape[1] for _, p, _ in pieces)))
        at = 0
        for rows, parts, sign in pieces:
            table[rows, at : at + parts.shape[1]] = parts if sign > 0 else -parts
            at += parts.shape[1]
        if any(_fsum_rows(table)):
            return False
    return True


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
    """The Green defect of one pair, summed in full.

    The left side comes from the exact entry parts, the right side from
    the quadrature rows of the field factors, w * c_a * c_b * f[col_a] *
    e[col_b] over each row's pairs of edge endpoints.  Every product is
    split exactly and one ``math.fsum`` rounds the whole difference.
    """
    op = weak.operator

    def lhs():
        for cols, parts in op.exact.values():
            yield from _times(_times([parts], f[:, None]), e[cols][:, None])

    def rhs():
        w = -weak.weights[:, None, None]
        for fac in weak.factors:
            ends = np.stack([fac.lo, fac.hi], axis=2)  # (R, m, 2)
            coef = fac.values[:, :, None] * np.array([-1.0, 1.0])
            live = np.flatnonzero(np.any(fac.values, axis=0))
            for l, l2 in itertools.product(live, repeat=2):
                parts = _times(_times([w], coef[:, l, :, None]), coef[:, l2, None, :])
                parts = _times(parts, f[ends[:, l, :, None]])
                yield from _times(parts, e[ends[:, l2, None, :]])

    parts = (p.ravel().tolist() for p in itertools.chain(lhs(), rhs()))
    return abs(math.fsum(itertools.chain.from_iterable(parts)))


# ---------------------------------------------------------------------------
# Matrix Market coordinate I/O (values round-trip via repr)


def write_matrix_market(path, op, comment=""):
    if isinstance(op, DiagonalMass):
        coo = sp.diags(op.diagonal).tocoo()
        symmetric = True
    elif isinstance(op, SparseOperator):
        coo = op.matrix.tocoo()
        symmetric = op.symmetric
    else:
        coo = sp.coo_matrix(op)
        symmetric = False
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for line in comment.splitlines():
                fh.write("%% %s\n" % line)
        fh.write("%d %d %d\n" % (coo.shape[0], coo.shape[1], coo.nnz))
        for idx in order:
            fh.write(
                "%d %d %s\n"
                % (coo.row[idx] + 1, coo.col[idx] + 1, repr(float(coo.data[idx])))
            )
    return symmetric


def read_matrix_market(path):
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket matrix coordinate real"):
            raise GridError("unsupported matrix market header: %r" % header)
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        rows, cols, nnz = (int(t) for t in line.split())
        ri = np.empty(nnz, dtype=np.int64)
        ci = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        for idx in range(nnz):
            parts = fh.readline().split()
            ri[idx] = int(parts[0]) - 1
            ci[idx] = int(parts[1]) - 1
            vals[idx] = float(parts[2])
    return sp.csr_matrix((vals, (ri, ci)), shape=(rows, cols))
