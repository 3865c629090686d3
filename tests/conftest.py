import itertools
import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import strategies as st

import srlab.discrete as discrete
from srlab import expr as ex
from srlab import geometry
from srlab.cli import build_structure, load_config
from srlab.discrete import FieldFactor, Grid, assemble_weak_laplacian
from srlab.geometry import VectorField

FIXTURE_NAMES = [
    "heisenberg",
    "carnot-step2",
    "contact3torus",
    "engel",
    "martinet",
    "trivial",
    "integrable",
]

# fixtures whose frame coefficients are periodic on their torus, so they
# can be evaluated on grids
GRID_NAMES = ["contact3torus", "trivial", "integrable"]

# (fixture, density) of configs whose density varies: they leave the weak
# form of contact3torus invariant along x1 only or along no axis, and that
# of integrable along x1 and x2
DENSITY_CONFIGS = [
    ("contact3torus", "2 + cos(x0)"),
    ("contact3torus", "3 + cos(x0) + cos(x1)"),
    ("integrable", "2 + cos(6.283185307179586*x0)"),
]

# (fixture, density, n, eps) of the weak forms the stencil tests cover:
# every grid fixture, and the two contact3torus densities
STENCIL_CASES = [
    (name, density, n, eps)
    for name, density in [(name, None) for name in GRID_NAMES] + DENSITY_CONFIGS[:2]
    for n in (4, 6)
    for eps in (None, 2.0)
]


def structure(name):
    s, density = build_structure(load_config(name))
    return s


@pytest.fixture(scope="session")
def heisenberg():
    return structure("heisenberg")


@pytest.fixture(scope="session")
def carnot():
    return structure("carnot-step2")


@pytest.fixture(scope="session")
def contact():
    return structure("contact3torus")


@pytest.fixture(scope="session")
def engel():
    return structure("engel")


@pytest.fixture(scope="session")
def martinet():
    return structure("martinet")


@pytest.fixture(scope="session")
def trivial():
    return structure("trivial")


@pytest.fixture(scope="session")
def integrable():
    return structure("integrable")


@lru_cache(maxsize=None)
def cached_structure(name):
    """One structure per fixture name, shared so its bracket store fills once."""
    return structure(name)


# coordinates as fractions of the period; the fixed values put points on and
# next to the singular sets where the flag degree changes
_FRACTIONS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, 4e-11, 1e-10, 0.5]),
)


def batch_cases():
    """Hypothesis cases (fixture name, rows of six period fractions)."""
    return st.tuples(
        st.sampled_from(FIXTURE_NAMES),
        st.lists(
            st.lists(_FRACTIONS, min_size=6, max_size=6), min_size=1, max_size=8
        ),
    )


def batch_points(case):
    """The structure and the (n, m) points in its period box for a case."""
    name, fractions = case
    s = cached_structure(name)
    return s, np.asarray(fractions)[:, : s.dim] * np.asarray(s.periods)


def density_form(name, density, n, eps=None):
    """The weak form of fixture ``name`` with the config's density set."""
    cfg = load_config(name)
    cfg["density"] = density
    s, rho = build_structure(cfg)
    grid = Grid(shape=(n,) * s.dim, periods=s.periods)
    return assemble_weak_laplacian(s, grid, eps=eps, density=rho)


def _invariant_axes(op, diag, grid):
    """Grid axes under whose one-node shift the stencil of ``op`` and the
    mass diagonal ``diag`` are exactly invariant.

    The (N, K) tables are expanded here from the operator's offsets and
    slab values: row i holds the columns of node i plus every offset, in
    ascending order, and their values, read from row pos[i].  With perm
    the shift, row perm[i] of the tables must be row i moved to the
    columns perm[cols[i]], re-sorted: then L[perm[i], perm[j]] = L[i, j]
    for every entry, zero or not.
    """
    multi = grid.multi_indices()
    cols = np.stack([grid.ravel(multi + offset) for offset in op._offsets], axis=1)
    order = np.argsort(cols, axis=1)
    cols = np.take_along_axis(cols, order, 1)
    values = np.take_along_axis(op._values[op.pos], order, 1)
    axes = []
    for a in range(grid.dim):
        perm = grid.ravel(multi + np.eye(grid.dim, dtype=np.int64)[a])
        moved = perm[cols]
        order = np.argsort(moved, axis=1)
        if (
            np.array_equal(diag[perm], diag)
            and np.array_equal(np.take_along_axis(moved, order, 1), cols[perm])
            and np.array_equal(np.take_along_axis(values, order, 1), values[perm])
        ):
            axes.append(a)
    return axes


# ---------------------------------------------------------------------------
# the exact certificates over every row of the grid, an oracle for the
# slab rows they are computed on


def oracle_tables(wf):
    """(exact, factors, weights) of a weak form over every row and cell:
    the (N, k) exact parts {offset: (cols, parts)} of every node's row
    and the corner quadrature rows of every cell.  Read before the form
    builds its own, from the node values its builders were given."""
    grid, V, node_weight = wf._quadrature.args[:3]
    multi = grid.multi_indices()

    def node(offset):
        return grid.ravel(multi + offset)

    products = discrete._product_tables(V, node_weight)
    exact = {}
    for offset, terms in discrete._weak_stencil(grid.dim).items():
        blocks = [
            coef * P[node(shift)]
            for shift, l, l2, coef in terms
            for P in products.get((l, l2), ())
        ]
        if blocks:
            exact[offset] = (node(offset), np.hstack(blocks))
    unit = np.eye(grid.dim, dtype=np.int64)
    corner, lo, hi = [], [], []
    for bits in range(1 << grid.dim):
        sigma = np.array([(bits >> l) & 1 for l in range(grid.dim)])
        corner.append(node(sigma))
        lo.append(np.stack([node(d) for d in sigma - sigma[:, None] * unit], 1))
        hi.append(np.stack([node(d) for d in sigma + (1 - sigma)[:, None] * unit], 1))
    corner, lo, hi = (np.concatenate(x) for x in (corner, lo, hi))
    factors = [FieldFactor(lo=lo, hi=hi, values=v[corner]) for v in V]
    return exact, factors, node_weight[corner]


def oracle_symmetry(exact):
    """max |L_ij - L_ji| from (N, k) exact parts."""
    worst = 0.0
    for offset, (cols, parts) in exact.items():
        mirror = exact.get(tuple(-d for d in offset))
        if mirror is not None:
            parts = np.hstack([parts, -mirror[1][cols]])
        worst = max(worst, *map(abs, discrete._fsum_rows(parts)))
    return worst


def oracle_constant(exact):
    """max_i |sum_j L_ij| from (N, k) exact parts."""
    sums = discrete._fsum_rows(np.hstack([parts for _, parts in exact.values()]))
    return max(map(abs, sums))


def oracle_green_residual(grid, exact, factors, weights):
    """Yield (cols, table) for the Green residual D over every row: row i
    of a table holds exact parts that sum to D[i, cols[i]]."""
    N = grid.size
    multi = grid.multi_indices()
    runs = {}

    def add(rows, cols, parts, sign):
        codes = grid.ravel(multi[cols] - multi[rows])
        cut = np.flatnonzero(codes[1:] != codes[:-1]) + 1
        for a, b in zip(np.r_[0, cut], np.r_[cut, codes.size]):
            for piece in discrete._distinct_pieces(rows[a:b], N):
                piece = slice(a, b) if piece is None else a + piece
                runs.setdefault(int(codes[a]), []).append(
                    (rows[piece], parts[piece], sign)
                )

    for cols, parts in exact.values():
        add(np.arange(N), cols, parts, 1.0)
    for fac in factors:
        v = fac.values
        ends = ((-1.0, fac.lo), (1.0, fac.hi))
        live = np.flatnonzero(np.any(v, axis=0))
        for l, l2 in itertools.combinations_with_replacement(live, 2):
            P = np.stack(
                discrete._times(discrete._exact_product(v[:, l], v[:, l2]), weights), 1
            )
            for la, lb in {(l, l2), (l2, l)}:
                for (sa, A), (sb, B) in itertools.product(ends, repeat=2):
                    add(A[:, la], B[:, lb], P, -sa * sb)

    for code, pieces in runs.items():
        table = np.zeros((N, sum(p.shape[1] for _, p, _ in pieces)))
        at = 0
        for rows, parts, sign in pieces:
            table[rows, at : at + parts.shape[1]] = parts if sign > 0 else -parts
            at += parts.shape[1]
        offset = np.array(np.unravel_index(code, grid.shape))
        yield grid.ravel(multi + offset), table


def oracle_green(grid, exact, factors, weights, e, f):
    """(whether D vanishes, the pair's defect |sum_ij f_i e_j D_ij|)."""
    tables = list(oracle_green_residual(grid, exact, factors, weights))
    vanishes = not any(any(discrete._fsum_rows(t)) for _, t in tables)
    parts = (
        p.ravel().tolist()
        for cols, t in tables
        for p in discrete._times(discrete._times([t], f[:, None]), e[cols][:, None])
    )
    return vanishes, abs(math.fsum(itertools.chain.from_iterable(parts)))


# ---------------------------------------------------------------------------
# the full lattice and its distinct points, an oracle for the lattice
# ``sample_lattice`` builds on the axes the frame reads


def full_lattice(s, per_axis):
    """The per_axis^m lattice i * L_j / per_axis on every axis, in lattice
    (C) order."""
    axes = [np.arange(per_axis) * (L / per_axis) for L in s.periods]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def oracle_distinct_points(s, points):
    """(index, inverse) of the distinct points of an (n, m) batch.

    Points are the same when their coordinates on the axes the frame
    reads have the same float64 bits; brackets read no other axis, so
    the frame and every bracket evaluate alike at them.  ``index`` holds
    the first point of each distinct one, in first-seen order, and
    ``points[index][inverse]`` stands for ``points``.  A frame that reads
    no axis has one distinct point.  The points are told apart one axis
    at a time, by an int64 code per point.
    """
    read = set().union(*(ex.variables(c) for f in s.frame for c in f.coefficients))
    axes = sorted(a for a in read if a < points.shape[-1])
    # code = a point's bit patterns on the axes so far, as mixed-radix digits
    code, count = np.zeros(len(points), dtype=np.int64), 1
    for a in axes:
        bits = np.asarray(points[:, a], dtype=float).view(np.uint64)
        patterns, digit = np.unique(bits, return_inverse=True)
        if count * len(patterns) > np.iinfo(np.int64).max:
            codes, code = np.unique(code, return_inverse=True)
            count = len(codes)
        code = code * len(patterns) + digit
        count *= len(patterns)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


# ---------------------------------------------------------------------------
# the per-point blocked sweeps, an oracle for the geometry sweeps


def oracle_validate(s, points):
    """The frame check over every point, ``geometry._FLAG_BLOCK`` at a
    time: the message naming the first singular point, or None."""
    points = np.atleast_2d(np.asarray(points))
    for start in range(0, len(points), geometry._FLAG_BLOCK):
        block = points[start : start + geometry._FLAG_BLOCK]
        F = s.frame_matrix(block)
        norms = np.linalg.norm(F, axis=1)
        scale = np.maximum(np.prod(norms, axis=-1), np.finfo(float).tiny)
        bad = np.abs(np.linalg.det(F)) <= 1e-10 * scale
        if np.any(bad):
            p = block[bad][0]
            return "frame matrix singular at point %s" % np.array2string(
                p, precision=6
            )
    return None


def oracle_flag_dims(s, points):
    """(n, 6) flag dims of every point, padded with m from the first full
    one on, from the flag swept over every point ``geometry._FLAG_BLOCK``
    at a time."""
    m = s.dim
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ranks = np.zeros((len(points), 6), dtype=int)
    for start in range(0, len(points), geometry._FLAG_BLOCK):
        block = points[start : start + geometry._FLAG_BLOCK]
        block_ranks = ranks[start : start + len(block)]
        rows = np.empty((len(block), 0, m))
        words = [()]
        for depth in range(1, 7):
            words = [(i,) + w for w in words for i in range(s.k)]
            layer = ex.evaluate_array([s.bracket(w).coefficients for w in words], block)
            rows = np.concatenate([rows, layer], axis=1)
            sv = np.linalg.svd(rows, compute_uv=False)
            cutoff = np.maximum(sv[:, :1], 1.0) * 1e-10
            block_ranks[:, depth - 1] = np.sum(sv > cutoff, axis=1)
            if np.all(np.any(block_ranks[:, :depth] == m, axis=1)):
                break
    ranks[np.maximum.accumulate(ranks == m, axis=1)] = m
    return ranks


def oracle_lie_bracket(X, Y):
    """[X, Y] by the formula, differentiating every coefficient per term."""
    Xc, Yc = X.coefficients, Y.coefficients
    return VectorField(
        [
            ex.add_terms(
                ex.Add(
                    ex.Mul(Xc[i], ex.differentiate(Yc[j], i)),
                    ex.Neg(ex.Mul(Yc[i], ex.differentiate(Xc[j], i))),
                )
                for i in range(X.dim)
            )
            for j in range(X.dim)
        ]
    )


def sample_points(s, count=30, seed=11):
    rng = np.random.default_rng(seed)
    return s.sample_points(count, rng=rng)


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    return str(path)
