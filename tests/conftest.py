import itertools
import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import strategies as st

import srlab.discrete as discrete
from srlab.cli import build_structure, load_config
from srlab.discrete import FieldFactor, Grid, assemble_weak_laplacian

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

    With perm the shift, row perm[i] of the column and value tables must
    be row i moved to the columns perm[cols[i]], re-sorted: then
    L[perm[i], perm[j]] = L[i, j] for every entry, stored or not.
    """
    cols, values, _ = op.stencil
    multi = grid.multi_indices()
    axes = []
    for a in range(grid.dim):
        perm = grid.ravel(grid.shifted(multi, a, 1))
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


def sample_points(s, count=30, seed=11):
    rng = np.random.default_rng(seed)
    return s.sample_points(count, rng=rng)


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    return str(path)
