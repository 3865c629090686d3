import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import strategies as st

from srlab.cli import build_structure, load_config
from srlab.discrete import Grid, assemble_weak_laplacian

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
    """One structure per fixture name, shared so its bracket caches fill once."""
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


def sample_points(s, count=30, seed=11):
    rng = np.random.default_rng(seed)
    return s.sample_points(count, rng=rng)


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    return str(path)
