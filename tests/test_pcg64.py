"""srlab._pcg64.uniform against numpy.random.default_rng(seed).uniform."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srlab._pcg64 import _BLOCK, uniform

# around one block and several; a period box draws (count, 3)
COUNTS = [0, 1, 5, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]
PERIODS = [1.0, 2 * np.pi, 0.3]

# seeds of every entropy length from one 32-bit word to past 2^256 (nine
# words: SeedSequence mixes the words past its pool of four in a loop of
# their own)
seeds = st.integers(0, 270).flatmap(lambda bits: st.integers(0, 2**bits))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, count=st.sampled_from(COUNTS), box=st.booleans())
@example(seed=0, count=1, box=False)
@example(seed=2**64 + 5, count=_BLOCK + 1, box=False)
@example(seed=2**256, count=3 * _BLOCK + 7, box=False)
@example(seed=3**150, count=_BLOCK + 2, box=True)
def test_uniform_is_numpy_default_rng_bit_for_bit(seed, count, box):
    low, high, size = (0.0, PERIODS, (count, 3)) if box else (-1.0, 1.0, count)
    got = uniform(seed, low, high, size)
    want = np.random.default_rng(seed).uniform(low, high, size)
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_negative_seed_is_refused():
    with pytest.raises(ValueError):
        uniform(-1, 0.0, 1.0, 3)
