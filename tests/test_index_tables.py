"""The pairwise index tables against the plain contraction (einsum % k) @ w,
and sums and differences of indices against ((e[x] +- e) % k) @ w.

The tables are built as digit outer sums in small unsigned types, and sums
and differences from one table over half the digits; the reference here is
the direct int64 arithmetic, over every row or, when n > 512, over 64 sampled
rows, on seeded random structure constants at moduli on both sides of the
switch from uint8 to uint16 digits (2(k-1) > 255), at the largest table size
and at odd dimensions, where the high half has one digit fewer than the low.
The pairwise tables are uint16 at every size.  They are built from the rows
of the low and the high half of x: at d = 1 the low half is every digit, and
d = 3 at k = 16 has the widest half (m = 256), where a high-half index times
m wrapping in uint16 would show.
"""

import tracemalloc

import numpy as np
import pytest

from altring import fixtures
from altring.core import INDEX_TABLE_LIMIT, RingSpec

# (dimension, modulus): d = 1 crosses the digit-width switch between k = 128
# and k = 129, and reaches the largest modulus a table allows.
CASES = [(1, k) for k in (127, 128, 129, 255, 256, 257, 4096)]
CASES += [(2, 64), (12, 2), (3, 16), (5, 5), (7, 3)]
SAMPLED_ROWS = 64


def _random_ring(d, k, dense, seed):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, k, size=(d, d, d))
    if not dense:
        table *= rng.random((d, d, d)) < 1 / 6
    return RingSpec(f"random_d{d}_k{k}", k, [f"b{i}" for i in range(d)], table), rng


def _reference(ring, which, rows):
    e, w, k, t = ring.elements_matrix(), ring.index_weights, ring.modulus, ring.table
    x = e[rows]
    if which in (1, -1):
        return ((x[:, None, :] + which * e[None, :, :]) % k) @ w
    constants = t if which == "mul" else t - t.transpose(1, 0, 2)
    return (np.einsum("ai,ijl,bj->abl", x, constants, e, optimize=True) % k) @ w


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize("d,k", CASES, ids=[f"d{d}-k{k}" for d, k in CASES])
def test_pair_tables_match_einsum_oracle(d, k, dense):
    ring, rng = _random_ring(d, k, dense, seed=1000 * d + k + dense)
    n = ring.size
    assert n <= INDEX_TABLE_LIMIT
    rows = np.arange(n) if n <= 512 else np.sort(rng.choice(n, SAMPLED_ROWS, replace=False))
    for which, build in (("mul", ring.mul_index_table), ("comm", ring.commutator_index_table)):
        table = build()
        assert table.dtype == np.uint16 and table.shape == (n, n)
        assert np.array_equal(table[rows], _reference(ring, which, rows)), which
    for sign in (1, -1):
        sums = ring.add_indices(rows[:, None], np.arange(n), sign)
        assert sums.dtype == np.int64
        assert np.array_equal(sums, _reference(ring, sign, rows)), sign


def test_largest_bracket_table_is_uint16_and_built_in_its_own_size():
    """zorn + matrix2 over Z/2 (n = 4096, d = 12): the bracket table takes
    2 n**2 bytes, and its build allocates less than half as much again.
    NumPy reports its allocations to tracemalloc."""
    ring = fixtures.direct_sum(fixtures.zorn(2), fixtures.matrix2(2))
    n = ring.size
    assert (n, ring.dim) == (4096, 12)
    tracemalloc.start()
    try:
        table = ring.commutator_index_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.uint16 and table.nbytes == 2 * n * n
    assert peak < 1.5 * 2 * n * n
