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
m wrapping in uint16 would show.  Over Z/2 sums, differences and the rows
of the pairwise tables are XORs of indices, with no half-digit table: d = 1
is the case with no high half, and odd d has one high digit fewer.
"""

import tracemalloc

import numpy as np
import pytest

from altring import analysis, fixtures, liemaps
from altring.core import INDEX_TABLE_LIMIT, RingSpec
from altring.liemaps import MapTable

# (dimension, modulus): d = 1 crosses the digit-width switch between k = 128
# and k = 129, and reaches the largest modulus a table allows; k = 2 takes
# the XOR path at d = 1, at odd d and at the largest table.
CASES = [(1, k) for k in (127, 128, 129, 255, 256, 257, 4096)]
CASES += [(2, 64), (12, 2), (3, 16), (5, 5), (7, 3), (1, 2), (3, 2), (5, 2)]
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


@pytest.mark.parametrize("sign", [1, -1])
def test_z2_sums_are_int64_for_every_input_type(sign):
    """Over Z/2 a sum is x ^ y; it is int64 whether the indices come as intp,
    as uint16 (gathered from a bracket table) or as Python ints."""
    ring, _ = _random_ring(5, 2, True, seed=52)
    e = np.arange(ring.size)
    expected = _reference(ring, sign, e)
    for x, y in ((e[:, None], e), (e.astype(np.uint16)[:, None], e.astype(np.uint16))):
        sums = ring.add_indices(x, y, sign)
        assert sums.dtype == np.int64 and np.array_equal(sums, expected)
    for x, y in ((3, 17), (3, e.astype(np.uint16)), (e.astype(np.uint16), 17)):
        sums = ring.add_indices(x, y, sign)
        assert sums.dtype == np.int64
        assert np.array_equal(sums, expected[x, y])


def test_z2_verifiers_build_no_half_digit_table():
    """The bracket table and every Lie-map verifier over Z/2, witnesses read,
    leave no sum or difference table in the ring's cache."""
    ring = fixtures.matrix2(2)
    inner = liemaps.inner_lie_derivation(ring, ring.parse_element("e12"))
    values = inner.values.copy()
    values[1] ^= 1
    broken = MapTable(ring, ring, values)
    unity = analysis.find_unity(ring)
    e11, e22 = ring.parse_element("e11"), ring.parse_element("e22")
    shift = liemaps.central_shift(MapTable.identity(ring), {e11: unity, e22: unity})
    assert liemaps.is_lie_multiplicative(shift).ok
    assert not liemaps.is_lie_multiplicative(broken).ok
    for phi in (inner, broken):
        report = liemaps.derivable_report(phi)
        assert report["lie_triple_derivable"].ok == (phi is inner)
    for phi in (shift, broken):
        report = liemaps.check_almost_additive(phi)
        assert not report.all_zero
        assert report.sample_nonzero is not None
        assert (report.witness is None) == report.all_central
    assert not {"add+1", "add-1"} & set(ring._cache), sorted(ring._cache)
