"""Lie triple derivability against the per-z reference scan, and at a size
the scan cannot reach."""

import numpy as np
import pytest

from altring import commutator, fixtures, liemaps
from altring.liemaps import MapTable

from helpers import reference_sum_table, reference_triple_derivable

# catalog rings of at most 256 elements at k in {2, 3, 4}
SMALL_RINGS = [
    (name, k)
    for name in fixtures.CATALOG
    for k in (2, 3, 4)
    if k ** fixtures.build(name, k).dim <= 256
]


def distinct_pairs(ring, vals):
    """Number of distinct ([x, y], [D(x), y] + [x, D(y)]) over all (x, y)."""
    c, a = ring.commutator_index_table(), reference_sum_table(ring)
    s = a[c[vals, :], c[:, vals]]
    return len(np.unique(c * ring.size + s))


def verdict_triple(ring, vals):
    v = liemaps.is_lie_triple_derivable(MapTable(ring, ring, vals))
    return v.ok, v.witness_indices(), v.tag


def sample_maps(ring, rng):
    """The zero map, inner derivations, inner derivations with one value
    changed, and random maps with D(0) = 0."""
    n = ring.size
    c = ring.commutator_index_table()
    maps = [np.zeros(n, dtype=np.int64)]
    for _ in range(2):
        inner = c[int(rng.integers(0, n))].copy()
        changed = inner.copy()
        changed[int(rng.integers(1, n))] = int(rng.integers(0, n))
        random = rng.integers(0, n, size=n)
        random[0] = 0
        maps += [inner, changed, random]
    return maps


@pytest.mark.parametrize("name,k", SMALL_RINGS, ids=[f"{n}_z{k}" for n, k in SMALL_RINGS])
def test_matches_reference_scan(name, k, monkeypatch):
    """Same (ok, witness, tag) as the per-z scan, with the default z-blocks
    and with one z per block."""
    ring = fixtures.build(name, k)
    rng = np.random.default_rng(k * 1000 + ring.dim)
    for vals in sample_maps(ring, rng):
        expected = reference_triple_derivable(ring, vals)
        assert verdict_triple(ring, vals) == expected
        with monkeypatch.context() as m:
            m.setattr(liemaps, "_TRIPLE_BLOCK", 1)
            assert verdict_triple(ring, vals) == expected


def test_many_distinct_pairs():
    ring = fixtures.build("zorn", 2)
    n = ring.size
    rng = np.random.default_rng(7)
    seen = []
    for _ in range(4):
        vals = rng.integers(0, n, size=n)
        vals[0] = 0
        seen.append(distinct_pairs(ring, vals))
        assert verdict_triple(ring, vals) == reference_triple_derivable(ring, vals)
    assert min(seen) > 10 * n


def test_first_failure_beyond_first_block(monkeypatch):
    """On matrix2 + matrix2 the elements below index 16 are the second
    summand.  D = ad(g) + t, with t depending only on the first component
    and taking values in it, satisfies the law at every such z, so with
    narrow z-blocks the least failing z lies in a later block."""
    ring = fixtures.build("matrix2_pair", 2)
    n = ring.size
    c, a = ring.commutator_index_table(), reference_sum_table(ring)
    rng = np.random.default_rng(5)
    shift = rng.integers(0, 16, size=16) * 16
    shift[0] = 0
    vals = a[c[16 * 5 + 6], shift[np.arange(n) // 16]]
    expected = reference_triple_derivable(ring, vals)
    assert not expected[0]
    # blocks of 1024 entries hold 1024 // (distinct pairs) values of z
    monkeypatch.setattr(liemaps, "_TRIPLE_BLOCK", 1024)
    width = 1024 // distinct_pairs(ring, vals)
    assert 1 < width <= expected[1][2]
    assert verdict_triple(ring, vals) == expected


def test_large_ring_inner_derivation_and_one_changed_value():
    """matrix2_z7 has 2401 elements; the per-z scan does not finish here in
    reasonable time."""
    ring = fixtures.build("matrix2", 7)
    n = ring.size
    g = ring.parse_element("e12 + 3*e21 + 2*e11")
    inner = liemaps.inner_lie_derivation(ring, g)
    report = liemaps.derivable_report(inner)
    assert report["lie_derivable"].ok and report["lie_triple_derivable"].ok
    assert liemaps.is_lie_triple_derivable(inner).ok

    vals = inner.values.copy()
    j = n - 5
    vals[j] = (vals[j] + 1) % n
    d = MapTable(ring, ring, vals)
    v = liemaps.is_lie_triple_derivable(d)
    assert not v.ok and v.tag == "lie-triple-derivable"
    x, y, z = v.witness
    xy = commutator(x, y)
    lhs = d(commutator(xy, z))
    rhs = commutator(commutator(d(x), y), z) + commutator(commutator(x, d(y)), z)
    assert lhs != rhs + commutator(xy, d(z))

    report = liemaps.derivable_report(d)
    assert not report["lie_derivable"].ok
    assert report["lie_triple_derivable"] == v
