"""Bracket rows streamed from the per-ring row tables.

The Lie multiplicative check and the central shift build bracket rows one
block at a time (``RingSpec.commutator_rows``) and never an (n, n) table.
The rows are checked against bracket sums of coefficient vectors, and the
verdicts and witnesses against the gather form over both tables
(``reference_lie_multiplicative``) on rebased copies at k = 2..8.
"""

import tracemalloc

import numpy as np
import pytest

from altring import analysis, fixtures, liemaps
from altring.liemaps import MapTable

from helpers import rebased_copy, reference_lie_multiplicative

# per modulus, rings of even and odd dimension, and some with several row
# blocks (more than 362 elements): XOR rows at k = 2, half-digit sums above
SOURCES = {
    2: [fixtures.triangular2(2), fixtures.zorn(2),
        fixtures.direct_sum(fixtures.zorn(2), fixtures.matrix2(2))],
    3: [fixtures.triangular2(3), fixtures.example1(3)],
    4: [fixtures.matrix2(4), fixtures.example2(4)],
    5: [fixtures.triangular2(5), fixtures.matrix2(5)],
    6: [fixtures.triangular2(6), fixtures.matrix2(6)],
    7: [fixtures.triangular2(7), fixtures.matrix2(7)],
    8: [fixtures.triangular2(8), fixtures.matrix2(8)],
}


def bracket_rows(ring, x):
    """Rows x of the bracket table from coefficient vectors: sum_ij x_i y_j
    (table[i, j] - table[j, i]) mod k, as element indices."""
    e, k = ring.elements_matrix(), ring.modulus
    constants = ring.table - ring.table.transpose(1, 0, 2)
    ad_x = np.einsum("xi,ijl->xjl", e[x], constants)  # [x, b_j]
    return np.einsum("yj,xjl->xyl", e, ad_x) % k @ ring.index_weights


def element_indices(submodule):
    return submodule.elements_matrix() @ submodule.ring.index_weights


def planted_maps(dom, cod, rng):
    """Maps dom -> cod that are 0 on every bracket value of dom and on the
    rows below a start row, so that phi([x, y]) = 0 everywhere and a pair
    fails exactly where [phi(x), phi(y)] != 0, both x and y at or past the
    start.  Elsewhere the values are random central elements (a Lie
    multiplicative map) or random elements (a failure in the start row's
    block).  Yields (start, values)."""
    n = dom.size
    brackets = np.zeros(n, dtype=bool)
    brackets[dom.commutator_index_table()] = True
    central = element_indices(analysis.centre(cod))
    last = list(liemaps._row_blocks(n))[-1].start
    for start in (0, last):
        for pool in (central, np.arange(cod.size)):
            values = rng.choice(pool, size=n)
            values[brackets | (np.arange(n) < start)] = 0
            yield start, values


def assert_same_verdict(phi):
    verdict = liemaps.is_lie_multiplicative(phi)
    ok, witness = reference_lie_multiplicative(phi)
    assert verdict.ok == ok
    if not ok:
        assert [x.index for x in verdict.witness] == witness
        assert verdict.witness[0].ring is phi.domain
    return verdict


@pytest.mark.parametrize("k", sorted(SOURCES))
def test_rows_match_bracket_sums(k):
    """Rows by index (``rows``), by block (``block``) and the whole table,
    also with the columns permuted by a map that is not a bijection."""
    for source in SOURCES[k]:
        ring = rebased_copy(source, k)
        n = ring.size
        rng = np.random.default_rng(k)
        x = np.unique(np.concatenate(([0, 1, n - 1], rng.integers(0, n, size=40))))
        columns = rng.integers(0, n, size=n)
        expected = bracket_rows(ring, x)
        assert np.array_equal(ring.commutator_rows().rows(x), expected)
        assert np.array_equal(ring.commutator_rows(columns).rows(x), expected[:, columns])
        blocks = list(liemaps._row_blocks(n))
        for rows in (blocks[0], blocks[-1], slice(n - 3, n + 5)):
            start = rows.start
            got = ring.commutator_rows().block(rows)
            assert np.array_equal(got, bracket_rows(ring, np.arange(start, min(rows.stop, n))))
        assert np.array_equal(ring.commutator_index_table()[x], expected)


@pytest.mark.parametrize("k", sorted(SOURCES))
def test_streamed_check_matches_gather_form(k):
    """Identity maps and permutations between two rebased copies, and
    non-bijective maps with failures planted in the first and in the last
    row block: same verdict, same witness."""
    for source in SOURCES[k]:
        dom, cod = rebased_copy(source, 10 + k), rebased_copy(source, 20 + k)
        n, rng = dom.size, np.random.default_rng(k)
        step, failed_at = next(liemaps._row_blocks(n)).stop, set()
        assert assert_same_verdict(MapTable.identity(dom)).ok
        assert_same_verdict(MapTable(dom, cod, np.arange(n)))
        assert_same_verdict(MapTable(dom, cod, rng.permutation(n)))
        for start, values in planted_maps(dom, cod, rng):
            verdict = assert_same_verdict(MapTable(dom, cod, values))
            if not verdict.ok:
                row = verdict.witness[0].index
                assert start <= row < start + step
                failed_at.add(start)
        assert len(failed_at) == (1 if step >= n else 2), source.name


def test_domain_and_codomain_of_other_sizes_and_moduli():
    """Z/3 -> Z/2, Z/2 -> Z/5 and Z/5 -> Z/3, from rings of 729, 256 and
    625 elements into rings of other sizes."""
    pairs = [
        (rebased_copy(fixtures.example1(3), 1), rebased_copy(fixtures.zorn(2), 2)),
        (rebased_copy(fixtures.zorn(2), 3), rebased_copy(fixtures.matrix2(5), 4)),
        (rebased_copy(fixtures.matrix2(5), 5), rebased_copy(fixtures.triangular2(3), 6)),
    ]
    rng = np.random.default_rng(0)
    outcomes = set()
    for dom, cod in pairs:
        assert_same_verdict(MapTable(dom, cod, rng.integers(0, cod.size, size=dom.size)))
        assert assert_same_verdict(MapTable(dom, cod, np.zeros(dom.size, dtype=np.int64))).ok
        for _, values in planted_maps(dom, cod, rng):
            outcomes.add(assert_same_verdict(MapTable(dom, cod, values)).ok)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "build",
    [
        lambda: fixtures.matrix2(7),
        lambda: fixtures.matrix2(8),
        lambda: fixtures.direct_sum(fixtures.zorn(2), fixtures.matrix2(2)),
    ],
    ids=["matrix2_z7", "matrix2_z8", "zorn+matrix2_z2"],
)
def test_check_builds_no_bracket_table(build):
    """Between two fresh copies (each with its own cache) the check builds
    each ring's row tables and no (n, n) bracket table, and peaks below one
    uint16 table, 2 n**2 bytes."""
    dom, cod = build(), build()
    n = dom.size
    tracemalloc.start()
    try:
        verdict = liemaps.is_lie_multiplicative(MapTable(dom, cod, np.arange(n)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.ok
    for ring in (dom, cod):
        assert "comm_rows" in ring._cache and "comm_idx" not in ring._cache
    assert peak < 2 * n * n, peak


def test_central_shift_builds_no_bracket_table():
    """The shift check reads streamed rows: a valid shift and a shift on a
    commutator value leave no (n, n) table, and the refusal names the least
    commutator value with a nonzero shift."""
    ring = fixtures.matrix2(5)
    unity = analysis.find_unity(ring)
    identity = MapTable.identity(ring)
    shifted = liemaps.central_shift(identity, {unity: unity})
    assert liemaps.is_lie_multiplicative(shifted).ok
    with pytest.raises(ValueError) as exc:
        liemaps.central_shift(identity, {ring.parse_element("e12"): unity})
    assert str(exc.value) == "shift must vanish on commutator values; e12 is one"
    assert "comm_idx" not in ring._cache


def test_almost_additive_reports_of_many_maps_match_one_at_a_time():
    """One stacked residue computation for additive, almost additive and
    other maps in one list gives each map's own report; maps of other rings
    are refused."""
    ring = fixtures.matrix2(3)
    unity = analysis.find_unity(ring)
    identity = MapTable.identity(ring)
    rng = np.random.default_rng(1)
    maps = [
        identity,
        liemaps.central_shift(identity, {unity: unity}),
        MapTable(ring, ring, rng.permutation(ring.size)),
        liemaps.inner_lie_derivation(ring, ring.parse_element("e12")),
        MapTable(ring, ring, np.zeros(ring.size, dtype=np.int64)),
    ]
    batch = liemaps.almost_additive_reports(maps)
    flags = [(r.all_zero, r.all_central) for r in batch]
    assert flags == [(True, True), (False, True), (False, False), (True, True), (True, True)]
    for phi, report in zip(maps, batch):
        single = liemaps.check_almost_additive(phi)
        assert report.phi is phi and (single.all_zero, single.all_central) == (
            report.all_zero,
            report.all_central,
        )
        assert report.sample_nonzero == single.sample_nonzero
        assert report.witness == single.witness
    assert liemaps.almost_additive_reports([]) == []
    with pytest.raises(ValueError, match="share one domain and one codomain"):
        liemaps.almost_additive_reports([identity, MapTable.identity(fixtures.matrix2(2))])
