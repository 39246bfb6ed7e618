"""Map predicates, additivity defects, central shifts, the bijection search."""

import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from altring import analysis, cli, fixtures, liemaps, ringio
from altring.core import INDEX_TABLE_LIMIT, RingSpec
from altring.liemaps import MapTable

from helpers import BruteRing, rebased_copy


@pytest.fixture(scope="module")
def m2():
    return fixtures.matrix2(2)


@pytest.fixture(scope="module")
def t2():
    return fixtures.triangular2(2)


def neg_transpose(ring):
    def f(x):
        a, b, c, d = x.coeffs
        return -ring.element([a, c, b, d])

    return MapTable.from_callable(ring, ring, f)


def noncentral_swap(m2):
    """Transposes e11 <-> e11+e12 (both non-commutator values): a bijection
    whose defect at (e11, e22) is e12, not central."""
    vals = np.arange(m2.size)
    i = m2.parse_element("e11").index
    j = m2.parse_element("e11+e12").index
    vals[i], vals[j] = vals[j], vals[i]
    return MapTable(m2, m2, vals)


def central_swap(m2):
    unity = analysis.find_unity(m2)
    e11, e22 = m2.parse_element("e11"), m2.parse_element("e22")
    return liemaps.central_shift(MapTable.identity(m2), {e11: unity, e22: unity})


def random_map(codomain, seed):
    t2, cod = fixtures.triangular2(2), fixtures.build(*codomain)
    return MapTable(t2, cod, np.random.default_rng(seed).integers(0, cod.size, t2.size))


def past_first_block():
    """x -> x0*e12 + x8*1 from the 512 elements of zero9_z2 into matrix2_z4:
    its defects are 2 (central) at a8 = b8 = 1 and 2*e12 at a0 = b0 = 1, so
    the first nonzero defect is at (1, 1) and the first non-central one at
    (256, 256), past the first row block."""
    dom, cod = fixtures.zero_ring(9, 2), fixtures.matrix2(4)
    e12, unity = cod.parse_element("e12"), analysis.find_unity(cod)
    vals = [((i >> 8) * e12 + (i & 1) * unity).index for i in range(dom.size)]
    return MapTable(dom, cod, vals)


def linear_map(dom, cod, images, planted=None):
    """x -> sum_i x_i images[i] (x_i in [0, k1), summed in the codomain), plus
    the planted residues {domain index: codomain element}."""
    planted = planted or {}

    def f(x):
        value = sum((c * g for c, g in zip(x.coeffs, images)), cod.zero())
        return value + planted.get(x.index, cod.zero())

    return MapTable.from_callable(dom, cod, f)


def plus_unity(ring):
    """x -> x + 1: phi(0) = 1, so every defect is -1 and the sample is (0, 0)."""
    unity = analysis.find_unity(ring)
    return MapTable.from_callable(ring, ring, lambda x: x + unity)


def reduction(dom, cod):
    """Coefficients reduced from Z/k1 to Z/k2 (k2 | k1): additive across moduli."""
    return MapTable.from_callable(dom, cod, lambda x: cod.element(x.coeffs))


def last_digit_times_unity(dom, cod):
    """x -> x_last * 1 from Z/2 into Z/4: every residue is zero, and the only
    nonzero defects are 2 * 1 = k1 * phi(b_last), where the last digits carry."""
    unity = analysis.find_unity(cod)
    return MapTable.from_callable(dom, cod, lambda x: x.coeffs[-1] * unity)


def late_residue(label):
    """An additive linear map from zero9_z2 into matrix2_z4 plus one residue
    (``label`` times 2) planted at index 400, beyond the first row block of
    256 rows."""
    dom, cod = fixtures.zero_ring(9, 2), fixtures.matrix2(4)
    images = [2 * cod.basis_element(i % cod.dim) for i in range(dom.dim)]
    return linear_map(dom, cod, images, {400: 2 * cod.parse_element(label)})


DEFECT_CASES = {
    "identity": lambda: MapTable.identity(fixtures.matrix2(2)),
    "central_swap": lambda: central_swap(fixtures.matrix2(2)),
    "noncentral_swap": lambda: noncentral_swap(fixtures.matrix2(2)),
    "to_zero3": lambda: random_map(("zero3", 2), 5),
    "to_matrix2_z2": lambda: random_map(("matrix2", 2), 6),
    "to_triangular2_z3": lambda: random_map(("triangular2", 3), 6),
    "past_first_block": past_first_block,
    "nonzero_at_origin": lambda: plus_unity(fixtures.matrix2(2)),
    "reduce_z4_to_z2": lambda: reduction(fixtures.triangular2(4), fixtures.triangular2(2)),
    "z2_to_z4_carries": lambda: last_digit_times_unity(fixtures.matrix2(2), fixtures.matrix2(4)),
    "late_central_residue": lambda: late_residue("e11+e22"),
    "late_noncentral_residue": lambda: late_residue("e12"),
}


def lex_order_scan(phi, centre):
    """(sample, witness) of a scan of all pairs in lex order with
    additivity_defect, stopped at the first non-central defect."""
    central = {tuple(c) for c in centre.elements_matrix().tolist()}
    elements = list(phi.domain.elements())
    sample = None
    for a, b in itertools.product(elements, repeat=2):
        d = liemaps.additivity_defect(phi, a, b)
        if sample is None and not d.is_zero():
            sample = (a, b, d)
        if d.coeffs not in central:
            return sample, (a, b, d)
    return sample, None


def assert_report_matches_lex_order_scan(phi):
    rep = liemaps.check_almost_additive(phi)
    sample, witness = lex_order_scan(phi, rep.centre)
    assert rep.all_zero == (sample is None)
    assert rep.all_central == (witness is None)
    assert rep.witness == witness
    assert rep.sample_nonzero == sample
    return rep


SMALL_DOMAINS = [fixtures.build(*spec) for spec in
                 (("triangular2", 2), ("matrix2", 2), ("zero3", 3), ("triangular2", 3))]
SMALL_CODOMAINS = [fixtures.build(*spec) for spec in
                   (("matrix2", 4), ("triangular2", 4), ("matrix2", 2), ("zero3", 2), ("example2", 3))]


def add_index_sizes(monkeypatch) -> list[int]:
    """Records the broadcast size of every RingSpec.add_indices call."""
    sizes, add = [], RingSpec.add_indices

    def counted(ring, x, y, sign=1):
        sizes.append(np.broadcast(x, y).size)
        return add(ring, x, y, sign)

    monkeypatch.setattr(RingSpec, "add_indices", counted)
    return sizes


def conjugation(ring, g):
    """x -> g x g^-1 for an invertible 2x2 matrix g over Z2."""
    inv = {}
    for cand in ring.elements():
        if g * cand == analysis.find_unity(ring) and cand * g == analysis.find_unity(ring):
            inv = cand
            break
    else:
        raise ValueError("not invertible")
    return MapTable.from_callable(ring, ring, lambda x: (g * x) * inv)


def invertibles(ring):
    unity = analysis.find_unity(ring)
    out = []
    for g in ring.elements():
        if any((g * h) == unity and (h * g) == unity for h in ring.elements()):
            out.append(g)
    return out


class TestLieMultiplicative:
    def test_identity_map(self, m2):
        assert liemaps.is_lie_multiplicative(MapTable.identity(m2)).ok

    def test_witness_past_the_first_row_block(self):
        """zero9_z2 has 512 elements, so a row block holds 256 rows.  Its
        brackets vanish, and phi sends 256 and 257 to e12 and e21 and every
        other element to 0, so the lex-least failing pair is (256, 257)."""
        dom, cod = fixtures.zero_ring(9, 2), fixtures.matrix2(2)
        vals = np.zeros(dom.size, dtype=np.int64)
        vals[256], vals[257] = cod.parse_element("e12").index, cod.parse_element("e21").index
        verdict = liemaps.is_lie_multiplicative(MapTable(dom, cod, vals))
        assert verdict.witness_indices() == [256, 257]

    def test_neg_transpose(self, m2):
        phi = neg_transpose(m2)
        assert phi.is_bijective()
        assert liemaps.is_lie_multiplicative(phi).ok

    def test_neg_transpose_exhaustive_oracle(self, m2):
        phi = neg_transpose(m2)
        br = BruteRing(m2)
        tab = {tuple(x.coeffs): tuple(phi(x).coeffs) for x in m2.elements()}
        for x in br.elements:
            for y in br.elements:
                assert tab[br.comm(x, y)] == br.comm(tab[x], tab[y])

    def test_transposition_fails_with_witness(self, m2):
        vals = np.arange(m2.size)
        i, j = m2.parse_element("e11").index, m2.parse_element("e12").index
        vals[i], vals[j] = vals[j], vals[i]
        phi = MapTable(m2, m2, vals)
        v = liemaps.is_lie_multiplicative(phi)
        assert not v.ok
        x, y = v.witness
        from altring import commutator

        assert phi(commutator(x, y)) != commutator(phi(x), phi(y))

    def test_all_conjugations(self, m2):
        gs = invertibles(m2)
        assert len(gs) == 6
        for g in gs:
            assert liemaps.is_lie_multiplicative(conjugation(m2, g)).ok


class TestDerivable:
    def test_zero_map(self, m2):
        zero = MapTable(m2, m2, np.zeros(m2.size, dtype=int))
        rep = liemaps.derivable_report(zero)
        assert rep["lie_derivable"].ok and rep["lie_triple_derivable"].ok

    def test_inner_derivations(self, m2):
        for lab in ("e12", "e21", "e11"):
            ad = liemaps.inner_lie_derivation(m2, m2.parse_element(lab))
            rep = liemaps.derivable_report(ad)
            assert rep["lie_derivable"].ok and rep["lie_triple_derivable"].ok

    def test_ad_properties(self, m2):
        zero_ad = liemaps.inner_lie_derivation(m2, m2.zero())
        assert not zero_ad.values.any()
        for x in m2.elements():
            ad = liemaps.inner_lie_derivation(m2, x)
            assert ad(x).is_zero()

    def test_constant_map_fails_at_origin(self, m2):
        const = MapTable(m2, m2, np.full(m2.size, m2.parse_element("e12").index))
        v = liemaps.is_lie_derivable(const)
        assert not v.ok
        assert [w.index for w in v.witness] == [0, 0]

    def test_derivable_implies_triple_on_sampled_maps(self, t2):
        # all 8^8 self-maps is too many; sample value tables deterministically
        rng = np.random.default_rng(0)
        n = t2.size
        for _ in range(200):
            d = MapTable(t2, t2, rng.integers(0, n, size=n))
            if liemaps.is_lie_derivable(d).ok:
                assert liemaps.is_lie_triple_derivable(d).ok

    def test_derivable_oracle_agreement(self, t2, m2):
        """Verdict and witness of is_lie_derivable and of derivable_report equal
        a BruteRing lex-least scan, on random maps of triangular2_z2 and on
        inner derivations of matrix2_z2 with one value changed, which fail
        past (0, 0)."""
        rng = np.random.default_rng(1)
        cases = [(t2, rng.integers(0, t2.size, size=t2.size)) for _ in range(50)]
        for i in range(m2.size):
            vals = liemaps.inner_lie_derivation(m2, m2.from_index(i)).values.copy()
            at = int(rng.integers(1, m2.size))
            vals[at] = (vals[at] + int(rng.integers(1, m2.size))) % m2.size
            cases.append((m2, vals))
        witnesses = []
        for ring, vals in cases:
            br = BruteRing(ring)
            elems = br.elements
            tab = {x: elems[vals[br.index(x)]] for x in elems}
            expected = next(
                (
                    [br.index(x), br.index(y)]
                    for x in elems
                    for y in elems
                    if tab[br.comm(x, y)] != br.add(br.comm(tab[x], y), br.comm(x, tab[y]))
                ),
                None,
            )
            d = MapTable(ring, ring, vals)
            for v in (liemaps.is_lie_derivable(d), liemaps.derivable_report(d)["lie_derivable"]):
                assert v.ok == (expected is None)
                assert v.witness_indices() == expected
            witnesses.append(expected)
        assert any(w is not None and w != [0, 0] for w in witnesses)

    @pytest.mark.parametrize("ring_name", ["triangular2_z2", "random_z6"])
    def test_triple_derivable_oracle_verdict_and_witness(self, ring_name, t2):
        """Same verdict and same witness as a plain BruteRing scan: z
        outermost, then x, then y."""
        rng = np.random.default_rng(3)
        if ring_name == "random_z6":
            ring = fixtures.RingSpec(ring_name, 6, ("a", "b"), rng.integers(0, 6, size=(2, 2, 2)))
        else:
            ring = t2
        br = BruteRing(ring)
        elems = br.elements
        n = ring.size
        comm = {(x, y): br.comm(x, y) for x in elems for y in elems}

        def brute_witness(vals):
            tab = {x: elems[vals[br.index(x)]] for x in elems}
            for z in elems:
                for x in elems:
                    for y in elems:
                        xy = comm[x, y]
                        lhs = tab[comm[xy, z]]
                        rhs = br.add(
                            br.add(comm[comm[tab[x], y], z], comm[comm[x, tab[y]], z]),
                            comm[xy, tab[z]],
                        )
                        if lhs != rhs:
                            return [br.index(x), br.index(y), br.index(z)]
            return None

        inner = [liemaps.inner_lie_derivation(ring, ring.from_index(i)).values for i in range(n)]
        maps = [np.zeros(n, dtype=np.int64)]
        for _ in range(12):
            vals = rng.integers(0, n, size=n)
            maps.append(vals)
            maps.append(np.where(np.arange(n) == 0, 0, vals))
            vals = inner[int(rng.integers(0, n))].copy()
            vals[rng.integers(1, n, size=2)] = rng.integers(0, n, size=2)
            maps.append(vals)
        witnesses = []
        for vals in maps:
            v = liemaps.is_lie_triple_derivable(MapTable(ring, ring, vals))
            expected = brute_witness(vals)
            assert v.ok == (expected is None)
            assert v.witness_indices() == expected
            witnesses.append(expected)
        assert any(w is None for w in witnesses)
        assert any(w is not None and w[2] > 0 for w in witnesses)


class TestDefects:
    def test_identity_all_zero(self, m2):
        rep = liemaps.check_almost_additive(MapTable.identity(m2))
        assert rep.all_zero and rep.all_central and rep.witness is None

    def test_central_swap(self, m2):
        unity = analysis.find_unity(m2)
        e11, e22 = m2.parse_element("e11"), m2.parse_element("e22")
        swap = liemaps.central_shift(
            MapTable.identity(m2), {e11: unity, e22: unity}
        )
        assert swap.is_bijective()
        assert liemaps.is_lie_multiplicative(swap).ok
        rep = liemaps.check_almost_additive(swap)
        assert not rep.all_zero  # not additive
        assert rep.all_central  # but almost additive
        # bijectivity pairs e11 with e22 = e11 + unity, so the defect at
        # (e11, e22) cancels; the nonzero central defect appears elsewhere
        assert rep.defect(e11, e22).is_zero()
        assert rep.defect(e11, m2.parse_element("e12")) == unity
        assert unity in rep.centre

    def test_noncentral_defect_detected(self, m2):
        phi = noncentral_swap(m2)
        rep = liemaps.check_almost_additive(phi)
        assert not rep.all_central
        assert rep.defect(m2.parse_element("e11"), m2.parse_element("e22")) == m2.parse_element("e12")
        a, b, d = rep.witness
        assert d not in rep.centre
        assert liemaps.additivity_defect(phi, a, b) == d

    def test_graded_against_the_cached_codomain_centre(self, monkeypatch):
        """The centre is computed once per ring and shared by every report,
        as search-maps grades hundreds of maps on one codomain."""
        m2, calls = fixtures.matrix2(2), []
        nucleus = analysis.nucleus
        monkeypatch.setattr(analysis, "nucleus", lambda ring: calls.append(ring) or nucleus(ring))
        for phi in (MapTable.identity(m2), noncentral_swap(m2), central_swap(m2)):
            assert liemaps.check_almost_additive(phi).centre == analysis.centre(m2)
        assert calls == [m2]

    def test_builds_no_table_sized_array(self):
        """Sums and differences come from one table over half the digits, and
        brackets are streamed rows: no (n, n) array is cached on the domain
        or the codomain, of the same shape as the domain or not, by a defect
        report, by either derivability check (of an inner derivation, and of
        it with one value changed), or by a search, budgeted or run to
        completion (matrix2_z2: a complete search of matrix2_z3 or zorn_z2
        takes minutes)."""

        def assert_no_table(label, *rings):
            for ring in rings:
                shapes = [np.shape(t) for t in ring._cache.values()]
                assert (ring.size, ring.size) not in shapes, (label, ring.name)

        for case in ("past_first_block", "to_triangular2_z3"):
            phi = DEFECT_CASES[case]()
            liemaps.check_almost_additive(phi)
            assert_no_table(case, phi.domain, phi.codomain)
        for ring in (fixtures.matrix2(3), fixtures.zorn(2)):
            inner = liemaps.inner_lie_derivation(ring, ring.parse_element("e11"))
            values = inner.values.copy()
            values[1] = (values[1] + 1) % ring.size
            changed = MapTable(ring, ring, values)
            for label, run in (
                ("derivable inner", lambda: liemaps.derivable_report(inner)),
                ("derivable changed", lambda: liemaps.derivable_report(changed)),
                ("triple changed", lambda: liemaps.is_lie_triple_derivable(changed)),
                ("search budget=200", lambda: liemaps.search_lie_multiplicative_bijections(ring, budget=200)),
            ):
                run()
                assert_no_table(label, ring)
        ring = fixtures.matrix2(2)
        assert liemaps.search_lie_multiplicative_bijections(ring).complete
        assert_no_table("complete search", ring)

    def test_past_the_table_limit_refused(self):
        ring = fixtures.zero_ring(13, 2)
        assert ring.size > INDEX_TABLE_LIMIT
        with pytest.raises(ValueError, match="index tables are limited"):
            liemaps.check_almost_additive(MapTable.identity(ring))

    def test_codomain_past_the_table_limit_refused_first(self):
        """A codomain past the limit is refused before anything is computed
        for it: not its centre, not its element matrix."""
        dom, cod = fixtures.zero_ring(3, 2), fixtures.zero_ring(13, 2)
        phi = MapTable(dom, cod, np.zeros(dom.size, dtype=np.int64))
        with pytest.raises(ValueError, match="index tables are limited"):
            liemaps.check_almost_additive(phi)
        assert cod._cache == {}

    @pytest.mark.parametrize("case", sorted(DEFECT_CASES))
    def test_report_matches_lex_order_scan(self, case):
        """The flags and both witnesses equal those of a scan of all pairs in
        lex order with additivity_defect, stopped at the first non-central
        defect."""
        rep = assert_report_matches_lex_order_scan(DEFECT_CASES[case]())
        if case == "past_first_block":
            # rows of 512 entries, so the first block holds 256 of them
            assert (rep.sample_nonzero[0].index, rep.witness[0].index) == (1, 256)
        if case == "nonzero_at_origin":
            assert [x.index for x in rep.sample_nonzero[:2]] == [0, 0]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_planted_residues_match_lex_order_scan(self, data):
        """Linear maps (which are additive only where k1 kills every basis
        image) plus a few planted residues, central or not."""
        dom = data.draw(st.sampled_from(SMALL_DOMAINS))
        cod = data.draw(st.sampled_from(SMALL_CODOMAINS))
        index = st.integers(0, cod.size - 1)
        images = [cod.from_index(i) for i in data.draw(st.lists(index, min_size=dom.dim, max_size=dom.dim))]
        centre = analysis.centre(cod).elements_by_index()
        value = st.sampled_from(centre) if data.draw(st.booleans()) else index.map(cod.from_index)
        planted = data.draw(st.dictionaries(st.integers(0, dom.size - 1), value, max_size=3))
        assert_report_matches_lex_order_scan(linear_map(dom, cod, images, planted))

    def test_additive_maps_scan_nothing(self, monkeypatch):
        """An additive map's report computes no (rows, n) block of defects:
        no add_indices call has more than n entries."""
        sizes = add_index_sizes(monkeypatch)
        m7, m5 = fixtures.matrix2(7), fixtures.matrix2(5)
        for phi in (MapTable.identity(m7), liemaps.inner_lie_derivation(m5, m5.parse_element("e12"))):
            sizes.clear()
            assert liemaps.check_almost_additive(phi).all_zero
            assert max(sizes, default=0) <= phi.domain.size

    def test_central_shift_stops_at_the_first_nonzero_block(self, monkeypatch):
        """x -> x_0 * 1 from zero11_z2 into matrix2_z4, a central shift of the
        zero map: defects are nonzero only where both leading digits are 1, so
        the first is at (1024, 1024), in block 16 of 32.  The scan computes the
        defects of blocks 0..16 (three add_indices calls each) and stops."""
        dom, cod = fixtures.zero_ring(11, 2), fixtures.matrix2(4)
        unity = analysis.find_unity(cod)
        zero = MapTable(dom, cod, np.zeros(dom.size, dtype=np.int64))
        phi = liemaps.central_shift(zero, {x: unity for x in dom.elements() if x.coeffs[0]})
        blocks = list(liemaps._row_blocks(dom.size))
        assert len(blocks) == 32 and blocks[16].start == 1024
        sizes = add_index_sizes(monkeypatch)
        rep = liemaps.check_almost_additive(phi)
        assert not rep.all_zero and rep.all_central
        assert [x.index for x in rep.sample_nonzero] == [1024, 1024, (2 * unity).index]
        assert sum(size > dom.size for size in sizes) == 3 * 17

    def test_sample_alone_stops_at_its_block(self, monkeypatch):
        """Reading only the sample scans up to the sample's block: on
        past_first_block that is block 0 (three add_indices calls), though the
        witness lies in block 1."""
        phi = DEFECT_CASES["past_first_block"]()
        rep = liemaps.check_almost_additive(phi)
        sizes = add_index_sizes(monkeypatch)
        assert rep.sample_nonzero[0].index == 1
        assert sum(size > phi.domain.size for size in sizes) == 3

    def test_scan_contradicting_the_verdicts_raises(self):
        """Each witness scan checks every block it computes against the residue
        verdicts: a non-central defect under an all-central verdict, or no
        defect at all under a not-additive one, raises."""
        m2 = fixtures.matrix2(2)
        centre = analysis.centre(m2)
        rep = liemaps.DefectReport(noncentral_swap(m2), centre, all_zero=False, all_central=True)
        with pytest.raises(AssertionError, match="not central"):
            rep.sample_nonzero
        rep = liemaps.DefectReport(MapTable.identity(m2), centre, all_zero=False, all_central=False)
        with pytest.raises(AssertionError, match="did not find"):
            rep.sample_nonzero
        with pytest.raises(AssertionError, match="did not find"):
            rep.witness

    def test_witnesses_scanned_on_first_read_only(self, monkeypatch, tmp_path):
        """The flags need no scan of the defects: each witness is scanned when
        first read, and not again.  search-maps reads only the flags, so its
        336 maps that are not additive scan nothing."""
        calls = []
        scan = liemaps.DefectReport._first_defect

        def counted(rep, nonzero):
            calls.append(nonzero)
            return scan(rep, nonzero)

        monkeypatch.setattr(liemaps.DefectReport, "_first_defect", counted)
        m2 = fixtures.matrix2(2)
        rep = liemaps.check_almost_additive(noncentral_swap(m2))
        assert (rep.all_zero, rep.all_central, calls) == (False, False, [])
        sample = rep.sample_nonzero
        assert sample is not None and rep.sample_nonzero is sample and calls == [True]
        witness = rep.witness
        assert witness is not None and rep.witness is witness and calls == [True, False]
        ring = tmp_path / "m2.json"
        ring.write_text(ringio.dumps_ring(m2))
        search = CliRunner().invoke(cli.main, ["search-maps", str(ring), "--format", "json"])
        assert search.exit_code == 0 and calls == [True, False]
        assert sum(not m["additive"] for m in json.loads(search.output)["maps"]) == 336


def test_pairwise_scans_keep_no_table_sized_temporaries():
    """With the bracket's row tables built, the Lie multiplicative check and
    the defect report work in row blocks: neither peaks at a quarter of one
    (n, n) int64 table.  The derivability report keeps no Leibniz table: it
    peaks below one such table (its triple check's z-blocks of 2**20 entries
    come near half of one at this size by design)."""
    ring = fixtures.matrix2(7)
    phi = MapTable.identity(ring)
    # the bracket's row tables are cached on the ring: this builds them before
    # tracing
    ring.commutator_rows()
    inner = liemaps.inner_lie_derivation(ring, ring.parse_element("e12"))
    table = ring.size**2 * 8
    checks = [
        (liemaps.is_lie_multiplicative, phi, table // 4),
        (liemaps.check_almost_additive, phi, table // 4),
        (liemaps.derivable_report, inner, table),
    ]
    for check, arg, bound in checks:
        tracemalloc.start()
        try:
            check(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (check.__name__, peak)


class TestCentralShift:
    def test_zero_shift_is_identity_operation(self, m2):
        phi = neg_transpose(m2)
        assert liemaps.central_shift(phi, {}) == phi

    def test_shift_on_commutator_value_rejected(self, m2):
        unity = analysis.find_unity(m2)
        with pytest.raises(ValueError, match="commutator"):
            liemaps.central_shift(MapTable.identity(m2), {m2.parse_element("e12"): unity})

    def test_shift_key_outside_the_domain_rejected(self, m2):
        """A key from another ring is refused by name, before the values are
        checked, whether they are central or not."""
        e11 = fixtures.zorn(2).parse_element("e11")
        for value in (analysis.find_unity(m2), m2.parse_element("e12")):
            with pytest.raises(ValueError) as exc:
                liemaps.central_shift(MapTable.identity(m2), {e11: value})
            assert str(exc.value) == "shift key e11 of 'zorn_z2' is not in the domain 'matrix2_z2'"

    def test_noncentral_shift_value_rejected(self, m2):
        with pytest.raises(ValueError, match="central"):
            liemaps.central_shift(
                MapTable.identity(m2), {m2.parse_element("e11"): m2.parse_element("e12")}
            )

    def test_rejections_name_the_least_failing_element(self):
        """Both errors name what a loop over the domain in index order meets
        first: the first non-central value, then the least commutator value
        with a nonzero shift."""
        ring = fixtures.matrix2(3)
        centre, unity = analysis.centre(ring), analysis.find_unity(ring)
        brackets = np.unique(ring.commutator_index_table()).tolist()
        is_bracket = set(brackets)
        rng = np.random.default_rng(7)
        for _ in range(20):
            picks = rng.choice(ring.size, size=3).tolist() + rng.choice(brackets, size=3).tolist()
            noncentral = {ring.from_index(i): ring.from_index(int(v))
                          for i, v in zip(picks, rng.integers(1, ring.size, size=6))}
            first = next(noncentral[x] for x in ring.elements()
                         if noncentral.get(x, ring.zero()) not in centre)
            with pytest.raises(ValueError) as exc:
                liemaps.central_shift(MapTable.identity(ring), noncentral)
            assert str(exc.value) == f"shift value {first.label()} is not central in the codomain"
            central = {ring.from_index(i): unity for i in picks}
            least = next(ring.from_index(i) for i in range(ring.size)
                         if i in is_bracket and ring.from_index(i) in central)
            with pytest.raises(ValueError) as exc:
                liemaps.central_shift(MapTable.identity(ring), central)
            assert str(exc.value) == (
                f"shift must vanish on commutator values; {least.label()} is one"
            )

    def test_shift_preserves_brackets(self, m2):
        unity = analysis.find_unity(m2)
        e11, e22 = m2.parse_element("e11"), m2.parse_element("e22")
        phi = neg_transpose(m2)
        psi = liemaps.central_shift(phi, {e11: unity, e22: unity})
        cc = m2.commutator_index_table()
        pv, sv = phi.values, psi.values
        assert np.array_equal(cc[pv[:, None], pv[None, :]], cc[sv[:, None], sv[None, :]])
        assert liemaps.is_lie_multiplicative(psi).ok


class TestSearch:
    def test_identity_always_found(self, t2):
        res = liemaps.search_lie_multiplicative_bijections(t2)
        assert MapTable.identity(t2) in res.maps

    def test_triangular2_complete_set_matches_brute_force(self, t2):
        res = liemaps.search_lie_multiplicative_bijections(t2)
        assert res.complete
        found = {tuple(m.values.tolist()) for m in res.maps}
        cd = t2.commutator_index_table()
        brute = set()
        for perm in itertools.permutations(range(t2.size)):
            p = np.array(perm)
            if np.array_equal(p[cd], cd[p[:, None], p[None, :]]):
                brute.add(perm)
        assert found == brute
        assert len(found) == 8

    def test_all_found_maps_reverify(self, t2):
        res = liemaps.search_lie_multiplicative_bijections(t2)
        for m in res.maps:
            assert m.is_bijective()
            assert liemaps.is_lie_multiplicative(m).ok

    def test_budget_semantics(self, t2):
        res = liemaps.search_lie_multiplicative_bijections(t2, budget=1)
        assert not res.complete
        full = liemaps.search_lie_multiplicative_bijections(t2)
        assert liemaps.search_lie_multiplicative_bijections(t2, budget=full.nodes).complete

    def test_deterministic_order(self, t2):
        a = liemaps.search_lie_multiplicative_bijections(t2)
        b = liemaps.search_lie_multiplicative_bijections(t2)
        assert [tuple(m.values.tolist()) for m in a.maps] == [
            tuple(m.values.tolist()) for m in b.maps
        ]
        vals = [tuple(m.values.tolist()) for m in a.maps]
        assert vals == sorted(vals)  # DFS emits in lexicographic order

    def test_cross_ring_search_size_mismatch(self, t2, m2):
        with pytest.raises(ValueError):
            liemaps.search_lie_multiplicative_bijections(t2, m2)

    def test_small_ring_cross_search(self):
        # 1-dim zero rings of equal size: every bijection fixing 0 is Lie
        # multiplicative (all brackets vanish)
        a = fixtures.zero_ring(1, 3)
        res = liemaps.search_lie_multiplicative_bijections(a)
        assert res.complete and len(res.maps) == 2  # permutations of {1, 2}

    def test_cross_ring_searches_match_permutation_filter(self, t2):
        """Searches between triangular2_z2 and other rings of 8 elements, both
        ways, against every permutation p of the 8 elements with
        p([u, w]) = [p(u), p(w)]: p[cd] == cc[p[:, None], p[None, :]].  The
        other rings are seeded random 3-dimensional Z2 rings (two of the 40
        have such maps) and rebased copies of triangular2_z2 (all have)."""
        perms = np.array(list(itertools.permutations(range(8))), dtype=np.int8)
        rands = [RingSpec(f"rand{seed}", 2, ("a", "b", "c"),
                          np.random.default_rng(seed).integers(0, 2, size=(3, 3, 3)))
                 for seed in range(40)]
        counts = []
        for other in rands + [rebased_copy(t2, seed) for seed in range(3)]:
            for dom, cod in ((t2, other), (other, t2)):
                res = liemaps.search_lie_multiplicative_bijections(dom, cod)
                assert res.complete
                cd, cc = dom.commutator_index_table(), cod.commutator_index_table()
                keep = (perms[:, cd] == cc[perms[:, :, None], perms[:, None, :]]).all(axis=(1, 2))
                assert [tuple(m.values.tolist()) for m in res.maps] == [tuple(p) for p in perms[keep].tolist()]
                assert res.nodes == prefix_search_nodes(perms[perms[:, 0] == 0], cd, cc)
            counts.append(len(res.maps))
        assert sum(map(bool, counts[:40])) == 2 and all(counts[40:])

    def test_each_bracket_checked_once_at_its_depth(self):
        """Depth m holds the (u, w, [u, w]) with max(u, w, [u, w]) = m, in
        (u, w) order, and every ordered pair is at exactly one depth, also
        past the widths where the sorted block doubles (64, 128 and 256 on
        the 256 elements of zorn_z2; 64 and 81 on matrix2_z3)."""
        for ring in (fixtures.zorn(2), fixtures.matrix2(3)):
            cd = ring.commutator_index_table()
            n = ring.size
            depths = list(liemaps._depth_checks(ring.commutator_rows()))
            assert len(depths) == n
            seen = np.zeros((n, n), dtype=int)
            for m, (u, w, c) in enumerate(depths):
                u, w, c = (np.array(x, dtype=np.int64) for x in (u, w, c))
                assert np.array_equal(c, cd[u, w])
                assert (np.maximum(np.maximum(u, w), c) == m).all()
                assert (np.diff(u * n + w) > 0).all()
                seen[u, w] += 1
            assert (seen == 1).all()

    def test_budgeted_search_sorts_no_whole_table(self):
        """With the bracket's row tables of the 4096-element matrix2_z8
        cached, one node needs only the first 64 x 64 block: the search peaks
        far below one (n, n) table (32 MB in uint16)."""
        ring = fixtures.matrix2(8)
        ring.commutator_rows()
        tracemalloc.start()
        try:
            res = liemaps.search_lie_multiplicative_bijections(ring, budget=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.nodes, res.complete, len(res.maps)) == (1, False, 0)
        assert peak < 8 * 2**20, peak

    def test_random_8_element_rings_match_permutation_filter(self):
        """Random rings of 8 elements over Z2 and of 9 elements over Z3.  Over
        Z2 the bracket is symmetric, so (u, w) and (w, u) are checked at the
        same depth with the same outcome; over Z3 they differ.  The node
        count must equal that of a search over every prefix
        (``prefix_search_nodes``)."""
        rng = np.random.default_rng(42)
        done = 0
        while done < 4:
            table = rng.integers(0, 2, size=(3, 3, 3))
            ring = fixtures.RingSpec(f"rand{done}", 2, ("a", "b", "c"), table)
            res = liemaps.search_lie_multiplicative_bijections(ring)
            assert res.complete
            found = {tuple(m.values.tolist()) for m in res.maps}
            cd = ring.commutator_index_table()
            brute = set()
            for perm in itertools.permutations(range(8)):
                p = np.array(perm)
                if np.array_equal(p[cd], cd[p[:, None], p[None, :]]):
                    brute.add(perm)
            assert found == brute, ring.name
            done += 1
        # every Lie multiplicative map fixes 0: the 8! permutations of 1..8
        perms = np.array([(0, *p) for p in itertools.permutations(range(1, 9))], dtype=np.int8)
        rng = np.random.default_rng(3)
        for n in range(6):
            ring = fixtures.RingSpec(f"rand3_{n}", 3, ("a", "b"), rng.integers(0, 3, size=(2, 2, 2)))
            res = liemaps.search_lie_multiplicative_bijections(ring)
            assert res.complete
            cd = ring.commutator_index_table()
            keep = (perms[:, cd] == cd[perms[:, :, None], perms[:, None, :]]).all(axis=(1, 2))
            brute = {tuple(p) for p in perms[keep].tolist()}
            assert {tuple(m.values.tolist()) for m in res.maps} == brute, ring.name
            assert res.nodes == prefix_search_nodes(perms, cd, cd), ring.name


def prefix_search_nodes(perms, cd, cc) -> int:
    """Nodes of a search from cd's ring into cc's that assigns images in index
    order with phi(0) = 0 and tries each unused image at depth m after every
    prefix of m images keeping the bracket constraints among indices below m:
    the sum over m of (such prefixes) x (n - m).  ``perms`` holds every
    permutation that fixes 0."""
    n = len(cd)
    holds = perms[:, cd] == cc[perms[:, :, None], perms[:, None, :]]
    i = np.arange(n)
    top = np.maximum(np.maximum(i[:, None], i), cd)  # max(u, w, [u, w])
    return sum(len(np.unique(perms[holds[:, top < m].all(axis=1), :m], axis=0)) * (n - m)
               for m in range(1, n))


def value_tables_sha256(maps) -> str:
    """sha256 of the value tables in order, each as little-endian int64."""
    digest = hashlib.sha256()
    for m in maps:
        digest.update(np.asarray(m.values, dtype="<i8").tobytes())
    return digest.hexdigest()


# (ring, modulus, budget): nodes, complete, count, additive, almost additive,
# sha256 of the value tables in order; recorded from the search that checked
# each constraint by a row loop, a column loop and a reverse index
SEARCH_PINS = {
    ("matrix2", 2, None): (19641, True, 384, 48, 384,
                           "32a8f4fc9ea49740d2d6b5e0af0ce8a21a61a2fc5f476d9d758a468a92ded604"),
    ("triangular2", 2, None): (149, True, 8, 4, 8,
                               "0bf2733fd7d45aed23b554ca7393e28b0379d3d043d57d6e2644607e530109ef"),
    ("triangular2", 3, 2000): (2000, False, 36, 1, 36,
                               "822449517ee2bdb83801e85e080f09c5eafb2c3e09833e35f162e573d91617a6"),
    ("triangular2", 4, 2000): (2000, False, 13, 1, 13,
                               "d658d60b72ce464a724544f018cf3a3dcb897706981b7e1883fefd533ec30bea"),
    ("example1", 2, 2000): (2000, False, 205, 1, 205,
                            "313715b5950b26defda53a34d0b0abf0767fbee91da74da0b9df6a661e6fc2ba"),
    ("zorn", 2, 5000): (5000, False, 1, 1, 1,
                        "bbd330b12e8159e117376ef24fa106413bc9fc18032a0d43e95c5dae5e47953f"),
    ("matrix2", 5, 5000): (5000, False, 1, 1, 1,
                           "00e8934acf30e378fed47a04200363e3dbe0eb56695e801b5e3c6ee400d6be8e"),
    ("matrix2", 7, 1500): (1500, False, 0, 0, 0,
                           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("case", SEARCH_PINS, ids=lambda c: f"{c[0]}_z{c[1]}-{c[2]}")
def test_search_results_pinned(case):
    """Nodes, maps in order and their additivity grades are those of the
    earlier search on every benchmark search ring and on two deep ones."""
    name, k, budget = case
    res = liemaps.search_lie_multiplicative_bijections(fixtures.build(name, k), budget=budget)
    reports = [liemaps.check_almost_additive(m) for m in res.maps]
    got = (res.nodes, res.complete, len(res.maps), sum(r.all_zero for r in reports),
           sum(r.all_central for r in reports), value_tables_sha256(res.maps))
    assert got == SEARCH_PINS[case]


class TestMapHygiene:
    def test_value_table_validation(self, t2):
        with pytest.raises(ValueError):
            MapTable(t2, t2, np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            MapTable(t2, t2, np.full(t2.size, t2.size))

    def test_non_integer_values_refused(self):
        r = fixtures.zero_ring(1, 3)
        with pytest.raises(ValueError, match=r"^values\[1\] = 1\.9 is not an integer$"):
            MapTable(r, r, [0, 1.9, 2.2])
        with pytest.raises(ValueError, match=r"^values\[2\] = '2' is not an integer$"):
            MapTable(r, r, [0, 1, "2"])
        assert MapTable(r, r, np.array([0.0, 2.0, 1.0])).values.tolist() == [0, 2, 1]

    def test_compose(self, m2):
        tau = neg_transpose(m2)
        assert tau.compose(tau) == MapTable.identity(m2)

    def test_apply(self, m2):
        tau = neg_transpose(m2)
        assert tau(m2.parse_element("e12")) == m2.parse_element("e21")
