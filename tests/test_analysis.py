"""Structural analysis: predicates, submodule computations, Peirce frames,
conditions, primeness.  Expected values were frozen from the brute-force
oracles in helpers.py; the oracles re-run here on the small fixtures."""

import itertools

import numpy as np
import pytest

from altring import analysis, canonicalize, fixtures
from altring.analysis import PeirceError

from helpers import (
    PEIRCE_KEYS,
    BruteRing,
    brute_condition_scan,
    reference_condition,
    reference_condition_subspace,
    reference_identity_scans,
    reference_peirce,
    reference_peirce_project,
    reference_peirce_relations,
    reference_primeness,
)


@pytest.fixture(scope="module")
def ex1():
    return fixtures.example1(2)


@pytest.fixture(scope="module")
def ex2():
    return fixtures.example2(2)


@pytest.fixture(scope="module")
def m2():
    return fixtures.matrix2(2)


@pytest.fixture(scope="module")
def t2():
    return fixtures.triangular2(2)


class TestAssociativity:
    def test_example1_is_associative(self, ex1):
        assert analysis.is_associative(ex1).ok

    def test_example2_fails_with_least_witness(self, ex2):
        v = analysis.is_associative(ex2)
        assert not v.ok
        assert [w.label() for w in v.witness] == ["b12", "c21", "a11"]
        from altring import associator

        assert associator(*v.witness) == ex2.parse_element("a11")

    def test_zero_ring_is_associative(self):
        assert analysis.is_associative(fixtures.zero_ring()).ok

    def test_witness_reverifies(self, ex2):
        v = analysis.is_associative(ex2)
        br = BruteRing(ex2)
        x, y, z = (tuple(w.coeffs) for w in v.witness)
        assert br.assoc(x, y, z) != br.zero


class TestAlternativity:
    def test_example2_is_not_alternative(self, ex2):
        # The nonzero associator (b12, c21, a11) already forces this:
        # with x = b12 + c21, (x, x, a11) = a11 over every modulus.
        v = analysis.is_alternative(ex2)
        assert not v.ok
        assert [w.label() for w in v.witness] == ["b12+c21", "b12+c21", "a11"]
        br = BruteRing(ex2)
        assert not br.alternative()

    def test_example2_not_alternative_for_any_small_modulus(self):
        for k in (2, 3, 4, 5):
            assert not analysis.is_alternative(fixtures.example2(k)).ok

    def test_mutated_example2_diagonal_failure(self, ex2):
        table = np.array(ex2.table)
        i = ex2.basis_labels.index("b12")
        a = ex2.basis_labels.index("a11")
        table[i, i] = 0
        table[i, i, a] = 1  # overwrite b12*b12 := a11
        mutated = fixtures.RingSpec("mutated", 2, ex2.basis_labels, table)
        v = analysis.is_alternative(mutated)
        assert not v.ok
        assert [w.label() for w in v.witness] == ["b12", "b12", "a11"]
        br = BruteRing(mutated)
        assert br.assoc(*(tuple(w.coeffs) for w in v.witness)) != br.zero

    def test_matrix2_is_alternative(self, m2):
        assert analysis.is_alternative(m2).ok

    def test_zorn_is_alternative_not_associative(self):
        z = fixtures.zorn(2)
        assert analysis.is_alternative(z).ok
        assert not analysis.is_associative(z).ok


class TestFlexibility:
    def test_flags(self, ex1, ex2, m2):
        assert analysis.is_flexible(ex1).ok
        assert not analysis.is_flexible(ex2).ok
        assert analysis.is_flexible(m2).ok
        assert analysis.is_flexible(fixtures.zorn(2)).ok

    def test_linearized_flexibility_on_alternative_fixtures(self):
        for name in ("example1", "matrix2", "triangular2", "zorn"):
            r = fixtures.build(name, 2)
            assert analysis.check_linearized_flexible(r).ok, name

    def test_nonflexible_two_dim_ring_found_and_witnessed(self):
        # brute-force search over 2-dim tables over Z2 for a non-flexible one
        found = None
        for bits in itertools.product((0, 1), repeat=8):
            table = np.array(bits, dtype=np.int64).reshape(2, 2, 2)
            r = fixtures.RingSpec("cand", 2, ("a", "b"), table)
            v = analysis.is_flexible(r)
            if not v.ok:
                found = (r, v)
                break
        assert found is not None
        r, v = found
        br = BruteRing(r)
        assert not br.flexible()
        x, y, x2 = (tuple(w.coeffs) for w in v.witness)
        assert x == x2 and br.assoc(x, y, x) != br.zero


class TestBasisCriterionAgreesWithBruteForce:
    @pytest.mark.parametrize(
        "name,k",
        [("example1", 2), ("example2", 2), ("matrix2", 2), ("triangular2", 2), ("zero3", 2)],
    )
    def test_small_fixtures(self, name, k):
        r = fixtures.build(name, k)
        br = BruteRing(r)
        assert analysis.is_associative(r).ok == br.associative()
        assert analysis.is_alternative(r).ok == br.alternative()
        assert analysis.is_flexible(r).ok == br.flexible()


IDENTITY_CHECKS = ("is_associative", "is_alternative", "is_flexible", "check_linearized_flexible")


def _random_tables(count=240, seed=20181012):
    """Seeded random rings with d <= 4 and k in {2, 3, 4, 6, 9}; odd
    positions are sparse (about one coefficient in twelve nonzero)."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(count):
        k, d = (2, 3, 4, 6, 9)[n % 5], 1 + (n // 10) % 4
        table = rng.integers(0, k, size=(d, d, d))
        if n % 2:
            table *= rng.random((d, d, d)) < 1 / 12
        out.append(fixtures.RingSpec(f"random{n}", k, [f"b{i}" for i in range(d)], table))
    return out


class TestIdentityWitnessOrder:
    """Full (ok, witness, tag) of the four identity checks against the plain
    scans of helpers.reference_identity_scans."""

    @staticmethod
    def _mismatches(ring):
        expected = reference_identity_scans(ring)
        out = []
        for name in IDENTITY_CHECKS:
            v = getattr(analysis, name)(ring)
            if (v.ok, v.witness_indices(), v.tag) != expected[name]:
                out.append((ring.name, name, (v.ok, v.witness_indices(), v.tag), expected[name]))
        return out

    @pytest.mark.parametrize("name", sorted(fixtures.CATALOG))
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_catalog(self, name, k):
        assert self._mismatches(fixtures.build(name, k)) == []

    def test_random_tables(self):
        rings = _random_tables()
        assert len(rings) >= 200
        assert [m for r in rings for m in self._mismatches(r)] == []


class TestNucleusAndCentre:
    def test_example1_nucleus_is_whole_ring(self, ex1):
        assert analysis.nucleus(ex1).span_size() == ex1.size

    def test_example2_submodules_match_brute_force(self, ex2):
        br = BruteRing(ex2)
        nuc = analysis.nucleus(ex2)
        assert sorted(tuple(e.coeffs) for e in nuc.elements()) == sorted(
            br.nucleus_elements()
        )
        com = analysis.commutant(ex2)
        assert sorted(tuple(e.coeffs) for e in com.elements()) == sorted(
            br.commutant_elements()
        )
        cen = analysis.centre(ex2)
        assert sorted(tuple(e.coeffs) for e in cen.elements()) == sorted(
            br.centre_elements()
        )
        # frozen values: nucleus = <e, d22>, commutant = <a11, d22>, centre = <d22>
        assert nuc.span_size() == 4 and ex2.parse_element("e") in nuc
        assert com.span_size() == 4 and ex2.parse_element("a11") in com
        assert cen.span_size() == 2 and ex2.parse_element("d22") in cen
        assert ex2.parse_element("a11") not in nuc

    def test_matrix_rings_have_scalar_centre(self, m2, t2):
        for r in (m2, t2):
            cen = analysis.centre(r)
            unity = analysis.find_unity(r)
            assert cen == canonicalize(r, [unity])

    def test_triangular_e11_not_central(self, t2):
        assert t2.parse_element("e11") not in analysis.centre(t2)

    def test_zero_ring_is_its_own_centre(self):
        z = fixtures.zero_ring()
        assert analysis.centre(z).span_size() == z.size
        assert analysis.nucleus(z).span_size() == z.size


class TestTorsion:
    def test_z2_rings(self, ex2):
        assert analysis.is_k_torsion_free(ex2, 3).ok
        assert not analysis.is_k_torsion_free(ex2, 2).ok

    def test_z4_witness_is_least(self):
        r = fixtures.triangular2(4)
        v = analysis.is_k_torsion_free(r, 2)
        assert not v.ok
        w = v.witness[0]
        assert w == r.element([0, 0, 2])
        assert (2 * w).is_zero() and not w.is_zero()
        assert analysis.is_k_torsion_free(r, 3).ok

    def test_kernel_not_gcd_shortcut(self):
        # gcd(6, 4) = 2 != 1 but some elements survive: verify via witness
        r = fixtures.triangular2(4)
        v = analysis.is_k_torsion_free(r, 6)
        assert not v.ok
        assert (6 * v.witness[0]).is_zero()


class TestUnityAndIdempotents:
    def test_matrix2(self, m2):
        unity = analysis.find_unity(m2)
        assert unity == m2.parse_element("e11+e22")
        idem = analysis.idempotents(m2)
        labels = {e.label() for e in idem}
        assert {"0", "e11", "e22", "e11+e22"} <= labels
        assert all(e * e == e for e in idem)
        # brute force count agreement
        br = BruteRing(m2)
        count = sum(1 for x in br.elements if br.mul(x, x) == x)
        assert count == len(idem)

    def test_example2_idempotent_no_unity(self, ex2):
        assert analysis.find_unity(ex2) is None
        e = ex2.parse_element("e")
        assert e in analysis.idempotents(ex2)

    def test_zero_ring(self):
        z = fixtures.zero_ring()
        assert analysis.find_unity(z) is None
        assert analysis.idempotents(z) == [z.zero()]

    def test_nontrivial_excludes_unity(self, m2):
        non = analysis.nontrivial_idempotents(m2)
        assert analysis.find_unity(m2) not in non
        assert m2.zero() not in non


def _idempotent_tables(seed=1111):
    """(name, ring) for d 1..6 and k in {2, 3, 4, 6, 8, 9, 16, 256} with
    k**d <= 4096, one dense and one sparse table each."""
    rng = np.random.default_rng(seed)
    out = []
    for k in (2, 3, 4, 6, 8, 9, 16, 256):
        for d in range(1, 7):
            if k**d > 4096:
                continue
            for sparse in (False, True):
                table = rng.integers(0, k, size=(d, d, d))
                if sparse:
                    table *= rng.random((d, d, d)) < 1 / 6
                name = f"{'sparse' if sparse else 'dense'}_d{d}_k{k}"
                out.append(fixtures.RingSpec(name, k, [f"b{i}" for i in range(d)], table))
    return out


class TestIdempotentScan:
    """analysis.idempotents against the pure-Python scan of BruteRing."""

    @staticmethod
    def _indices(ring):
        return [e.index for e in analysis.idempotents(ring)]

    def test_catalog_rings(self):
        checked = 0
        for name, fx in fixtures.CATALOG.items():
            d = fx.instance().dim
            for k in range(2, 11):
                if k**d > 1024:
                    break
                ring = fx.instance(k)
                assert self._indices(ring) == BruteRing(ring).idempotents(), (name, k)
                checked += 1
        assert checked >= 20

    def test_seeded_tables_every_block_size(self, monkeypatch):
        for ring in _idempotent_tables():
            expected = BruteRing(ring).idempotents()
            assert self._indices(ring) == expected, ring.name
            for block in (1, 7):
                with monkeypatch.context() as m:
                    m.setattr(analysis, "_IDEMPOTENT_BLOCK", block)
                    assert self._indices(ring) == expected, (ring.name, block)

    def test_matrix2_pair_z6_count(self):
        assert len(analysis.idempotents(fixtures.build("matrix2_pair", 6))) == 12544

    def test_analyze_builds_no_element_matrix(self):
        for ring, primeness in ((fixtures.zorn(3), False), (fixtures.matrix2(7), True)):
            analysis.analyze(ring, primeness=primeness)
            assert "elements" not in ring._cache, (ring.name, primeness)


class TestPeirce:
    def test_example2_components(self, ex2):
        fr = analysis.peirce(ex2, ex2.parse_element("e"))
        assert fr.r11 == canonicalize(ex2, [ex2.parse_element("e"), ex2.parse_element("a11")])
        assert fr.r12 == canonicalize(ex2, [ex2.parse_element("b12")])
        assert fr.r21 == canonicalize(ex2, [ex2.parse_element("c21")])
        assert fr.r22 == canonicalize(ex2, [ex2.parse_element("d22")])

    def test_matrix2_components_are_matrix_unit_lines(self, m2):
        fr = analysis.peirce(m2, m2.parse_element("e11"))
        for (i, j), lab in [((1, 1), "e11"), ((1, 2), "e12"), ((2, 1), "e21"), ((2, 2), "e22")]:
            assert fr.component(i, j) == canonicalize(m2, [m2.parse_element(lab)])

    def test_projections_sum_to_identity_exhaustively(self, ex2):
        fr = analysis.peirce(ex2, ex2.parse_element("e"))
        for a in ex2.elements():
            parts = fr.project(a)
            total = ex2.zero()
            for key in parts:
                assert parts[key] in fr.component(*key)
            for p in parts.values():
                total = total + p
            assert total == a

    def test_rejects_non_idempotent_and_trivial(self, m2, ex2):
        with pytest.raises(PeirceError):
            analysis.peirce(m2, m2.parse_element("e12"))
        with pytest.raises(PeirceError):
            analysis.peirce(m2, m2.parse_element("e11+e22"))  # unity
        with pytest.raises(PeirceError):
            analysis.peirce(ex2, ex2.zero())

    def test_peirce_relations_hold_on_fixtures(self, ex2, m2):
        for ring, idem in [(ex2, "e"), (m2, "e11"), (fixtures.zorn(2), "e11")]:
            fr = analysis.peirce(ring, ring.parse_element(idem))
            assert analysis.check_peirce_relations(fr).ok

    def test_matrix2_r12_squares_to_zero(self, m2):
        fr = analysis.peirce(m2, m2.parse_element("e11"))
        prods = [x * y for x in fr.r12.basis() for y in fr.r12.basis()]
        assert all(p.is_zero() for p in prods)

    def test_zorn_r12_squares_nontrivial(self):
        z = fixtures.zorn(2)
        fr = analysis.peirce(z, z.parse_element("e11"))
        prods = [x * y for x in fr.r12.elements() for y in fr.r12.elements()]
        assert any(not p.is_zero() for p in prods)
        assert all(p in fr.r21 for p in prods)

    @pytest.mark.parametrize("side", ["12", "21"])
    def test_nonzero_square_in_off_diagonal_component(self, side):
        """Rule (iv) alone fails: a, b span R{side}, c spans the other
        off-diagonal component, a*b = c and no other product of a, b, c is
        nonzero, so R{side}*R{side} <= R{side[::-1]} holds but (a+b)^2 = c."""
        e, f, a, b, c = range(5)
        left, right = (e, f) if side == "12" else (f, e)
        t = np.zeros((5, 5, 5), dtype=int)
        t[e, e, e] = t[f, f, f] = t[a, b, c] = 1
        for x in (a, b):
            t[left, x, x] = t[x, right, x] = 1  # R12 has e*x = x = x*f
        t[right, c, c] = t[c, left, c] = 1
        ring = fixtures.RingSpec("squares", 4, ["e", "f", "a", "b", "c"], t)
        fr = analysis.peirce(ring, ring.parse_element("e"))
        v = analysis.check_peirce_relations(fr)
        comp = {x.coeffs for x in fr.component(int(side[0]), int(side[1])).elements()}
        br = BruteRing(ring)
        expect = next(x for x in br.elements if x in comp and br.mul(x, x) != br.zero)
        assert (v.ok, v.tag) == (False, f"square in R{side}")
        assert v.witness == (ring.element(expect),) * 2
        assert v.witness[0] == ring.parse_element("a+b")

    def test_compatibility_identity_all_elements(self, ex2):
        e1 = ex2.parse_element("e")
        for a in ex2.elements():
            assert (e1 * a) * e1 == e1 * (a * e1)


def _peirce_tables(count=360, seed=19661):
    """Seeded rings with b0*b0 = b0, d in 2..5, k in {2, 3, 4, 6, 8, 9}.  A
    third are dense, a third sparse, and in the last third b0 acts on each
    other basis element as on an element of one Peirce component, so that
    most of those frames exist and the multiplication rules get tested."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(count):
        k, d = (2, 3, 4, 6, 8, 9)[n % 6], 2 + (n // 6) % 4
        t = rng.integers(0, k, size=(d, d, d))
        if n % 3:
            t *= rng.random((d, d, d)) < 1 / 5
        if n % 3 == 2:
            t[0], t[:, 0] = 0, 0
            for i, (left, right) in enumerate(rng.integers(0, 2, size=(d - 1, 2)), start=1):
                t[0, i, i], t[i, 0, i] = left, right
        t[0, 0] = np.eye(d, dtype=int)[0]
        out.append(fixtures.RingSpec(f"peirce{n}", k, [f"b{i}" for i in range(d)], t))
    return [(r, r.basis_element(0)) for r in out]


def _peirce_cases():
    """(ring, e1): the seeded tables, a non-idempotent and the unity of
    matrix2_z2 (b0 is always a nonzero idempotent), and every
    nontrivial idempotent of the catalog rings of at most 256 elements."""
    m2 = fixtures.matrix2(2)
    cases = _peirce_tables()
    cases += [(m2, m2.parse_element(e)) for e in ("e12", "e11+e22")]
    for name in sorted(fixtures.CATALOG):
        for k in range(2, 10):
            ring = fixtures.build(name, k)
            if ring.size <= 256:
                cases += [(ring, e) for e in analysis.nontrivial_idempotents(ring)]
    return cases


def _peirce_outcome(ring, e1, peirce, relations, condition, subspace):
    """The PeirceError message, or the component rows, the three verdicts
    as (ok, witness indices, tag) and both condition subspaces."""
    try:
        frame = peirce(ring, e1)
    except PeirceError as exc:
        return str(exc)
    verdicts = [relations(frame), condition(frame, "12"), condition(frame, "21")]
    return (
        [frame.component(*key).rows.tolist() for key in PEIRCE_KEYS],
        [(v.ok, v.witness_indices(), v.tag) for v in verdicts],
        [subspace(frame, side).rows.tolist() for side in ("12", "21")],
    )


def _outcome_kind(outcome) -> str:
    """The error kind, or which rule the relations verdict failed."""
    if isinstance(outcome, str):
        kinds = ("not an idempotent", "unity", "compatibility", "overlap", "zero element")
        return next(kind for kind in kinds if kind in outcome)
    ok, _, tag = outcome[1][0]
    if ok:
        return "ok"
    if tag.startswith("square"):
        return "(iv)"
    if tag.endswith("=0"):
        return "(iii)"
    return "(i)" if tag[2] == tag[5] else "(ii)"


class TestPeirceAgainstElementReference:
    """The Peirce layer, read off L_e and R_e, against the Element-product
    procedures it replaced (``helpers.reference_peirce*``)."""

    def test_outcomes_match_reference(self):
        kinds = set()
        for ring, e1 in _peirce_cases():
            got = _peirce_outcome(
                ring, e1, analysis.peirce, analysis.check_peirce_relations,
                analysis.check_condition, analysis.condition_subspace,
            )
            want = _peirce_outcome(
                ring, e1, reference_peirce, reference_peirce_relations,
                reference_condition, reference_condition_subspace,
            )
            assert got == want, (ring.name, e1.label())
            kinds.add(_outcome_kind(got))
        assert kinds >= {"not an idempotent", "unity", "compatibility", "overlap",
                         "(i)", "(ii)", "(iii)", "ok"}

    def test_project_matches_reference_on_every_element(self):
        z = fixtures.zorn(2)
        e1 = z.parse_element("e11")
        frame = analysis.peirce(z, e1)
        for a in z.elements():
            assert frame.project(a) == reference_peirce_project(e1, a)


class TestConditions:
    def test_example1_both_fail_with_least_witnesses(self, ex1):
        fr = analysis.peirce(ex1, ex1.parse_element("e"))
        c12 = analysis.check_condition(fr, "12")
        assert not c12.ok
        assert c12.witness[0] == ex1.parse_element("e+b11")
        c21 = analysis.check_condition(fr, "21")
        assert not c21.ok
        assert c21.witness[0] == ex1.parse_element("b11")

    def test_example1_witnesses_against_elementwise_scan(self, ex1):
        fr = analysis.peirce(ex1, ex1.parse_element("e"))
        commut = [tuple(e.coeffs) for e in analysis.commutant(ex1).elements()]
        for side, expect in [("12", "e+b11"), ("21", "b11")]:
            hyp, good, bad = brute_condition_scan(ex1, fr, side, commut)
            assert bad, side
            assert ex1.element(bad[0]) == ex1.parse_element(expect)
            sub = analysis.condition_subspace(fr, side)
            assert sorted(tuple(e.coeffs) for e in sub.elements()) == sorted(hyp)

    def test_example2_both_hold(self, ex2):
        fr = analysis.peirce(ex2, ex2.parse_element("e"))
        assert analysis.check_condition(fr, "12").ok
        assert analysis.check_condition(fr, "21").ok
        # and the subspace is exactly the commutant here
        sub = analysis.condition_subspace(fr, "12")
        assert sub == analysis.commutant(ex2)

    def test_matrix2_both_hold_with_exhaustive_oracle(self, m2):
        fr = analysis.peirce(m2, m2.parse_element("e11"))
        commut = [tuple(e.coeffs) for e in analysis.commutant(m2).elements()]
        for side in ("12", "21"):
            assert analysis.check_condition(fr, side).ok
            hyp, good, bad = brute_condition_scan(m2, fr, side, commut)
            assert not bad
            assert len(hyp) == 2  # scalars only

    def test_matrix2_pair_witnesses_against_elementwise_scan(self):
        r = fixtures.build("matrix2_pair", 2)
        fr = analysis.peirce(r, r.parse_element("e11.1"))
        commut = [tuple(e.coeffs) for e in analysis.commutant(r).elements()]
        for side in ("12", "21"):
            v = analysis.check_condition(fr, side)
            hyp, good, bad = brute_condition_scan(r, fr, side, commut)
            assert not v.ok
            assert v.witness == (r.element(bad[0]),)

    def test_triangular2_condition_21_vacuous_hypothesis_fails(self, t2):
        # R21 = 0 so the hypothesis holds for all of R11+R22, which is not
        # central; the least non-commuting element is e22.
        fr = analysis.peirce(t2, t2.parse_element("e11"))
        v = analysis.check_condition(fr, "21")
        assert not v.ok
        assert v.witness[0] == t2.parse_element("e22")
        assert analysis.check_condition(fr, "12").ok


class TestIdealsAndPrimeness:
    def test_ideal_closures(self, t2, m2):
        assert analysis.ideal_generated(t2, t2.parse_element("e12")) == canonicalize(
            t2, [t2.parse_element("e12")]
        )
        assert analysis.ideal_generated(t2, t2.parse_element("e22")) == canonicalize(
            t2, [t2.parse_element("e12"), t2.parse_element("e22")]
        )
        assert analysis.ideal_generated(m2, m2.parse_element("e11")).span_size() == m2.size

    def test_ideal_closure_needs_iteration(self, t2):
        # e22's ideal picks up e12 only through a second pass product
        ideal = analysis.ideal_generated(t2, t2.parse_element("e22"))
        assert t2.parse_element("e12") in ideal

    def test_triangular2_not_prime_witnesses(self, t2):
        v = analysis.is_prime_by_ideals(t2)
        assert not v.ok
        assert [w.label() for w in v.witness] == ["e22", "e12"]
        for variant in ("left", "right"):
            c = analysis.prime_criterion(t2, variant)
            assert not c.ok
            assert [w.label() for w in c.witness] == ["e22", "e12"]

    def test_triangular2_witness_reverifies(self, t2):
        br = BruteRing(t2)
        a = tuple(t2.parse_element("e22").coeffs)
        b = tuple(t2.parse_element("e12").coeffs)
        # aR*b = 0 and a*Rb = 0 elementwise
        assert all(br.mul(br.mul(a, r), b) == br.zero for r in br.elements)
        assert all(br.mul(a, br.mul(r, b)) == br.zero for r in br.elements)

    def test_matrix2_prime_all_procedures(self, m2):
        assert analysis.is_prime_by_ideals(m2).ok
        assert analysis.prime_criterion(m2, "left").ok
        assert analysis.prime_criterion(m2, "right").ok

    def test_direct_sum_not_prime(self):
        r = fixtures.build("matrix2_pair", 2)
        v = analysis.is_prime_by_ideals(r)
        assert not v.ok
        a, b = v.witness
        # the two witnesses live in different summands
        assert a.label().endswith(".2") and b.label().endswith(".1")

    def test_prime_criterion_brute_force_agreement(self, t2, m2):
        for r in (t2, m2):
            br = BruteRing(r)

            def brute_left():
                for a in br.elements:
                    if a == br.zero:
                        continue
                    for b in br.elements:
                        if b == br.zero:
                            continue
                        if all(br.mul(br.mul(a, x), b) == br.zero for x in br.elements):
                            return False
                return True

            assert analysis.prime_criterion(r, "left").ok == brute_left()


class TestPrimenessWitnessOrder:
    """Full (ok, witness, tag) of the ideal-pair scan and both criteria
    against the plain scans of helpers.reference_primeness."""

    @staticmethod
    def _mismatches(ring):
        expected = reference_primeness(ring)
        got = {
            "by_ideals": analysis.is_prime_by_ideals(ring),
            "criterion_left": analysis.prime_criterion(ring, "left"),
            "criterion_right": analysis.prime_criterion(ring, "right"),
        }
        return [
            (ring.name, key, (v.ok, v.witness_indices(), v.tag), expected[key])
            for key, v in got.items()
            if (v.ok, v.witness_indices(), v.tag) != expected[key]
        ]

    @pytest.mark.parametrize(
        "name,k",
        [
            (name, k)
            for name in sorted(fixtures.CATALOG)
            for k in (2, 3, 4)
            if fixtures.build(name, k).size <= 81
        ],
    )
    def test_catalog(self, name, k):
        assert self._mismatches(fixtures.build(name, k)) == []

    def test_random_tables(self):
        rings = [r for r in _random_tables() if r.size <= 27]
        assert len(rings) >= 100
        assert [m for r in rings for m in self._mismatches(r)] == []


class TestTheoremOneEquivalence:
    def test_procedures_agree_on_alternative_3tf_fixtures(self):
        covered = 0
        for fx, ring in fixtures.standard_instances():
            if ring.size > 512:
                continue
            if not (analysis.is_alternative(ring).ok and analysis.is_k_torsion_free(ring, 3).ok):
                continue
            verdicts = {
                analysis.is_prime_by_ideals(ring).ok,
                analysis.prime_criterion(ring, "left").ok,
                analysis.prime_criterion(ring, "right").ok,
            }
            assert len(verdicts) == 1, ring.name
            covered += 1
        assert covered >= 5  # the filter must not silently drop everything


class TestPrimeImpliesConditions:
    def test_conditions_hold_on_prime_alternative_3tf_fixtures(self):
        """On every catalog instance that is prime, alternative,
        3-torsion-free and has a nontrivial idempotent, both centralising
        conditions must hold."""
        covered = 0
        for fx, ring in fixtures.standard_instances():
            if fx.idempotent is None or ring.size > 512:
                continue
            if not (
                analysis.is_alternative(ring).ok
                and analysis.is_k_torsion_free(ring, 3).ok
                and analysis.is_prime_by_ideals(ring).ok
            ):
                continue
            frame = analysis.peirce(ring, ring.parse_element(fx.idempotent))
            assert analysis.check_condition(frame, "12").ok, ring.name
            assert analysis.check_condition(frame, "21").ok, ring.name
            covered += 1
        assert covered >= 2  # matrix2(2) and zorn(2) at least


class TestAnalysisReport:
    def test_negative_flags_carry_reverifying_witnesses(self, ex2):
        rep = analysis.analyze(ex2)
        br = BruteRing(ex2)
        for verdict in (rep.associative, rep.alternative, rep.flexible):
            if not verdict.ok:
                assert verdict.witness is not None
                triple = [tuple(w.coeffs) for w in verdict.witness]
                assert br.assoc(*triple) != br.zero

    def test_report_round_trips_through_json(self, ex2):
        import json

        doc = analysis.analyze(ex2).to_dict()
        assert json.loads(json.dumps(doc)) == doc

    def test_primeness_agreement_field(self, m2):
        rep = analysis.analyze(m2)
        assert rep.primeness_agree is True
