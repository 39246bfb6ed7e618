"""End-to-end verification gates, one test per criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Two design claims about the bundled example rings are false, and criteria 1
and 2 assert their refutation:

  * criterion 1: the five-basis example ring is not alternative (witness
    (x, x, a11) = a11 for x = b12 + c21); it cannot be, because
    (c21, b12, a11) = d22*a11 = 0 while (b12, c21, a11) = a11, and in an
    alternative ring the associator alternates;
  * criterion 2: centralising condition (i) fails on the six-basis example
    as well as (ii) (witness e + b11, whose bracket with b12 cancels while
    [e + b11, c21] = -c21 != 0).

All tolerances are exact: every quantity is an element of a finite ring.
"""

import itertools
import time

import numpy as np

from altring import analysis, associator, commutator, fixtures, liemaps
from altring.liemaps import MapTable

from helpers import BruteRing, brute_condition_scan


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_1_example2_claims():
    """Example ring 2 at k=2: non-associative with witness (b12, c21, a11),
    both centralising conditions, and not alternative, since the associator
    does not alternate on (b12, c21, a11)."""
    with Timer() as t:
        ring = fixtures.example2(2)
        assoc = analysis.is_associative(ring)
        alt = analysis.is_alternative(ring)
        frame = analysis.peirce(ring, ring.parse_element("e"))
        c12 = analysis.check_condition(frame, "12")
        c21 = analysis.check_condition(frame, "21")
    ok = (not assoc.ok) and c12.ok and c21.ok and (not alt.ok) and t.elapsed < 1.0
    report(
        1,
        ok,
        f"example2(2): associative={assoc.ok} (witness "
        f"{[w.label() for w in (assoc.witness or [])]}), alternative={alt.ok} "
        f"(witness {[w.label() for w in (alt.witness or [])]}, {alt.tag}), "
        f"conditions=({c12.ok}, {c21.ok}), {t.elapsed:.2f}s",
    )
    assert t.elapsed < 1.0
    assert not assoc.ok
    assert [w.label() for w in assoc.witness] == ["b12", "c21", "a11"]
    assert associator(*assoc.witness) == ring.parse_element("a11")
    assert c12.ok, "condition (i) must hold on example2"
    assert c21.ok, "condition (ii) must hold on example2"
    # The table was designed to be alternative but is not: (x, x, a11) = a11
    # for x = b12 + c21.
    assert not alt.ok
    assert [w.label() for w in alt.witness] == ["b12+c21", "b12+c21", "a11"]
    assert alt.tag == "left-alternative"
    assert associator(*alt.witness) == ring.parse_element("a11")
    # Why no alternative ring fits: (b12, c21, a11) = a11 above, yet
    # (c21, b12, a11) = d22*a11 = 0, so the associator does not alternate.
    b12, c21, a11 = assoc.witness
    assert associator(c21, b12, a11).is_zero()


def test_criterion_2_example1_claims():
    """Example ring 1 at k=2: associative; condition (ii) fails at b11 and
    condition (i) fails at e + b11, whose bracket with R12 cancels while
    [e + b11, c21] = -c21 != 0 (both re-verified by exhaustive scans of
    R11 + R22)."""
    with Timer() as t:
        ring = fixtures.example1(2)
        assoc = analysis.is_associative(ring)
        frame = analysis.peirce(ring, ring.parse_element("e"))
        c12 = analysis.check_condition(frame, "12")
        c21 = analysis.check_condition(frame, "21")
        commut = [tuple(e.coeffs) for e in analysis.commutant(ring).elements()]
        hyp, good, bad = brute_condition_scan(ring, frame, "21", commut)
        *_, bad12 = brute_condition_scan(ring, frame, "12", commut)
    ok = assoc.ok and (not c21.ok) and (not c12.ok) and t.elapsed < 1.0
    report(
        2,
        ok,
        f"example1(2): associative={assoc.ok}, condition(i)={c12.ok} "
        f"(witness {c12.witness and c12.witness[0].label()}), "
        f"condition(ii)={c21.ok} (witness {c21.witness and c21.witness[0].label()}), "
        f"{t.elapsed:.2f}s",
    )
    assert t.elapsed < 1.0
    assert assoc.ok
    assert not c21.ok and c21.witness[0] == ring.parse_element("b11")
    # independent elementwise scan over all of R11+R22 confirms b11 qualifies
    b11 = tuple(ring.parse_element("b11").coeffs)
    assert b11 in {tuple(s) for s in bad}
    assert ring.element(bad[0]) == ring.parse_element("b11")
    br = BruteRing(ring)
    for c in [tuple(e.coeffs) for e in frame.r21.elements()]:
        assert br.comm(b11, c) == br.zero
    assert br.comm(b11, tuple(ring.parse_element("b12").coeffs)) != br.zero
    # The table was designed to satisfy condition (i) but does not: it
    # fails at e + b11, confirmed by the same independent scan of R11+R22.
    assert not c12.ok and c12.witness[0] == ring.parse_element("e+b11")
    assert ring.element(bad12[0]) == c12.witness[0]
    eb11 = tuple(c12.witness[0].coeffs)
    for c in [tuple(e.coeffs) for e in frame.r12.elements()]:
        assert br.comm(eb11, c) == br.zero
    assert br.comm(eb11, tuple(ring.parse_element("c21").coeffs)) != br.zero


def test_criterion_3_zorn_prime_alternative():
    with Timer() as t:
        ring = fixtures.zorn(2)
        alt = analysis.is_alternative(ring)
        assoc = analysis.is_associative(ring)
        tf3 = analysis.is_k_torsion_free(ring, 3)
        ideals = analysis.is_prime_by_ideals(ring)
        left = analysis.prime_criterion(ring, "left")
        right = analysis.prime_criterion(ring, "right")
        frame = analysis.peirce(ring, ring.parse_element("e11"))
        c12 = analysis.check_condition(frame, "12")
        c21 = analysis.check_condition(frame, "21")
    agree = ideals.ok == left.ok == right.ok
    ok = (
        alt.ok and not assoc.ok and tf3.ok and ideals.ok and left.ok and right.ok
        and agree and c12.ok and c21.ok and t.elapsed < 60.0
    )
    report(
        3,
        ok,
        f"zorn(2): alternative={alt.ok}, associative={assoc.ok}, 3tf={tf3.ok}, "
        f"prime=({ideals.ok}/{left.ok}/{right.ok}), conditions=({c12.ok}, {c21.ok}), "
        f"{t.elapsed:.2f}s",
    )
    assert alt.ok and not assoc.ok and tf3.ok
    assert ideals.ok and left.ok and right.ok and agree
    assert c12.ok and c21.ok
    assert t.elapsed < 60.0


def test_criterion_4_non_prime_fixtures():
    with Timer() as t:
        t2 = fixtures.triangular2(2)
        ideals = analysis.is_prime_by_ideals(t2)
        left = analysis.prime_criterion(t2, "left")
        right = analysis.prime_criterion(t2, "right")
        pair = fixtures.build("matrix2_pair", 2)
        pair_prime = analysis.is_prime_by_ideals(pair)
    e12 = t2.parse_element("e12")
    witnesses_touch_e12 = all(
        e12 in v.witness for v in (ideals, left, right)
    )
    ok = (
        not ideals.ok and not left.ok and not right.ok and witnesses_touch_e12
        and not pair_prime.ok and t.elapsed < 5.0
    )
    report(
        4,
        ok,
        f"triangular2(2) prime=({ideals.ok}/{left.ok}/{right.ok}) with witnesses "
        f"{[[w.label() for w in v.witness] for v in (ideals, left, right)]}; "
        f"matrix2+matrix2 prime={pair_prime.ok}; {t.elapsed:.2f}s",
    )
    assert not ideals.ok and not left.ok and not right.ok
    assert witnesses_touch_e12
    assert not pair_prime.ok
    assert t.elapsed < 5.0


def _invertibles(ring):
    unity = analysis.find_unity(ring)
    out = []
    for g in ring.elements():
        inv = next((h for h in ring.elements() if g * h == unity and h * g == unity), None)
        if inv is not None:
            out.append((g, inv))
    return out


def test_criterion_5_lie_multiplicative_family():
    """>= 20 Lie multiplicative bijections on matrix2(2), all almost
    additive; the central-swap map is not additive and realises a nonzero
    central defect."""
    with Timer() as t:
        m2 = fixtures.matrix2(2)
        unity = analysis.find_unity(m2)
        pairs = _invertibles(m2)
        assert len(pairs) == 6
        conj = [
            MapTable.from_callable(m2, m2, lambda x, g=g, gi=gi: (g * x) * gi)
            for g, gi in pairs
        ]
        tau = MapTable.from_callable(
            m2, m2, lambda x: -m2.element([x.coeffs[0], x.coeffs[2], x.coeffs[1], x.coeffs[3]])
        )
        linear = conj + [c.compose(tau) for c in conj]
        e11, e22 = m2.parse_element("e11"), m2.parse_element("e22")
        swap1 = liemaps.central_shift(MapTable.identity(m2), {e11: unity, e22: unity})
        p, q = m2.parse_element("e11+e12"), m2.parse_element("e22+e12")
        swap2 = liemaps.central_shift(MapTable.identity(m2), {p: unity, q: unity})
        family = linear + [swap1.compose(f) for f in linear] + [swap2, swap2.compose(tau)]
        distinct = {tuple(f.values.tolist()) for f in family}

        verdicts = []
        for f in family:
            lie = liemaps.is_lie_multiplicative(f)
            rep = liemaps.check_almost_additive(f)
            verdicts.append((f.is_bijective(), lie.ok, rep.all_central))
        swap_rep = liemaps.check_almost_additive(swap1)
    all_good = all(b and l and c for b, l, c in verdicts)
    defect_ij = swap_rep.defect(e11, m2.parse_element("e12"))
    ok = (
        len(distinct) >= 20 and all_good and not swap_rep.all_zero
        and defect_ij == unity and t.elapsed < 10.0
    )
    report(
        5,
        ok,
        f"{len(distinct)} distinct maps, all Lie multiplicative bijections and "
        f"almost additive={all_good}; central swap additive={swap_rep.all_zero}, "
        f"defect(e11, e12)={defect_ij.label()}, {t.elapsed:.2f}s",
    )
    assert len(distinct) >= 20
    assert all_good
    assert not swap_rep.all_zero  # fails plain additivity
    assert swap_rep.all_central  # almost additive
    # The nonzero central defect: at (e11, e12) the shift hits exactly one
    # argument, so the defect is the unity.  At (e11, e22) the shifts cancel
    # (e22 = e11 + unity shares the swap fiber), so that defect is zero; a
    # nonzero value there is impossible for any central shift of an additive
    # bijection.
    assert defect_ij == unity and unity in swap_rep.centre and not unity.is_zero()
    assert swap_rep.defect(e11, e22).is_zero()
    assert t.elapsed < 10.0


def test_criterion_6_derivable_suite():
    with Timer() as t:
        m2 = fixtures.matrix2(2)
        maps = [MapTable(m2, m2, np.zeros(m2.size, dtype=int))]
        maps += [liemaps.inner_lie_derivation(m2, x) for x in m2.elements()]
        results = []
        for d in maps:
            rep = liemaps.derivable_report(d)  # raises if the corollary breaks
            defects = liemaps.check_almost_additive(d)
            results.append(
                (rep["lie_derivable"].ok, rep["lie_triple_derivable"].ok, defects.all_zero)
            )
    all_ok = all(a and b and c for a, b, c in results)
    implication = all(b for a, b, _ in results if a)
    ok = all_ok and implication and t.elapsed < 10.0
    report(
        6,
        ok,
        f"{len(maps)} maps (zero + 16 inner derivations): all derivable, all "
        f"triple derivable, all zero-defect={all_ok}; {t.elapsed:.2f}s",
    )
    assert all_ok and implication
    assert t.elapsed < 10.0


def test_criterion_7_searcher_oracle_equivalence():
    with Timer() as t:
        t2 = fixtures.triangular2(2)
        result = liemaps.search_lie_multiplicative_bijections(t2)
        found = {tuple(m.values.tolist()) for m in result.maps}
        cd = t2.commutator_index_table()
        brute = set()
        for perm in itertools.permutations(range(t2.size)):
            p = np.array(perm)
            if np.array_equal(p[cd], cd[p[:, None], p[None, :]]):
                brute.add(perm)
    ok = result.complete and found == brute and t.elapsed < 60.0
    report(
        7,
        ok,
        f"searcher found {len(found)} maps (complete={result.complete}), "
        f"8!-filter found {len(brute)}, equal={found == brute}, {t.elapsed:.2f}s",
    )
    assert result.complete
    assert found == brute
    assert t.elapsed < 60.0


def test_criterion_8_identity_suites():
    with Timer() as t:
        checked = 0
        for fx, ring in fixtures.standard_instances():
            if not analysis.is_alternative(ring).ok:
                continue
            assert analysis.check_linearized_flexible(ring).ok, ring.name
            if fx.idempotent is None:
                continue
            frame = analysis.peirce(ring, ring.parse_element(fx.idempotent))
            assert analysis.check_peirce_relations(frame).ok, ring.name
            e1 = frame.e1
            for a in ring.elements():
                assert (e1 * a) * e1 == e1 * (a * e1), ring.name
            r21 = frame.r21.elements_by_index()
            r12 = frame.r12.elements_by_index()
            for a21 in r21:
                for b21 in r21:
                    inner = commutator(e1 + a21, e1 - b21)
                    assert inner == a21 + b21 + 2 * (b21 * a21), ring.name
                    assert commutator(inner, e1) == a21 + b21 + 2 * (a21 * b21), ring.name
            for a12 in r12:
                for b12 in r12:
                    inner = commutator(e1 - b12, e1 + a12)
                    assert inner == a12 + b12 + 2 * (a12 * b12), ring.name
                    assert commutator(e1, inner) == a12 + b12 - 2 * (a12 * b12), ring.name
            for comp in (frame.r12, frame.r21):
                elems = comp.elements_by_index()
                for a in elems:
                    for b in elems:
                        assert (a * b + b * a).is_zero(), ring.name
            checked += 1
    ok = checked >= 7 and t.elapsed < 30.0
    report(8, ok, f"identity suites on {checked} alternative frames, {t.elapsed:.2f}s")
    assert checked >= 7
    assert t.elapsed < 30.0


def _exhaustive_flags(ring):
    """Elementwise associativity/alternativity/flexibility via index tables."""
    m = ring.mul_index_table()
    n = ring.size
    assoc = alt = flex = True
    for i in range(n):
        row = m[i]
        if assoc and not np.array_equal(m[row, :], row[m]):
            assoc = False
        if alt:
            if not np.array_equal(m[row[i], :], row[row]):
                alt = False
            elif not np.array_equal(m[m[:, i], i], m[:, row[i]]):
                alt = False
        if flex and not np.array_equal(m[row, i], m[i, m[:, i]]):
            flex = False
        if not (assoc or alt or flex):
            break
    return assoc, alt, flex


def test_criterion_9_basis_criteria_match_exhaustive_checks():
    with Timer() as t:
        checked = []
        for fx, ring in fixtures.standard_instances():
            if ring.size > 4096:
                continue
            fast = (
                analysis.is_associative(ring).ok,
                analysis.is_alternative(ring).ok,
                analysis.is_flexible(ring).ok,
            )
            slow = _exhaustive_flags(ring)
            assert fast == slow, ring.name
            if ring.size <= 64:
                br = BruteRing(ring)
                assert fast == (br.associative(), br.alternative(), br.flexible()), ring.name
            checked.append(ring.name)
    ok = len(checked) >= 8 and t.elapsed < 60.0
    report(
        9,
        ok,
        f"basis criteria equal exhaustive scans on {len(checked)} fixtures "
        f"({', '.join(checked)}), {t.elapsed:.2f}s",
    )
    assert len(checked) >= 8
    assert t.elapsed < 60.0
