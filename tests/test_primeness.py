"""Primeness by ideals from the multiplication algebra: witness order and
closures against the former fixpoint-and-pair-scan algorithm
(helpers.reference_prime_by_ideals), the dict oracle on a composite-modulus
ring, and exact results at the largest modulus RingSpec accepts."""

import numpy as np
import pytest

from altring import analysis, fixtures, zmod
from altring.core import RingSpec

from helpers import (
    reference_ideal_closure,
    reference_prime_by_ideals,
    reference_prime_scans,
    reference_primeness,
)
from test_analysis import _random_tables


def _verdict(ring):
    v = analysis.is_prime_by_ideals(ring)
    return v.ok, v.witness_indices(), v.tag


def _all_verdicts(ring):
    got = {
        "by_ideals": analysis.is_prime_by_ideals(ring),
        "criterion_left": analysis.prime_criterion(ring, "left"),
        "criterion_right": analysis.prime_criterion(ring, "right"),
    }
    return {key: (v.ok, v.witness_indices(), v.tag) for key, v in got.items()}


@pytest.mark.parametrize(
    "name,k",
    [
        (name, k)
        for name in sorted(fixtures.CATALOG)
        for k in (2, 3, 4, 6)
        if fixtures.build(name, k).size <= 1296
    ],
)
def test_catalog_matches_former_scan(name, k):
    ring = fixtures.build(name, k)
    assert _verdict(ring) == reference_prime_by_ideals(ring)


def test_random_tables_match_former_scan():
    rings = [r for r in _random_tables() if r.size <= 256]
    assert len(rings) >= 150
    assert [r.name for r in rings if _verdict(r) != reference_prime_by_ideals(r)] == []


@pytest.mark.parametrize("name,k", [("triangular2", 4), ("example2", 3), ("matrix2_pair", 2)])
def test_closures_match_former_fixpoint(name, k):
    ring = fixtures.build(name, k)
    for x in ring.elements():
        rows = analysis.ideal_generated(ring, x).rows
        expected = reference_ideal_closure(ring, x)
        assert rows.shape == expected.shape and np.array_equal(rows, expected), x


def test_composite_modulus_against_dict_oracle():
    """triangular2_z6 (216 elements): all three procedures, k = 2*3."""
    ring = fixtures.triangular2(6)
    assert _all_verdicts(ring) == reference_primeness(ring)


@pytest.mark.parametrize(
    "name,k",
    [
        (name, k)
        for name in sorted(fixtures.CATALOG)
        for k in (4, 6, 8, 9, 10, 12)
        if fixtures.build(name, k).size <= 20736
    ],
)
def test_composite_modulus_scans_stop_early(name, k):
    """At composite k no ring is prime: for the largest prime p | k,
    (k/p)R * pR = 0, so all three scans fail by a = k/p."""
    p = max(q for q in range(2, k + 1) if k % q == 0 and all(q % s for s in range(2, q)))
    for v in _all_verdicts(fixtures.build(name, k)).values():
        ok, (a, _), _ = v
        assert not ok and 1 <= a <= k // p, v


def _unit_line_tables(seed=1212):
    """Seeded rings with k in {4, 6, 8, 9, 12} and k**d <= 1296, two dense and
    two sparse tables per (k, d): moduli whose units move the leading
    coefficient of an element to a smaller divisor of k."""
    rng = np.random.default_rng(seed)
    out = []
    for k in (4, 6, 8, 9, 12):
        for d in range(1, 6):
            if k**d > 1296:
                break
            for n in range(4):
                table = rng.integers(0, k, size=(d, d, d))
                if n % 2:
                    table *= rng.random((d, d, d)) < 1 / 8
                out.append(RingSpec(f"t{n}_d{d}_k{k}", k, [f"b{i}" for i in range(d)], table))
    return out


def test_unit_line_scan_matches_every_element_scan():
    """The scans visit only elements whose leading coefficient divides k;
    (ok, witness, tag) of all three procedures must equal the scans over
    every nonzero element."""
    rings = _unit_line_tables() + [fixtures.matrix2(5), fixtures.matrix2(7)]
    assert [r.name for r in rings if _all_verdicts(r) != reference_prime_scans(r)] == []


class TestLargestModulus:
    """k = 1 321 123 is the largest modulus RingSpec accepts at d = 2; the
    partner contraction sums d**2 terms of up to (k-1)**3 there."""

    K = 1_321_123  # = 47 * 28109

    @pytest.fixture(scope="class")
    def ring(self):
        # every product is (k-1)*(b0 + b1) = -(b0 + b1), so x*y = -s(x)s(y)(b0 + b1)
        # with s(x) = x0 + x1: ideal(b1) is the whole ring, and its partners are
        # the elements with s = 0, the least of them (1, k-1)
        return RingSpec("full", self.K, ["b0", "b1"], np.full((2, 2, 2), self.K - 1))

    def _mul(self, ring, x, y):
        t = ring.table.tolist()
        return [
            sum(int(x[i]) * int(y[j]) * t[i][j][l] for i in range(2) for j in range(2)) % self.K
            for l in range(2)
        ]

    def _closure(self, ring, coeffs):
        """Howell rows of the ideal generated by coeffs, products in Python ints."""
        basis = [[1, 0], [0, 1]]
        rows = zmod.howell([list(coeffs)], self.K, width=2)
        while True:
            gens = rows.tolist()
            prods = [
                p for r in gens for b in basis
                for p in (self._mul(ring, b, r), self._mul(ring, r, b))
            ]
            nxt = zmod.howell(gens + prods, self.K, width=2)
            if np.array_equal(nxt, rows):
                return rows
            rows = nxt

    def test_closures_exact(self, ring):
        k = self.K
        for coeffs in [(0, 1), (1, k - 1), (k - 1, k - 1), (k - 1, 0), (47, 0), (47, k - 47),
                       (28109, 5), (123457, 654321)]:
            got = analysis.ideal_generated(ring, ring.element(coeffs)).rows
            assert np.array_equal(got, self._closure(ring, coeffs)), coeffs

    def test_witness_confirmed_in_python_ints(self, ring):
        v = analysis.is_prime_by_ideals(ring)
        assert not v.ok and v.tag == "ideal-pair"
        a, b = v.witness
        assert (a.index, b.index) == (1, 2 * self.K - 1)
        rows_a = self._closure(ring, a.coeffs).tolist()
        rows_b = self._closure(ring, b.coeffs).tolist()
        assert rows_a and rows_b
        assert all(self._mul(ring, x, y) == [0, 0] for x in rows_a for y in rows_b)
