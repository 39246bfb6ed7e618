"""Primeness by ideals from the multiplication algebra: witness order and
closures against the former fixpoint-and-pair-scan algorithm
(helpers.reference_prime_by_ideals), the dict oracle on a composite-modulus
ring, and exact results at the largest modulus RingSpec accepts.  At prime
k: the stop after a = 1 when M(R) = End(R), and the batched rank test of the
criteria, against zmod.kernel and the every-element scans."""

import numpy as np
import pytest

from altring import analysis, fixtures, zmod
from altring.core import RingSpec

from helpers import (
    rebased_copy,
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
        for k in (4, 6, 8, 9, 10, 12, 15)
        if fixtures.build(name, k).size <= 20736
    ],
)
def test_composite_modulus_scans_stop_early(name, k):
    """At composite k no ring is prime.  With p the least prime dividing k,
    a = p (p times the element of index 1) has the partner of index k/p, as
    pR * (k/p)R = 0, and every a between 1 and p is skipped, since its
    leading coefficient does not divide k.  So all three scans stop at a = 1
    or a = p."""
    p = min(q for q in range(2, k + 1) if k % q == 0)
    for v in _all_verdicts(fixtures.build(name, k)).values():
        ok, (a, _), _ = v
        assert not ok and a in (1, p), v


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


def _full_mult_algebra(ring):
    return len(analysis._multiplication_algebra(ring)) == ring.dim**2


@pytest.mark.parametrize(
    "name,k",
    [
        (name, k)
        for name in sorted(fixtures.CATALOG)
        for k in (2, 3, 5, 7)
        if fixtures.build(name, k).size <= 2401
    ],
)
def test_prime_modulus_matches_every_element_scan(name, k):
    """Catalog rings at prime k, with and without M(R) = End(R)."""
    ring = fixtures.build(name, k)
    assert _all_verdicts(ring) == reference_prime_scans(ring)


def test_burnside_stop_applies_to_the_simple_catalog_rings():
    rings = [fixtures.zorn(2), fixtures.zorn(3), fixtures.matrix2(5), fixtures.matrix2(7)]
    assert all(_full_mult_algebra(r) for r in rings)
    assert not _full_mult_algebra(fixtures.build("matrix2_pair", 3))


def _planted_stack(rng, k, d, count):
    """(count, d*d, d) random matrices mod k, a few of them made rank-deficient
    by a factor that kills one coordinate."""
    stack = rng.integers(0, k, size=(count, d * d, d))
    kill = np.diag([0] + [1] * (d - 1))
    for i in rng.choice(count, size=3, replace=False):
        stack[i] = stack[i] @ kill @ rng.integers(0, k, size=(d, d)) % k
    return stack


@pytest.mark.parametrize("k", [2, 3, 5, 7, 3_000_017])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_batched_rank_matches_kernels(k, d):
    """The least matrix of a stack with a nonzero zmod.kernel, or None.  At
    k = 3 000 017 the unreduced entries would leave int64 from the second
    column on, so the elimination reduces them first."""
    rng = np.random.default_rng(k * 10 + d)
    for trial in range(12):
        stack = _planted_stack(rng, k, d, 20)
        if trial % 3 == 0:  # no deficient member: only the random ones, if any
            stack = rng.integers(0, k, size=(20, d * d, d))
        want = next((i for i, m in enumerate(stack) if zmod.kernel(m, k).size), None)
        got = analysis._first_rank_deficient(np.ascontiguousarray(stack.transpose(1, 2, 0)), k)
        assert got == want, (trial, got, want)


def _direct_sum(name, k):
    if name == "zorn+matrix2":
        return fixtures.direct_sum(fixtures.zorn(k), fixtures.matrix2(k))
    return fixtures.build(name, k)


_REBASED = [
    ("matrix2_pair", 3, 8), ("triangular2", 5, 8), ("zorn+matrix2", 2, 4), ("example2", 5, 4)
]


@pytest.mark.parametrize("block", [None, 1, 7])
def test_prime_modulus_witnesses_on_rebased_copies(block, monkeypatch):
    """Seeded copies of prime-k rings that are not prime, whose witnesses a
    go past 100; with a block, no chunk of the rank test holds more a."""
    rings = [
        rebased_copy(_direct_sum(name, k), seed)
        for name, k, seeds in _REBASED
        for seed in range(seeds)
    ]
    witnesses = []
    for ring in rings:
        if block is not None:
            monkeypatch.setattr(analysis, "_RANK_BLOCK", block * ring.dim**3)
        got = _all_verdicts(ring)
        assert got == reference_prime_scans(ring), ring.name
        witnesses += [w[0] for _, w, _ in got.values()]
    assert max(witnesses) > 100 and sum(a > 30 for a in witnesses) >= 6


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "ring", [fixtures.zorn(2), fixtures.matrix2(7)], ids=["zorn_z2", "matrix2_z7"]
)
def test_prime_rings_take_one_ideal_and_no_criterion_kernel(ring, monkeypatch):
    ideals = _counting(monkeypatch, analysis, "ideal_generated")
    assert analysis.is_prime_by_ideals(ring).ok
    assert len(ideals) == 1
    kernels = _counting(monkeypatch, zmod, "kernel")
    assert analysis.prime_criterion(ring, "left").ok
    assert analysis.prime_criterion(ring, "right").ok
    assert kernels == []


def test_prime_modulus_non_prime_ring_takes_one_kernel_per_criterion(monkeypatch):
    ring = rebased_copy(fixtures.build("matrix2_pair", 3), 0)
    for variant in ("left", "right"):
        kernels = _counting(monkeypatch, zmod, "kernel")
        v = analysis.prime_criterion(ring, variant)
        assert not v.ok and v.witness_indices()[0] > 30
        assert len(kernels) == 1
