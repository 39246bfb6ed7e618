"""Ring arithmetic, element indexing, submodule canonicalisation."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altring import RingMismatchError, Submodule, associator, canonicalize, commutator
from altring import analysis, fixtures
from altring.core import RingSpec, kernel_submodule

from helpers import BruteRing, reference_span_elements, reference_sum_table


@pytest.fixture(scope="module")
def ex2():
    return fixtures.example2(2)


def L(ring, expr):
    return ring.parse_element(expr)


class TestArithmetic:
    def test_zero_is_additive_identity(self, ex2):
        z = ex2.zero()
        assert z + z == z
        for b in ex2.basis_elements():
            assert b + z == b

    def test_char2_cancellation(self, ex2):
        a11 = L(ex2, "a11")
        assert (a11 + a11).is_zero()

    def test_mixed_vector_sum(self, ex2):
        s = L(ex2, "b12") + L(ex2, "c21")
        assert s == L(ex2, "b12+c21")

    def test_table_products(self, ex2):
        assert L(ex2, "e") * L(ex2, "e") == L(ex2, "e")
        assert L(ex2, "b12") * L(ex2, "c21") == L(ex2, "a11")
        assert L(ex2, "c21") * L(ex2, "b12") == L(ex2, "d22")
        assert L(ex2, "a11") * L(ex2, "a11") == L(ex2, "a11")

    def test_multiplication_by_zero(self, ex2):
        z = ex2.zero()
        for x in ex2.elements():
            assert (x * z).is_zero() and (z * x).is_zero()
            break

    def test_associator_values(self, ex2):
        w = associator(L(ex2, "b12"), L(ex2, "c21"), L(ex2, "a11"))
        assert w == L(ex2, "a11")
        assert associator(L(ex2, "e"), L(ex2, "b12"), ex2.zero()).is_zero()

    def test_commutator_values(self, ex2):
        assert commutator(L(ex2, "e"), L(ex2, "b12")) == L(ex2, "b12")
        assert commutator(L(ex2, "e"), L(ex2, "c21")) == -L(ex2, "c21")
        # over Z2, -c21 == c21
        assert commutator(L(ex2, "e"), L(ex2, "c21")) == L(ex2, "c21")
        for x in ex2.basis_elements():
            assert commutator(x, x).is_zero()

    def test_example1_is_fully_associative_on_basis(self):
        r = fixtures.example1(2)
        for x, y, z in itertools.product(r.basis_elements(), repeat=3):
            assert associator(x, y, z).is_zero()

    def test_cross_ring_arithmetic_rejected(self, ex2):
        other = fixtures.matrix2(2)
        with pytest.raises(RingMismatchError):
            L(ex2, "e") + other.basis_element(0)
        with pytest.raises(RingMismatchError):
            L(ex2, "e") * other.basis_element(0)

    def test_equal_specs_interoperate(self):
        a, b = fixtures.example2(2), fixtures.example2(2)
        assert a is not b
        assert a.basis_element(0) * b.basis_element(0) == a.basis_element(0)


class TestIndexing:
    def test_spec_values(self, ex2):
        assert ex2.zero().index == 0
        assert ex2.element([1, 0, 0, 0, 0]).index == 16
        assert ex2.from_index(16) == ex2.element([1, 0, 0, 0, 0])

    def test_round_trip_exhaustive(self, ex2):
        for i in range(ex2.size):
            assert ex2.from_index(i).index == i
        seen = {e.index for e in ex2.elements()}
        assert seen == set(range(ex2.size))

    def test_out_of_range(self, ex2):
        with pytest.raises(ValueError):
            ex2.from_index(ex2.size)
        with pytest.raises(ValueError):
            ex2.from_index(-1)

    def test_round_trip_z4(self):
        r = fixtures.triangular2(4)
        for i in range(r.size):
            assert r.from_index(i).index == i


class TestInt64Range:
    @pytest.mark.parametrize("k,d", [(2**21 + 23, 2), (2, 64)])
    def test_overflowing_modulus_or_dimension_refused(self, k, d):
        with pytest.raises(ValueError, match=rf"modulus {k} with dimension {d} .*2\^63-1"):
            RingSpec("big", k, [f"b{i}" for i in range(d)], np.zeros((d, d, d), dtype=np.int64))

    def test_largest_accepted_modulus_multiplies_exactly(self):
        k = 1_321_123  # the largest k with 2**2 * (k-1)**3 <= 2**63 - 1
        assert 4 * (k - 1) ** 3 <= 2**63 - 1 < 4 * k**3
        with pytest.raises(ValueError, match="out of range"):
            RingSpec("big", k + 1, ["x", "y"], np.zeros((2, 2, 2), dtype=np.int64))
        rng = np.random.default_rng(11)
        tables = [np.full((2, 2, 2), k - 1)] + [rng.integers(0, k, (2, 2, 2)) for _ in range(5)]
        for table in tables:
            ring = RingSpec("big", k, ["x", "y"], table)
            for x, y in [((k - 1, k - 1), (k - 1, k - 1))] + [
                (tuple(rng.integers(0, k, 2)), tuple(rng.integers(0, k, 2))) for _ in range(5)
            ]:
                terms = [
                    [int(x[i]) * int(y[j]) * int(table[i, j, l]) for i in (0, 1) for j in (0, 1)]
                    for l in (0, 1)
                ]
                exact = tuple(sum(t) % k for t in terms)
                assert (ring.element(x) * ring.element(y)).coeffs == exact

    @pytest.mark.parametrize(
        "table,where,shown",
        [
            ([[[1.7]]], "[0][0][0]", "1.7"),
            ([[["1"]]], "[0][0][0]", "'1'"),
            ([[[float("nan")]]], "[0][0][0]", "nan"),
            ([[[0, 0], [0, 0]], [[0, 0], [0, "z"]]], "[1][1][1]", "'z'"),
            ([[[0, 0], [0, 0]], [[0, 2.5], [1, 0]]], "[1][0][1]", "2.5"),
        ],
    )
    def test_non_integer_table_refused(self, table, where, shown):
        d = len(table)
        with pytest.raises(ValueError, match=re.escape(f"table{where} = {shown} is not an integer")):
            RingSpec("x", 3, [f"b{i}" for i in range(d)], table)

    def test_integer_valued_floats_accepted(self):
        ring = RingSpec("x", 3, ["a"], np.full((1, 1, 1), 2.0))
        assert ring.table.dtype == np.int64 and ring.table.tolist() == [[[2]]]
        for big in ([[[1e30]]], np.full((1, 1, 1), 2**64 - 1, dtype=np.uint64)):
            with pytest.raises(OverflowError):  # not wrapped to a value in range
                RingSpec("x", 3, ["a"], big)


class TestParsing:
    def test_label_sum_and_index_agree(self, ex2):
        assert ex2.parse_element("e+a11") == ex2.parse_element("24")
        assert ex2.parse_element(" b12 + c21 ") == ex2.element([0, 0, 1, 1, 0])

    def test_scaled_terms(self):
        r = fixtures.triangular2(4)
        assert r.parse_element("3*e11+e22") == r.element([3, 0, 1])

    def test_bad_labels_rejected(self, ex2):
        with pytest.raises(ValueError):
            ex2.parse_element("nope")
        with pytest.raises(ValueError):
            ex2.parse_element("x*e")

    @pytest.mark.parametrize("text,index", [("16", 16), ("-1", -1), (" 99 ", 99)])
    def test_out_of_range_index_names_the_range(self, text, index):
        ring = fixtures.matrix2(2)
        with pytest.raises(ValueError, match=rf"^element index {index} out of range \[0, 16\)$"):
            ring.parse_element(text)

    def test_decimal_label_still_parses_out_of_range(self):
        ring = RingSpec("numbered", 2, ["x", "7"], np.zeros((2, 2, 2), dtype=np.int64))
        assert ring.parse_element("7") == ring.element([0, 1])
        assert ring.parse_element("3") == ring.element([1, 1])


def test_bilinearity_exhaustive_on_desk_scale_fixtures():
    """(x+y)z = xz + yz and z(x+y) = zx + zy over all element triples,
    vectorised through the product table and a sum table built from the
    coefficient vectors."""
    for fx, ring in fixtures.standard_instances():
        if ring.size > 4096:
            continue
        m = ring.mul_index_table()
        a = reference_sum_table(ring)
        for l in range(ring.size):
            col = m[:, l]  # x -> x * element_l
            assert np.array_equal(col[a], a[col[:, None], col[None, :]]), ring.name
            row = m[l, :]  # x -> element_l * x
            assert np.array_equal(row[a], a[row[:, None], row[None, :]]), ring.name


def test_associator_trilinearity_exhaustive_on_small_fixtures():
    """Additivity of the associator in each slot, all argument tuples, for
    fixtures up to 64 elements (the check is quartic)."""
    for fx, ring in fixtures.standard_instances():
        n = ring.size
        if n > 64:
            continue
        m = ring.mul_index_table()
        a = reference_sum_table(ring)
        # assoc[i, j, l] = (x_i x_j) x_l - x_i (x_j x_l), as indices
        assoc = reference_sum_table(ring, -1)[m[m], m[:, m]]
        for w in range(n):
            assert np.array_equal(
                assoc[a[:, w], :, :], a[assoc, assoc[w, :, :][None, :, :]]
            ), (ring.name, "slot 1")
            assert np.array_equal(
                assoc[:, a[:, w], :], a[assoc, assoc[:, w, :][:, None, :]]
            ), (ring.name, "slot 2")
            assert np.array_equal(
                assoc[:, :, a[:, w]], a[assoc, assoc[:, :, w][:, :, None]]
            ), (ring.name, "slot 3")


def test_commutator_table_matches_oracle_on_every_pair():
    """[x, y] from the index table equals BruteRing.comm on every pair, for
    every catalog ring up to 256 elements at k in {2, 3, 4, 6}; composite k
    exercises the negative entries of the antisymmetrised constants."""
    checked = 0
    for name in sorted(fixtures.CATALOG):
        for k in (2, 3, 4, 6):
            ring = fixtures.build(name, k)
            if ring.size > 256:
                continue
            br = BruteRing(ring)
            brute = [[br.index(br.comm(x, y)) for y in br.elements] for x in br.elements]
            assert np.array_equal(ring.commutator_index_table(), brute), ring.name
            checked += 1
    assert checked >= 16


def test_commutator_table_builds_no_other_table():
    """The bracket table is a per-call view: only its row tables, (k**ceil(d/2)
    + k**floor(d/2)) x n uint16 entries, and the half-digit sum table they are
    combined with, k**(2h) + 4n entries, h = ceil(d/2), are cached, so no
    (n, n) table.  Over Z/2 the rows are combined by XOR, and not even that
    table is built."""
    ring = fixtures.matrix2(3)  # zorn(3) has more elements than INDEX_TABLE_LIMIT
    ring.commutator_index_table()
    assert sorted(ring._cache) == ["add+1", "comm_rows", "elements", "weights"]
    h = (ring.dim + 1) // 2
    assert ring._cache["add+1"].size == ring.modulus ** (2 * h) + 4 * ring.size
    for ring in (ring, fixtures.zorn(2)):
        ring.commutator_index_table()
        k, d, n = ring.modulus, ring.dim, ring.size
        rows = ring._cache["comm_rows"]
        assert rows.dtype == np.uint16
        assert rows.shape == (k ** ((d + 1) // 2) + k ** (d // 2), n)
    assert sorted(ring._cache) == ["comm_rows", "elements", "weights"]


@settings(max_examples=60, deadline=None)
@given(
    ring=st.sampled_from(["example2", "matrix2", "triangular2", "zorn"]),
    k=st.sampled_from([2, 3, 4]),
    data=st.data(),
)
def test_bilinearity_and_trilinearity(ring, k, data):
    r = fixtures.build(ring, k)
    coeff = st.lists(st.integers(0, k - 1), min_size=r.dim, max_size=r.dim)
    x, y, z = (r.element(data.draw(coeff)) for _ in range(3))
    assert (x + y) * z == x * z + y * z
    assert z * (x + y) == z * x + z * y
    w = r.element(data.draw(coeff))
    assert associator(x + w, y, z) == associator(x, y, z) + associator(w, y, z)
    assert associator(x, y + w, z) == associator(x, y, z) + associator(x, w, z)
    assert associator(x, y, z + w) == associator(x, y, z) + associator(x, y, w)


class TestSubmodules:
    def test_zero_span(self, ex2):
        assert canonicalize(ex2, []).rank == 0
        assert canonicalize(ex2, [ex2.zero()]).rank == 0

    def test_duplicate_collapse(self, ex2):
        b12 = L(ex2, "b12")
        sub = canonicalize(ex2, [b12, b12])
        assert sub.rank == 1
        assert sub.rows.tolist() == [[0, 0, 1, 0, 0]]

    def test_span_invariance(self, ex2):
        a = canonicalize(ex2, [L(ex2, "e"), L(ex2, "e+a11")])
        b = canonicalize(ex2, [L(ex2, "e"), L(ex2, "a11")])
        assert a == b
        assert sorted(e.index for e in a.elements()) == sorted(
            {0, L(ex2, "e").index, L(ex2, "a11").index, L(ex2, "e+a11").index}
        )

    def test_idempotent_canonicalisation(self, ex2):
        sub = canonicalize(ex2, [L(ex2, "e+a11"), L(ex2, "c21")])
        again = canonicalize(ex2, sub.basis())
        assert np.array_equal(sub.rows, again.rows)

    def test_membership_sum_intersection(self, ex2):
        a = canonicalize(ex2, [L(ex2, "e"), L(ex2, "a11")])
        b = canonicalize(ex2, [L(ex2, "a11"), L(ex2, "d22")])
        assert L(ex2, "e+a11") in a
        assert L(ex2, "d22") not in a
        assert (a & b) == canonicalize(ex2, [L(ex2, "a11")])
        assert (a + b).span_size() == 8
        assert (a + b).contains_submodule(a)
        assert a <= a + b

    def test_membership_across_rings_rejected(self):
        """An element or submodule of another ring is refused, also where its
        coefficient vector has the same length (matrix2 over Z2 and Z3)."""
        centre = analysis.centre(fixtures.matrix2(2))
        m3, zorn = fixtures.matrix2(3), fixtures.zorn(2)
        for x in (m3.parse_element("e11+e22"), zorn.parse_element("e11")):
            with pytest.raises(RingMismatchError):
                centre.contains(x)
            with pytest.raises(RingMismatchError):
                x in centre
        for other in (analysis.centre(m3), Submodule.full(zorn)):
            with pytest.raises(RingMismatchError):
                centre.contains_submodule(other)
            with pytest.raises(RingMismatchError):
                other <= centre

    def test_non_unit_pivots_over_z4(self):
        r = fixtures.triangular2(4)
        two_e11 = r.element([2, 0, 0])
        sub = canonicalize(r, [two_e11])
        assert sub.span_size() == 2
        assert r.element([2, 0, 0]) in sub
        assert r.element([1, 0, 0]) not in sub

    def test_kernel_submodule(self):
        r = fixtures.triangular2(4)
        sub = kernel_submodule(r, 2 * np.eye(3, dtype=int))
        assert sub.span_size() == 8
        assert all((2 * e).is_zero() for e in sub.elements())

    def test_kernel_submodule_of_no_equations_is_the_ring(self):
        m2 = fixtures.matrix2(2)
        assert kernel_submodule(m2, np.zeros((0, 4), dtype=int)) == Submodule.full(m2)

    def test_full_submodule(self, ex2):
        assert Submodule.full(ex2).span_size() == ex2.size

    def test_last_howell_row_is_least_nonzero_element(self):
        """The witness rule of the torsion and prime criteria: the last row of
        a Howell basis is the least nonzero element of the span by index."""
        rng = np.random.default_rng(7)
        checked = 0
        for k in (4, 6, 8, 9, 12):
            for _ in range(40):
                d = int(rng.integers(1, 4))
                ring = RingSpec("span", k, [f"b{i}" for i in range(d)], np.zeros((d, d, d)))
                gens = rng.integers(0, k, size=(int(rng.integers(1, 4)), d))
                gens[:, : int(rng.integers(0, d))] *= int(rng.choice([1, 2, 3]))
                sub = Submodule.span(ring, gens)
                if sub.is_zero():
                    continue
                least = min((e for e in sub.elements() if not e.is_zero()), key=lambda e: e.index)
                assert sub.basis()[-1] == least, (k, gens.tolist())
                checked += 1
        assert checked > 150

    def test_elements_orders_against_reference(self):
        """elements() keeps the counter order of the former enumeration, and
        elements_matrix() and elements_by_index() run in ascending index
        order, also where non-unit pivots make the two orders differ."""
        rng = np.random.default_rng(11)
        differ = 0
        for k in (2, 4, 6, 8, 9, 12):
            for _ in range(25):
                d = int(rng.integers(1, 4))
                ring = RingSpec("span", k, [f"b{i}" for i in range(d)], np.zeros((d, d, d)))
                gens = rng.integers(0, k, size=(int(rng.integers(0, 4)), d))
                gens[:, : int(rng.integers(0, d + 1))] *= int(rng.choice([1, 2, 3]))
                sub = Submodule.span(ring, gens)
                ref = [tuple(int(c) for c in v) for v in reference_span_elements(sub.rows, k, d)]
                assert [e.coeffs for e in sub.elements()] == ref
                by_index = sorted(ref, key=lambda c: ring.element(c).index)
                assert [tuple(v) for v in sub.elements_matrix().tolist()] == by_index
                assert [e.coeffs for e in sub.elements_by_index()] == by_index
                differ += by_index != ref
        assert differ > 5
