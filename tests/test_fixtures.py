"""Fixture catalog: table correctness, metadata re-derivation, invariants."""

import pytest

from altring import analysis, fixtures


class TestExampleTables:
    def test_example1_products(self):
        r = fixtures.example1(2)
        E = r.parse_element
        assert E("e") * E("e") == E("e")
        assert E("e") * E("a11") == E("a11")
        assert E("a11") * E("e") == E("a11")
        assert E("b11") * E("b12") == E("b12")
        assert E("c21") * E("e") == E("c21")
        # row b12 is identically zero
        for b in r.basis_elements():
            assert (E("b12") * b).is_zero()
        # everything unlisted is zero
        nonzero = sum(1 for row in r.table for cell in row if any(cell))
        assert nonzero == 9

    def test_example2_products(self):
        r = fixtures.example2(2)
        E = r.parse_element
        assert E("b12") * E("c21") == E("a11")
        assert E("c21") * E("b12") == E("d22")
        assert E("a11") * E("a11") == E("a11")
        assert E("c21") * E("e") == E("c21")
        assert E("e") * E("b12") == E("b12")
        nonzero = sum(1 for row in r.table for cell in row if any(cell))
        assert nonzero == 8

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_tables_scale_with_modulus(self, k):
        r = fixtures.example2(k)
        assert r.modulus == k and r.size == k ** 5


class TestMatrixRings:
    def test_matrix2_units(self):
        r = fixtures.matrix2(2)
        E = r.parse_element
        assert E("e12") * E("e21") == E("e11")
        assert E("e21") * E("e12") == E("e22")
        assert (E("e12") * E("e12")).is_zero()
        assert r.size == 16

    def test_triangular2(self):
        r = fixtures.triangular2(2)
        E = r.parse_element
        assert (E("e12") * E("e12")).is_zero()
        assert E("e11") * E("e12") == E("e12")
        assert (E("e12") * E("e11")).is_zero()


class TestZorn:
    def test_designated_idempotent_and_unity(self):
        z = fixtures.zorn(2)
        e11 = z.parse_element("e11")
        assert e11 * e11 == e11
        assert analysis.find_unity(z) == z.parse_element("e11+e22")

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_alternative_never_associative(self, k):
        z = fixtures.zorn(k)
        assert analysis.is_alternative(z).ok
        v = analysis.is_associative(z)
        assert not v.ok
        from altring import associator

        assert not associator(*v.witness).is_zero()

    def test_cross_product_block_structure(self):
        z = fixtures.zorn(3)
        v1 = z.parse_element("v1")
        v2 = z.parse_element("v2")
        w3 = z.parse_element("w3")
        assert v1 * v2 == w3  # e1 x e2 = e3 in the lower-left block
        assert v1 * z.parse_element("w1") == z.parse_element("e11")  # dot product


class TestDirectSum:
    def test_summands_are_orthogonal_ideals(self):
        r = fixtures.build("matrix2_pair", 2)
        first = [r.parse_element(f"{lab}.1") for lab in ("e11", "e12", "e21", "e22")]
        second = [r.parse_element(f"{lab}.2") for lab in ("e11", "e12", "e21", "e22")]
        for x in first:
            for y in second:
                assert (x * y).is_zero() and (y * x).is_zero()

    def test_dim_and_unity(self):
        a, b = fixtures.matrix2(2), fixtures.matrix2(2)
        s = fixtures.direct_sum(a, b)
        assert s.dim == a.dim + b.dim
        unity = analysis.find_unity(s)
        assert unity == s.parse_element("e11.1+e22.1+e11.2+e22.2")

    def test_not_prime(self):
        assert not analysis.is_prime_by_ideals(fixtures.build("matrix2_pair", 2)).ok

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError, match="modulus"):
            fixtures.direct_sum(fixtures.matrix2(2), fixtures.matrix2(3))


class TestCatalog:
    def test_metadata_flags_rederive(self):
        for fx in fixtures.CATALOG.values():
            ring = fx.instance()
            derived = {
                "associative": analysis.is_associative(ring).ok,
                "alternative": analysis.is_alternative(ring).ok,
                "flexible": analysis.is_flexible(ring).ok,
            }
            if "prime" in fx.expected and ring.size <= 512:
                derived["prime"] = analysis.is_prime_by_ideals(ring).ok
            for key, expect in fx.expected.items():
                if key in derived:
                    assert derived[key] == expect, (fx.name, key)

    def test_designated_idempotents(self):
        for fx in fixtures.CATALOG.values():
            if fx.idempotent is None:
                continue
            ring = fx.instance()
            e = ring.parse_element(fx.idempotent)
            assert e * e == e and not e.is_zero(), fx.name

    def test_build_unknown_name(self):
        with pytest.raises(KeyError):
            fixtures.build("nope")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [0, 1, -3])
    def test_build_refuses_small_modulus(self, k):
        with pytest.raises(ValueError, match=rf"^modulus must be an integer >= 2, got {k}$"):
            fixtures.build("zorn", k)

    def test_standard_instances_constructible(self):
        rings = fixtures.standard_instances()
        assert len(rings) >= 8
        names = [r.name for _, r in rings]
        assert len(names) == len(set(names))
