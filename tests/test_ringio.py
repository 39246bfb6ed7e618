"""Ring/map file formats: round trips, validation, golden files."""

import json
from pathlib import Path

import numpy as np
import pytest

from altring import fixtures, ringio
from altring.ringio import FormatError

GOLDEN = Path(__file__).parent / "golden"


class TestRingFormat:
    @pytest.mark.parametrize("name,k", [("example1", 2), ("example2", 2), ("zorn", 3), ("triangular2", 4)])
    def test_round_trip(self, name, k):
        ring = fixtures.build(name, k)
        again = ringio.loads_ring(ringio.dumps_ring(ring))
        assert again == ring
        assert again.name == ring.name

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_golden_files_are_byte_identical(self, name):
        ring = fixtures.build(name, 2)
        expected = (GOLDEN / f"{name}_z2.json").read_bytes()
        assert ringio.dumps_ring(ring).encode() == expected

    def test_out_of_range_coefficient_positioned(self):
        doc = ringio.ring_to_doc(fixtures.example2(2))
        doc["table"][3][2][4] = 2
        with pytest.raises(FormatError, match=r"table\[3\]\[2\]\[4\]"):
            ringio.ring_from_doc(doc)

    def test_negative_coefficient_rejected(self):
        doc = ringio.ring_to_doc(fixtures.example2(2))
        doc["table"][0][0][0] = -1
        with pytest.raises(FormatError, match=r"table\[0\]\[0\]\[0\]"):
            ringio.ring_from_doc(doc)

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_coefficient_rejected(self, flag):
        doc = ringio.ring_to_doc(fixtures.example2(2))
        doc["table"][0][0][0] = flag
        with pytest.raises(
            FormatError, match=rf"table\[0\]\[0\]\[0\] = {flag} not an integer in \[0, 2\)"
        ):
            ringio.loads_ring(json.dumps(doc))

    @pytest.mark.parametrize("k,d", [(2**21 + 23, 2), (2, 64)])
    def test_int64_overflowing_ring_refused(self, k, d):
        doc = {"name": "big", "modulus": k, "basis": [f"b{i}" for i in range(d)],
               "table": [[[0] * d for _ in range(d)] for _ in range(d)]}
        with pytest.raises(FormatError, match=rf"^big\.json: modulus {k} with dimension {d} "):
            ringio.loads_ring(json.dumps(doc), where="big.json")

    def test_shape_errors(self):
        doc = ringio.ring_to_doc(fixtures.triangular2(2))
        doc["table"][1].pop()
        with pytest.raises(FormatError, match=r"table\[1\]"):
            ringio.ring_from_doc(doc)

    def test_duplicate_labels_rejected(self):
        doc = ringio.ring_to_doc(fixtures.triangular2(2))
        doc["basis"][1] = "e11"
        with pytest.raises(FormatError, match="distinct"):
            ringio.ring_from_doc(doc)

    @pytest.mark.parametrize("name,shown", [(5, "5"), (None, "null"), (["a"], '["a"]')])
    def test_name_must_be_a_string(self, tmp_path, name, shown):
        doc = ringio.ring_to_doc(fixtures.triangular2(2))
        doc["name"] = name
        p = tmp_path / "named.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as exc:
            ringio.load_ring(p)
        assert str(exc.value) == f"{p}: name must be a string, got {shown}"

    def test_missing_key(self):
        with pytest.raises(FormatError, match="modulus"):
            ringio.ring_from_doc({"name": "x", "basis": ["a"], "table": []})

    def test_json_syntax_error_carries_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"name": "x",\n  "modulus": oops}\n')
        with pytest.raises(FormatError, match=r"line 2"):
            ringio.load_ring(p)

    def test_load_from_file(self, tmp_path):
        ring = fixtures.zorn(2)
        p = tmp_path / "zorn.json"
        p.write_text(ringio.dumps_ring(ring))
        assert ringio.load_ring(p) == ring


class TestMapFormat:
    def test_round_trip_named(self):
        t2 = fixtures.triangular2(2)
        values = list(range(t2.size))
        text = ringio.dumps_map(values, t2, t2)
        dom, cod, vals = ringio.loads_map(text, rings={t2.name: t2})
        assert dom == t2 and cod == t2
        assert vals.tolist() == values

    def test_round_trip_inline(self):
        t2 = fixtures.triangular2(2)
        text = ringio.dumps_map(range(t2.size), t2, t2, inline=True)
        dom, cod, vals = ringio.loads_map(text)
        assert dom == t2 and cod == t2

    def test_unknown_ring_name(self):
        t2 = fixtures.triangular2(2)
        text = ringio.dumps_map(range(t2.size), t2, t2)
        with pytest.raises(FormatError, match="unknown ring"):
            ringio.loads_map(text, rings={})

    def test_totality_enforced(self):
        t2 = fixtures.triangular2(2)
        doc = ringio.map_to_doc(range(t2.size - 1), t2, t2, inline=True)
        with pytest.raises(FormatError, match="values"):
            ringio.map_from_doc(doc)

    def test_range_enforced(self):
        t2 = fixtures.triangular2(2)
        vals = list(range(t2.size))
        vals[3] = t2.size
        doc = ringio.map_to_doc(vals, t2, t2, inline=True)
        with pytest.raises(FormatError, match=r"values\[3\]"):
            ringio.map_from_doc(doc)

    def test_boolean_values_rejected(self):
        t2 = fixtures.triangular2(2)
        doc = ringio.map_to_doc(range(t2.size), t2, t2, inline=True)
        doc["values"][:2] = [False, True]
        with pytest.raises(
            FormatError, match=r"values\[0\] = False not an index in \[0, 8\)"
        ):
            ringio.loads_map(json.dumps(doc))

    def test_doc_json_native(self):
        t2 = fixtures.triangular2(2)
        doc = ringio.map_to_doc(np.arange(t2.size), t2, t2)
        assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("load", [ringio.load_ring, ringio.load_map])
def test_non_utf8_file_is_a_format_error_at_its_path(load, tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b'{"name": "\xff"}')
    with pytest.raises(FormatError, match="not UTF-8 text") as exc:
        load(path)
    assert exc.value.where == str(path)
