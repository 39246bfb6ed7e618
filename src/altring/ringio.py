"""Ring and map file formats (JSON-shaped text).

Ring files:  {"name": str, "modulus": int, "basis": [str, ...],
              "table": d x d array of length-d integer arrays}
Map files:   {"domain": name-or-ring-object, "codomain": name-or-ring-object,
              "values": [int, ...]} with values[i] the element index of the
              image of the element with index i.

Loaders reject out-of-range coefficients and malformed shapes with errors
that carry the offending location.
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from .core import RingSpec


class FormatError(ValueError):
    """A malformed ring or map document; ``where`` locates the problem."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


def _parse_json(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", where
        ) from exc


def _is_int(value) -> bool:
    """A JSON integer; ``true``/``false`` load as bools, which are ints to Python."""
    return isinstance(value, int) and not isinstance(value, bool)


def ring_to_doc(ring: RingSpec) -> dict:
    return {
        "name": ring.name,
        "modulus": ring.modulus,
        "basis": list(ring.basis_labels),
        "table": [[list(map(int, cell)) for cell in row] for row in ring.table],
    }


def dumps_ring(ring: RingSpec) -> str:
    doc = ring_to_doc(ring)
    table = doc.pop("table")
    head = json.dumps(doc, indent=2)[:-2]
    rows = ",\n".join(
        "    [" + ", ".join(json.dumps(cell) for cell in row) + "]" for row in table
    )
    return head + ',\n  "table": [\n' + rows + "\n  ]\n}\n"


def ring_from_doc(doc, where: str = "<ring>") -> RingSpec:
    if not isinstance(doc, dict):
        raise FormatError("ring document must be a JSON object", where)
    for key in ("name", "modulus", "basis", "table"):
        if key not in doc:
            raise FormatError(f"missing key {key!r}", where)
    name = doc["name"]
    modulus = doc["modulus"]
    basis = doc["basis"]
    table = doc["table"]
    if not isinstance(name, str):
        raise FormatError(f"name must be a string, got {json.dumps(name)}", where)
    if not isinstance(modulus, int) or modulus < 2:
        raise FormatError(f"modulus must be an integer >= 2, got {modulus!r}", where)
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise FormatError("basis must be a list of strings", where)
    d = len(basis)
    if len(set(basis)) != d or d == 0:
        raise FormatError("basis labels must be non-empty and pairwise distinct", where)
    if not isinstance(table, list) or len(table) != d:
        raise FormatError(f"table must have {d} rows", where)
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != d:
            raise FormatError(f"table[{i}] must have {d} entries", where)
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != d:
                raise FormatError(f"table[{i}][{j}] must be a length-{d} vector", where)
            for l, c in enumerate(cell):
                if not _is_int(c) or not 0 <= c < modulus:
                    raise FormatError(
                        f"table[{i}][{j}][{l}] = {c!r} not an integer in [0, {modulus})",
                        where,
                    )
    try:
        return RingSpec(name, modulus, basis, table)
    except ValueError as exc:
        raise FormatError(str(exc), where) from exc


def loads_ring(text: str, where: str = "<ring>") -> RingSpec:
    return ring_from_doc(_parse_json(text, where), where)


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text (byte offset {exc.start})", str(path)) from exc


def load_ring(path) -> RingSpec:
    return loads_ring(_read_text(path), where=str(path))


def map_to_doc(values, domain: RingSpec, codomain: RingSpec, inline: bool = False) -> dict:
    return {
        "domain": ring_to_doc(domain) if inline else domain.name,
        "codomain": ring_to_doc(codomain) if inline else codomain.name,
        "values": [int(v) for v in values],
    }


def dumps_map(values, domain: RingSpec, codomain: RingSpec, inline: bool = False) -> str:
    return json.dumps(map_to_doc(values, domain, codomain, inline)) + "\n"


def _resolve_ring(spec, rings: Mapping[str, RingSpec] | None, where: str, role: str) -> RingSpec:
    if isinstance(spec, dict):
        return ring_from_doc(spec, where=f"{where}:{role}")
    if isinstance(spec, str):
        if rings and spec in rings:
            return rings[spec]
        raise FormatError(f"{role} names unknown ring {spec!r}", where)
    raise FormatError(f"{role} must be a ring name or inline ring object", where)


def map_from_doc(doc, rings: Mapping[str, RingSpec] | None = None, where: str = "<map>"):
    """Returns (domain, codomain, values array); totality and range checked."""
    if not isinstance(doc, dict):
        raise FormatError("map document must be a JSON object", where)
    for key in ("domain", "codomain", "values"):
        if key not in doc:
            raise FormatError(f"missing key {key!r}", where)
    domain = _resolve_ring(doc["domain"], rings, where, "domain")
    codomain = _resolve_ring(doc["codomain"], rings, where, "codomain")
    values = doc["values"]
    if not isinstance(values, list) or len(values) != domain.size:
        raise FormatError(
            f"values must list all {domain.size} images, got {len(values) if isinstance(values, list) else type(values).__name__}",
            where,
        )
    for i, v in enumerate(values):
        if not _is_int(v) or not 0 <= v < codomain.size:
            raise FormatError(f"values[{i}] = {v!r} not an index in [0, {codomain.size})", where)
    return domain, codomain, np.array(values, dtype=np.int64)


def loads_map(text: str, rings: Mapping[str, RingSpec] | None = None, where: str = "<map>"):
    return map_from_doc(_parse_json(text, where), rings, where)


def load_map(path, rings: Mapping[str, RingSpec] | None = None):
    return loads_map(_read_text(path), rings, where=str(path))
