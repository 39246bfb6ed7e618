"""Canonical ring instances used throughout the test suite and the CLI.

Every constructor takes the coefficient modulus k; the additive group is
always the free Z/kZ-module on the printed basis.  Catalog metadata records
the flags each instance actually has (recomputed, not assumed), plus a
designated idempotent for Peirce work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .core import RingSpec, _check_modulus


def _table_from_products(labels, products, k):
    """Structure constants from a {(left, right): label-or-None} mapping."""
    d = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    table = np.zeros((d, d, d), dtype=np.int64)
    for (a, b), c in products.items():
        if c is not None:
            table[index[a], index[b], index[c]] = 1 % k
    return table


def example1(k: int = 2) -> RingSpec:
    """Six-dimensional associative ring with asymmetric Peirce behaviour.

    Built to make the two centralising conditions at the idempotent e
    differ; exhaustive checking shows condition (ii) fails at b11 and,
    less obviously, condition (i) fails at e + (k-1)*b11.
    """
    labels = ("e", "a11", "b11", "b12", "c21", "d22")
    products = {
        ("e", "e"): "e",
        ("e", "a11"): "a11",
        ("e", "b11"): "b11",
        ("e", "b12"): "b12",
        ("a11", "e"): "a11",
        ("b11", "e"): "b11",
        ("b11", "b11"): "b11",
        ("b11", "b12"): "b12",
        ("c21", "e"): "c21",
    }
    return RingSpec(f"example1_z{k}", k, labels, _table_from_products(labels, products, k))


def example2(k: int = 2) -> RingSpec:
    """Five-dimensional ring with Peirce-style labels and a nonzero
    associator (b12, c21, a11).

    Despite its design intent this table is not alternative: a nonzero
    (b12, c21, a11) forces (x, x, a11) = a11 for x = b12 + c21, over every
    modulus.  Both centralising conditions do hold at the idempotent e.
    """
    labels = ("e", "a11", "b12", "c21", "d22")
    products = {
        ("e", "e"): "e",
        ("e", "a11"): "a11",
        ("e", "b12"): "b12",
        ("a11", "e"): "a11",
        ("a11", "a11"): "a11",
        ("b12", "c21"): "a11",
        ("c21", "e"): "c21",
        ("c21", "b12"): "d22",
    }
    return RingSpec(f"example2_z{k}", k, labels, _table_from_products(labels, products, k))


def matrix2(k: int = 2) -> RingSpec:
    """Full 2x2 matrix ring over Z/kZ via matrix-unit structure constants."""
    labels = ("e11", "e12", "e21", "e22")
    pos = {lab: divmod(i, 2) for i, lab in enumerate(labels)}
    products = {}
    for a in labels:
        for b in labels:
            (i, j), (l, m) = pos[a], pos[b]
            products[(a, b)] = labels[2 * i + m] if j == l else None
    return RingSpec(f"matrix2_z{k}", k, labels, _table_from_products(labels, products, k))


def triangular2(k: int = 2) -> RingSpec:
    """Upper-triangular 2x2 matrices over Z/kZ."""
    labels = ("e11", "e12", "e22")
    products = {
        ("e11", "e11"): "e11",
        ("e11", "e12"): "e12",
        ("e12", "e22"): "e12",
        ("e22", "e22"): "e22",
    }
    return RingSpec(f"triangular2_z{k}", k, labels, _table_from_products(labels, products, k))


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def zorn(k: int = 2) -> RingSpec:
    """Zorn vector matrices over Z/kZ: the split-octonion construction.

    Elements are blocks (alpha, v; w, beta) with v, w in (Z/kZ)^3 and

        (a1,v1;w1,b1)(a2,v2;w2,b2) =
            (a1 a2 + v1.w2,  a1 v2 + b2 v1 - w1 x w2;
             a2 w1 + b1 w2 + v1 x v2,  b1 b2 + w1.v2)

    This is alternative but not associative for every k >= 2, simple, and
    has the diagonal idempotent e11 = (1, 0; 0, 0) and unity e11 + e22.
    """
    labels = ("e11", "v1", "v2", "v3", "w1", "w2", "w3", "e22")
    d = 8

    def unpack(c):
        return c[0], c[1:4], c[4:7], c[7]

    table = np.zeros((d, d, d), dtype=np.int64)
    eye = np.eye(d, dtype=np.int64)
    for i in range(d):
        a1, v1, w1, b1 = unpack(eye[i])
        for j in range(d):
            a2, v2, w2, b2 = unpack(eye[j])
            x1, x2, x3 = _cross(w1, w2)
            y1, y2, y3 = _cross(v1, v2)
            out = [
                a1 * a2 + v1 @ w2,
                a1 * v2[0] + b2 * v1[0] - x1,
                a1 * v2[1] + b2 * v1[1] - x2,
                a1 * v2[2] + b2 * v1[2] - x3,
                a2 * w1[0] + b1 * w2[0] + y1,
                a2 * w1[1] + b1 * w2[1] + y2,
                a2 * w1[2] + b1 * w2[2] + y3,
                b1 * b2 + w1 @ v2,
            ]
            table[i, j] = np.array(out, dtype=np.int64) % k
    return RingSpec(f"zorn_z{k}", k, labels, table)


def direct_sum(r1: RingSpec, r2: RingSpec) -> RingSpec:
    """Componentwise sum; the two summands embed as orthogonal ideals."""
    if r1.modulus != r2.modulus:
        raise ValueError(
            f"modulus mismatch: {r1.modulus} vs {r2.modulus}"
        )
    k = r1.modulus
    d1, d2 = r1.dim, r2.dim
    labels = tuple(f"{lab}.1" for lab in r1.basis_labels) + tuple(
        f"{lab}.2" for lab in r2.basis_labels
    )
    d = d1 + d2
    table = np.zeros((d, d, d), dtype=np.int64)
    table[:d1, :d1, :d1] = r1.table
    table[d1:, d1:, d1:] = r2.table
    return RingSpec(f"{r1.name}+{r2.name}", k, labels, table)


def zero_ring(dim: int = 3, k: int = 2) -> RingSpec:
    """All products zero; handy degenerate case."""
    labels = tuple(f"z{i}" for i in range(dim))
    return RingSpec(f"zero{dim}_z{k}", k, labels, np.zeros((dim, dim, dim), dtype=np.int64))


@dataclass(frozen=True)
class Fixture:
    """A named constructor plus recomputed metadata at the default modulus."""

    name: str
    build: Callable[[int], RingSpec]
    description: str
    default_modulus: int = 2
    idempotent: str | None = None  # label-sum expression, if one is designated
    expected: Mapping[str, bool] = field(default_factory=dict)

    def instance(self, k: int | None = None) -> RingSpec:
        k = k if k is not None else self.default_modulus
        # before any table arithmetic: k = 0 would reach a NumPy division by zero
        _check_modulus(k)
        return self.build(k)


CATALOG: dict[str, Fixture] = {
    f.name: f
    for f in [
        Fixture(
            "example1",
            example1,
            "six-dimensional associative ring with asymmetric conditions",
            idempotent="e",
            expected={"associative": True, "alternative": True, "flexible": True, "prime": False},
        ),
        Fixture(
            "example2",
            example2,
            "five-dimensional ring with nonzero associator (b12, c21, a11)",
            idempotent="e",
            expected={"associative": False, "alternative": False, "flexible": False, "prime": False},
        ),
        Fixture(
            "matrix2",
            matrix2,
            "full 2x2 matrix ring",
            idempotent="e11",
            expected={"associative": True, "alternative": True, "flexible": True, "prime": True},
        ),
        Fixture(
            "triangular2",
            triangular2,
            "upper-triangular 2x2 matrix ring",
            idempotent="e11",
            expected={"associative": True, "alternative": True, "flexible": True, "prime": False},
        ),
        Fixture(
            "zorn",
            zorn,
            "Zorn vector matrices (split octonions)",
            idempotent="e11",
            expected={"associative": False, "alternative": True, "flexible": True, "prime": True},
        ),
        Fixture(
            "matrix2_pair",
            lambda k: direct_sum(matrix2(k), matrix2(k)),
            "direct sum of two full 2x2 matrix rings",
            idempotent="e11.1",
            expected={"associative": True, "alternative": True, "flexible": True, "prime": False},
        ),
        Fixture(
            "zero3",
            lambda k: zero_ring(3, k),
            "three-dimensional ring with all products zero",
            expected={"associative": True, "alternative": True, "flexible": True, "prime": False},
        ),
    ]
}


def build(name: str, k: int | None = None) -> RingSpec:
    if name not in CATALOG:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(sorted(CATALOG))}")
    return CATALOG[name].instance(k)


def standard_instances() -> list[tuple[Fixture, RingSpec]]:
    """The default desk-scale instances exercised by the verification suites."""
    picks = [
        ("example1", 2),
        ("example2", 2),
        ("matrix2", 2),
        ("matrix2", 3),
        ("triangular2", 2),
        ("triangular2", 4),
        ("zorn", 2),
        ("zorn", 3),
        ("matrix2_pair", 2),
        ("zero3", 2),
    ]
    return [(CATALOG[name], CATALOG[name].instance(k)) for name, k in picks]
