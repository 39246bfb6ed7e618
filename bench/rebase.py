"""Seeded isomorphic copies of catalog rings, and maps between them.

A copy is the same ring written in another basis: new basis vector i is row
i of a random invertible matrix P over Z/kZ (given in the original
coordinates), so an element with original coordinates x has coordinates
x @ P^-1 in the copy.  Every isomorphism invariant of the original therefore
holds for the copy, while its structure constants, element indices and
witnesses differ from seed to seed.

All arithmetic here is plain numpy on small integers; besides the catalog
constructors, the only calls into the program under test are ``zmod.howell``
and ``zmod.span_count``, a second check that P spans the whole module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from altring import fixtures, zmod
from altring.core import RingSpec

# Catalog rings and direct sums the workloads draw from, by family name.
SOURCES = {
    "zorn": lambda k: fixtures.zorn(k),
    "matrix2": lambda k: fixtures.matrix2(k),
    "matrix2_pair": lambda k: fixtures.build("matrix2_pair", k),
    "triangular2": lambda k: fixtures.triangular2(k),
    "example1": lambda k: fixtures.example1(k),
    "example2": lambda k: fixtures.example2(k),
    "zorn+matrix2": lambda k: fixtures.direct_sum(fixtures.zorn(k), fixtures.matrix2(k)),
    "zorn+zorn": lambda k: fixtures.direct_sum(fixtures.zorn(k), fixtures.zorn(k)),
    "matrix2+triangular2": lambda k: fixtures.direct_sum(
        fixtures.matrix2(k), fixtures.triangular2(k)
    ),
}


def source_ring(family: str, k: int) -> RingSpec:
    return SOURCES[family](k)


def rng_for(*parts) -> random.Random:
    """A private generator keyed by the parts; the same parts give the same
    stream on every Python version (string seeds are hashed with SHA-512)."""
    return random.Random(":".join(str(p) for p in parts))


def random_basis_change(d: int, k: int, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """(P, P^-1) over Z/kZ, built as a product of random elementary row
    operations so the inverse is known exactly."""
    units = [u for u in range(1, k) if np.gcd(u, k) == 1]
    p = np.eye(d, dtype=np.int64)
    pinv = np.eye(d, dtype=np.int64)
    for _ in range(3 * d * d):
        op = rng.randrange(3)
        i = rng.randrange(d)
        if op == 0 and d > 1:  # row_i += c * row_j
            j = rng.choice([x for x in range(d) if x != i])
            c = rng.randrange(1, k)
            p[i] = (p[i] + c * p[j]) % k
            pinv[:, j] = (pinv[:, j] - c * pinv[:, i]) % k
        elif op == 1:  # row_i *= u
            u = rng.choice(units)
            p[i] = (p[i] * u) % k
            pinv[:, i] = (pinv[:, i] * pow(u, -1, k)) % k
        elif d > 1:  # swap rows i and j
            j = rng.randrange(d)
            p[[i, j]] = p[[j, i]]
            pinv[:, [i, j]] = pinv[:, [j, i]]
    if ((p @ pinv) % k != np.eye(d, dtype=np.int64)).any():
        raise AssertionError("basis change and its inverse disagree")
    if zmod.span_count(zmod.howell(p, k), k) != k**d:
        raise AssertionError("basis change does not span the whole module")
    return p, pinv


@dataclass
class Copy:
    """An isomorphic copy of ``source`` with basis rows ``p``."""

    source: RingSpec
    ring: RingSpec
    p: np.ndarray
    pinv: np.ndarray

    @property
    def k(self) -> int:
        return self.source.modulus

    def coords(self, x) -> np.ndarray:
        """Copy coordinates of original-coordinate vectors (rows)."""
        return (np.asarray(x, dtype=np.int64) @ self.pinv) % self.k

    def index(self, x) -> np.ndarray:
        """Copy element indices of original-coordinate vectors (rows)."""
        return self.coords(x) @ self.ring.index_weights

    def original_coords(self, y) -> np.ndarray:
        """Original coordinates of copy-coordinate vectors (rows)."""
        return (np.asarray(y, dtype=np.int64) @ self.p) % self.k


def coords_of(indices, k: int, d: int) -> np.ndarray:
    """Coordinate vectors (rows) of element indices, first coordinate most
    significant, as in ``RingSpec.index_weights``."""
    idx = np.array(indices, dtype=np.int64)
    out = np.empty((len(idx), d), dtype=np.int64)
    for j in range(d - 1, -1, -1):
        idx, out[:, j] = np.divmod(idx, k)
    return out


def elements_matrix(k: int, d: int) -> np.ndarray:
    """(k**d, d) coordinate vectors in element-index order."""
    return coords_of(np.arange(k**d), k, d)


def rebase(source: RingSpec, name: str, rng: random.Random) -> Copy:
    """Isomorphic copy of ``source`` under a seeded change of basis."""
    k, d = source.modulus, source.dim
    p, pinv = random_basis_change(d, k, rng)
    # products of new basis vectors, in original coordinates, then converted
    prod = np.einsum("ia,jb,abl->ijl", p, p, source.table) % k
    table = (prod @ pinv) % k
    labels = [f"b{i}" for i in range(d)]
    return Copy(source, RingSpec(name, k, labels, table), p, pinv)


def product(table: np.ndarray, k: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise products x_r * y_r under structure constants ``table``."""
    return np.einsum("ri,ijl,rj->rl", x, table, y) % k


def commutator_values(ring: RingSpec) -> np.ndarray:
    """Boolean mask over element indices: is the element some [x, y]?"""
    k, d, n = ring.modulus, ring.dim, ring.size
    e = elements_matrix(k, d)
    w = ring.index_weights
    left = np.einsum("ai,ijl->ajl", e, ring.table) % k  # coords of x * b_j
    right = np.einsum("ai,jil->ajl", e, ring.table) % k  # coords of b_j * x
    mask = np.zeros(n, dtype=bool)
    for lo in range(0, n, 256):
        xs = slice(lo, lo + 256)
        # [x, y] = sum_j y_j (x b_j - b_j x)
        c = np.einsum("bj,ajl->abl", e, left[xs] - right[xs]) % k
        mask[np.unique(c.reshape(-1, d) @ w)] = True
    return mask
