"""Exact linear algebra over Z/kZ built on the Howell normal form.

Matrices are numpy integer arrays of row vectors with entries reduced into
[0, k).  The Howell form is the canonical echelon form for row spans over
Z/kZ: two generating sets span the same submodule of (Z/kZ)^n iff their
Howell forms are byte-identical.  Unlike plain Gaussian elimination it stays
correct when k has zero divisors, which is what makes span equality,
membership, kernels and intersections decidable for composite k.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: (g, s, t) with s*a + t*b == g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def unit_multiplier(a: int, k: int) -> int:
    """A unit u mod k with u*a == gcd(a, k) (mod k), memoised per (a mod k, k)."""
    return _unit_multiplier(a % k, k)


@functools.lru_cache(maxsize=1 << 16)
def _unit_multiplier(a: int, k: int) -> int:
    """unit_multiplier for 0 <= a < k.

    Any lift u + t*(k/g) of the inverse of a/g mod k/g satisfies the
    congruence; at least one lift with t < g is a unit mod k.
    """
    if a == 0:
        return 1
    g = math.gcd(a, k)
    ad, kd = a // g, k // g
    u = pow(ad, -1, kd) if kd > 1 else 1
    for t in range(g + 1):
        cand = (u + t * kd) % k
        if cand and math.gcd(cand, k) == 1:
            return cand
    raise ArithmeticError(f"no unit lift for {a} mod {k}")


def as_matrix(rows, k: int, width: int | None = None) -> np.ndarray:
    """Coerce ``rows`` to a 2-D int64 array reduced mod k."""
    a = np.array(rows, dtype=np.int64)
    if a.ndim == 2:
        return a % k
    if a.size == 0:
        return np.zeros((0, width or 0), dtype=np.int64)
    return a.reshape(1, -1) % k


def _howell_inplace(work: np.ndarray, k: int, npivot: int) -> tuple[np.ndarray, int]:
    """Reduce ``work`` so its first r rows are the Howell echelon over the
    first ``npivot`` columns, every later row zero there; returns (work, r).

    Per pivot column: unit-scale the pivot row to p = gcd(entry, k); give
    each row whose entry p does not divide (composite k) an egcd pair step
    with it and append the annihilator row (k/p)·pivot when nonzero; then
    one array step subtracts (entry // p)·pivot, from column c on (the pivot
    row is zero left of c), from each row where that is nonzero: rows below
    clear, rows above reduce into [0, p).  A column zero in rows r on stays
    zero; one scan skips a run of them.  Columns past ``npivot`` ride along.
    """
    r = c = 0
    while r < len(work) and c < npivot:
        below = work[r:, c].nonzero()[0]
        if not len(below):
            ahead = work[r:, c:npivot].any(axis=0).nonzero()[0]
            c = c + ahead[0] if len(ahead) else npivot
            continue
        if below[0]:
            work[[r, r + below[0]]] = work[[r + below[0], r]]
        if (u := unit_multiplier(int(work[r, c]), k)) != 1:
            work[r] = work[r] * u % k
        p = int(work[r, c])
        if p > 1:
            for i in r + 1 + (work[r + 1:, c] % p).nonzero()[0]:
                b = int(work[i, c])
                g, s, t = egcd(p, b)
                work[[r, i]] = [[s, t], [-(b // g), p // g]] @ work[[r, i]] % k
                p = g
            extra = work[r] * (k // p) % k
            if extra.any():
                work = np.vstack([work, extra])
        q = work[:, c] // p
        q[r] = 0
        rows = q.nonzero()[0]
        work[rows, c:] = (work[rows, c:] - np.multiply.outer(q[rows], work[r, c:])) % k
        r, c = r + 1, c + 1
    return work, r


def howell(rows, k: int, width: int | None = None) -> np.ndarray:
    """Canonical Howell form of the row span; zero rows dropped."""
    a = as_matrix(rows, k, width)
    work, r = _howell_inplace(a[a.any(axis=1)], k, a.shape[1])
    return work[:r].copy()


def _zero_row_tails(rows: np.ndarray, k: int, npivot: int) -> np.ndarray:
    """Howell form of the span's elements that vanish on the first ``npivot``
    columns, read at the remaining columns: the tails of the rows that
    ``_howell_inplace`` reduces to zero there.  ``rows`` is reduced mod k
    and is overwritten."""
    work, r = _howell_inplace(rows, k, npivot)
    return howell(work[r:, npivot:], k, width=rows.shape[1] - npivot)


def kernel(mat, k: int) -> np.ndarray:
    """Canonical basis (as rows) of the right kernel {v : mat @ v == 0 mod k}:
    the tails of the zero rows of [mat.T | I]."""
    a = as_matrix(mat, k)
    m, n = a.shape
    ker = _zero_row_tails(np.hstack([a.T, np.eye(n, dtype=np.int64)]), k, m)
    if ker.size:
        assert not ((a @ ker.T) % k).any(), "kernel re-substitution failed"
    return ker


def pivots(h: np.ndarray) -> list[tuple[int, int]]:
    """(column, value) of each pivot of a matrix in Howell form."""
    if not h.size:
        return []
    cols = np.argmax(h != 0, axis=1)
    return list(zip(cols.tolist(), h[np.arange(len(h)), cols].tolist()))


def reduce_mod_span(h: np.ndarray, v, k: int) -> np.ndarray:
    """Residue of v after reduction against Howell rows h (zero iff member).

    v is one vector or a (m, w) batch, reduced row by row in one pass over
    the pivots of h.  Later rows are zero at column c, so a remainder left
    there by a pivot p that does not divide v[c] stays in the residue."""
    v = np.array(v, dtype=np.int64) % k
    for row, (c, p) in zip(h, pivots(h)):
        v = (v - (v[..., c] // p)[..., None] * row) % k
    return v


def member(h: np.ndarray, v, k: int) -> np.bool_ | np.ndarray:
    """Is v in the row span of the Howell-form matrix h?  One bool per row
    when v is a (m, w) batch."""
    return np.logical_not(reduce_mod_span(h, v, k).any(axis=-1))


def solve(mat, target, k: int) -> np.ndarray | None:
    """A particular solution x of mat @ x == target mod k, or None.

    (c, x) is in the kernel of [-target | mat] exactly when mat @ x == c*target.
    The c that occur are the multiples of the first Howell row's pivot, so a
    solution exists iff that row is (1, x)."""
    ker = kernel(np.column_stack([-np.asarray(target, dtype=np.int64), mat]), k)
    return ker[0, 1:] if len(ker) and ker[0, 0] == 1 else None


def intersect(rows_a, rows_b, k: int, width: int) -> np.ndarray:
    """Canonical basis of the intersection of two row spans (Zassenhaus): the
    tails of the zero rows of [a | a; b | 0]."""
    a = as_matrix(rows_a, k, width)
    b = as_matrix(rows_b, k, width)
    stacked = np.vstack([np.hstack([a, a]), np.hstack([b, np.zeros_like(b)])])
    return _zero_row_tails(stacked, k, width)


def span_count(h: np.ndarray, k: int) -> int:
    """Number of elements of the span of a Howell-form matrix."""
    n = 1
    for _, p in pivots(h):
        n *= k // p
    return n


def span_elements(h: np.ndarray, k: int, width: int) -> np.ndarray:
    """Every element of the span exactly once, as a (count, width) array.

    Row i is taken with coefficients in [0, k/p_i); for a Howell basis this
    enumerates the span without repeats.  The coefficients run in counter
    order, the last row's fastest; the empty span gives one zero row.
    """
    ranges = [k // p for _, p in pivots(h)]
    coeffs = np.indices(ranges, dtype=np.int64).reshape(len(ranges), math.prod(ranges))
    return coeffs.T @ np.reshape(h, (len(ranges), width)) % k
