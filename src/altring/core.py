"""Finite structure-constant rings over Z/kZ: elements, arithmetic, submodules.

A ring is presented by a modulus k, basis labels and a d x d table of
coefficient vectors; multiplication is the bilinear extension of the table
and nothing else is assumed (no associativity, no commutativity).  The
additive group is the free Z/kZ-module on the basis, so every element has a
canonical mixed-radix index in [0, k**d).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import zmod

# Index tables (the row tables that every product and bracket row is streamed
# from, and the half-digit sum tables) are only built for rings up to this many
# elements, and no (n, n) table is cached; everything bigger must stay on the
# basis-criterion code paths.  Streamed rows hold element indices in uint16,
# which bounds any limit by n <= 65536.
INDEX_TABLE_LIMIT = 4096

# Every int64 computation stays below this: element indices reach k**d - 1, and
# a product contraction sum_ij a_i*b_j*table[i, j] reaches d**2 * (k-1)**3.
_INT64_MAX = 2**63 - 1


def _check_modulus(modulus) -> None:
    """Refuse a modulus that is not an integer >= 2."""
    if not isinstance(modulus, int) or modulus < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")


def _int64_array(values, name: str) -> np.ndarray:
    """A new int64 array of ``values``; ValueError at the first entry that is
    not an integer.  Integer-valued floats are integers."""
    raw = np.asarray(values)
    if np.can_cast(raw.dtype, np.int64):
        return raw.astype(np.int64)
    # entry by entry, as given: a list mixing numbers and strings is all strings to NumPy
    flat = np.asarray(values, dtype=object).reshape(-1)
    for n, v in enumerate(flat):
        if not isinstance(v, (int, np.integer)) and not (
            isinstance(v, (float, np.floating)) and float(v).is_integer()
        ):
            pos = "".join(f"[{i}]" for i in np.unravel_index(n, raw.shape))
            raise ValueError(f"{name}{pos} = {v!r} is not an integer")
    # through Python ints, so an entry past int64 (a huge float, or uint64 from
    # 2**63 on) raises OverflowError, never wraps
    return np.array([int(v) for v in flat], dtype=np.int64).reshape(raw.shape)


class RingMismatchError(ValueError):
    """Raised when elements of different rings are combined."""


class RingSpec:
    """Immutable presentation of a finite nonassociative ring.

    ``table[i, j]`` is the coefficient vector of ``basis[i] * basis[j]``.
    Equality ignores the display name and compares modulus, labels and the
    full table, so independently constructed copies interoperate.
    """

    def __init__(self, name: str, modulus: int, basis_labels, table):
        _check_modulus(modulus)
        labels = tuple(str(s) for s in basis_labels)
        if not labels:
            raise ValueError("at least one basis label required")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be pairwise distinct")
        d = len(labels)
        if d * d * (modulus - 1) ** 3 > _INT64_MAX or modulus**d > _INT64_MAX:
            raise ValueError(
                f"modulus {modulus} with dimension {d} is out of range: int64 arithmetic "
                f"needs d^2*(k-1)^3 <= 2^63-1 and k^d <= 2^63-1"
            )
        t = _int64_array(table, "table")
        if t.shape != (d, d, d):
            raise ValueError(f"table must have shape {(d, d, d)}, got {t.shape}")
        if t.min(initial=0) < 0 or t.max(initial=0) >= modulus:
            bad = np.argwhere((t < 0) | (t >= modulus))[0]
            i, j, l = (int(v) for v in bad)
            raise ValueError(
                f"table[{i}][{j}][{l}] = {int(t[i, j, l])} out of range [0, {modulus})"
            )
        t.setflags(write=False)
        self.name = str(name)
        self.modulus = modulus
        self.basis_labels = labels
        self.table = t
        self._hash = hash((modulus, labels, t.tobytes()))
        self._cache: dict[str, object] = {}

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RingSpec):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.basis_labels == other.basis_labels
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RingSpec({self.name!r}, Z_{self.modulus}, dim={self.dim})"

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    @property
    def size(self) -> int:
        return self.modulus ** self.dim

    # -- elements ---------------------------------------------------------

    def element(self, coeffs) -> "Element":
        c = tuple(int(v) % self.modulus for v in coeffs)
        if len(c) != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {len(c)}")
        return Element(self, c)

    def zero(self) -> "Element":
        return Element(self, (0,) * self.dim)

    def basis_element(self, i: int) -> "Element":
        return self.element([1 if j == i else 0 for j in range(self.dim)])

    def basis_elements(self) -> list["Element"]:
        return [self.basis_element(i) for i in range(self.dim)]

    def from_index(self, index: int) -> "Element":
        if not 0 <= index < self.size:
            raise ValueError(f"element index {index} out of range [0, {self.size})")
        coeffs = []
        for _ in range(self.dim):
            index, c = divmod(index, self.modulus)
            coeffs.append(c)
        return Element(self, tuple(reversed(coeffs)))

    def elements(self):
        """All ring elements in ascending element-index order."""
        for coeffs in itertools.product(range(self.modulus), repeat=self.dim):
            yield Element(self, coeffs)

    def parse_element(self, text: str) -> "Element":
        """Parse 'e+a11', '2*a11+c21' or a decimal index (read as a label only if out of range)."""
        text = text.strip()
        if not text:
            raise ValueError("empty element expression")
        try:
            index = int(text)
        except ValueError:
            index = None
        if index is not None and (0 <= index < self.size or text not in self.basis_labels):
            return self.from_index(index)
        by_label = {lab: i for i, lab in enumerate(self.basis_labels)}
        coeffs = [0] * self.dim
        for term in text.split("+"):
            term = term.strip()
            if "*" in term:
                factor, _, lab = term.partition("*")
                try:
                    scale = int(factor.strip())
                except ValueError:
                    raise ValueError(f"bad coefficient {factor!r} in {text!r}") from None
            else:
                scale, lab = 1, term
            lab = lab.strip()
            if lab not in by_label:
                raise ValueError(f"unknown basis label {lab!r} in {text!r}")
            coeffs[by_label[lab]] = (coeffs[by_label[lab]] + scale) % self.modulus
        return self.element(coeffs)

    # -- bulk data --------------------------------------------------------

    def _cached(self, key: str, build):
        """The value under ``key``, from ``build()`` on first use.  Per-ring data
        derived from the table lives here: built lazily, once, and read-only
        (an array, or each array of a tuple)."""
        value = self._cache.get(key)
        if value is None:
            value = build()
            for a in value if isinstance(value, tuple) else (value,):
                a.setflags(write=False)
            self._cache[key] = value
        return value

    @property
    def index_weights(self) -> np.ndarray:
        d, k = self.dim, self.modulus
        return self._cached(
            "weights", lambda: np.array([k ** (d - 1 - j) for j in range(d)], dtype=np.int64)
        )

    def _digit_rows(self, lo: int, hi: int) -> np.ndarray:
        """(k**(hi-lo), dim) coefficient vectors, zero outside digits
        lo..hi-1, in ascending index order."""
        k = self.modulus
        out = np.zeros((k ** (hi - lo), self.dim), dtype=np.int64)
        idx = np.arange(len(out), dtype=np.int64)
        for j in range(hi - 1, lo - 1, -1):
            idx, out[:, j] = np.divmod(idx, k)
        return out

    def elements_matrix(self) -> np.ndarray:
        """(size, dim) array of all coefficient vectors in index order."""
        return self._cached("elements", lambda: self._digit_rows(0, self.dim))

    def require_index_tables(self) -> None:
        """Refuse (ValueError) a ring too large for index tables."""
        if self.size > INDEX_TABLE_LIMIT:
            raise ValueError(
                f"ring has {self.size} elements; index tables are limited "
                f"to {INDEX_TABLE_LIMIT}"
            )

    def _index_table(self, key: str, build) -> np.ndarray:
        if key not in self._cache:
            self.require_index_tables()
        return self._cached(key, build)

    def _digit_sum_rows(self, x: np.ndarray, constants: np.ndarray) -> np.ndarray:
        """(len(x), n) uint16: out[r, y] = index of A y mod k, with A the linear
        map y -> sum_ij x[r, i] y_j constants[i, j] for coefficient rows x.

        Row r is an outer sum over the digits of y, least significant first:
        each step adds the images of one digit's k values to every partial
        result, and one compare reduces a sum of two residues mod k.  Digits
        are uint8 (uint16 when 2(k-1) > 255; uint8 builds measured twice as
        fast), indices are accumulated in uint16 (n - 1 fits, see
        ``INDEX_TABLE_LIMIT``) with every product cast first, so no step
        depends on NumPy's scalar promotion rules, and row blocks keep each
        (s, d, n) digit array near 2**19 entries (larger blocks measured
        slower).

        Over Z/2 a digit-wise sum of indices is their XOR, so each row doubles
        over the digits of y instead: with w the weight of digit j, the rows
        y = w..2w-1 are y - w, of lower digits only, plus b_j, and
        ``row[w:2w] = row[:w] ^ index(A b_j)``.
        """
        d, k, n = self.dim, self.modulus, self.size
        if k == 2:
            a = np.einsum("ai,ijl->ajl", x, constants) % 2  # a[r, j] = A b_j, every row
            images = (a @ self.index_weights).astype(np.uint16)
            out = np.zeros((len(x), n), dtype=np.uint16)
            for j in range(d - 1, -1, -1):
                w = 1 << (d - 1 - j)
                np.bitwise_xor(out[:, :w], images[:, j, None], out=out[:, w : 2 * w])
            return out
        digit = np.uint8 if 2 * (k - 1) <= 255 else np.uint16
        kk, index = digit(k), np.uint16
        w = self.index_weights.astype(index)
        steps = np.arange(k)
        out = np.zeros((len(x), n), dtype=index)
        step = max(1, (1 << 19) // (n * d))
        for lo in range(0, len(x), step):
            block = out[lo : lo + step]
            s = len(block)
            a = np.einsum("ai,ijl->alj", x[lo : lo + step], constants) % k
            r = np.zeros((s, d, 1), dtype=digit)
            for j in range(d - 1, -1, -1):
                v = (a[:, :, j, None] * steps % k).astype(digit)
                r = (v[:, :, :, None] + r[:, :, None, :]).reshape(s, d, -1)
                r -= (r >= kk) * kk
            for l in range(d):
                block += r[:, l].astype(index) * w[l]
        return out

    def _pair_rows(self, key: str, constants: np.ndarray, columns=None) -> "PairRows":
        """Rows of the pairwise table for ``constants`` on demand (``PairRows``),
        from its row tables: one (k**(d-h) + m, n) uint16 array, cached under
        ``key``, of the rows x_hi * m (first) and x_lo (last), h = ceil(d/2)
        and m = k**h, both digit outer sums (``_digit_sum_rows``).  With
        ``columns``, column y of every row reads column columns[y]: the row
        tables are permuted once, by ``np.take`` along the columns (its copy
        is C-contiguous; row gathers from a ``t[:, columns]`` copy, column
        major, measured 17x slower), and every row built from them is too."""

        def build():
            e, m = self.elements_matrix(), self.modulus ** ((self.dim + 1) // 2)
            return self._digit_sum_rows(np.concatenate((e[::m], e[:m])), constants)

        rows = self._index_table(key, build)
        return PairRows(self, rows if columns is None else np.take(rows, columns, axis=1))

    def mul_index_table(self) -> np.ndarray:
        """(n, n) uint16 table: mul[i, j] = index of element_i * element_j, a
        per-call view of streamed rows (``PairRows.table``), not cached."""
        return self._pair_rows("mul_rows", self.table).table()

    def _half_digit_sums(self, sign: int):
        """(m, half, (hi_row, hi, lo_row, lo)) for ``add_indices``: m = k**h
        with h = ceil(d/2), the flat (m, m) table of digit-wise x + sign * y
        mod k over h digits, and per index hi * m, hi, lo * m and lo, all int64
        and cached per sign.  Built only for k > 2: over Z/2 sums are XORs."""
        d, k, n = self.dim, self.modulus, self.size
        h = (d + 1) // 2
        m = k**h

        def build():
            t = np.zeros(m * m + 4 * n, dtype=np.int64)
            digits = self._digit_rows(d - h, d)[:, d - h :]
            for col, w in zip(digits.T, self.index_weights[d - h :]):
                step = np.add.outer(w * col, sign * w * col)  # one temporary: n**2 at d = 1
                step %= k * w
                t[: m * m] += step.ravel()
            hi, lo = np.divmod(np.arange(n), m)
            t[m * m :] = np.concatenate([hi * m, hi, lo * m, lo])
            return t

        t = self._index_table(f"add{sign:+d}", build)
        return m, t[: m * m], t[m * m :].reshape(4, n)

    def add_indices(self, x, y, sign: int = 1) -> np.ndarray:
        """Indices of element_x + sign * element_y over broadcastable index
        arrays, as int64.  Over Z/2 both are x ^ y.  Otherwise an index is
        hi * m + lo, lo its low h = ceil(d/2) digits and m = k**h: one (m, m)
        table of digit-wise x + sign * y mod k serves both halves (hi has at
        most h digits).  Each sign caches it flat, then hi * m, hi, lo * m and
        lo of every index (a divmod per call, or 2-D gathers, measured up to
        twice as slow).  Only at d = 1 has it n**2 entries."""
        if self.modulus == 2:
            return np.bitwise_xor(x, y, dtype=np.int64)
        m, half, (hi_row, hi, lo_row, lo) = self._half_digit_sums(sign)
        return half[hi_row[x] + hi[y]] * m + half[lo_row[x] + lo[y]]

    def commutator_index_table(self) -> np.ndarray:
        """(n, n) uint16 table of [x, y] element indices, a per-call view of
        ``commutator_rows`` (``PairRows.table``), not cached."""
        return self.commutator_rows().table()

    def commutator_rows(self, columns=None) -> "PairRows":
        """Rows of the bracket on demand, [x, y] at row x and column y (at
        column y, [x, columns[y]] when ``columns`` is given), from the cached
        row tables alone: no (n, n) table is built.  The bracket is bilinear
        with constants table[i, j] - table[j, i]."""
        constants = self.table - self.table.transpose(1, 0, 2)
        return self._pair_rows("comm_rows", constants, columns)

    # -- linear maps of multiplication -------------------------------------

    def left_mul_matrix(self, x) -> np.ndarray:
        """Matrix L with coeffs(x*u) = L @ coeffs(u) (columns = basis images)."""
        v = x.vector() if isinstance(x, Element) else np.asarray(x, dtype=np.int64)
        return np.einsum("i,iml->lm", v, self.table) % self.modulus

    def right_mul_matrix(self, x) -> np.ndarray:
        """Matrix R with coeffs(u*x) = R @ coeffs(u)."""
        v = x.vector() if isinstance(x, Element) else np.asarray(x, dtype=np.int64)
        return np.einsum("i,mil->lm", v, self.table) % self.modulus


class PairRows:
    """Rows of an (n, n) pairwise index table, out[x, y] = index of A_x y mod
    k for a bilinear A, built on demand from its row tables
    (``RingSpec._pair_rows``), whose columns may come in any order.

    A_x is linear in x.  Split x = x_hi * m + x_lo at the h = ceil(d/2) low
    digits, m = k**h, as ``add_indices`` does: then row x is the digit-wise
    sum of the row tables' rows x_hi * m (``high[x_hi]``) and x_lo
    (``low[x_lo]``).  Over Z/2 that sum is the XOR of the two rows.
    Otherwise it is two gathers from the half-digit table of
    ``add_indices``, at flat positions that add split parts of the two
    entries: hi * m and lo * m of each high entry, hi and lo of each low
    entry, split once per instance in the narrowest unsigned type that holds
    a flat position, below m**2 (uint16 for every ring within
    ``INDEX_TABLE_LIMIT``).  At d = 1 every digit is low, and row x is low[x].
    """

    def __init__(self, ring: RingSpec, rows: np.ndarray):
        m = ring.modulus ** ((ring.dim + 1) // 2)
        self.n, self.m, self.width = ring.size, m, rows.shape[1]
        self.high, self.low = rows[:-m], rows[-m:]
        self._half = None
        if ring.modulus > 2 and m < ring.size:
            _, half, (hi_row, hi, lo_row, lo) = ring._half_digit_sums(1)
            flat, index = np.min_scalar_type(m * m - 1), np.uint16
            # the high digits of a sum are < n / m, so half * m stays below n
            # wherever it is read; entries that wrap are never read
            self._half = (half * m).astype(index), half.astype(index)
            high, low = self.high, self.low
            self._split = tuple(
                part[table].astype(flat)
                for part, table in ((hi_row, high), (lo_row, high), (hi, low), (lo, low))
            )

    def _combine(self, x_hi, x_lo, out: np.ndarray) -> np.ndarray:
        """out = rows x_hi * m + x_lo, for x_hi and x_lo that index the high
        and the low rows (integers, slices or arrays) and broadcast to the
        rows of out."""
        if self.m == self.n:
            out[...] = self.low[x_lo]
        elif self._half is None:
            np.bitwise_xor(self.high[x_hi], self.low[x_lo], out=out)
        else:
            (hi_row, lo_row, hi, lo), (half_m, half) = self._split, self._half
            np.take(half_m, hi_row[x_hi] + hi[x_lo], out=out)
            out += np.take(half, lo_row[x_hi] + lo[x_lo])
        return out

    def rows(self, x: np.ndarray) -> np.ndarray:
        """(len(x), width) uint16: the rows x, for an index array x."""
        x_hi, x_lo = np.divmod(x, self.m)
        return self._combine(x_hi, x_lo, np.empty((len(x), self.width), dtype=np.uint16))

    def block(self, rows: slice) -> np.ndarray:
        """(rows, width) uint16: the rows of a slice, combined per run of
        rows that share x_hi, each a row of the high table broadcast against
        a slice of the low one: no gather of rows."""
        m, start, stop = self.m, rows.start, min(rows.stop, self.n)
        out = np.empty((stop - start, self.width), dtype=np.uint16)
        for x_hi in range(start // m, -(-stop // m)):
            lo, hi = max(start, x_hi * m), min(stop, (x_hi + 1) * m)
            self._combine(x_hi, slice(lo - x_hi * m, hi - x_hi * m), out[lo - start : hi - start])
        return out

    def table(self) -> np.ndarray:
        """The whole (n, width) uint16 table.  At d = 1 it is the low rows."""
        return self.low if self.m == self.n else self.block(slice(0, self.n))


class Element:
    """A ring element: an immutable coefficient vector tied to its ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingSpec, coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    def vector(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.int64)

    @property
    def index(self) -> int:
        k = self.ring.modulus
        v = 0
        for c in self.coeffs:
            v = v * k + c
        return v

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _peer(self, other) -> "Element":
        if not isinstance(other, Element):
            raise TypeError(f"expected Element, got {type(other).__name__}")
        if self.ring != other.ring:
            raise RingMismatchError(
                f"elements of {self.ring.name!r} and {other.ring.name!r} cannot be combined"
            )
        return other

    def __add__(self, other):
        other = self._peer(other)
        k = self.ring.modulus
        return Element(self.ring, tuple((a + b) % k for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._peer(other)
        k = self.ring.modulus
        return Element(self.ring, tuple((a - b) % k for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        k = self.ring.modulus
        return Element(self.ring, tuple((-a) % k for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            k = self.ring.modulus
            return Element(self.ring, tuple((a * other) % k for a in self.coeffs))
        other = self._peer(other)
        r = self.ring
        out = np.einsum("i,j,ijl->l", self.vector(), other.vector(), r.table) % r.modulus
        return Element(r, tuple(int(c) for c in out))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring._hash, self.coeffs))

    def label(self) -> str:
        parts = []
        for c, lab in zip(self.coeffs, self.ring.basis_labels):
            if c == 1:
                parts.append(lab)
            elif c:
                parts.append(f"{c}*{lab}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self.label()} in {self.ring.name}>"


def commutator(x: Element, y: Element) -> Element:
    """[x, y] = xy - yx."""
    return x * y - y * x


def associator(x: Element, y: Element, z: Element) -> Element:
    """(x, y, z) = (xy)z - x(yz)."""
    return (x * y) * z - x * (y * z)


class Submodule:
    """An additive subgroup of the ring closed under Z/kZ scaling, held as a
    canonical Howell-form row basis.  Two submodules are equal iff their row
    matrices are identical."""

    def __init__(self, ring: RingSpec, rows: np.ndarray):
        rows = np.asarray(rows, dtype=np.int64)
        rows.setflags(write=False)
        self.ring = ring
        self.rows = rows

    @classmethod
    def span(cls, ring: RingSpec, gens) -> "Submodule":
        vecs = [g.vector() if isinstance(g, Element) else np.asarray(g) for g in gens]
        return cls(ring, zmod.howell(vecs, ring.modulus, width=ring.dim))

    @classmethod
    def zero(cls, ring: RingSpec) -> "Submodule":
        return cls(ring, np.zeros((0, ring.dim), dtype=np.int64))

    @classmethod
    def full(cls, ring: RingSpec) -> "Submodule":
        return cls(ring, zmod.howell(np.eye(ring.dim, dtype=np.int64), ring.modulus))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return self.rank == 0

    def span_size(self) -> int:
        return zmod.span_count(self.rows, self.ring.modulus)

    def contains(self, x: Element) -> bool:
        if self.ring != x.ring:
            raise RingMismatchError("element and submodule of different rings")
        return bool(zmod.member(self.rows, x.vector(), self.ring.modulus))

    __contains__ = contains

    def contains_submodule(self, other: "Submodule") -> bool:
        if self.ring != other.ring:
            raise RingMismatchError("submodules of different rings")
        return bool(zmod.member(self.rows, other.rows, self.ring.modulus).all())

    def __le__(self, other: "Submodule") -> bool:
        return other.contains_submodule(self)

    def __add__(self, other: "Submodule") -> "Submodule":
        if self.ring != other.ring:
            raise RingMismatchError("submodules of different rings")
        merged = np.vstack([self.rows, other.rows])
        return Submodule(self.ring, zmod.howell(merged, self.ring.modulus, width=self.ring.dim))

    def __and__(self, other: "Submodule") -> "Submodule":
        if self.ring != other.ring:
            raise RingMismatchError("submodules of different rings")
        return Submodule(
            self.ring, zmod.intersect(self.rows, other.rows, self.ring.modulus, self.ring.dim)
        )

    def __eq__(self, other):
        if not isinstance(other, Submodule):
            return NotImplemented
        return self.ring == other.ring and np.array_equal(self.rows, other.rows)

    def __hash__(self):
        return hash((self.ring._hash, self.rows.tobytes()))

    def elements(self):
        """Iterate every element of the span exactly once."""
        for vec in zmod.span_elements(self.rows, self.ring.modulus, self.ring.dim).tolist():
            yield Element(self.ring, tuple(vec))

    def elements_matrix(self) -> np.ndarray:
        """(span_size, dim) array of the span's elements in ascending index order."""
        e = zmod.span_elements(self.rows, self.ring.modulus, self.ring.dim)
        return e[np.argsort(e @ self.ring.index_weights)]

    def elements_by_index(self) -> list[Element]:
        return [Element(self.ring, tuple(vec)) for vec in self.elements_matrix().tolist()]

    def basis(self) -> list[Element]:
        return [Element(self.ring, tuple(int(c) for c in row)) for row in self.rows]

    def __repr__(self):
        return f"Submodule(rank={self.rank} of {self.ring.name})"


def canonicalize(ring: RingSpec, gens) -> Submodule:
    """Canonical submodule spanned by the given elements."""
    return Submodule.span(ring, gens)


def kernel_submodule(ring: RingSpec, matrix) -> Submodule:
    """Submodule {v : matrix @ v == 0 mod k} in canonical form."""
    return Submodule(ring, zmod.kernel(matrix, ring.modulus))
