"""Set-maps between finite rings and the Lie-theoretic map predicates.

Maps are stored as full value tables indexed by element index, never as
basis images: a Lie multiplicative map need not be additive, so its basis
images do not determine it.  Verifiers run over all argument tuples, and
every failure is the lex-least (x, y) of a mismatch mask built per row
block, least first.  Additivity is the exception: its verdicts come from the
n residues phi(x) - sum_i x_i phi(b_i), and the n^2 defects are scanned only
for the witnesses those verdicts say exist, each by its own scan on first
read.  The Lie multiplicative check and the central shift build each block's
bracket rows from two small row tables per ring
(``RingSpec.commutator_rows``) and keep no (n, n) table; the derivability
checks and the searcher read the cached bracket table, and sums come from
``RingSpec.add_indices``.
The bracket is bilinear even where D is not, so both derivability laws read
(x, y) only through ([x, y], [D(x), y] + [x, D(y)]) and are checked once per
distinct pair.  The searcher enumerates value tables by backtracking and
checks each bracket constraint phi([u, w]) = [phi(u), phi(w)] once, at the
largest of u, w and [u, w]: the first point at which all three images are
assigned.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analysis, zmod
from .core import Element, RingSpec, Submodule, _int64_array
from .analysis import Verdict


class MapTable:
    """A total function between two rings, tabulated by element index."""

    def __init__(self, domain: RingSpec, codomain: RingSpec, values):
        vals = _int64_array(values, "values")
        if vals.shape != (domain.size,):
            raise ValueError(
                f"map must assign all {domain.size} elements, got shape {vals.shape}"
            )
        if vals.size and (vals.min() < 0 or vals.max() >= codomain.size):
            bad = int(np.argmax((vals < 0) | (vals >= codomain.size)))
            raise ValueError(
                f"values[{bad}] = {int(vals[bad])} outside [0, {codomain.size})"
            )
        vals.setflags(write=False)
        self.domain = domain
        self.codomain = codomain
        self.values = vals

    @classmethod
    def identity(cls, ring: RingSpec) -> "MapTable":
        return cls(ring, ring, np.arange(ring.size))

    @classmethod
    def from_callable(cls, domain: RingSpec, codomain: RingSpec, fn) -> "MapTable":
        vals = [fn(domain.from_index(i)).index for i in range(domain.size)]
        return cls(domain, codomain, vals)

    def __call__(self, x: Element) -> Element:
        if self.domain != x.ring:
            raise ValueError("element outside the map's domain")
        return self.codomain.from_index(int(self.values[x.index]))

    def is_bijective(self) -> bool:
        """Equal sizes and every codomain element hit: a presence mask of the
        values, no sort."""
        if self.domain.size != self.codomain.size:
            return False
        hit = np.zeros(self.codomain.size, dtype=bool)
        hit[self.values] = True
        return bool(hit.all())

    def compose(self, inner: "MapTable") -> "MapTable":
        """self after inner: x -> self(inner(x))."""
        if inner.codomain != self.domain:
            raise ValueError("composition domain mismatch")
        return MapTable(inner.domain, self.codomain, self.values[inner.values])

    def __eq__(self, other):
        if not isinstance(other, MapTable):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.domain._hash, self.codomain._hash, self.values.tobytes()))

    def __repr__(self):
        return f"MapTable({self.domain.name} -> {self.codomain.name})"


def _row_blocks(n: int):
    """Row slices of an (n, n) table in order, about 2**17 entries each
    (blocks of 2**21 entries measured 1.8x slower at n = 4096)."""
    step = max(1, (1 << 17) // n)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _first_pair(ring: RingSpec, mask_rows) -> tuple[Element, Element] | None:
    """The lex-least (x, y) with ``mask_rows(rows)[x - rows.start, y]`` set,
    calling ``mask_rows`` on row blocks in order up to the first that has
    one; None when no block has one."""
    for rows in _row_blocks(ring.size):
        mask = mask_rows(rows)
        i, j = divmod(int(np.argmax(mask)), mask.shape[1])
        if mask[i, j]:
            return ring.from_index(rows.start + i), ring.from_index(j)
    return None


def _verdict(witness, tag: str) -> Verdict:
    """Fails with ``witness`` unless it is None."""
    return Verdict(True) if witness is None else Verdict(False, witness, tag)


def is_lie_multiplicative(phi: MapTable) -> Verdict:
    """phi([x, y]) == [phi(x), phi(y)] over all ordered pairs, one row block
    at a time, from each ring's row tables (``RingSpec.commutator_rows``):
    no (n, n) table is built or read.  A block of the domain's rows is
    combined without a row gather, and phi of it is a uint16 gather.  The
    codomain's row tables are permuted once by phi's values, so its rows at
    phi(x) hold [phi(x), phi(y)] at column y: a row gather per block, no
    n**2 random gather."""
    v = phi.values
    dom_rows, cod_rows = phi.domain.commutator_rows(), phi.codomain.commutator_rows(v)
    v16 = v.astype(np.uint16)
    witness = _first_pair(
        phi.domain, lambda rows: np.take(v16, dom_rows.block(rows)) != cod_rows.rows(v[rows])
    )
    return _verdict(witness, "lie-multiplicative")


def _leibniz_pairs(d: MapTable):
    """(p, q, least): the distinct pairs (p, q) = ([x, y], s[x, y]), ascending,
    with s[x, y] = [D(x), y] + [x, D(y)] computed per row block and never kept,
    and least(hit): the lex-least (x, y) whose pair is set in hit, found by
    marking those pairs in the presence bitmap and rescanning s to the first."""
    if d.domain != d.codomain:
        raise ValueError("derivability is defined for self-maps only")
    ring, v = d.domain, d.values
    n, c = ring.size, ring.commutator_index_table()

    def keys(rows):  # flat bitmap positions [x, y] * n + s[x, y] of a row block
        # [x, D(y)] = -[D(y), x], so both terms gather rows of c, never columns
        # (the unblocked column gather measured 2.5-4x slower at n = 4096);
        # each uint16 block is cast to intp once, C-ordered (gathers through
        # uint16 or transposed indices measured up to twice as slow)
        x, y = c[v[rows]].astype(np.intp), c[v, rows].T.astype(np.intp, order="C")
        key = ring.add_indices(x, y, -1)
        key += np.multiply(c[rows], n, dtype=key.dtype)
        return key

    marked = np.zeros(n * n, dtype=bool)
    for rows in _row_blocks(n):
        marked[keys(rows)] = True
    p, q = np.divmod(np.flatnonzero(marked), n)

    def least(hit: np.ndarray) -> tuple[Element, Element] | None:
        marked[:] = False
        marked[p[hit] * n + q[hit]] = True
        return _first_pair(ring, lambda rows: marked[keys(rows)])

    return p, q, least


def _lie_derivable(d: MapTable, pairs) -> Verdict:
    p, q, least = pairs
    hit = q != d.values[p]  # D([x, y]) == s[x, y] reads (x, y) only as q == D(p)
    return _verdict(least(hit) if hit.any() else None, "lie-derivable")


def is_lie_derivable(d: MapTable) -> Verdict:
    """D([x, y]) == [D(x), y] + [x, D(y)] over all ordered pairs (self-maps)."""
    return _lie_derivable(d, _leibniz_pairs(d))


# entries per z-block of the triple check: its gathers stay near 8 MB of int64
_TRIPLE_BLOCK = 1 << 20


def _lie_triple_derivable(d: MapTable, pairs) -> Verdict:
    ring, v = d.domain, d.values
    n, c = ring.size, ring.commutator_index_table()
    p, q, least = pairs
    first = np.ones(len(p), dtype=bool)
    first[1:] = p[1:] != p[:-1]
    rows, row_of = p[first], np.cumsum(first) - 1
    row_at = rows[:, None] * n  # offsets of rows p in the flat table
    step = max(1, _TRIPLE_BLOCK // len(p))
    for lo in range(0, n, step):
        z = slice(lo, lo + step)
        # L[p, z] = D([p, z]) - [p, D(z)] for each distinct p; it must be [q, z]
        # (uint16 blocks cast to intp once; [p, D(z)] gathered from the flat table)
        pz, p_dz = c[rows, z].astype(np.intp), np.take(c, row_at + v[z]).astype(np.intp)
        lz = ring.add_indices(v[pz], p_dz, -1)
        bad = lz[row_of] != c[q, z]
        failing = bad.any(axis=0)
        if failing.any():
            col = int(np.argmax(failing))
            witness = least(bad[:, col]) + (ring.from_index(lo + col),)
            return Verdict(False, witness, "lie-triple-derivable")
    return Verdict(True)


def is_lie_triple_derivable(d: MapTable) -> Verdict:
    """D([[x,y],z]) == [[D(x),y],z] + [[x,D(y)],z] + [[x,y],D(z)] over all
    ordered triples, least z first, then the lex-least (x, y).  With p = [x, y]
    and q = s[x, y] the law is D([p, z]) - [p, D(z)] == [q, z], checked for
    each distinct (p, q) against blocks of z: (distinct pairs) x n, not n^3."""
    return _lie_triple_derivable(d, _leibniz_pairs(d))


def derivable_report(d: MapTable) -> dict[str, Verdict]:
    """Both derivability predicates on one set of distinct (bracket, Leibniz)
    pairs; raises if they disagree (Lie derivable maps are Lie triple derivable)."""
    pairs = _leibniz_pairs(d)
    simple = _lie_derivable(d, pairs)
    triple = _lie_triple_derivable(d, pairs)
    if simple.ok and not triple.ok:
        raise AssertionError(
            "map verified Lie derivable but not Lie triple derivable; "
            "the verifiers disagree"
        )
    return {"lie_derivable": simple, "lie_triple_derivable": triple}


def additivity_defect(phi: MapTable, a: Element, b: Element) -> Element:
    """phi(a+b) - phi(a) - phi(b), an element of the codomain."""
    return phi(a + b) - phi(a) - phi(b)


@dataclass
class DefectReport:
    """The additivity defects of a map, classified against the centre of the
    codomain: flags and the lex-least witnesses, not a table.  The flags are
    computed with the report; each witness on its first read, by its own scan
    of the defects up to its block (search-maps reads only the flags)."""

    phi: MapTable
    centre: Submodule
    all_zero: bool
    all_central: bool

    @cached_property
    def sample_nonzero(self) -> tuple[Element, Element, Element] | None:
        """(a, b, defect) at the lex-least nonzero defect."""
        return None if self.all_zero else self._first_defect(nonzero=True)

    @cached_property
    def witness(self) -> tuple[Element, Element, Element] | None:
        """(a, b, defect) at the lex-least non-central defect."""
        return None if self.all_central else self._first_defect(nonzero=False)

    def _first_defect(self, nonzero: bool) -> tuple[Element, Element, Element]:
        """(a, b, defect) at the lex-least nonzero (or non-central) defect,
        from row blocks of the defects in order.  Raises AssertionError where
        a scanned block contradicts the residue verdicts."""
        phi = self.phi
        dom, cod, v = phi.domain, phi.codomain, phi.values
        central, b = _central_mask(cod), np.arange(dom.size)

        def mask(rows):
            a = b[rows, None]  # phi(a+b) - phi(a) - phi(b)
            defects = cod.add_indices(cod.add_indices(v[dom.add_indices(a, b)], v[a], -1), v, -1)
            if not nonzero:
                return ~central[defects]
            if self.all_central and not central[defects].all():
                raise AssertionError("a defect is not central, yet every residue is")
            return defects != 0

        pair = _first_pair(dom, mask)
        if pair is None:
            raise AssertionError("the residues show a defect that the scan did not find")
        return pair + (additivity_defect(phi, *pair),)

    def defect(self, a: Element, b: Element) -> Element:
        return additivity_defect(self.phi, a, b)


def _central_mask(ring: RingSpec) -> np.ndarray:
    """(n,) bool: is element i central?"""

    def build():
        mask = np.zeros(ring.size, dtype=bool)
        mask[analysis.centre(ring).elements_matrix() @ ring.index_weights] = True
        return mask

    return ring._cached("central_mask", build)


def check_almost_additive(phi: MapTable) -> DefectReport:
    """Is every additivity defect central in the codomain?  The report of
    ``almost_additive_reports`` for the one map phi."""
    return almost_additive_reports([phi])[0]


def almost_additive_reports(maps: list[MapTable]) -> list[DefectReport]:
    """The defect report of each map, for maps that share one domain and one
    codomain: the residues of all of them from one stacked gather and matmul.

    The verdicts come from n residues per map, not n^2 defects.  With b_i
    the domain's basis and k1 its modulus, let r(x) = phi(x) - sum_i x_i
    phi(b_i), x_i in [0, k1), summed in the codomain.  That sum is additive
    up to the carries of the digit-wise sum a + b, so each defect is
    r(a+b) - r(a) - r(b) - (sum of k1 phi(b_i) over the carried digits i).
    Hence phi is additive iff every r(x) and every k1 phi(b_i) is zero
    (additivity gives phi(x) = sum_i x_i phi(b_i) and k1 phi(b_i) = phi(0) = 0),
    and almost additive iff they all lie in the centre: the same statement
    for phi modulo the centre, a Z/k-submodule.

    Defects are graded against the codomain's centre (nucleus intersected
    with the commutant).  The defects are scanned only for the witnesses
    that the verdicts say exist: the lex-least nonzero defect
    (``sample_nonzero``) and the lex-least non-central one (``witness``).
    Each is its own row-block scan, run when it is first read and stopped
    at its block; an additive map scans nothing.  Rings past
    ``INDEX_TABLE_LIMIT`` are refused first.
    """
    if not maps:
        return []
    dom, cod = maps[0].domain, maps[0].codomain
    if any(phi.domain != dom or phi.codomain != cod for phi in maps):
        raise ValueError("the maps must share one domain and one codomain")
    dom.require_index_tables()
    cod.require_index_tables()
    centre = analysis.centre(cod)
    v, coeffs = np.stack([phi.values for phi in maps]), cod.elements_matrix()
    images = coeffs[v[:, dom.index_weights]]  # phi(b_i) of each map
    # r(x) for every x, then k1 phi(b_i) for every i, as codomain coefficient
    # rows: (maps, n + d, codomain dim)
    residues = np.concatenate(
        (coeffs[v] - dom.elements_matrix() @ images, dom.modulus * images), axis=1
    ) % cod.modulus
    all_zero = ~residues.any(axis=(1, 2))
    all_central = all_zero.copy()
    if not all_zero.all():
        some = ~all_zero
        all_central[some] = _central_mask(cod)[residues[some] @ cod.index_weights].all(axis=1)
    return [
        DefectReport(phi=phi, centre=centre, all_zero=bool(zero), all_central=bool(central))
        for phi, zero, central in zip(maps, all_zero, all_central)
    ]


def inner_lie_derivation(ring: RingSpec, x: Element) -> MapTable:
    """The map y -> [x, y]."""
    if ring != x.ring:
        raise ValueError("element outside the ring")
    return MapTable(ring, ring, ring.commutator_rows().rows(np.array([x.index]))[0])


def central_shift(phi: MapTable, shift: dict) -> MapTable:
    """phi plus a central offset: x -> phi(x) + shift[x].

    ``shift`` maps domain elements to codomain elements (missing or None
    means zero); a key from another ring is refused before any value is
    looked at.  Every shift value must lie in the centre of the codomain,
    and the shift must vanish on every commutator value of the domain:
    brackets kill central offsets, so these two requirements are exactly
    what keeps the result Lie multiplicative whenever phi is.  Each error
    names the least failing argument.
    """
    dom, cod = phi.domain, phi.codomain
    foreign = min((x for x in shift if x.ring != dom), key=lambda x: x.index, default=None)
    if foreign is not None:
        raise ValueError(
            f"shift key {foreign.label()} of {foreign.ring.name!r} is not in the domain {dom.name!r}"
        )
    entries = sorted((x.index, s) for x, s in shift.items() if s is not None)
    values = [s for _, s in entries]
    inside = next((m for m, s in enumerate(values) if s.ring != cod), len(values))
    vecs = np.array([s.coeffs for s in values[:inside]], dtype=np.int64).reshape(-1, cod.dim)
    outside = np.flatnonzero(~zmod.member(analysis.centre(cod).rows, vecs, cod.modulus))
    if outside.size:
        raise ValueError(f"shift value {values[outside[0]].label()} is not central in the codomain")
    if inside < len(values):
        raise ValueError("shift value outside the codomain")
    offsets = np.zeros(dom.size, dtype=np.int64)
    offsets[np.array([i for i, _ in entries], dtype=np.int64)] = vecs @ cod.index_weights
    # the least commutator value with a nonzero shift, from one gather of the
    # shifted mask per row block of the bracket (a presence mask of all its
    # values measured up to 1.2x slower, and sorts more so); the rows come
    # from the row tables, so no (n, n) table is built
    brackets, shifted, least = dom.commutator_rows(), offsets != 0, dom.size
    for rows in _row_blocks(dom.size):
        block = brackets.block(rows)
        hit = np.take(shifted, block)
        if hit.any():
            least = min(least, int(block[hit].min()))
    if least < dom.size:
        raise ValueError(
            f"shift must vanish on commutator values; {dom.from_index(least).label()} is one"
        )
    return MapTable(dom, cod, cod.add_indices(phi.values, offsets))


@dataclass
class SearchResult:
    maps: list[MapTable]
    complete: bool
    nodes: int


def _depth_checks(table: np.ndarray):
    """Yields, for m = 0, 1, ..., n - 1, the bracket constraints of depth m:
    the (u, w, c) with c = [u, w] and max(u, w, c) = m, as three array('H')
    in (u, w) order.  The constraints of every depth below a width lie in the
    leading width x width block of the table, stably sorted by max(u, w, c)
    (uint16 keys).  The first width is 64, and it doubles each time m reaches
    it: a search that stops early sorts only the block it reached, and a ring
    of at most 64 elements needs one sort."""
    n, lo = len(table), 0
    while lo < n:
        width = min(max(2 * lo, 64), n)
        block = table[:width, :width]
        i = np.arange(width, dtype=block.dtype)
        key = np.maximum(np.maximum(i[:, None], i), block).ravel()
        order = np.argsort(key, kind="stable")  # keys past the width sort last
        ends = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=width)[:width])))
        for m in range(lo, width):
            u, w = np.divmod(order[ends[m] : ends[m + 1]], width)
            yield tuple(array("H", x.astype(np.uint16).tobytes()) for x in (u, w, block[u, w]))
        lo = width


def search_lie_multiplicative_bijections(
    domain: RingSpec,
    codomain: RingSpec | None = None,
    budget: int | None = None,
) -> SearchResult:
    """Enumerate Lie multiplicative bijections by backtracking.

    Images are assigned in ascending element-index order with phi(0) = 0
    forced (phi(0) = phi([0,0]) = [phi(0), phi(0)] = 0 for any Lie
    multiplicative map).  Each constraint phi([u, w]) = [phi(u), phi(w)] is
    checked once, at depth m = max(u, w, [u, w]), the first at which all
    three images are assigned; so every complete assignment satisfies all
    of them, and every partial one that fails a check has no completion.
    ``budget`` bounds the number of assignment attempts; when it runs out
    the result carries complete=False.
    """
    cod = codomain if codomain is not None else domain
    if domain.size != cod.size:
        raise ValueError("domain and codomain must have the same number of elements")
    n = domain.size
    depths = _depth_checks(domain.commutator_index_table())
    checks = [next(depths)]  # depth 0 is [0, 0] = 0 alone, and phi(0) = 0
    # per node, plain Python over Python ints: on small rings numpy's
    # per-element indexing costs more than the whole check
    bracket = memoryview(cod.commutator_index_table().reshape(-1))
    values, used = [0] * n, [True] + [False] * (n - 1)
    found: list[MapTable] = []
    nodes = 0
    aborted = False

    def feasible(m: int, y: int) -> bool:
        values[m] = y
        if m == len(checks):
            checks.append(next(depths))
        for u, w, c in zip(*checks[m]):
            if values[c] != bracket[values[u] * n + values[w]]:
                return False
        return True

    # Depth-first with an explicit stack: values[1:m] is the current path
    # (entries from m on are stale) and y the next candidate image of m.
    # Images are distinct and phi(0) = 0, so values[m] > 0 for m >= 1 and
    # used[0] stays set until the end.
    m, y = 1, 0
    while m > 0:
        if m == n:
            found.append(MapTable(domain, cod, values))
        else:
            while y < n and used[y]:
                y += 1
            if y < n:
                if budget is not None and nodes >= budget:
                    aborted = True
                    break
                nodes += 1
                if feasible(m, y):
                    used[y] = True
                    m, y = m + 1, 0
                else:
                    y += 1
                continue
        # m is complete or has no candidate left: back to the next image of m - 1
        m -= 1
        y = values[m]
        used[y] = False
        y += 1
    return SearchResult(maps=found, complete=not aborted, nodes=nodes)
