"""Independent brute-force oracles for cross-checking the library.

Deliberately implemented with plain Python dicts and tuples, no numpy and no
shared code with the package's decision procedures, so that agreement is
meaningful.  Only usable at desk scale.  The exceptions are
``reference_triple_derivable``, ``reference_lie_multiplicative``,
``reference_prime_by_ideals`` and ``reference_prime_scans``, numpy scans
kept to pin a witness order at sizes the dict oracles cannot reach,
``reference_span_elements``, the former span enumeration kept to pin its
order, the ``reference_peirce*``
procedures, the Peirce layer as the package computed it with scalar
``Element`` products, ``reference_sum_table``, sums of element indices
straight from the coefficient vectors, and ``reference_howell``, the
row-at-a-time Howell elimination that ``zmod`` replaced with array steps.
``rebased_copy`` makes isomorphic test inputs, not verdicts.
"""

import itertools

import numpy as np

from altring import analysis, zmod
from altring.analysis import PeirceError, PeirceFrame, Verdict
from altring.core import RingSpec, Submodule


class BruteRing:
    """Dict-based multiplication oracle built straight from the table."""

    def __init__(self, ring):
        self.k = ring.modulus
        self.d = ring.dim
        self.table = [
            [tuple(int(c) for c in cell) for cell in row] for row in ring.table
        ]
        self.elements = [
            t for t in itertools.product(range(self.k), repeat=self.d)
        ]
        self.zero = (0,) * self.d

    def index(self, x):
        v = 0
        for c in x:
            v = v * self.k + c
        return v

    def add(self, x, y):
        return tuple((a + b) % self.k for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple((a - b) % self.k for a, b in zip(x, y))

    def mul(self, x, y):
        acc = [0] * self.d
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                cell = self.table[i][j]
                for l in range(self.d):
                    acc[l] += xi * yj * cell[l]
        return tuple(c % self.k for c in acc)

    def comm(self, x, y):
        return self.sub(self.mul(x, y), self.mul(y, x))

    def assoc(self, x, y, z):
        return self.sub(self.mul(self.mul(x, y), z), self.mul(x, self.mul(y, z)))

    # -- exhaustive elementwise predicates ---------------------------------

    def associative(self):
        for x in self.elements:
            for y in self.elements:
                xy = self.mul(x, y)
                for z in self.elements:
                    if self.mul(xy, z) != self.mul(x, self.mul(y, z)):
                        return False
        return True

    def alternative(self):
        for x in self.elements:
            for y in self.elements:
                if self.assoc(x, x, y) != self.zero or self.assoc(y, x, x) != self.zero:
                    return False
        return True

    def flexible(self):
        for x in self.elements:
            for y in self.elements:
                if self.assoc(x, y, x) != self.zero:
                    return False
        return True

    def nucleus_elements(self):
        out = []
        for u in self.elements:
            if all(
                self.assoc(u, x, y) == self.zero
                and self.assoc(x, u, y) == self.zero
                and self.assoc(x, y, u) == self.zero
                for x in self.elements
                for y in self.elements
            ):
                out.append(u)
        return out

    def commutant_elements(self):
        return [
            u
            for u in self.elements
            if all(self.comm(u, x) == self.zero for x in self.elements)
        ]

    def centre_elements(self):
        nuc = set(self.nucleus_elements())
        return [u for u in self.commutant_elements() if u in nuc]

    def idempotents(self):
        """Indices of the x with x*x = x, ascending."""
        return [self.index(x) for x in self.elements if self.mul(x, x) == x]


def brute_condition_scan(ring, frame, side, commutant_elems):
    """All s in R11+R22 with [s, component] = 0, split by commutant
    membership; works elementwise, independent of the kernel machinery."""
    br = BruteRing(ring)
    comp = frame.r12 if side == "12" else frame.r21
    comp_elems = [tuple(e.coeffs) for e in comp.elements()]
    commut = set(commutant_elems)
    diag = [tuple(e.coeffs) for e in frame.diagonal_sum().elements()]
    hyp = [
        s
        for s in diag
        if all(br.comm(s, c) == br.zero for c in comp_elems)
    ]
    good = [s for s in hyp if s in commut]
    bad = sorted((s for s in hyp if s not in commut), key=br.index)
    return hyp, good, bad


def reference_identity_scans(ring):
    """The four identity checks as plain scans, keyed by the library's
    function names, each as (ok, witness indices, tag).

    The trilinear laws scan basis triples in ascending element index.  The
    laws quadratic in x scan x over the basis elements and two-term basis
    sums in ascending element index, then y over the basis in ascending
    element index, trying the left alternative law before the right one.
    """
    br = BruteRing(ring)
    basis = sorted(
        (tuple(int(i == p) for i in range(br.d)) for p in range(br.d)), key=br.index
    )
    sums = [br.add(x, y) for x, y in itertools.combinations(basis, 2)]
    triples = [(x, y, z) for x in basis for y in basis for z in basis]
    pairs = [(x, y) for x in sorted(basis + sums, key=br.index) for y in basis]

    def first(cases):
        for value, witness, tag in cases:
            if value != br.zero:
                return False, [br.index(w) for w in witness], tag
        return True, None, ""

    return {
        "is_associative": first(
            (br.assoc(x, y, z), (x, y, z), "associator") for x, y, z in triples
        ),
        "is_alternative": first(
            case
            for x, y in pairs
            for case in (
                (br.assoc(x, x, y), (x, x, y), "left-alternative"),
                (br.assoc(y, x, x), (y, x, x), "right-alternative"),
            )
        ),
        "is_flexible": first((br.assoc(x, y, x), (x, y, x), "flexible") for x, y in pairs),
        "check_linearized_flexible": first(
            (br.add(br.assoc(x, y, z), br.assoc(z, y, x)), (x, y, z), "linearized-flexible")
            for x, y, z in triples
        ),
    }


def reference_primeness(ring):
    """The three primeness procedures as plain scans, keyed like the
    ``primeness`` block of ``AnalysisReport.to_dict()``, each as
    (ok, witness indices, tag).

    The ideal generated by a is the closure of {a} under sums and under
    products with basis elements on both sides; the ideal-pair scan reports
    the least pair (a, b) in ascending element index with every product of
    the two ideals zero.  The criteria scan a, then b, in ascending element
    index and test (a*r)*b = 0 (left) or a*(r*b) = 0 (right) for every basis
    element r.
    """
    br = BruteRing(ring)
    basis = [tuple(int(i == p) for i in range(br.d)) for p in range(br.d)]
    nonzero = [x for x in br.elements if x != br.zero]

    def additive_span(gens):
        span, frontier = {br.zero}, [br.zero]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = br.add(x, g)
                if y not in span:
                    span.add(y)
                    frontier.append(y)
        return span

    def ideal(a):
        gens = [a]
        while True:
            span = additive_span(gens)
            new = [
                p for x in span for b in basis for p in (br.mul(b, x), br.mul(x, b))
                if p not in span
            ]
            if not new:
                return frozenset(span)
            gens.append(new[0])

    ideals = {x: ideal(x) for x in nonzero}
    vanishes = {}

    def by_ideals():
        for a in nonzero:
            for b in nonzero:
                key = (ideals[a], ideals[b])
                if key not in vanishes:
                    vanishes[key] = all(
                        br.mul(x, y) == br.zero for x in ideals[a] for y in ideals[b]
                    )
                if vanishes[key]:
                    return False, [br.index(a), br.index(b)], "ideal-pair"
        return True, None, ""

    def criterion(variant, product):
        for a in nonzero:
            for b in nonzero:
                if all(product(a, r, b) == br.zero for r in basis):
                    return False, [br.index(a), br.index(b)], f"criterion-{variant}"
        return True, None, ""

    return {
        "by_ideals": by_ideals(),
        "criterion_left": criterion("left", lambda a, r, b: br.mul(br.mul(a, r), b)),
        "criterion_right": criterion("right", lambda a, r, b: br.mul(a, br.mul(r, b))),
    }


def reference_sum_table(ring, sign=1):
    """(n, n) table of the indices of element_x + sign * element_y, from the
    coefficient vectors of ``elements_matrix()`` (an (n, n, d) temporary:
    small rings only)."""
    e, w, k = ring.elements_matrix(), ring.index_weights, ring.modulus
    return ((e[:, None, :] + sign * e[None, :, :]) % k) @ w


def reference_triple_derivable(ring, values):
    """The Lie triple law D([[x,y],z]) == [s[x,y], z] + [[x,y], D(z)], with s
    the Leibniz table [D(x), y] + [x, D(y)], as a per-z scan over all (x, y):
    least z first, then the lex-least (x, y).  Returns (ok, witness indices,
    tag).

    The library decided the law this way before it checked each distinct
    (bracket, Leibniz) pair once; the scan is kept as the oracle for the
    witness order on rings too large for BruteRing.  Unlike the rest of this
    module it reads the ring's bracket table; its sums come from
    ``reference_sum_table``.
    """
    c = ring.commutator_index_table()
    a = reference_sum_table(ring)
    v = np.asarray(values, dtype=np.int64)
    s = a[c[v, :], c[:, v]]
    for z in range(ring.size):
        col = c[:, z]
        bad = v[col[c]] != a[col[s], c[:, v[z]][c]]
        i, j = divmod(int(np.argmax(bad)), ring.size)
        if bad[i, j]:
            return False, [i, j, z], "lie-triple-derivable"
    return True, None, ""


def reference_lie_multiplicative(phi):
    """phi([x, y]) == [phi(x), phi(y)] by the gather form the library used
    before it streamed bracket rows: both rings' (n, n) bracket tables, and
    per row block phi of the domain's rows against the codomain's table at
    (phi(x), phi(y)).  Returns (ok, witness indices): the lex-least failing
    (x, y), or None."""
    cd, cc = phi.domain.commutator_index_table(), phi.codomain.commutator_index_table()
    v = phi.values
    step = max(1, (1 << 17) // len(v))
    for lo in range(0, len(v), step):
        bad = v[cd[lo : lo + step]] != cc[v[lo : lo + step, None], v]
        i, j = divmod(int(np.argmax(bad)), bad.shape[1])
        if bad[i, j]:
            return False, [lo + i, j]
    return True, None


def reference_ideal_closure(ring, a):
    """Howell rows of the ideal generated by a, by the fixpoint the library
    used before it closed ideals with the multiplication algebra: add the
    products of the current rows with every basis element on both sides until
    the span stops growing."""
    k = ring.modulus
    rows = zmod.howell([a.vector()], k, width=ring.dim)
    cap = ring.dim * ring.modulus + 1
    for _ in range(cap):
        if not rows.size:
            return rows
        lefts = np.einsum("ri,ijl->rjl", rows, ring.table) % k
        rights = np.einsum("ri,jil->rjl", rows, ring.table) % k
        stacked = np.vstack(
            [rows, lefts.reshape(-1, ring.dim), rights.reshape(-1, ring.dim)]
        )
        nxt = zmod.howell(stacked, k, width=ring.dim)
        if nxt.shape == rows.shape and np.array_equal(nxt, rows):
            return rows
        rows = nxt
    raise RuntimeError("ideal closure failed to stabilise within dim*k passes")


def reference_prime_by_ideals(ring):
    """The ideal-pair scan as the library ran it before it read each ideal's
    partners off one kernel: the distinct principal ideals in order of least
    generator, closed lazily with ``reference_ideal_closure``, and for each
    one a, every distinct ideal b in the same order, until the two ideals
    multiply to zero.  Returns (ok, witness indices, tag).

    Unlike the dict oracles it uses numpy and the package's Howell form.
    """
    distinct = []  # (least generator, Howell rows), ascending
    seen = set()
    todo = iter(range(1, ring.size))

    def ideals():
        pos = 0
        while True:
            while len(distinct) <= pos:
                idx = next(todo, None)
                if idx is None:
                    return
                rows = reference_ideal_closure(ring, ring.from_index(idx))
                if rows.tobytes() not in seen:
                    seen.add(rows.tobytes())
                    distinct.append((idx, rows))
            yield distinct[pos]
            pos += 1

    for a, ia in ideals():
        for b, ib in ideals():
            prods = np.einsum("ai,ijl,bj->abl", ia, ring.table, ib)
            if not (prods % ring.modulus).any():
                return False, [a, b], "ideal-pair"
    return True, None, ""


def reference_prime_scans(ring):
    """The three primeness procedures as the library ran them before it
    visited one element per unit line: every nonzero a in ascending index,
    one kernel each (the partners of each distinct ideal, or the annihilators
    of a read off the n x d element matrix).  Keyed like
    ``reference_primeness``, each as (ok, witness indices, tag).

    Unlike the dict oracles it uses numpy and the package's Howell form.
    """
    k, d = ring.modulus, ring.dim

    def by_ideals():
        mult, seen = analysis._multiplication_algebra(ring), set()
        for a in range(1, ring.size):
            ideal = analysis.ideal_generated(ring, ring.from_index(a))
            if ideal in seen:
                continue
            seen.add(ideal)
            rows = np.einsum("ri,ipl,spj->rslj", ideal.rows, ring.table, mult)
            ker = zmod.kernel(rows.reshape(-1, d), k)
            if ker.size:
                return False, [a, ring.element(ker[-1]).index], "ideal-pair"
        return True, None, ""

    def criterion(variant):
        outer, inner = analysis._product_tensors(ring)
        per_coeff = (outer if variant == "left" else inner).transpose(0, 1, 3, 2).reshape(d, -1)
        e = ring.elements_matrix()
        for a in range(1, ring.size):
            ker = zmod.kernel(((e[a] @ per_coeff) % k).reshape(-1, d), k)
            if ker.size:
                return False, [a, ring.element(ker[-1]).index], f"criterion-{variant}"
        return True, None, ""

    return {
        "by_ideals": by_ideals(),
        "criterion_left": criterion("left"),
        "criterion_right": criterion("right"),
    }


def rebased_copy(ring, seed):
    """An isomorphic copy of ``ring`` in a seeded random basis: new basis
    vector i is row i of P, a product of 3*d*d random transvections
    row_i += c*row_j mod k, so P is invertible and P^-1 is tracked exactly.
    Element witnesses move, every verdict stays."""
    rng = np.random.default_rng(seed)
    k, d = ring.modulus, ring.dim
    p, pinv = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
    for _ in range(3 * d * d):
        i, j = (int(x) for x in rng.integers(0, d, size=2))
        if i != j:
            c = int(rng.integers(1, k))
            p[i] = (p[i] + c * p[j]) % k
            pinv[:, j] = (pinv[:, j] - c * pinv[:, i]) % k
    assert np.array_equal(p @ pinv % k, np.eye(d, dtype=np.int64))
    # B_i * B_j in the old coordinates, then as rows of the new ones
    table = np.einsum("ia,jb,abl->ijl", p, p, ring.table) % k @ pinv % k
    return RingSpec(f"{ring.name}_r{seed}", k, [f"b{i}" for i in range(d)], table)


def reference_howell(rows, k, width):
    """Howell form of the row span, one row at a time in Python ints: every
    row below the pivot is cleared by a multiple of it or, when the pivot
    does not divide its entry, by an egcd pair step; then the pivot is
    unit-scaled, the rows above are reduced and the annihilator row added."""
    work = [[int(c) % k for c in row] for row in rows]
    work = [row for row in work if any(row)]
    r = 0
    for c in range(width):
        at = next((i for i in range(r, len(work)) if work[i][c]), None)
        if at is None:
            continue
        work[r], work[at] = work[at], work[r]
        for i in range(r + 1, len(work)):
            a, b = work[r][c], work[i][c]
            if b % a == 0:
                work[i] = [(x - (b // a) * y) % k for x, y in zip(work[i], work[r])]
            else:
                g, s, t = zmod.egcd(a, b)
                work[r], work[i] = (
                    [(s * y + t * x) % k for x, y in zip(work[i], work[r])],
                    [((a // g) * x - (b // g) * y) % k for x, y in zip(work[i], work[r])],
                )
        u = zmod.unit_multiplier(work[r][c], k)
        work[r] = [u * y % k for y in work[r]]
        p = work[r][c]
        for i in range(r):
            q = work[i][c] // p
            work[i] = [(x - q * y) % k for x, y in zip(work[i], work[r])]
        extra = [(k // p) * y % k for y in work[r]]
        if any(extra):
            work.append(extra)
        r += 1
    return np.array(work[:r], dtype=np.int64).reshape(r, width)


def reference_span_elements(h, k, width):
    """Every element of the span of the Howell rows h, one vector at a time:
    row i with coefficients in [0, k/p_i), counted with the last row's
    coefficient fastest (the enumeration ``zmod.span_elements`` replaced)."""
    if not h.size:
        yield np.zeros(width, dtype=np.int64)
        return
    ranges = [k // p for _, p in zmod.pivots(h)]
    counters = [0] * len(ranges)
    while True:
        acc = np.zeros(width, dtype=np.int64)
        for c, row in zip(counters, h):
            if c:
                acc = acc + c * row
        yield acc % k
        i = len(counters) - 1
        while i >= 0:
            counters[i] += 1
            if counters[i] < ranges[i]:
                break
            counters[i] = 0
            i -= 1
        if i < 0:
            return


PEIRCE_KEYS = [(1, 1), (1, 2), (2, 1), (2, 2)]


def reference_peirce_project(e1, a):
    """The four Peirce projections of a at e1, by Element products."""
    p11 = e1 * (a * e1)
    p12 = e1 * a - p11
    p21 = a * e1 - p11
    p22 = a - e1 * a - a * e1 + p11
    return {(1, 1): p11, (1, 2): p12, (2, 1): p21, (2, 2): p22}


def reference_peirce(ring, e1):
    """The Peirce frame at e1 by Element products, raising PeirceError in the
    order the checks run: a different ring, zero, not an idempotent, the
    unity (found by ``analysis.find_unity``), compatibility on basis
    elements, components that fail to span the ring, overlapping
    components."""
    if ring != e1.ring:
        raise PeirceError("idempotent belongs to a different ring")
    if e1.is_zero():
        raise PeirceError("the zero element is not a usable idempotent")
    if e1 * e1 != e1:
        raise PeirceError(f"{e1.label()} is not an idempotent")
    unity = analysis.find_unity(ring)
    if unity is not None and e1 == unity:
        raise PeirceError("the unity is a trivial idempotent")
    for b in ring.basis_elements():
        if (e1 * b) * e1 != e1 * (b * e1):
            raise PeirceError(f"compatibility (e1*a)*e1 = e1*(a*e1) fails at a = {b.label()}")
    parts = [reference_peirce_project(e1, b) for b in ring.basis_elements()]
    subs = {key: Submodule.span(ring, [p[key] for p in parts]) for key in PEIRCE_KEYS}
    total = subs[(1, 1)] + subs[(1, 2)] + subs[(2, 1)] + subs[(2, 2)]
    if total != Submodule.full(ring):
        raise PeirceError("Peirce components do not span the ring")
    for a, b in itertools.combinations(PEIRCE_KEYS, 2):
        if not (subs[a] & subs[b]).is_zero():
            raise PeirceError(f"components R{a[0]}{a[1]} and R{b[0]}{b[1]} overlap")
    return PeirceFrame(ring, e1, *(subs[key] for key in PEIRCE_KEYS))


def reference_peirce_relations(frame):
    """Rules (i)-(iii) on every pair (x, y) of Howell basis rows, component
    pairs in the order R11, R12, R21, R22, then rule (iv) on the elements of
    R12, then R21, in ascending index, all by Element products."""
    for (i, j), (kk, l) in itertools.product(PEIRCE_KEYS, repeat=2):
        if j == kk:
            target, tag = frame.component(i, l), f"R{i}{j}*R{kk}{l}<=R{i}{l}"
        elif (i, j) == (kk, l):
            target, tag = frame.component(j, i), f"R{i}{j}*R{i}{j}<=R{j}{i}"
        else:
            target, tag = Submodule.zero(frame.ring), f"R{i}{j}*R{kk}{l}=0"
        for x in frame.component(i, j).basis():
            for y in frame.component(kk, l).basis():
                if (x * y) not in target:
                    return Verdict(False, (x, y), tag)
    for i, j in [(1, 2), (2, 1)]:
        for x in frame.component(i, j).elements_by_index():
            if not (x * x).is_zero():
                return Verdict(False, (x, x), f"square in R{i}{j}")
    return Verdict(True)


def reference_condition_subspace(frame, side):
    """{s in R11 + R22 : [s, c] = 0 for every Howell row c of the component},
    stacked one (R_c - L_c) block per row c."""
    ring, k = frame.ring, frame.ring.modulus
    comp = frame.r12 if side == "12" else frame.r21
    diag = frame.diagonal_sum()
    if diag.is_zero() or comp.is_zero():
        return diag
    blocks = [
        (ring.right_mul_matrix(c) - ring.left_mul_matrix(c)) % k @ diag.rows.T % k
        for c in comp.rows
    ]
    kern = zmod.kernel(np.vstack(blocks), k)
    rows = kern @ diag.rows % k if kern.size else kern.reshape(0, ring.dim)
    return Submodule(ring, zmod.howell(rows, k, width=ring.dim))


def reference_condition(frame, side):
    """The centralising condition on ``reference_condition_subspace``: the
    witness is its least element, by index, outside the commutant."""
    z = analysis.commutant(frame.ring)
    for s in reference_condition_subspace(frame, side).elements_by_index():
        if s not in z:
            return Verdict(False, (s,), f"condition-{side}")
    return Verdict(True, tag=f"condition-{side}")
