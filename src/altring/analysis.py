"""Structural analysis of finite nonassociative rings.

Decision procedures for associativity, alternativity, flexibility, nucleus,
centre, torsion, idempotents, Peirce decompositions, the two centralising
conditions at an idempotent, and primeness (by the ideal-pair definition and
by the annihilator criteria).  All procedures are exact: the identity laws
are read off one associator tensor A[i, j, l] = (b_i*b_j)*b_l - b_i*(b_j*b_l)
on basis triples (trilinear laws) or at x = b_p and x = b_p + b_q, diagonal
plus linearisation (laws quadratic in x); subspace conditions are decided by
Howell-form linear algebra over Z/kZ.  Elementwise enumeration appears only
where the property is genuinely nonlinear (squares of component elements,
witnesses, and one element per unit line in the primeness scans).

Witness policy: scans run in ascending element-index order, so a reported
witness is the first counterexample the documented scan meets and reports
are deterministic: the least failing basis triple, or the least candidate x,
then the least basis y, the left alternative law before the right one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import zmod
from .core import _INT64_MAX, Element, RingSpec, Submodule


@dataclass(frozen=True)
class Verdict:
    """Outcome of a yes/no check; a failed check carries a counterexample."""

    ok: bool
    witness: tuple[Element, ...] | None = None
    tag: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def witness_indices(self) -> list[int] | None:
        if self.witness is None:
            return None
        return [w.index for w in self.witness]

    def to_doc(self) -> dict:
        """JSON form: ``ok``, then the witness indices and labels, then the tag."""
        doc = {"ok": bool(self.ok)}
        if self.witness is not None:
            doc["witness"] = {
                "indices": self.witness_indices(),
                "labels": [w.label() for w in self.witness],
            }
        if self.tag:
            doc["tag"] = self.tag
        return doc


class PeirceError(ValueError):
    """The requested Peirce decomposition does not exist or is degenerate."""


def _product_tensors(ring: RingSpec) -> tuple[np.ndarray, np.ndarray]:
    """(b_i*b_j)*b_l and b_i*(b_j*b_l) at [i, j, l], each shape (d, d, d, d).
    The identity checks, the nucleus and both primeness criteria all read them."""
    t, k = ring.table, ring.modulus
    return ring._cached(
        "products",
        lambda: (np.einsum("ijm,mlr->ijlr", t, t) % k, np.einsum("jlm,imr->ijlr", t, t) % k),
    )


def _associator_tensor(ring: RingSpec) -> np.ndarray:
    """A[i, j, l] = (b_i*b_j)*b_l - b_i*(b_j*b_l), shape (d, d, d, d)."""
    outer, inner = _product_tensors(ring)
    return (outer - inner) % ring.modulus


def _first_failure(values: np.ndarray) -> tuple[int, ...] | None:
    """Position of the first nonzero vector (last axis) in C order, if any."""
    hits = np.flatnonzero(values.any(axis=-1))
    if not hits.size:
        return None
    return tuple(int(p) for p in np.unravel_index(hits[0], values.shape[:-1]))


def _basis_triple_verdict(ring: RingSpec, values: np.ndarray, tag: str) -> Verdict:
    """Verdict of a trilinear law whose value at (b_i, b_j, b_l) is values[i, j, l].

    Basis element b_p has index k**(d-1-p), so reversing every axis scans
    the triples in ascending element-index order."""
    hit = _first_failure(values[::-1, ::-1, ::-1])
    if hit is None:
        return Verdict(True)
    return Verdict(False, tuple(ring.basis_element(ring.dim - 1 - p) for p in hit), tag)


def _quadratic_failure(ring: RingSpec, laws) -> tuple[Element, Element, int] | None:
    """First (x, y, law number) at which a law quadratic in x fails, or None.

    Each law is an array Q with Q[p, q, j] its value when the two x slots
    hold b_p and b_q and y = b_j, so its value at x = b_p + b_q is
    Q[p, p, j] + Q[q, q, j] + Q[p, q, j] + Q[q, p, j].  The scan runs over x
    ascending by element index, then y, then the laws in the given order.
    """
    d, k = ring.dim, ring.modulus
    eye = np.eye(d, dtype=np.int64)
    p, q = np.triu_indices(d)
    # eye[p] | eye[q] is the coefficient vector of b_p (p == q) or b_p + b_q
    order = np.argsort((eye[p] | eye[q]) @ ring.index_weights)
    p, q = p[order], q[order]
    single = (p == q)[:, None, None]
    values = [
        np.where(single, law[p, p], law[p, p] + law[q, q] + law[p, q] + law[q, p]) % k
        for law in laws
    ]
    hit = _first_failure(np.stack(values, axis=2)[:, ::-1])
    if hit is None:
        return None
    c, j, law = hit
    return ring.element(eye[p[c]] | eye[q[c]]), ring.basis_element(d - 1 - j), law


def is_associative(ring: RingSpec) -> Verdict:
    """Vanishing of the associator, decided on basis triples (exact by
    trilinearity).  For a failing ring the witness is the least failing
    basis triple in ascending element-index order."""
    return _basis_triple_verdict(ring, _associator_tensor(ring), "associator")


def is_alternative(ring: RingSpec) -> Verdict:
    """The alternative laws (x,x,y) = 0 = (y,x,x).

    (x,x,y) is quadratic in x, so basis diagonals plus linearisations decide
    it exactly with no torsion hypothesis; both are covered by evaluating at
    basis elements and two-term basis sums.
    """
    a = _associator_tensor(ring)
    hit = _quadratic_failure(ring, [a, a.transpose(1, 2, 0, 3)])
    if hit is None:
        return Verdict(True)
    x, y, law = hit
    if law == 0:
        return Verdict(False, (x, x, y), "left-alternative")
    return Verdict(False, (y, x, x), "right-alternative")


def is_flexible(ring: RingSpec) -> Verdict:
    """The flexible law (x, y, x) = 0, by the same quadratic basis criterion."""
    hit = _quadratic_failure(ring, [_associator_tensor(ring).transpose(0, 2, 1, 3)])
    if hit is None:
        return Verdict(True)
    x, y, _ = hit
    return Verdict(False, (x, y, x), "flexible")


def check_linearized_flexible(ring: RingSpec) -> Verdict:
    """The linearised flexible identity (x,y,z) + (z,y,x) = 0 on basis triples."""
    a = _associator_tensor(ring)
    return _basis_triple_verdict(
        ring, (a + a.transpose(2, 1, 0, 3)) % ring.modulus, "linearized-flexible"
    )


def nucleus(ring: RingSpec) -> Submodule:
    """Elements u with (u,x,y) = (x,u,y) = (x,y,u) = 0 for all x, y.

    Each slot condition is linear in u, so the kernel of the associator
    tensor with u's slot moved to the columns is exact.
    """
    a = _associator_tensor(ring)
    rows = [np.moveaxis(a, slot, -1).reshape(-1, ring.dim) for slot in range(3)]
    return Submodule(ring, zmod.kernel(np.vstack(rows), ring.modulus))


def commutant(ring: RingSpec) -> Submodule:
    """Elements commuting with everything: {r : [r, x] = 0 for all x}.

    This is the subgroup the centralising conditions are measured against;
    for 3-torsion-free alternative rings it coincides with the centre.
    """
    # row (x, l), column u: the l-th coefficient of u*b_x - b_x*u
    t = ring.table
    rows = (t - t.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(-1, ring.dim)
    return Submodule(ring, zmod.kernel(rows, ring.modulus))


def centre(ring: RingSpec) -> Submodule:
    """Nucleus elements commuting with everything.  The ring keeps its rows,
    not a Submodule: that would refer back to the ring, a cycle."""
    return Submodule(ring, ring._cached("centre", lambda: (nucleus(ring) & commutant(ring)).rows))


def _least_nonzero(sub: Submodule) -> Element:
    """Least nonzero element of a nonzero submodule in element-index order."""
    # Howell pivots increase and rows pivoting at >= c span all elements leading there.
    return sub.ring.element(sub.rows[-1])


def is_k_torsion_free(ring: RingSpec, k: int) -> Verdict:
    """Does k*x = 0 force x = 0?  Decided by the kernel of multiplication by
    k on the additive group, not by a gcd shortcut."""
    if k < 1:
        raise ValueError("torsion parameter must be >= 1")
    mat = (k % ring.modulus) * np.eye(ring.dim, dtype=np.int64)
    ker = Submodule(ring, zmod.kernel(mat, ring.modulus))
    if ker.is_zero():
        return Verdict(True)
    return Verdict(False, (_least_nonzero(ker),), f"{k}-torsion")


def _mul_operators(ring: RingSpec) -> np.ndarray:
    """The L_{b_i}, then the R_{b_i}, as (2d, d, d) matrices on coefficient columns."""
    t = ring.table
    return np.concatenate([t.transpose(0, 2, 1), t.transpose(1, 2, 0)])


def _multiplication_algebra(ring: RingSpec) -> np.ndarray:
    """Howell basis (r, d, d) of M(R), the unital Z/kZ-algebra generated by the
    L_{b_i} and R_{b_i}: the span of I, multiplied by the generators on the left
    until it stops growing."""

    def build():
        d, k, gens = ring.dim, ring.modulus, _mul_operators(ring)
        rows, nxt = None, np.eye(d, dtype=np.int64).reshape(1, -1)
        while not np.array_equal(rows, nxt):
            rows = nxt
            prods = np.einsum("gij,rjl->gril", gens, rows.reshape(-1, d, d)).reshape(-1, d * d)
            nxt = zmod.howell(np.vstack([rows, prods]), k, width=d * d)
        return rows.reshape(-1, d, d)

    return ring._cached("mult_algebra", build)


def find_unity(ring: RingSpec) -> Element | None:
    """The unique two-sided unity, if one exists: the u with L_{b_i} u = b_i
    and R_{b_i} u = b_i for every i (a linear system in u)."""
    target = np.tile(np.eye(ring.dim, dtype=np.int64).ravel(), 2)
    sol = zmod.solve(_mul_operators(ring).reshape(-1, ring.dim), target, ring.modulus)
    return None if sol is None else ring.element(sol)


def _squares(ring: RingSpec, e: np.ndarray) -> np.ndarray:
    """x*x mod k for every row x of e."""
    return np.einsum("ai,ijl,aj->al", e, ring.table, e, optimize=True) % ring.modulus


# (u, v) pairs per block of the idempotent scan.
_IDEMPOTENT_BLOCK = 1 << 18


def _idempotent_rows(ring: RingSpec) -> np.ndarray:
    """Coefficient rows of all e with e*e = e, ascending by element index.

    Each x splits as u + v, u on the high h digits and v on the low m = d//2,
    so index(x) = index(u)*k**m + index(v) and
    x*x - x = (u*u - u) + (v*v - v) + A_u v, with A_u = L_u + R_u on the low
    basis columns (linear in u).  The squares and A_u are computed for the
    k**h values of u and the k**m values of v only; a block of (u, v) pairs
    is one matmul for coordinate 0, and the other coordinates are checked
    only where it vanishes.  Every sum is at most 2(k-1) + m(k-1)**2.
    """
    d, k, t = ring.dim, ring.modulus, ring.table
    m = d // 2
    h = d - m
    u, v = ring._digit_rows(0, h), ring._digit_rows(h, d)
    su, sv = (_squares(ring, u) - u) % k, (_squares(ring, v) - v) % k
    a = np.einsum("ui,ijl->ulj", u[:, :h], (t + t.transpose(1, 0, 2))[:h, h:]) % k
    low = v[:, h:]
    hits = []
    step = max(1, _IDEMPOTENT_BLOCK // len(v))
    for lo in range(0, len(u), step):
        c0 = (a[lo : lo + step, 0] @ low.T + su[lo : lo + step, :1] + sv[:, 0]) % k
        iu, iv = np.divmod(np.flatnonzero(c0 == 0), len(v))
        iu += lo
        for l in range(1, d):
            keep = (su[iu, l] + sv[iv, l] + (a[iu, l] * low[iv]).sum(axis=1)) % k == 0
            iu, iv = iu[keep], iv[keep]
        hits.append(u[iu] + v[iv])
    return np.concatenate(hits)


def _prime_power_factors(k: int) -> list[int]:
    """The powers of distinct primes whose product is k, by ascending prime."""
    factors, p = [], 2
    while p * p <= k:
        if k % p == 0:
            q = 1
            while k % p == 0:
                k, q = k // p, q * p
            factors.append(q)
        p += 1
    return factors + [k] if k > 1 else factors


def idempotents(ring: RingSpec) -> np.ndarray:
    """Element indices of all e with e*e = e, as an ascending 1-D int64 array.

    Write k = q_1*...*q_r with the q_i powers of distinct primes.  Then the
    ring is the product of the rings R/q_iR, whose tables are table mod q_i
    in the same basis, so x is idempotent exactly when every x mod q_i is
    (Chinese remainder theorem, coefficient by coefficient; no unity or
    associativity is needed).  Each factor ring is scanned on its own
    (``_idempotent_rows``), which covers sum q_i**d elements rather than
    k**d, and the factor lists combine as x = sum c_i x_i mod k, with
    c_i = 1 mod q_i and c_i = 0 mod k/q_i.  At a prime-power k the one
    factor is the ring itself and c = 1.
    """
    d, k = ring.dim, ring.modulus
    x = np.zeros((1, d), dtype=np.int64)
    for q in _prime_power_factors(k):
        factor = ring if q == k else RingSpec(ring.name, q, ring.basis_labels, ring.table % q)
        c = k // q * pow(k // q, -1, q)
        x = (x[:, None] + c * _idempotent_rows(factor)).reshape(-1, d) % k
    return np.sort(x @ ring.index_weights)


def nontrivial_idempotents(ring: RingSpec) -> np.ndarray:
    """Ascending element indices of the idempotents other than 0 and the
    unity (when one exists)."""
    idem, unity = idempotents(ring), find_unity(ring)
    return idem[~np.isin(idem, [0] if unity is None else [0, unity.index])]


def _peirce_projections(
    lm: np.ndarray, rm: np.ndarray, k: int
) -> dict[tuple[int, int], np.ndarray]:
    """The four Peirce projections at e1 as d x d matrices on coefficient
    columns, from L = L_{e1} and R = R_{e1}: P11 = LR (a -> e1(ae1)),
    P12 = L - P11, P21 = R - P11 and P22 = I - L - R + P11, all mod k."""
    p11 = lm @ rm % k
    p22 = (np.eye(len(lm), dtype=np.int64) - lm - rm + p11) % k
    return {(1, 1): p11, (1, 2): (lm - p11) % k, (2, 1): (rm - p11) % k, (2, 2): p22}


@dataclass(frozen=True)
class PeirceFrame:
    """The four components R11, R12, R21, R22 of a ring at an idempotent e1,
    with their projections; ``subspaces`` caches ``condition_subspace``."""

    ring: RingSpec
    e1: Element
    r11: Submodule
    r12: Submodule
    r21: Submodule
    r22: Submodule
    subspaces: dict[str, Submodule] = field(default_factory=dict, compare=False, repr=False)

    def component(self, i: int, j: int) -> Submodule:
        return {(1, 1): self.r11, (1, 2): self.r12, (2, 1): self.r21, (2, 2): self.r22}[
            (i, j)
        ]

    def project(self, a: Element) -> dict[tuple[int, int], Element]:
        lm, rm = self.ring.left_mul_matrix(self.e1), self.ring.right_mul_matrix(self.e1)
        projections = _peirce_projections(lm, rm, self.ring.modulus)
        return {key: self.ring.element(p @ a.vector()) for key, p in projections.items()}

    def diagonal_sum(self) -> Submodule:
        return self.r11 + self.r22


def peirce(ring: RingSpec, e1: Element) -> PeirceFrame:
    """Peirce decomposition at a nontrivial idempotent.

    Raises PeirceError if e1 is not a nontrivial idempotent, if the
    compatibility identity (e1*a)*e1 = e1*(a*e1) fails (the projections
    would be ambiguous), or if two components overlap.  The components
    always span the ring: the four projections sum to the identity.
    """
    if ring != e1.ring:
        raise PeirceError("idempotent belongs to a different ring")
    if e1.is_zero():
        raise PeirceError("the zero element is not a usable idempotent")
    k, eye = ring.modulus, np.eye(ring.dim, dtype=np.int64)
    lm, rm = ring.left_mul_matrix(e1), ring.right_mul_matrix(e1)
    if (lm @ e1.vector() % k != e1.vector()).any():
        raise PeirceError(f"{e1.label()} is not an idempotent")
    # e1 is the unity exactly when e1*b = b = b*e1 for every basis element b
    if np.array_equal(lm, eye) and np.array_equal(rm, eye):
        raise PeirceError("the unity is a trivial idempotent")
    # column b of RL - LR is (e1*b)*e1 - e1*(b*e1)
    hit = _first_failure(((rm @ lm - lm @ rm) % k).T)
    if hit is not None:
        raise PeirceError(
            f"compatibility (e1*a)*e1 = e1*(a*e1) fails at a = {ring.basis_labels[hit[0]]}"
        )

    # Components are spanned by the basis projections (projections are linear).
    projections = _peirce_projections(lm, rm, k)
    subs = {key: Submodule(ring, zmod.howell(p.T, k)) for key, p in projections.items()}
    keys = list(subs)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            if not (subs[keys[a]] & subs[keys[b]]).is_zero():
                raise PeirceError(
                    f"components R{keys[a][0]}{keys[a][1]} and R{keys[b][0]}{keys[b][1]} overlap"
                )
    return PeirceFrame(ring, e1, subs[(1, 1)], subs[(1, 2)], subs[(2, 1)], subs[(2, 2)])


def check_peirce_relations(frame: PeirceFrame) -> Verdict:
    """The multiplication rules of the decomposition:

    (i)   Rij * Rjl inside Ril,
    (ii)  Rij * Rij inside Rji,
    (iii) Rij * Rkl = 0 when j != k and (i,j) != (k,l),
    (iv)  x*x = 0 for every element x of an off-diagonal component.

    (i)-(iii) are bilinear so products of Howell basis rows suffice, one
    batch per component pair; (iv) is quadratic and runs over every
    component element.
    """
    ring, k = frame.ring, frame.ring.modulus
    for (i, j) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for (kk, l) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            a = frame.component(i, j).rows
            b = frame.component(kk, l).rows
            if j == kk:
                target, tag = frame.component(i, l), f"R{i}{j}*R{kk}{l}<=R{i}{l}"
            elif (i, j) == (kk, l):
                target, tag = frame.component(j, i), f"R{i}{j}*R{i}{j}<=R{j}{i}"
            else:
                target, tag = Submodule.zero(ring), f"R{i}{j}*R{kk}{l}=0"
            prods = np.einsum("xi,ijl,yj->xyl", a, ring.table, b) % k
            hit = _first_failure(zmod.reduce_mod_span(target.rows, prods, k))
            if hit is not None:
                return Verdict(False, (ring.element(a[hit[0]]), ring.element(b[hit[1]])), tag)
    for (i, j) in [(1, 2), (2, 1)]:
        elems = frame.component(i, j).elements_matrix()
        hit = _first_failure(_squares(ring, elems))
        if hit is not None:
            x = ring.element(elems[hit[0]])
            return Verdict(False, (x, x), f"square in R{i}{j}")
    return Verdict(True)


def condition_subspace(frame: PeirceFrame, side: str) -> Submodule:
    """{s in R11 + R22 : [s, C] = 0} for C the off-diagonal component named
    by ``side`` ("12" or "21"); exact by bilinearity of the bracket."""
    if side not in ("12", "21"):
        raise ValueError("side must be '12' or '21'")
    if side not in frame.subspaces:
        comp = frame.r12 if side == "12" else frame.r21
        ring, t = frame.ring, frame.ring.table
        # row (c, l), column i: the l-th coefficient of [b_i, c] for Howell rows c
        rows = np.einsum("ijl,cj->cli", t - t.transpose(1, 0, 2), comp.rows).reshape(-1, ring.dim)
        ker = Submodule(ring, zmod.kernel(rows, ring.modulus))
        frame.subspaces[side] = frame.diagonal_sum() & ker
    return frame.subspaces[side]


def check_condition(frame: PeirceFrame, side: str) -> Verdict:
    """Does [s, C] = 0 for s in R11 + R22 force s to commute with the whole
    ring?

    Membership is tested against the commutant rather than the
    nucleus-intersected centre: the bracket computations the theorems rest
    on use commutation only, and for 3-torsion-free alternative rings the
    two notions agree anyway.
    """
    sub = condition_subspace(frame, side)
    z = commutant(frame.ring)
    if z.contains_submodule(sub):
        return Verdict(True, tag=f"condition-{side}")
    elems = sub.elements_matrix()
    outside = elems[~zmod.member(z.rows, elems, frame.ring.modulus)]
    return Verdict(False, (frame.ring.element(outside[0]),), f"condition-{side}")


def ideal_generated(ring: RingSpec, a: Element) -> Submodule:
    """Two-sided ideal generated by a: the span of M(R)·a, one Howell.  Its
    elements are sums of words in the L_{b_i} and R_{b_i} applied to a."""
    rows = zmod.howell(_multiplication_algebra(ring) @ a.vector(), ring.modulus, width=ring.dim)
    return Submodule(ring, rows)


def _least_annihilated(
    ring: RingSpec, partners, tag: str, start: int = 1, stop: int | None = None
) -> Verdict:
    """Verdict(False, (a, least nonzero of partners(a)), tag) at the least a in
    [start, stop) (default: every nonzero a) whose partners(a) is nonzero,
    None meaning a is already covered; else Verdict(True).  Only a whose
    leading coefficient c divides k are visited: otherwise u*c = gcd(c, k) < c
    for a unit u (zmod.unit_multiplier), and u*a is smaller, with the same
    ideal and the same annihilators."""
    k, lead = ring.modulus, 1  # lead: the place value of a's leading digit
    while lead * k <= start:
        lead *= k
    for a in range(start, ring.size if stop is None else stop):
        if a == lead * k:
            lead = a
        if k % (a // lead):
            continue
        ker = partners(a)
        if ker is not None and not ker.is_zero():
            return Verdict(False, (ring.from_index(a), _least_nonzero(ker)), tag)
    return Verdict(True)


def _is_prime(k: int) -> bool:
    return k > 1 and all(k % p for p in range(2, math.isqrt(k) + 1))


def is_prime_by_ideals(ring: RingSpec) -> Verdict:
    """Primeness by the definition: no two nonzero ideals multiply to zero.

    It suffices to scan principal ideals: every nonzero ideal contains one,
    and elements generating the same ideal have the same partners, so each
    distinct ideal is tried once, as its least generator a.  ideal(b) is
    spanned by the m·b for m in M(R), so the partners b of a form one kernel;
    its least nonzero element is the least partner, and no smaller element
    generates its ideal.  Witness: the least element pair (a, b) with
    ideal(a)*ideal(b) = 0.

    At prime k with M(R) = End(R) (d**2 Howell rows), every nonzero a
    generates R (Burnside), so the scan stops after a = 1.
    """
    d, mult = ring.dim, _multiplication_algebra(ring)
    # row p, column (m, j): coefficient p of m b_j for a Howell row m of M(R)
    mult_cols = mult.transpose(1, 0, 2).reshape(d, -1)
    seen: set[Submodule] = set()
    def partners(a: int) -> Submodule | None:
        ideal = ideal_generated(ring, ring.from_index(a))
        if ideal in seen:
            return None
        seen.add(ideal)
        # w[i, l, p]: coefficient l of i*b_p for a Howell row i of ideal(a)
        w = np.einsum("ri,ipl->rlp", ideal.rows, ring.table) % ring.modulus
        # row (i, m, l), column j: coefficient l of i*(m b_j); d terms of at most (k-1)**2
        rows = (w.reshape(-1, d) @ mult_cols).reshape(len(w), d, -1, d).transpose(0, 2, 1, 3)
        return Submodule(ring, zmod.kernel(rows.reshape(-1, d), ring.modulus))

    burnside = _is_prime(ring.modulus) and len(mult) == d * d
    return _least_annihilated(ring, partners, "ideal-pair", stop=2 if burnside else None)


# Most entries in one (d*d, d, chunk) stack of the batched rank test.
_RANK_BLOCK = 1 << 18


def _first_rank_deficient(stack: np.ndarray, k: int) -> int | None:
    """Least i with rank(stack[:, :, i]) < d over the field Z/kZ (k prime), or
    None.  ``stack`` is (m, d, b): b matrices of m >= d rows, batch last, so
    each step is one contiguous array operation; it is reduced mod k and is
    overwritten.

    One fraction-free elimination runs on the whole stack, a column c at a
    time: the first row with a nonzero entry p at c becomes the pivot, and
    every later row takes row <- p*row - e*pivot (e its entry at c), reduced
    only when the next step could leave int64.  A column with no pivot
    leaves rank < d.
    """
    m, d, b = stack.shape
    at = np.arange(b)
    deficient = np.zeros(b, dtype=bool)
    bound = k - 1  # on |entry| of the rows still to eliminate
    for c in range(d):
        col = stack[c:, c] % k
        nonzero = col != 0
        deficient |= ~nonzero.any(axis=0)
        piv = nonzero.argmax(axis=0)
        p = col[piv, at]
        pivot = stack[c + piv, c + 1 :, at].T % k
        stack[c + piv, c + 1 :, at] = stack[c, c + 1 :].T
        col[piv, at] = col[0]
        rest = stack[c + 1 :, c + 1 :]
        if (k - 1) * (bound + k - 1) > _INT64_MAX:
            rest %= k
            bound = k - 1
        rest *= p
        rest -= col[1:, None] * pivot
        bound = (k - 1) * (bound + k - 1)
    hits = np.flatnonzero(deficient)
    return int(hits[0]) if hits.size else None


def _least_rank_deficient(ring: RingSpec, per_coeff: np.ndarray) -> int | None:
    """At prime k, the least a with leading coefficient 1 whose M(a) has rank
    < d, or None.  These a fill the index ranges [k**t, 2*k**t); the j-th of
    them in index order is k**t + j - (k**t - 1)/(k - 1) for the t whose
    range holds it.  They are taken in chunks of 1, 4, 16, ... of them, up
    to about _RANK_BLOCK entries, so a scan that stops early stays short."""
    k, d = ring.modulus, ring.dim
    powers = k ** np.arange(d + 1, dtype=np.int64)
    first = (powers - 1) // (k - 1)  # position of k**t among them
    cap = max(1, _RANK_BLOCK // d**3)
    lo, step = 0, 1
    while lo < first[-1]:
        j = np.arange(lo, min(lo + step, first[-1]))
        t = np.searchsorted(first, j, side="right") - 1
        a = powers[t] + j - first[t]
        vectors = a[:, None] // ring.index_weights % k
        hit = _first_rank_deficient((per_coeff.T @ vectors.T % k).reshape(d * d, d, -1), k)
        if hit is not None:
            return int(a[hit])
        lo, step = lo + step, min(4 * step, cap)
    return None


def prime_criterion(ring: RingSpec, variant: str = "left") -> Verdict:
    """The annihilator criterion: a R * b = 0 (variant "left") or
    a * R b = 0 (variant "right") forces a = 0 or b = 0.

    For fixed a the annihilating b form the kernel of M(a), which is linear
    in a: its row (j, l), column m is the l-th coefficient of (a*b_j)*b_m
    (left) or a*(b_j*b_m) (right), read off one product tensor.  At prime k
    that kernel is nonzero exactly when rank M(a) < d, so a batched rank test
    finds the least such a and only its kernel is computed.  Witness:
    (a, least nonzero annihilating b).
    """
    if variant not in ("left", "right"):
        raise ValueError("variant must be 'left' or 'right'")
    k, d = ring.modulus, ring.dim
    outer, inner = _product_tensors(ring)
    per_coeff = (outer if variant == "left" else inner).transpose(0, 1, 3, 2).reshape(d, -1)
    def annihilators(a: int) -> Submodule:
        m = (ring.from_index(a).vector() @ per_coeff) % k
        return Submodule(ring, zmod.kernel(m.reshape(-1, d), k))

    start = 1
    if _is_prime(k):
        a = _least_rank_deficient(ring, per_coeff)
        start = ring.size if a is None else a
    return _least_annihilated(ring, annihilators, f"criterion-{variant}", start=start)


@dataclass
class AnalysisReport:
    """Aggregated structural report for one ring."""

    ring: RingSpec
    associative: Verdict
    alternative: Verdict
    flexible: Verdict
    linearized_flexible: Verdict
    nucleus: Submodule
    commutant: Submodule
    centre: Submodule
    unity: Element | None
    idempotents: np.ndarray  # ascending element indices, int64
    torsion_free: dict[int, Verdict]
    prime_by_ideals: Verdict | None
    prime_criterion_left: Verdict | None
    prime_criterion_right: Verdict | None

    @property
    def primeness_agree(self) -> bool | None:
        parts = [
            self.prime_by_ideals,
            self.prime_criterion_left,
            self.prime_criterion_right,
        ]
        if any(p is None for p in parts):
            return None
        return len({p.ok for p in parts}) == 1

    def to_dict(self) -> dict:
        def optional_doc(v: Verdict | None):
            return None if v is None else v.to_doc()

        return {
            "ring": {
                "name": self.ring.name,
                "modulus": int(self.ring.modulus),
                "dim": int(self.ring.dim),
                "basis": list(self.ring.basis_labels),
            },
            "flags": {
                "associative": bool(self.associative.ok),
                "alternative": bool(self.alternative.ok),
                "flexible": bool(self.flexible.ok),
                "linearized_flexible": bool(self.linearized_flexible.ok),
            },
            "checks": {
                "associative": self.associative.to_doc(),
                "alternative": self.alternative.to_doc(),
                "flexible": self.flexible.to_doc(),
                "linearized_flexible": self.linearized_flexible.to_doc(),
            },
            "nucleus": self.nucleus.rows.tolist(),
            "commutant": self.commutant.rows.tolist(),
            "centre": self.centre.rows.tolist(),
            "unity": None if self.unity is None else int(self.unity.index),
            "idempotents": self.idempotents.tolist(),
            "torsion_free": {
                str(k): v.to_doc() for k, v in sorted(self.torsion_free.items())
            },
            "primeness": {
                "by_ideals": optional_doc(self.prime_by_ideals),
                "criterion_left": optional_doc(self.prime_criterion_left),
                "criterion_right": optional_doc(self.prime_criterion_right),
                "agree": self.primeness_agree,
            },
        }


def analyze(
    ring: RingSpec, torsion: tuple[int, ...] = (2, 3), primeness: bool = True
) -> AnalysisReport:
    """Run the full battery of structural checks on one ring."""
    nuc, com = nucleus(ring), commutant(ring)
    return AnalysisReport(
        ring=ring,
        associative=is_associative(ring),
        alternative=is_alternative(ring),
        flexible=is_flexible(ring),
        linearized_flexible=check_linearized_flexible(ring),
        nucleus=nuc,
        commutant=com,
        centre=nuc & com,
        unity=find_unity(ring),
        idempotents=idempotents(ring),
        torsion_free={k: is_k_torsion_free(ring, k) for k in torsion},
        prime_by_ideals=is_prime_by_ideals(ring) if primeness else None,
        prime_criterion_left=prime_criterion(ring, "left") if primeness else None,
        prime_criterion_right=prime_criterion(ring, "right") if primeness else None,
    )
