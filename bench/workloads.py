"""The workloads: per round, seeded input files and the command list.

A round writes every input it needs into its own directory and returns the
commands in a fixed order.  Each command gets rings of its own (fresh
rebased copies), so nothing is shared between commands, and the round's
inputs depend only on (workload, seed, round).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gates
import rebase as rb
from altring import ringio

WORKLOADS = ("analysis", "maps")

_ASSOC = {"associative": True, "alternative": True, "flexible": True,
          "linearized_flexible": True}
_ALT = dict(_ASSOC, associative=False)
_NONE = {key: False for key in _ASSOC}
_PRIME = {"by_ideals": True, "criterion_left": True, "criterion_right": True, "agree": True}
_NOT_PRIME = {"by_ideals": False, "criterion_left": False, "criterion_right": False,
              "agree": True}


def _inv(flags, nucleus, commutant, centre, unity, idempotents, tf2, tf3, primeness=None):
    out = {"flags": flags, "nucleus": nucleus, "commutant": commutant, "centre": centre,
           "unity": unity, "idempotents": idempotents,
           "torsion_free": {"2": tf2, "3": tf3}}
    if primeness is not None:
        out["primeness"] = primeness
    return out


# Isomorphism invariants of the source rings, keyed (family, k).  Sizes count
# elements; for matrix rings over a field they are the textbook values (centre
# = scalars, p^2 + p + 2 idempotents in M2(F_p)).
ANALYZE = {
    ("zorn", 2): _inv(_ALT, 2, 2, 2, True, 74, False, True, _PRIME),
    ("matrix2", 5): _inv(_ASSOC, 625, 5, 5, True, 32, True, True, _PRIME),
    ("matrix2", 7): _inv(_ASSOC, 2401, 7, 7, True, 58, True, True, _PRIME),
    ("matrix2", 4): _inv(_ASSOC, 256, 4, 4, True, 26, False, True, _NOT_PRIME),
    ("matrix2", 6): _inv(_ASSOC, 1296, 6, 6, True, 112, False, False, _NOT_PRIME),
    ("matrix2_pair", 2): _inv(_ASSOC, 256, 4, 4, True, 64, False, True, _NOT_PRIME),
    ("example1", 3): _inv(_ASSOC, 729, 9, 9, False, 16, True, False, _NOT_PRIME),
    ("example2", 3): _inv(_NONE, 9, 9, 3, False, 14, True, False, _NOT_PRIME),
    ("triangular2", 4): _inv(_ASSOC, 64, 4, 4, True, 10, False, True, _NOT_PRIME),
    ("triangular2", 2): _inv(_ASSOC, 8, 2, 2, True, 6, False, True, _NOT_PRIME),
    ("zorn", 3): _inv(_ALT, 3, 3, 3, True, 758, True, False),
    ("zorn", 5): _inv(_ALT, 5, 5, 5, True, 15752, True, True),
    ("zorn+matrix2", 2): _inv(_ALT, 32, 4, 4, True, 592, False, True),
    ("zorn+zorn", 2): _inv(_ALT, 4, 4, 4, True, 5476, False, True),
    ("matrix2+triangular2", 4): _inv(_ASSOC, 16384, 16, 16, True, 260, False, True),
    ("matrix2_pair", 6): _inv(_ASSOC, 1679616, 36, 36, True, 12544, False, False),
}

# Peirce invariants at the designated idempotent (a label of the source ring):
# component sizes (R11, R12, R21, R22), the multiplication rules and the two
# conditions (12, 21).
PEIRCE = {
    ("zorn", 3): ("e11", (3, 27, 27, 3), True, (True, True)),
    ("zorn", 5): ("e11", (5, 125, 125, 5), True, (True, True)),
    ("zorn+matrix2", 2): ("e11.1", (2, 8, 8, 32), True, (False, False)),
    ("zorn+zorn", 2): ("e11.1", (2, 8, 8, 512), True, (False, False)),
    ("matrix2+triangular2", 4): ("e11.1", (4, 4, 4, 256), True, (False, False)),
    ("matrix2_pair", 6): ("e11.1", (6, 6, 6, 7776), True, (False, False)),
    ("triangular2", 2): ("e11", (2, 2, 1, 2), True, (True, False)),
}

# Lie multiplicative bijections of the source ring onto itself: how many,
# and how many of them are additive / almost additive.
SEARCH = {
    ("matrix2", 2): {"count": 384, "additive": 48, "almost_additive": 384},
    ("triangular2", 2): {"count": 8, "additive": 4, "almost_additive": 8},
}

# Unity of each source ring used for central shifts, as a label sum.
UNITY = {"zorn": "e11+e22", "matrix2": "e11+e22"}

# Each entry ends with how many commands of that kind a round runs, each on
# its own copy: cheap commands whose cost depends on the copy (early exits,
# searches) run several times so that their mean latency is steady, and so
# does matrix2_z7, the slowest command of its workload, so that cmd_max_s
# rests on more than two runs.

# analyze with primeness: prime rings (full scans) and composite-modulus
# non-prime rings (early exit).  zorn_z3 is left out: one analyze takes about
# a minute.
PRIMENESS = [("zorn", 2, 1), ("matrix2", 5, 1), ("matrix2", 7, 2), ("matrix2", 4, 4),
             ("matrix2", 6, 1), ("matrix2_pair", 2, 2), ("example1", 3, 4),
             ("example2", 3, 4), ("triangular2", 4, 4)]
# analyze --skip-primeness and peirce: up to 1.7M elements.
STRUCTURE = [("zorn", 3, 4), ("zorn", 5, 1), ("zorn+matrix2", 2, 2), ("zorn+zorn", 2, 1),
             ("matrix2+triangular2", 4, 4), ("matrix2_pair", 6, 1)]
# verify-map: (family, k, map kind, --kind values, copies); each --kind gets
# its own map and rings.
LIE_MAPS = [
    ("zorn", 2, "iso", ["lie"], 4),
    ("zorn", 2, "shift", ["lie"], 4),
    ("zorn", 2, "swap", ["lie"], 4),
    ("zorn", 2, "derivation", ["lie-derivable", "lie-triple"], 2),
    ("matrix2", 5, "iso", ["lie"], 2),
    ("matrix2", 5, "shift", ["lie"], 2),
    ("matrix2", 5, "swap", ["lie"], 2),
    ("matrix2", 5, "derivation", ["lie-derivable"], 1),
    ("zorn+matrix2", 2, "iso", ["lie"], 1),
]
# search-maps: (family, k, --budget or None to run to completion, copies).
SEARCH_BUDGET = 2000
MAP_SEARCH = [("matrix2", 2, None, 2), ("triangular2", 2, None, 4),
              ("triangular2", 3, SEARCH_BUDGET, 4), ("triangular2", 4, SEARCH_BUDGET, 4),
              ("example1", 2, SEARCH_BUDGET, 4)]

@dataclass
class Command:
    name: str
    argv: list[str]
    gate: Callable[[dict], list[str]]


class Round:
    """Input files of one round, written under ``directory``."""

    def __init__(self, workload: str, seed: int, rnd: int, directory: str):
        self.workload, self.seed, self.rnd = workload, seed, rnd
        self.directory = directory
        self.commands: list[Command] = []

    def rng(self, *parts):
        return rb.rng_for(self.workload, self.seed, self.rnd, len(self.commands), *parts)

    def copy(self, family: str, k: int, role: str = "") -> rb.Copy:
        name = f"{family}_z{k}.r{self.rnd}c{len(self.commands)}{role}"
        return rb.rebase(rb.source_ring(family, k), name, self.rng("ring", role))

    def write_ring(self, copy: rb.Copy) -> str:
        path = os.path.join(self.directory, f"{copy.ring.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ringio.dumps_ring(copy.ring))
        return path

    def write_map(self, values, dom: rb.Copy, cod: rb.Copy, tag: str) -> str:
        path = os.path.join(self.directory, f"c{len(self.commands)}-{tag}.map.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ringio.dumps_map(values, dom.ring, cod.ring))
        return path

    def add(self, name: str, argv: list[str], gate) -> None:
        self.commands.append(Command(name, argv, gate))

    # -- command builders ---------------------------------------------------

    def analyze(self, family: str, k: int, primeness: bool) -> None:
        c = self.copy(family, k)
        argv = ["analyze", self.write_ring(c), "--format", "json"]
        if not primeness:
            argv.append("--skip-primeness")
        gate = gates.analyze_gate(ANALYZE[family, k], c.ring.table, k, primeness)
        self.add(f"analyze {family}_z{k}", argv, gate)

    def peirce(self, family: str, k: int) -> None:
        label, sizes, relations, cond = PEIRCE[family, k]
        c = self.copy(family, k)
        e = c.index([c.source.parse_element(label).coeffs])[0]
        expected = {
            "components": dict(zip(("11", "12", "21", "22"), sizes)),
            "relations": relations,
            "conditions": dict(zip(("12", "21"), cond)),
        }
        argv = ["peirce", self.write_ring(c), "--idempotent", str(int(e)), "--format", "json"]
        self.add(f"peirce {family}_z{k}", argv, gates.peirce_gate(expected, k, int(e)))

    def verify(self, family: str, k: int, kind: str, flags: list[str]) -> None:
        for flag in flags:
            if kind == "derivation":
                c = self.copy(family, k)
                values = derivation_values(c, self.rng("x"))
                paths = [self.write_ring(c), self.write_map(values, c, c, kind)]
                expected = {"ok": True, "bijective": False, "additive": True,
                            "almost_additive": True}
                if flag == "lie-derivable":
                    expected["lie_triple_derivable"] = True
            else:
                dom, cod = self.copy(family, k, "a"), self.copy(family, k, "b")
                values = iso_values(dom, cod)
                expected = {"ok": True, "bijective": True, "additive": True,
                            "almost_additive": True}
                if kind == "shift":
                    values = shifted(values, dom, UNITY[family], self.rng("shift"))
                    expected["additive"] = False
                elif kind == "swap":
                    values = swapped(values, dom, self.rng("swap"))
                    expected = {"ok": False, "bijective": True, "additive": None,
                                "almost_additive": None}
                paths = [self.write_ring(dom), self.write_ring(cod),
                         self.write_map(values, dom, cod, kind)]
            argv = ["verify-map", *paths, "--kind", flag, "--format", "json"]
            self.add(f"verify-map {kind} {family}_z{k} --kind {flag}", argv,
                     gates.verify_gate(expected))

    def search(self, family: str, k: int, budget: int | None) -> None:
        c = self.copy(family, k)
        argv = ["search-maps", self.write_ring(c), "--format", "json"]
        if budget is not None:
            argv += ["--budget", str(budget)]
        gate = gates.search_gate(SEARCH.get((family, k)), budget, c.ring.size)
        self.add(f"search-maps {family}_z{k}" + (f" --budget {budget}" if budget else ""),
                 argv, gate)


def iso_values(dom: rb.Copy, cod: rb.Copy) -> np.ndarray:
    """values[i] = index in ``cod`` of the element with index i in ``dom``:
    both are copies of one source, so this is an isomorphism."""
    e = rb.elements_matrix(dom.k, dom.ring.dim)
    return cod.index(dom.original_coords(e))


def shifted(values: np.ndarray, dom: rb.Copy, unity: str, rng) -> np.ndarray:
    """Swap the images of a and a + c for c a nonzero multiple of the unity
    and a, a + c both outside the commutator values.  That is phi plus a
    central offset vanishing on commutators, so the map stays Lie
    multiplicative and bijective, is almost additive and is not additive."""
    src, k = dom.source, dom.k
    u = np.array(src.parse_element(unity).coeffs, dtype=np.int64)
    eye = np.eye(src.dim, dtype=np.int64)
    us = np.repeat(u[None, :], src.dim, axis=0)
    if (rb.product(src.table, k, us, eye) != eye).any() or (
        rb.product(src.table, k, eye, us) != eye
    ).any():
        raise AssertionError(f"{unity} is not the unity of {src.name}")
    c = (rng.randrange(1, k) * u) % k
    comm = rb.commutator_values(src)
    e = rb.elements_matrix(k, src.dim)
    shifted_idx = ((e + c) % k) @ src.index_weights
    ok = np.nonzero(~comm & ~comm[shifted_idx])[0]
    if not len(ok):
        raise AssertionError(f"no element of {src.name} fits a central shift")
    a = int(ok[rng.randrange(len(ok))])
    ia = dom.index(e[a : a + 1])[0]
    ib = dom.index(e[shifted_idx[a] : shifted_idx[a] + 1])[0]
    out = values.copy()
    out[ia], out[ib] = values[ib], values[ia]
    return out


def swapped(values: np.ndarray, dom: rb.Copy, rng) -> np.ndarray:
    """Swap the images of two elements a, b chosen so that some y has
    [a, y] != [b, y] with y, [a, y], [b, y] outside {a, b}; then
    psi([a, y]) = phi([a, y]) != phi([b, y]) = [psi(a), psi(y)], so the
    swapped map is not Lie multiplicative."""
    src, k, d = dom.source, dom.k, dom.source.dim
    e = rb.elements_matrix(k, d)
    w = src.index_weights
    while True:
        a, b = rng.randrange(1, src.size), rng.randrange(1, src.size)
        if a == b:
            continue
        ys = e[[rng.randrange(src.size) for _ in range(64)]]
        ca = _comm(src, np.repeat(e[a : a + 1], len(ys), 0), ys) @ w
        cb = _comm(src, np.repeat(e[b : b + 1], len(ys), 0), ys) @ w
        yi = ys @ w
        good = (ca != cb) & ~np.isin(ca, (a, b)) & ~np.isin(cb, (a, b)) & ~np.isin(yi, (a, b))
        if good.any():
            break
    ia, ib = dom.index(e[[a, b]])
    out = values.copy()
    out[ia], out[ib] = values[ib], values[ia]
    return out


def _comm(src, x, y):
    return (rb.product(src.table, src.modulus, x, y)
            - rb.product(src.table, src.modulus, y, x)) % src.modulus


def derivation_values(c: rb.Copy, rng) -> np.ndarray:
    """The inner derivation y -> [x, y] of the copy, for a seeded x that
    does not commute with every basis element.  The sources used are
    associative, or alternative of characteristic 2 (where the Jacobian is
    6 (x, y, z) = 0), so their commutator algebras are Lie algebras and
    every inner derivation is Lie derivable and Lie triple derivable."""
    src, k, d = c.source, c.k, c.source.dim
    eye = np.eye(d, dtype=np.int64)
    while True:
        x = rb.elements_matrix(k, d)[rng.randrange(1, src.size)]
        if _comm(src, np.repeat(x[None, :], d, 0), eye).any():
            break
    e = rb.elements_matrix(k, d)
    images = _comm(src, np.repeat(x[None, :], len(e), 0), e)
    values = np.empty(src.size, dtype=np.int64)
    values[c.index(e)] = c.index(images)
    return values


def build_round(workload: str, seed: int, rnd: int, directory: str) -> list[Command]:
    """Write the inputs of one round and return its commands in order."""
    r = Round(workload, seed, rnd, directory)
    if workload == "analysis":
        for family, k, copies in PRIMENESS:
            for _ in range(copies):
                r.analyze(family, k, primeness=True)
        for family, k, copies in STRUCTURE:
            for _ in range(copies):
                r.analyze(family, k, primeness=False)
                r.peirce(family, k)
    elif workload == "maps":
        for family, k, kind, flags, copies in LIE_MAPS:
            for _ in range(copies):
                r.verify(family, k, kind, flags)
        for family, k, budget, copies in MAP_SEARCH:
            for _ in range(copies):
                r.search(family, k, budget)
    elif workload == "warmup":  # every command kind once, on tiny rings
        r.analyze("triangular2", 2, primeness=True)
        r.peirce("triangular2", 2)
        r.verify("triangular2", 2, "iso", ["lie"])
        r.verify("triangular2", 2, "derivation", ["lie-derivable"])
        r.search("triangular2", 2, None)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return r.commands
