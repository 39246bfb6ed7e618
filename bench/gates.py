"""Per-command correctness gates.

Each gate takes the parsed JSON report of one command and returns a list of
problems (empty when the report is right).  Expectations are isomorphism
invariants of the source ring or verdicts that hold by construction of the
input, so they do not depend on the seed.  Where it is cheap, a reported
element is also checked directly against the structure constants of the copy
with numpy, independently of the program (idempotents, unity).
"""

from __future__ import annotations

import math

import numpy as np

from rebase import coords_of, product


def span_size(rows, k: int) -> int:
    """Elements in the span of rows in Howell form: each row's pivot p adds
    a factor k / gcd(p, k)."""
    n = 1
    for row in rows:
        pivot = next(int(c) for c in row if c)
        n *= k // math.gcd(pivot, k)
    return n


def _compare(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: expected {want!r}, got {got!r}")


def _check_witness(problems: list[str], what: str, verdict) -> None:
    if not isinstance(verdict, dict) or "ok" not in verdict:
        problems.append(f"{what}: malformed verdict {verdict!r}")
    elif not verdict["ok"] and "witness" not in verdict:
        problems.append(f"{what}: failed without a witness")


def analyze_gate(expected: dict, table: np.ndarray, k: int, primeness: bool):
    """Gate for ``analyze --format json`` on a copy with structure constants
    ``table``."""
    d = table.shape[0]

    def gate(doc: dict) -> list[str]:
        problems: list[str] = []
        _compare(problems, "modulus", doc["ring"]["modulus"], k)
        _compare(problems, "dim", doc["ring"]["dim"], d)
        _compare(problems, "flags", doc["flags"], expected["flags"])
        for name, verdict in doc["checks"].items():
            _check_witness(problems, f"checks.{name}", verdict)
        for name in ("nucleus", "commutant", "centre"):
            _compare(problems, f"{name} size", span_size(doc[name], k), expected[name])
        tf = {key: v["ok"] for key, v in doc["torsion_free"].items()}
        _compare(problems, "torsion_free", tf, expected["torsion_free"])

        unity = doc["unity"]
        _compare(problems, "unity present", unity is not None, expected["unity"])
        if unity is not None:
            u = np.repeat(coords_of([unity], k, d), d, axis=0)
            eye = np.eye(d, dtype=np.int64)
            if (product(table, k, u, eye) != eye).any() or (
                product(table, k, eye, u) != eye
            ).any():
                problems.append(f"unity {unity} is not a two-sided unity")

        idem = doc["idempotents"]
        _compare(problems, "idempotent count", len(idem), expected["idempotents"])
        if idem != sorted(set(idem)):
            problems.append("idempotents not strictly ascending")
        elif idem:
            e = coords_of(idem, k, d)
            if (product(table, k, e, e) != e).any():
                problems.append("a listed idempotent does not square to itself")

        prime = doc["primeness"]
        if primeness:
            for name in ("by_ideals", "criterion_left", "criterion_right"):
                _check_witness(problems, f"primeness.{name}", prime[name])
            got = {
                name: (v["ok"] if isinstance(v, dict) else v) for name, v in prime.items()
            }
            _compare(problems, "primeness", got, expected["primeness"])
        else:
            _compare(problems, "primeness skipped", prime,
                     {"by_ideals": None, "criterion_left": None,
                      "criterion_right": None, "agree": None})
        return problems

    return gate


def peirce_gate(expected: dict, k: int, e_index: int):
    def gate(doc: dict) -> list[str]:
        problems: list[str] = []
        _compare(problems, "idempotent", doc["idempotent"]["index"], e_index)
        sizes = {key: span_size(rows, k) for key, rows in doc["components"].items()}
        _compare(problems, "component sizes", sizes, expected["components"])
        _check_witness(problems, "relations", doc["relations"])
        _compare(problems, "relations", doc["relations"]["ok"], expected["relations"])
        conds = {side: doc["conditions"][side]["ok"] for side in ("12", "21")}
        _compare(problems, "conditions", conds, expected["conditions"])
        return problems

    return gate


def verify_gate(expected: dict):
    """``expected`` holds the report fields known by construction: ok,
    bijective, additive, almost_additive and, for lie-derivable,
    lie_triple_derivable."""

    def gate(doc: dict) -> list[str]:
        problems: list[str] = []
        _check_witness(problems, "verdict", doc["verdict"])
        got = {
            "ok": doc["verdict"]["ok"],
            "bijective": doc["map"]["bijective"],
            "additive": doc["additive"],
            "almost_additive": doc["almost_additive"],
        }
        if "lie_triple_derivable" in expected:
            got["lie_triple_derivable"] = doc.get("lie_triple_derivable")
        _compare(problems, "map verdicts", got, expected)
        return problems

    return gate


def search_gate(expected: dict | None, budget: int | None, n: int):
    """Complete searches must find the invariant number of maps with the
    invariant additivity grades; budgeted ones must stop at the budget."""

    def gate(doc: dict) -> list[str]:
        problems: list[str] = []
        maps = doc["maps"]
        _compare(problems, "count", doc["count"], len(maps))
        for i, m in enumerate(maps):
            vals = m["values"]
            if vals[0] != 0 or sorted(vals) != list(range(n)):
                problems.append(f"map {i} is not a bijection fixing 0")
                break
        if budget is None:
            _compare(problems, "complete", doc["complete"], True)
            got = {
                "count": len(maps),
                "additive": sum(m["additive"] for m in maps),
                "almost_additive": sum(m["almost_additive"] for m in maps),
            }
            _compare(problems, "search result", got, expected)
            if doc["nodes"] < len(maps):
                problems.append(f"nodes {doc['nodes']} below map count")
        else:
            _compare(problems, "complete", doc["complete"], False)
            _compare(problems, "nodes", doc["nodes"], budget)
        return problems

    return gate
