"""Batch command-line front-end.

Subcommands: analyze, peirce, verify-map, search-maps, fixtures (list/export).
Reports default to human-readable text; --format json emits the machine form,
which re-parses field-for-field.  --assert KEY=VALUE turns any report field
(dotted path into the JSON form) into a pass/fail gate: exit code 0 iff no
errors occurred and every requested assertion held, 1 when an assertion
failed, 2 for bad input or usage, 3 for an internal error.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import click

from . import __version__, analysis, fixtures, liemaps, ringio
from .analysis import PeirceError, Verdict
from .core import RingSpec
from .liemaps import MapTable


class ToolError(click.ClickException):
    exit_code = 2


def _load_ring(path) -> RingSpec:
    try:
        return ringio.load_ring(path)
    except (ringio.FormatError, OSError, ValueError) as exc:
        raise ToolError(str(exc)) from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=False, file=sys.stdout)
        return
    directory = os.path.dirname(os.path.abspath(output)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".altring-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except OSError as exc:
        raise ToolError(f"cannot write {output}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _flatten_doc(doc, prefix=""):
    out = {}
    if isinstance(doc, dict):
        for key, val in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out[path] = val
            out.update(_flatten_doc(val, path))
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            path = f"{prefix}[{i}]"
            out[path] = val
            out.update(_flatten_doc(val, path))
    return out


def _parse_expected(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_assertions(doc: dict, assertions) -> None:
    if not assertions:
        return
    flat = _flatten_doc(doc)
    failures = []
    for item in assertions:
        if "=" not in item:
            raise ToolError(f"--assert needs KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in flat:
            failures.append(f"{key}: no such report field")
            continue
        expected = _parse_expected(raw.strip())
        actual = flat[key]
        if actual != expected:
            failures.append(f"{key}: expected {expected!r}, got {actual!r}")
    if failures:
        raise click.ClickException("assertion failed: " + "; ".join(failures))


def _verdict_line(name: str, v: Verdict | None) -> str:
    if v is None:
        return f"{name:<22} (skipped)"
    if v.ok:
        return f"{name:<22} yes"
    if v.witness:
        labels = ", ".join(w.label() for w in v.witness)
        return f"{name:<22} no   witness: ({labels})"
    return f"{name:<22} no"


def _rows_text(rows) -> str:
    return "; ".join("(" + " ".join(str(c) for c in row) + ")" for row in rows) or "(zero)"


format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True
)
assert_option = click.option(
    "--assert", "assertions", multiple=True, metavar="KEY=VALUE",
    help="Fail (exit 1) unless the report field KEY equals VALUE.",
)
output_option = click.option("--output", type=click.Path(dir_okay=False), default=None)


class _Main(click.Group):
    """The command group; an exception that is not click's own is an internal
    error and exits 3 with a one-line message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            message = str(exc).replace("\n", " ")
            click.echo(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
            ctx.exit(3)


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Exact analysis of finite nonassociative rings over Z/kZ."""


@main.command()
@click.argument("ring_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--torsion", default="2,3", show_default=True, help="Comma-separated k values.")
@click.option("--skip-primeness", is_flag=True, help="Skip the ideal-pair scan and both criteria.")
@format_option
@assert_option
@output_option
def analyze(ring_file, torsion, skip_primeness, fmt, assertions, output):
    """Full structural report for one ring file."""
    ring = _load_ring(ring_file)
    try:
        ks = tuple(int(t) for t in torsion.split(",") if t.strip())
    except ValueError:
        raise ToolError(f"bad --torsion value {torsion!r}")
    for k in ks:
        if k < 1:
            raise ToolError(f"bad --torsion value {k}: each k must be at least 1")
    report = analysis.analyze(ring, torsion=ks, primeness=not skip_primeness)
    doc = report.to_dict()
    if fmt == "json":
        _emit(json.dumps(doc, indent=2) + "\n", output)
    else:
        lines = [f"ring {ring.name}: Z_{ring.modulus}, dim {ring.dim}, {ring.size} elements"]
        lines.append(_verdict_line("associative", report.associative))
        lines.append(_verdict_line("alternative", report.alternative))
        lines.append(_verdict_line("flexible", report.flexible))
        lines.append(_verdict_line("linearized flexible", report.linearized_flexible))
        lines.append(f"{'nucleus':<22} {_rows_text(doc['nucleus'])}")
        lines.append(f"{'commutant':<22} {_rows_text(doc['commutant'])}")
        lines.append(f"{'centre':<22} {_rows_text(doc['centre'])}")
        unity = "none" if report.unity is None else report.unity.label()
        lines.append(f"{'unity':<22} {unity}")
        idem = ", ".join(ring.from_index(i).label() for i in doc["idempotents"][:12])
        more = "" if len(report.idempotents) <= 12 else f" (+{len(report.idempotents) - 12} more)"
        lines.append(f"{'idempotents':<22} {idem}{more}")
        for k, v in sorted(report.torsion_free.items()):
            lines.append(_verdict_line(f"{k}-torsion free", v))
        lines.append(_verdict_line("prime (ideal pairs)", report.prime_by_ideals))
        lines.append(_verdict_line("prime (left crit.)", report.prime_criterion_left))
        lines.append(_verdict_line("prime (right crit.)", report.prime_criterion_right))
        agree = report.primeness_agree
        lines.append(f"{'primeness agreement':<22} {'n/a' if agree is None else ('yes' if agree else 'NO')}")
        _emit("\n".join(lines) + "\n", output)
    _apply_assertions(doc, assertions)


def _peirce_doc(ring, frame, relations, conditions) -> dict:
    return {
        "ring": {"name": ring.name, "modulus": int(ring.modulus), "dim": int(ring.dim)},
        "idempotent": {"index": int(frame.e1.index), "label": frame.e1.label()},
        "components": {
            f"{i}{j}": frame.component(i, j).rows.tolist()
            for i in (1, 2)
            for j in (1, 2)
        },
        "relations": relations.to_doc(),
        "conditions": {
            side: dict(
                conditions[side].to_doc(),
                subspace=analysis.condition_subspace(frame, side).rows.tolist(),
            )
            for side in ("12", "21")
        },
    }


@main.command()
@click.argument("ring_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--idempotent", required=True, metavar="EXPR",
              help="Label sum like 'e' or 'e11+e22', or a decimal element index.")
@format_option
@assert_option
@output_option
def peirce(ring_file, idempotent, fmt, assertions, output):
    """Peirce decomposition, multiplication rules, centralising conditions."""
    ring = _load_ring(ring_file)
    try:
        e1 = ring.parse_element(idempotent)
    except ValueError as exc:
        raise ToolError(str(exc)) from exc
    try:
        frame = analysis.peirce(ring, e1)
    except PeirceError as exc:
        raise ToolError(str(exc)) from exc
    relations = analysis.check_peirce_relations(frame)
    conditions = {side: analysis.check_condition(frame, side) for side in ("12", "21")}
    doc = _peirce_doc(ring, frame, relations, conditions)
    if fmt == "json":
        _emit(json.dumps(doc, indent=2) + "\n", output)
    else:
        lines = [f"ring {ring.name}: Peirce decomposition at e1 = {frame.e1.label()}"]
        for key in ("11", "12", "21", "22"):
            lines.append(f"{'R' + key:<22} {_rows_text(doc['components'][key])}")
        lines.append(_verdict_line("multiplication rules", relations))
        lines.append(_verdict_line("condition (i)  [R12]", conditions["12"]))
        lines.append(_verdict_line("condition (ii) [R21]", conditions["21"]))
        _emit("\n".join(lines) + "\n", output)
    _apply_assertions(doc, assertions)


@main.command("verify-map")
@click.argument("files", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(["lie", "lie-derivable", "lie-triple"]),
              default="lie", show_default=True)
@format_option
@assert_option
@output_option
def verify_map(files, kind, fmt, assertions, output):
    """Verify a map file against ring file(s): FILES = RING... MAP."""
    *ring_files, map_file = files
    rings, sources = {}, {}
    for rf in ring_files:
        ring = _load_ring(rf)
        if rings.get(ring.name, ring) != ring:
            raise ToolError(
                f"ring files {sources[ring.name]} and {rf} both name a ring "
                f"{ring.name!r}, but the rings differ"
            )
        rings[ring.name], sources[ring.name] = ring, rf
    try:
        domain, codomain, values = ringio.load_map(map_file, rings)
    except (ringio.FormatError, OSError) as exc:
        raise ToolError(str(exc)) from exc
    try:
        phi = MapTable(domain, codomain, values)
    except ValueError as exc:
        raise ToolError(str(exc)) from exc

    if kind != "lie" and domain != codomain:
        raise ToolError("derivable kinds need a self-map (domain == codomain)")
    bijective = phi.is_bijective()
    # the verifiers refuse rings too large for their index tables
    try:
        if kind == "lie":
            verdict = liemaps.is_lie_multiplicative(phi)
            eligible = verdict.ok and bijective
        else:
            both = liemaps.derivable_report(phi)
            key = "lie_derivable" if kind == "lie-derivable" else "lie_triple_derivable"
            verdict = both[key]
            eligible = verdict.ok
        defreport = liemaps.check_almost_additive(phi) if eligible else None
    except ValueError as exc:
        raise ToolError(str(exc)) from exc

    doc = {
        "map": {
            "domain": domain.name,
            "codomain": codomain.name,
            "bijective": bijective,
        },
        "kind": kind,
        "verdict": {key: val for key, val in verdict.to_doc().items() if key != "tag"},
        "additive": None if defreport is None else bool(defreport.all_zero),
        "almost_additive": None if defreport is None else bool(defreport.all_central),
        "defect_sample": None,
    }
    if kind == "lie-derivable":
        doc["lie_triple_derivable"] = bool(both["lie_triple_derivable"].ok)
    if defreport is not None and defreport.sample_nonzero is not None:
        a, b, d = defreport.sample_nonzero
        doc["defect_sample"] = {
            "arguments": [int(a.index), int(b.index)],
            "labels": [a.label(), b.label()],
            "defect": int(d.index),
            "defect_label": d.label(),
            "central": bool(d in defreport.centre),
        }
    if fmt == "json":
        _emit(json.dumps(doc, indent=2) + "\n", output)
    else:
        pretty = {"lie": "Lie multiplicative", "lie-derivable": "Lie derivable",
                  "lie-triple": "Lie triple derivable"}[kind]
        lines = [f"map {domain.name} -> {codomain.name} ({len(values)} values)"]
        lines.append(_verdict_line("bijective", Verdict(bijective)))
        lines.append(_verdict_line(pretty, verdict))
        if kind == "lie-derivable":
            lines.append(_verdict_line("Lie triple derivable", both["lie_triple_derivable"]))
        if defreport is not None:
            lines.append(_verdict_line("additive", Verdict(defreport.all_zero)))
            lines.append(_verdict_line("almost additive", Verdict(defreport.all_central)))
            if defreport.sample_nonzero is not None:
                a, b, d = defreport.sample_nonzero
                lines.append(
                    f"{'sample defect':<22} d({a.label()}, {b.label()}) = {d.label()}"
                )
        _emit("\n".join(lines) + "\n", output)
    _apply_assertions(doc, assertions)


@main.command("search-maps")
@click.argument("ring_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--codomain", "codomain_file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Second ring file; defaults to a self-search.")
@click.option("--budget", type=int, default=None, help="Node budget for the backtracking search.")
@format_option
@assert_option
@output_option
def search_maps(ring_file, codomain_file, budget, fmt, assertions, output):
    """Enumerate Lie multiplicative bijections on a small ring."""
    if budget is not None and budget <= 0:
        raise ToolError("--budget must be positive")
    domain = _load_ring(ring_file)
    codomain = _load_ring(codomain_file) if codomain_file else domain
    try:
        result = liemaps.search_lie_multiplicative_bijections(domain, codomain, budget=budget)
    except ValueError as exc:
        raise ToolError(str(exc)) from exc
    entries = []
    for m in result.maps:
        rep = liemaps.check_almost_additive(m)
        entries.append(
            {
                "values": [int(v) for v in m.values],
                "additive": bool(rep.all_zero),
                "almost_additive": bool(rep.all_central),
            }
        )
    doc = {
        "domain": domain.name,
        "codomain": codomain.name,
        "complete": bool(result.complete),
        "nodes": int(result.nodes),
        "count": len(entries),
        "maps": entries,
    }
    if fmt == "json":
        _emit(json.dumps(doc, indent=2) + "\n", output)
    else:
        lines = [
            f"search {domain.name} -> {codomain.name}: {len(entries)} map(s), "
            f"complete={'yes' if result.complete else 'no'}, nodes={result.nodes}"
        ]
        for i, entry in enumerate(entries):
            lines.append(
                f"  map {i}: values {entry['values']} additive={entry['additive']} "
                f"almost_additive={entry['almost_additive']}"
            )
        _emit("\n".join(lines) + "\n", output)
    _apply_assertions(doc, assertions)


@main.group("fixtures")
def fixtures_group():
    """Bundled ring constructors."""


@fixtures_group.command("list")
def fixtures_list():
    for name, fx in sorted(fixtures.CATALOG.items()):
        click.echo(f"{name:<14} {fx.description}", file=sys.stdout)


@fixtures_group.command("export")
@click.argument("name")
@click.option("--modulus", type=int, default=None, help="Coefficient modulus k (default per fixture).")
@output_option
def fixtures_export(name, modulus, output):
    """Write a catalog ring in the ring file format."""
    try:
        ring = fixtures.build(name, modulus)
    except KeyError as exc:
        raise ToolError(str(exc.args[0])) from exc
    except ValueError as exc:
        raise ToolError(str(exc)) from exc
    _emit(ringio.dumps_ring(ring), output)


if __name__ == "__main__":
    main()
