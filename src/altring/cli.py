"""Batch command-line front-end.

Subcommands: analyze, peirce, verify-map, search-maps, fixtures (list/export).
Reports default to human-readable text; --format json emits the machine form,
which re-parses field-for-field.  --assert KEY=VALUE turns any report field
(dotted path into the JSON form) into a pass/fail gate: exit code 0 iff no
errors occurred and every requested assertion held, 1 when an assertion
failed, 2 for bad input or usage, 3 for an internal error.
"""

from __future__ import annotations

import functools
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


def _report(command):
    """Adds --format, --assert and --output to a command that returns (doc,
    lines), lines a lazy iterable of text lines: one form is written, then the
    assertions are applied to doc."""

    @functools.wraps(command)
    def run(*args, fmt, assertions, output, **kwargs):
        doc, lines = command(*args, **kwargs)
        _emit((json.dumps(doc, indent=2) if fmt == "json" else "\n".join(lines)) + "\n", output)
        _apply_assertions(doc, assertions)

    return format_option(assert_option(output_option(run)))


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
@_report
def analyze(ring_file, torsion, skip_primeness):
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

    def lines():
        yield f"ring {ring.name}: Z_{ring.modulus}, dim {ring.dim}, {ring.size} elements"
        yield _verdict_line("associative", report.associative)
        yield _verdict_line("alternative", report.alternative)
        yield _verdict_line("flexible", report.flexible)
        yield _verdict_line("linearized flexible", report.linearized_flexible)
        for key in ("nucleus", "commutant", "centre"):
            yield f"{key:<22} {_rows_text(doc[key])}"
        unity = "none" if report.unity is None else report.unity.label()
        yield f"{'unity':<22} {unity}"
        idem = ", ".join(ring.from_index(i).label() for i in doc["idempotents"][:12])
        more = "" if len(report.idempotents) <= 12 else f" (+{len(report.idempotents) - 12} more)"
        yield f"{'idempotents':<22} {idem}{more}"
        for k, v in sorted(report.torsion_free.items()):
            yield _verdict_line(f"{k}-torsion free", v)
        yield _verdict_line("prime (ideal pairs)", report.prime_by_ideals)
        yield _verdict_line("prime (left crit.)", report.prime_criterion_left)
        yield _verdict_line("prime (right crit.)", report.prime_criterion_right)
        agree = report.primeness_agree
        yield f"{'primeness agreement':<22} {'n/a' if agree is None else ('yes' if agree else 'NO')}"

    return doc, lines()


@main.command()
@click.argument("ring_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--idempotent", required=True, metavar="EXPR",
              help="Label sum like 'e' or 'e11+e22', or a decimal element index.")
@_report
def peirce(ring_file, idempotent):
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
    doc = {
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

    def lines():
        yield f"ring {ring.name}: Peirce decomposition at e1 = {frame.e1.label()}"
        for key in ("11", "12", "21", "22"):
            yield f"{'R' + key:<22} {_rows_text(doc['components'][key])}"
        yield _verdict_line("multiplication rules", relations)
        yield _verdict_line("condition (i)  [R12]", conditions["12"])
        yield _verdict_line("condition (ii) [R21]", conditions["21"])

    return doc, lines()


@main.command("verify-map")
@click.argument("files", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(["lie", "lie-derivable", "lie-triple"]),
              default="lie", show_default=True)
@_report
def verify_map(files, kind):
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

    pretty = {"lie": "Lie multiplicative", "lie-derivable": "Lie derivable",
              "lie-triple": "Lie triple derivable"}[kind]
    verdicts = [("bijective", Verdict(bijective)), (pretty, verdict)]
    extra = {}
    if kind == "lie-derivable":
        verdicts.append(("Lie triple derivable", both["lie_triple_derivable"]))
        extra["lie_triple_derivable"] = bool(both["lie_triple_derivable"].ok)
    additive = almost = sample = None
    if defreport is not None:
        additive, almost = bool(defreport.all_zero), bool(defreport.all_central)
        verdicts += [("additive", Verdict(additive)), ("almost additive", Verdict(almost))]
        sample = defreport.sample_nonzero
    doc = {
        "map": {"domain": domain.name, "codomain": codomain.name, "bijective": bijective},
        "kind": kind,
        "verdict": {key: val for key, val in verdict.to_doc().items() if key != "tag"},
        "additive": additive,
        "almost_additive": almost,
        "defect_sample": None if sample is None else {
            "arguments": [int(sample[0].index), int(sample[1].index)],
            "labels": [sample[0].label(), sample[1].label()],
            "defect": int(sample[2].index),
            "defect_label": sample[2].label(),
            "central": bool(sample[2] in defreport.centre),
        },
        **extra,
    }

    def lines():
        yield f"map {domain.name} -> {codomain.name} ({len(values)} values)"
        for name, v in verdicts:
            yield _verdict_line(name, v)
        if sample is not None:
            a, b, d = sample
            yield f"{'sample defect':<22} d({a.label()}, {b.label()}) = {d.label()}"

    return doc, lines()


@main.command("search-maps")
@click.argument("ring_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--codomain", "codomain_file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Second ring file; defaults to a self-search.")
@click.option("--budget", type=int, default=None, help="Node budget for the backtracking search.")
@_report
def search_maps(ring_file, codomain_file, budget):
    """Enumerate Lie multiplicative bijections on a small ring."""
    if budget is not None and budget <= 0:
        raise ToolError("--budget must be positive")
    domain = _load_ring(ring_file)
    codomain = _load_ring(codomain_file) if codomain_file else domain
    try:
        result = liemaps.search_lie_multiplicative_bijections(domain, codomain, budget=budget)
    except ValueError as exc:
        raise ToolError(str(exc)) from exc
    entries = [
        {"values": m.values.tolist(), "additive": rep.all_zero, "almost_additive": rep.all_central}
        for m, rep in zip(result.maps, liemaps.almost_additive_reports(result.maps))
    ]
    doc = {
        "domain": domain.name,
        "codomain": codomain.name,
        "complete": bool(result.complete),
        "nodes": int(result.nodes),
        "count": len(entries),
        "maps": entries,
    }

    def lines():
        yield (
            f"search {domain.name} -> {codomain.name}: {len(entries)} map(s), "
            f"complete={'yes' if result.complete else 'no'}, nodes={result.nodes}"
        )
        for i, entry in enumerate(entries):
            yield (
                f"  map {i}: values {entry['values']} additive={entry['additive']} "
                f"almost_additive={entry['almost_additive']}"
            )

    return doc, lines()


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
