"""Default CLI output pinned byte for byte.

The files under ``tests/golden/cli/`` hold the exact stdout of ``analyze``,
``peirce`` and ``verify-map`` on the catalog rings below.  Any change to a
verdict, a witness, a tag or the layout of a report shows up here.
"""

from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from altring import analysis, fixtures, liemaps, ringio
from altring.cli import main
from altring.liemaps import MapTable

GOLDEN = Path(__file__).parent / "golden" / "cli"
RINGS = ("example1", "example2", "triangular2", "zorn")
MAP_RINGS = ("triangular2", "zorn")
# analyze only, above k = 2: a prime ring, a non-prime ring and a triangular one
ANALYZE_RINGS = (("matrix2", 3), ("matrix2", 4), ("triangular2", 4))


def _maps(ring):
    """Map files for verify-map: name -> (values, --kind)."""
    ident = MapTable.identity(ring)
    vals = np.arange(ring.size)
    i, j = (ring.basis_element(p).index for p in (0, 1))
    vals[i], vals[j] = vals[j], vals[i]
    maps = {"identity": (ident.values, "lie"), "swap": (vals, "lie")}
    if ring.name == "zorn_z2":
        unity = analysis.find_unity(ring)
        e11, e22 = ring.parse_element("e11"), ring.parse_element("e22")
        shift = liemaps.central_shift(ident, {e11: unity, e22: unity})
        maps["central_shift"] = (shift.values, "lie")
        inner = liemaps.inner_lie_derivation(ring, ring.parse_element("v1"))
        maps["inner_derivation"] = (inner.values, "lie-derivable")
        maps["inner_derivation_triple"] = (inner.values, "lie-triple")
        maps["swap_triple"] = (vals, "lie-triple")
    return maps


def _cases():
    """(golden file name, argv with input file names relative to the input directory)."""
    out = []
    for name in RINGS:
        fx = fixtures.CATALOG[name]
        ring_name = f"{name}_z2"
        ring_file = f"{ring_name}.json"
        for fmt, ext in (("text", "txt"), ("json", "json")):
            out.append((f"analyze_{ring_name}.{ext}", ["analyze", ring_file, "--format", fmt]))
            out.append(
                (
                    f"peirce_{ring_name}.{ext}",
                    ["peirce", ring_file, "--idempotent", fx.idempotent, "--format", fmt],
                )
            )
        if name in MAP_RINGS:
            for map_name, (_, kind) in _maps(fixtures.build(name, 2)).items():
                for fmt, ext in (("text", "txt"), ("json", "json")):
                    out.append(
                        (
                            f"verify-map_{ring_name}_{map_name}.{ext}",
                            ["verify-map", ring_file, f"{ring_name}.{map_name}.map.json",
                             "--kind", kind, "--format", fmt],
                        )
                    )
    for name, k in ANALYZE_RINGS:
        ring_name = f"{name}_z{k}"
        for fmt, ext in (("text", "txt"), ("json", "json")):
            out.append(
                (f"analyze_{ring_name}.{ext}", ["analyze", f"{ring_name}.json", "--format", fmt])
            )
    return out


CASES = _cases()


def write_inputs(root: Path) -> None:
    for name in RINGS:
        ring = fixtures.build(name, 2)
        (root / f"{ring.name}.json").write_text(ringio.dumps_ring(ring))
        if name in MAP_RINGS:
            for map_name, (values, _) in _maps(ring).items():
                path = root / f"{ring.name}.{map_name}.map.json"
                path.write_text(ringio.dumps_map(values, ring, ring))
    for name, k in ANALYZE_RINGS:
        ring = fixtures.build(name, k)
        (root / f"{ring.name}.json").write_text(ringio.dumps_ring(ring))


def render(argv, root: Path) -> bytes:
    """Stdout of one CLI command, its input file names resolved in ``root``."""
    argv = [str(root / a) if a.endswith(".json") else a for a in argv]
    res = CliRunner().invoke(main, argv)
    assert res.exit_code == 0, res.output
    return res.stdout_bytes


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-inputs")
    write_inputs(root)
    return root


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("golden,argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(golden, argv, inputs):
    assert render(argv, inputs) == (GOLDEN / golden).read_bytes()
