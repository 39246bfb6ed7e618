"""Default CLI output pinned byte for byte.

The files under ``tests/golden/cli/`` hold the exact stdout of ``analyze``,
``peirce`` and ``verify-map`` on the catalog rings below.  Any change to a
verdict, a witness, a tag or the layout of a report shows up here.  Larger
``analyze --skip-primeness`` outputs are pinned by their sha256 instead.
"""

import hashlib
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


def _sha256(argv, root: Path) -> tuple[str, str]:
    """sha256 of one CLI command's stdout in JSON and in text."""
    return tuple(
        hashlib.sha256(render([*argv, "--format", fmt], root)).hexdigest()
        for fmt in ("json", "text")
    )


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


# sha256 of analyze --skip-primeness stdout: (json, text).  The two rings over
# Z/6 take the idempotent path through the Chinese remainder theorem.
SKIP_PRIMENESS_SHA256 = {
    "zorn_z5": (
        "27b977f2587110555f0b7033ec3f52a51eb852ba3b09ea4b919cceb32d48a05c",
        "ab5f0916b6d90c116fc3a2aef4ba9e95af0508fd175de07e83ba641cc1e53e15",
    ),
    "zorn_z2+zorn_z2": (
        "0bfc3204770f22cd6f0da747849b33b0515396b4e986dd721038b42eeb6799ba",
        "49d117b0ff0c80af2521eec516607d4bcd084ce211ff68198d133e35de82e17d",
    ),
    "matrix2_z6+matrix2_z6": (
        "bdf68bfff6971b079f3e60fb1588fc05373a16291883680bcd238cbd034df199",
        "776170a2817a09dcd4c88d44410f6152087cdd8fdcefc16ae1a502bc00eee3b1",
    ),
    "matrix2_z6": (
        "1d85043f60fdfd87e7846009d059fb0697961c26b14ba877c578ae9a36325e8a",
        "5907108fdaae0cc39f2b9df3333d6731e753569eee9fe3c961a6a085497ce91d",
    ),
}


def test_analyze_skip_primeness_sha256(tmp_path):
    rings = [fixtures.build("zorn", 5), fixtures.direct_sum(fixtures.zorn(2), fixtures.zorn(2)),
             fixtures.build("matrix2_pair", 6), fixtures.build("matrix2", 6)]
    assert sorted(r.name for r in rings) == sorted(SKIP_PRIMENESS_SHA256)
    for ring in rings:
        (tmp_path / "ring.json").write_text(ringio.dumps_ring(ring))
        got = _sha256(["analyze", "ring.json", "--skip-primeness"], tmp_path)
        assert got == SKIP_PRIMENESS_SHA256[ring.name], ring.name


# verify-map over Z/2, where sums and differences of indices are XORs: per
# ring, x of the inner derivation y -> [x, y], the element whose image is
# changed in it (which breaks both derivable kinds), and the keys and the
# central value of a central shift of the identity.
Z2_MAPS = {
    "matrix2": ("e12", 1, ("e11", "e22"), "e11+e22"),
    "example1": ("b12", 2, ("e", "e+a11"), "a11"),
    "zorn": ("v1", 1, ("e11", "e22"), "e11+e22"),
}


def _z2_maps(ring, x, changed, keys, value):
    """Map files for verify-map: name -> (values, --kind)."""
    maps = {name: m for name, m in _maps(ring).items() if name in ("identity", "swap")}
    shift = {ring.parse_element(key): ring.parse_element(value) for key in keys}
    maps["central_shift"] = (liemaps.central_shift(MapTable.identity(ring), shift).values, "lie")
    inner = liemaps.inner_lie_derivation(ring, ring.parse_element(x)).values
    broken = inner.copy()
    broken[changed] ^= 1
    for kind in ("lie-derivable", "lie-triple"):
        maps[f"inner_derivation_{kind}"] = (inner, kind)
        maps[f"changed_derivation_{kind}"] = (broken, kind)
    return maps


# sha256 of verify-map stdout on the maps of _z2_maps: (json, text)
Z2_MAP_SHA256 = {
    ("matrix2_z2", "identity"): (
        "cafabfd688b2f6e752d41fdcbca016ca1b09f0588210c90e82d7e923a241a54b",
        "6a35a6b1b7e3e16748ab6628d9a8262436b91c5d8b04422aa0b682a49c5d0a93",
    ),
    ("matrix2_z2", "swap"): (
        "08ccec9319c7388f90ad60be0eb4859fd7930f3d98ddc0122e5013b22178cffb",
        "fa4d8015e256d50c8b9f7065a4518d37505af585f256c2db47eaa48ffde8506e",
    ),
    ("matrix2_z2", "central_shift"): (
        "ad1ae43daf56e6498060cf30a22f05de11ec53f1633900b8ff08d9ea6ab8689f",
        "f15a5b12207d7d376bda408ee443e56d5cf207f11a6675176d0bf78265d8a9b5",
    ),
    ("matrix2_z2", "inner_derivation_lie-derivable"): (
        "105d9cb6ea5b1c8d8c5935528c7f1bc26869825edbb998b5bc4608dac23fcdbd",
        "a1520846dae7acc0c6b20afc073831d8e2acd17da491e31c55cbc6c2a5df7207",
    ),
    ("matrix2_z2", "changed_derivation_lie-derivable"): (
        "332c69957c2970a6fa13f578fde0e7fc63d2e7d5775c0746de0846e0d03fb8e8",
        "85c5a5d1880090fe107a01e15e7f66b3ab0f6b7729b58814d7292bad97a04667",
    ),
    ("matrix2_z2", "inner_derivation_lie-triple"): (
        "91f640666bd4043d0e527c50a5d524fa2dbdbf669e6c28da2f0dc4dc24ef8eda",
        "c0ac22283984a021f34e871fb43887bd7a625aa093a4f520c01713544cfce6ae",
    ),
    ("matrix2_z2", "changed_derivation_lie-triple"): (
        "40499210d92e4a1f747b0dd6079c4177c9525922dc5813118efc00ba0ea48144",
        "6e961c57ccee0d783c82a40ee72316bbf0bdb2c5a8179a39b266bb60e644ad6a",
    ),
    ("example1_z2", "identity"): (
        "fdb5564bd5ddb309c69cd241f8a20a6540f12242c91d5969702280cd818105a6",
        "1ac5c5bc5ccc9f40666b2702c98e57c7bdf4c57b7efdcb4b160c39faadbae03f",
    ),
    ("example1_z2", "swap"): (
        "275285a39e2d587099be70c0932f28c0f6ce2db007a0dda89c6c11ee886bcdf7",
        "ba04f8369deb64dc3071b41edc1947008d5143d0060e378c24329fc199a969f3",
    ),
    ("example1_z2", "central_shift"): (
        "6d1c537d8b46bdb588a72b0395f5ff55b92b37e96dbb2a14036b02b33a083723",
        "a9a8a3a71cddc5d1da848124b22aebb43e59c976894a4351032d20b1da3c7ff2",
    ),
    ("example1_z2", "inner_derivation_lie-derivable"): (
        "29154907bc2bd8c7ac1547af3bbb04209737303d5c2da22e0a66b68fe031a4ae",
        "bbf1f762c33efdddbf46162d45acd16a5c032461081d1b1d5699470c25b32c9c",
    ),
    ("example1_z2", "changed_derivation_lie-derivable"): (
        "5a13b75f9789a8268a74b11bd9fbd2dc000c00ad3c826e74b176bdf365a500b1",
        "5c0875505bbe7ab8ffe9f917bc7bc4e4eeca91e5cc923052833a144d97f01195",
    ),
    ("example1_z2", "inner_derivation_lie-triple"): (
        "faba2dd0c5b25488c660f9e594e981a9fbc23aa050c86e0c789ae58ee79bd102",
        "16eef5d980abe2dc35d61996ca17a3af13093fdad064475be80f787da0930155",
    ),
    ("example1_z2", "changed_derivation_lie-triple"): (
        "7f4eeb1b54994191335fb2844b6fb936942d4ba0caebacbfaa8989e5507fa135",
        "ba15bbe1e2435d4fb68f0cade934eb67cad417aa46031e2806291ec24856eae0",
    ),
    ("zorn_z2", "identity"): (
        "174504eea708660f75cd75b344c5fee1c60253faaf24eca7642fd82742f78675",
        "123a853a7ee08cae77e09f6aaebb1d660bb1ad6ac0c27a96b98623263ca9c852",
    ),
    ("zorn_z2", "swap"): (
        "86d6bbb875826348e9bcf4c543eced2e935f6792c4a8a68a912c7bb4a18ff22f",
        "1bca3395dbc805ae3e8a5187919e72496aacc938397beb27efdebc78db432fc7",
    ),
    ("zorn_z2", "central_shift"): (
        "a9bacf64763978829e9333991da01ed0149ab589a4dc4c147dc26ad8595abd90",
        "e9577c9185ded2c917456e87c8a2b9e8d4e7eb05a9976d8550b408948c54a3a6",
    ),
    ("zorn_z2", "inner_derivation_lie-derivable"): (
        "f7381d5f6bdee7826ac0d441722a788fd71cdb6bc594d5786ccc4195102723b8",
        "69a41472dafdc0c87e781372f8a672d76d88be6b6c2246d070985b35710f2b8d",
    ),
    ("zorn_z2", "changed_derivation_lie-derivable"): (
        "fc528f17286e693c240e369dca729c0abe314587eb1c1e59a9e2b5f5256b104a",
        "f3aebff8ef678214bb834c0e6e786d93105b4cb1a84f4f653f35bff1e4abe19c",
    ),
    ("zorn_z2", "inner_derivation_lie-triple"): (
        "d83e45c2bcf635e1e737a36c57bf521af41b53983d0d740429a7212c4c3f4d0f",
        "1336d6ec7fc6f9c8da553d077eda3b3b34daf22ab4bb88e2c09496dda4567021",
    ),
    ("zorn_z2", "changed_derivation_lie-triple"): (
        "0916b679f6410097efc475b9b96de37fa71caf0fbf1e4db9bf1f5876030f1fb9",
        "25a0e430d904fa8d75ec89ae646bc5ecfba795fce3186fe78ce728080428e1ef",
    ),
}


def test_verify_map_z2_sha256(tmp_path):
    for name, spec in Z2_MAPS.items():
        ring = fixtures.build(name, 2)
        (tmp_path / "ring.json").write_text(ringio.dumps_ring(ring))
        for map_name, (values, kind) in _z2_maps(ring, *spec).items():
            (tmp_path / "map.json").write_text(ringio.dumps_map(values, ring, ring))
            got = _sha256(["verify-map", "ring.json", "map.json", "--kind", kind], tmp_path)
            assert got == Z2_MAP_SHA256[ring.name, map_name], (ring.name, map_name)


# sha256 of search-maps stdout over Z/2: (json, text)
Z2_SEARCH_SHA256 = {
    "matrix2_z2": (
        "5985fa51f5d38e3e9dd87e925f7b29b4e79130733d31000247dcf3f0bd792c38",
        "843848b498e8adf97d54dd8e885ac5e56bda55939a3871e90410c387d3bd3e5b",
    ),
    "triangular2_z2": (
        "c22f636473ac36dd4a24fa6af7a63946d5996e23a1efb7f4de5f070497e0dbb7",
        "8ee19120323b339b2e9372677fef07476a8a9fe2f769cb3708e624e1f457df2e",
    ),
}


def test_search_maps_z2_sha256(tmp_path):
    for name in ("matrix2", "triangular2"):
        ring = fixtures.build(name, 2)
        (tmp_path / "ring.json").write_text(ringio.dumps_ring(ring))
        got = _sha256(["search-maps", "ring.json"], tmp_path)
        assert got == Z2_SEARCH_SHA256[ring.name], ring.name
