"""Command-line interface: reports, formats, assertions, exit codes."""

import contextlib
import gc
import io
import json
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import altring
from altring import analysis, fixtures, liemaps, ringio, zmod
from altring.cli import main
from altring.liemaps import MapTable


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name in ("example1", "example2", "matrix2", "triangular2"):
        ring = fixtures.build(name, 2)
        p = root / f"{name}.json"
        p.write_text(ringio.dumps_ring(ring))
        paths[name] = str(p)
    m2 = fixtures.matrix2(2)
    unity = analysis.find_unity(m2)
    swap = liemaps.central_shift(
        MapTable.identity(m2),
        {m2.parse_element("e11"): unity, m2.parse_element("e22"): unity},
    )
    p = root / "swap.json"
    p.write_text(ringio.dumps_map(swap.values, m2, m2))
    paths["swap"] = str(p)
    ident = root / "ident.json"
    ident.write_text(ringio.dumps_map(range(m2.size), m2, m2))
    paths["ident"] = str(ident)
    vals = np.arange(m2.size)
    i, j = m2.parse_element("e11").index, m2.parse_element("e12").index
    vals[i], vals[j] = vals[j], vals[i]
    bad = root / "bad.json"
    bad.write_text(ringio.dumps_map(vals, m2, m2))
    paths["badmap"] = str(bad)
    broken = root / "broken.json"
    broken.write_text('{"name": "x",\n "modulus": }')
    paths["broken"] = str(broken)
    return paths


class TestAnalyze:
    def test_example2_flags(self, runner, files):
        res = runner.invoke(main, ["analyze", files["example2"], "--format", "json"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["flags"]["associative"] is False
        assert doc["flags"]["alternative"] is False
        assert doc["checks"]["associative"]["witness"]["labels"] == ["b12", "c21", "a11"]

    def test_example1_flags(self, runner, files):
        res = runner.invoke(main, ["analyze", files["example1"], "--format", "json"])
        doc = json.loads(res.output)
        assert doc["flags"]["associative"] is True
        assert doc["primeness"]["by_ideals"]["ok"] is False

    def test_json_round_trips(self, runner, files):
        res = runner.invoke(main, ["analyze", files["matrix2"], "--format", "json"])
        doc = json.loads(res.output)
        ring = ringio.load_ring(files["matrix2"])
        assert doc == analysis.analyze(ring).to_dict()

    def test_malformed_file_positioned_error(self, runner, files):
        res = runner.invoke(main, ["analyze", files["broken"]])
        assert res.exit_code == 2
        assert "line 2" in res.output

    def test_assertions_gate_exit_code(self, runner, files):
        good = runner.invoke(
            main, ["analyze", files["example2"], "--assert", "flags.alternative=false"]
        )
        assert good.exit_code == 0
        bad = runner.invoke(
            main, ["analyze", files["example2"], "--assert", "flags.alternative=true"]
        )
        assert bad.exit_code == 1
        assert "assertion failed" in bad.output

    @pytest.mark.parametrize("torsion,bad", [("0", "0"), ("-2", "-2"), ("2,0", "0")])
    def test_torsion_below_one_is_bad_usage(self, runner, files, torsion, bad):
        res = runner.invoke(main, ["analyze", files["triangular2"], f"--torsion={torsion}"])
        assert res.exit_code == 2, res.output
        assert f"--torsion value {bad}" in res.output
        assert "Traceback" not in res.output

    def test_unknown_assertion_key(self, runner, files):
        res = runner.invoke(main, ["analyze", files["matrix2"], "--assert", "nope=1"])
        assert res.exit_code == 1
        assert "no such report field" in res.output

    @pytest.mark.parametrize("k,d", [(2**21 + 23, 2), (2, 64)])
    def test_int64_overflowing_ring_is_bad_input(self, runner, tmp_path, k, d):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "name": "big", "modulus": k, "basis": [f"b{i}" for i in range(d)],
            "table": [[[0] * d for _ in range(d)] for _ in range(d)],
        }))
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 2, res.output
        assert f"modulus {k} with dimension {d}" in res.output

    def test_non_string_ring_name_is_bad_input(self, runner, tmp_path):
        doc = ringio.ring_to_doc(fixtures.triangular2(2))
        doc["name"] = 5
        path = tmp_path / "named.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 2, res.output
        assert f"{path}: name must be a string, got 5" in res.output

    def test_internal_error_exits_3_with_one_line(self, runner, files, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(analysis, "analyze", boom)
        res = runner.invoke(main, ["analyze", files["matrix2"]])
        assert res.exit_code == 3
        assert res.stderr == "error: internal: RuntimeError: boom second line\n"
        with pytest.raises(SystemExit) as exc:
            main.main(args=["analyze", files["matrix2"]], standalone_mode=True)
        assert exc.value.code == 3

    def test_output_file(self, runner, files, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(
            main, ["analyze", files["matrix2"], "--format", "json", "--output", str(out)]
        )
        assert res.exit_code == 0
        assert json.loads(out.read_text())["flags"]["associative"] is True

    @pytest.mark.parametrize("command", ["analyze", "export"])
    def test_output_into_missing_directory_is_bad_input(self, runner, files, tmp_path, command):
        out = tmp_path / "missing" / "out.json"
        args = {
            "analyze": ["analyze", files["matrix2"], "--output", str(out)],
            "export": ["fixtures", "export", "matrix2", "--output", str(out)],
        }[command]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert f"cannot write {out}" in res.output
        assert ".altring-" not in res.output
        assert not (tmp_path / "missing").exists()


class TestPeirce:
    def test_example1(self, runner, files):
        res = runner.invoke(
            main, ["peirce", files["example1"], "--idempotent", "e", "--format", "json"]
        )
        doc = json.loads(res.output)
        assert doc["conditions"]["12"]["ok"] is False
        assert doc["conditions"]["12"]["witness"]["labels"] == ["e+b11"]
        assert doc["conditions"]["21"]["ok"] is False
        assert doc["conditions"]["21"]["witness"]["labels"] == ["b11"]
        assert doc["relations"]["ok"] is True

    def test_example2_both_pass(self, runner, files):
        res = runner.invoke(
            main,
            ["peirce", files["example2"], "--idempotent", "e",
             "--assert", "conditions.12.ok=true", "--assert", "conditions.21.ok=true"],
        )
        assert res.exit_code == 0, res.output

    def test_non_idempotent_rejected(self, runner, files):
        res = runner.invoke(main, ["peirce", files["example2"], "--idempotent", "b12"])
        assert res.exit_code == 2
        assert "not an idempotent" in res.output

    def test_element_index_input(self, runner, files):
        ring = ringio.load_ring(files["example2"])
        idx = str(ring.parse_element("e").index)
        res = runner.invoke(main, ["peirce", files["example2"], "--idempotent", idx])
        assert res.exit_code == 0

    @pytest.mark.parametrize("idx", ["16", "-1"])
    def test_out_of_range_index_rejected(self, runner, files, idx):
        res = runner.invoke(main, ["peirce", files["matrix2"], "--idempotent", idx])
        assert res.exit_code == 2, res.output
        assert f"element index {idx} out of range [0, 16)" in res.output
        assert "unknown basis label" not in res.output

    def test_json_round_trips(self, runner, files):
        res = runner.invoke(
            main, ["peirce", files["example2"], "--idempotent", "e", "--format", "json"]
        )
        doc = json.loads(res.output)
        assert json.loads(json.dumps(doc)) == doc

    def test_each_condition_subspace_is_computed_once(self, runner, files, monkeypatch):
        """The verdicts and the JSON subspaces share one kernel per side."""
        sides, kernel = [], zmod.kernel

        def counting_kernel(mat, k):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "condition_subspace":
                sides.append(caller.f_locals["side"])
            return kernel(mat, k)

        monkeypatch.setattr(zmod, "kernel", counting_kernel)
        res = runner.invoke(
            main, ["peirce", files["example1"], "--idempotent", "e", "--format", "json"]
        )
        assert res.exit_code == 0, res.output
        assert sorted(sides) == ["12", "21"]

    def test_commutant_is_computed_once(self, runner, files, monkeypatch):
        """Both conditions are graded against one commutant kernel, cached on
        the ring."""
        t = ringio.load_ring(files["example1"]).table
        rows = (t - t.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(-1, t.shape[0])
        calls, kernel = [], zmod.kernel

        def counting_kernel(mat, k):
            calls.append(np.array_equal(mat, rows))
            return kernel(mat, k)

        monkeypatch.setattr(zmod, "kernel", counting_kernel)
        res = runner.invoke(main, ["peirce", files["example1"], "--idempotent", "e"])
        assert res.exit_code == 0, res.output
        assert calls.count(True) == 1


class TestVerifyMap:
    def test_central_swap(self, runner, files):
        res = runner.invoke(
            main,
            ["verify-map", files["matrix2"], files["swap"], "--kind", "lie", "--format", "json"],
        )
        doc = json.loads(res.output)
        assert doc["verdict"]["ok"] is True
        assert doc["map"]["bijective"] is True
        assert doc["additive"] is False
        assert doc["almost_additive"] is True
        assert doc["defect_sample"]["central"] is True

    def test_identity_map(self, runner, files):
        res = runner.invoke(
            main,
            ["verify-map", files["matrix2"], files["ident"], "--format", "json"],
        )
        doc = json.loads(res.output)
        assert doc["verdict"]["ok"] is True and doc["additive"] is True

    def test_failing_map_has_witness(self, runner, files):
        res = runner.invoke(
            main,
            ["verify-map", files["matrix2"], files["badmap"], "--format", "json"],
        )
        doc = json.loads(res.output)
        assert doc["verdict"]["ok"] is False
        assert "witness" in doc["verdict"]
        assert doc["almost_additive"] is None

    def test_derivable_kind_includes_triple_crosscheck(self, runner, files):
        m2 = ringio.load_ring(files["matrix2"])
        ad = liemaps.inner_lie_derivation(m2, m2.parse_element("e12"))
        with runner.isolated_filesystem():
            with open("ad.json", "w") as fh:
                fh.write(ringio.dumps_map(ad.values, m2, m2))
            res = runner.invoke(
                main,
                ["verify-map", files["matrix2"], "ad.json", "--kind", "lie-derivable",
                 "--format", "json"],
            )
        doc = json.loads(res.output)
        assert doc["verdict"]["ok"] is True
        assert doc["lie_triple_derivable"] is True
        assert doc["additive"] is True

    def test_wrong_value_count_rejected(self, runner, files):
        t2 = ringio.load_ring(files["triangular2"])
        with runner.isolated_filesystem():
            doc = ringio.map_to_doc(range(t2.size), t2, t2, inline=True)
            doc["values"] = doc["values"][:-1]
            with open("bad.json", "w") as fh:
                json.dump(doc, fh)
            res = runner.invoke(main, ["verify-map", "bad.json"])
        assert res.exit_code == 2
        assert "values" in res.output

    def test_cross_ring_derivable_rejected(self, runner, files):
        t2 = ringio.load_ring(files["triangular2"])
        m2 = ringio.load_ring(files["matrix2"])
        with runner.isolated_filesystem():
            with open("cross.json", "w") as fh:
                fh.write(ringio.dumps_map(range(t2.size), t2, m2, inline=True))
            res = runner.invoke(main, ["verify-map", "cross.json", "--kind", "lie-derivable"])
        assert res.exit_code == 2
        assert "self-map" in res.output

    def test_same_name_for_different_rings_rejected(self, runner, tmp_path):
        t2 = fixtures.triangular2(2)
        zero = fixtures.RingSpec("R", 2, t2.basis_labels, np.zeros_like(t2.table))
        tri = fixtures.RingSpec("R", 2, t2.basis_labels, t2.table)
        a, z, m = tmp_path / "a.json", tmp_path / "z.json", tmp_path / "m.json"
        a.write_text(ringio.dumps_ring(tri))
        z.write_text(ringio.dumps_ring(zero))
        m.write_text(ringio.dumps_map(range(t2.size), tri, tri))
        for first, second in [(a, z), (z, a)]:
            res = runner.invoke(main, ["verify-map", str(first), str(second), str(m)])
            assert res.exit_code == 2
            assert str(first) in res.output and str(second) in res.output
        copy = tmp_path / "copy.json"
        copy.write_text(ringio.dumps_ring(tri))
        res = runner.invoke(main, ["verify-map", str(a), str(copy), str(m), "--format", "json"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["verdict"]["ok"] is True


    @pytest.mark.parametrize("kind", ["lie", "lie-derivable", "lie-triple"])
    def test_ring_past_index_table_limit_is_refused(self, runner, tmp_path, kind):
        m9 = fixtures.matrix2(9)
        ring_path, map_path = tmp_path / "m9.json", tmp_path / "m9.map.json"
        ring_path.write_text(ringio.dumps_ring(m9))
        map_path.write_text(ringio.dumps_map(range(m9.size), m9, m9))
        res = runner.invoke(main, ["verify-map", str(ring_path), str(map_path), "--kind", kind])
        assert res.exit_code == 2, res.output
        assert "ring has 6561 elements; index tables are limited to 4096" in res.output
        assert "internal" not in res.output

    def test_search_past_index_table_limit_is_refused(self, runner, tmp_path):
        """The search reads brackets through the row tables, which refuse the
        ring before anything is built for it."""
        m9 = fixtures.matrix2(9)
        ring_path = tmp_path / "m9.json"
        ring_path.write_text(ringio.dumps_ring(m9))
        res = runner.invoke(main, ["search-maps", str(ring_path)])
        assert res.exit_code == 2, res.output
        assert "ring has 6561 elements; index tables are limited to 4096" in res.output
        assert "internal" not in res.output


class TestSearchMaps:
    def test_complete_search(self, runner, files):
        res = runner.invoke(
            main, ["search-maps", files["triangular2"], "--format", "json"]
        )
        doc = json.loads(res.output)
        assert doc["complete"] is True
        assert doc["count"] == 8
        assert doc["maps"][0]["values"] == list(range(8))  # identity first

    def test_budget_one_incomplete(self, runner, files):
        res = runner.invoke(
            main,
            ["search-maps", files["triangular2"], "--budget", "1",
             "--assert", "complete=false"],
        )
        assert res.exit_code == 0, res.output

    def test_deep_budgeted_search_runs_out_of_budget(self, runner, tmp_path):
        # matrix2_z7 has 2401 elements, and its first 1500 candidates are all
        # feasible, so the search reaches depth 1500, deeper than Python's
        # default recursion limit of 1000
        path = tmp_path / "matrix2_z7.json"
        path.write_text(ringio.dumps_ring(fixtures.build("matrix2", 7)))
        res = runner.invoke(
            main, ["search-maps", str(path), "--budget", "1500", "--format", "json"]
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["nodes"] == 1500
        assert doc["complete"] is False

    def test_nonpositive_budget_rejected(self, runner, files):
        res = runner.invoke(main, ["search-maps", files["triangular2"], "--budget", "0"])
        assert res.exit_code == 2

    def test_self_flag(self, runner, files):
        res = runner.invoke(main, ["search-maps", files["triangular2"], "--assert", "count=8"])
        assert res.exit_code == 0, res.output


class TestFixturesCommands:
    def test_list(self, runner):
        res = runner.invoke(main, ["fixtures", "list"])
        assert res.exit_code == 0
        for name in ("example1", "example2", "matrix2", "zorn"):
            assert name in res.output

    def test_export_matches_golden(self, runner, tmp_path):
        from pathlib import Path

        out = tmp_path / "ex1.json"
        res = runner.invoke(
            main, ["fixtures", "export", "example1", "--modulus", "2", "--output", str(out)]
        )
        assert res.exit_code == 0
        golden = Path(__file__).parent / "golden" / "example1_z2.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_export_unknown(self, runner):
        res = runner.invoke(main, ["fixtures", "export", "nope"])
        assert res.exit_code == 2

    def test_export_zero_modulus(self, runner):
        res = runner.invoke(main, ["fixtures", "export", "zorn", "--modulus", "0"])
        assert res.exit_code == 2
        assert res.output == "Error: modulus must be an integer >= 2, got 0\n"

    def test_exported_file_loads(self, runner, tmp_path):
        out = tmp_path / "z.json"
        res = runner.invoke(
            main, ["fixtures", "export", "zorn", "--modulus", "3", "--output", str(out)]
        )
        assert res.exit_code == 0
        assert ringio.load_ring(out) == fixtures.zorn(3)

    def test_in_process_run_keeps_no_stdout(self):
        """A redirected stdout is not kept alive after the run that printed
        to it (click caches a wrapper per default stream, keyed weakly but
        holding the stream in its value)."""
        refs = []
        for _ in range(3):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main.main(["fixtures", "export", "zero3"], standalone_mode=False)
            assert buf.getvalue().startswith("{")
            refs.append(weakref.ref(buf))
            del buf
        gc.collect()
        assert [r for r in refs if r() is not None] == []


class TestVersion:
    def test_version_option(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0, res.output
        assert "0.1.0" in res.output

    def test_version_matches_pyproject(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
        assert altring.__version__ == declared


class TestNonUtf8Input:
    """A file that is not UTF-8 text is bad input (exit 2), and the message
    names the file."""

    @pytest.mark.parametrize("command", ["analyze", "peirce", "verify-map", "search-maps"])
    def test_each_command_names_the_file(self, runner, files, tmp_path, command):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"name": "caf\xe9", "modulus": 2}')
        args = {
            "analyze": ["analyze", str(bad)],
            "peirce": ["peirce", str(bad), "--idempotent", "e"],
            "verify-map": ["verify-map", files["matrix2"], str(bad)],
            "search-maps": ["search-maps", str(bad)],
        }[command]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert f"{bad}: not UTF-8 text" in res.output
        assert "internal" not in res.output
