"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import rebase as rb  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from altring import analysis, zmod  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def invariants(ring, primeness: bool) -> dict:
    """The invariants the gates check, computed by the library."""
    rep = analysis.analyze(ring, primeness=primeness)
    doc = rep.to_dict()
    k = ring.modulus
    out = {
        "flags": doc["flags"],
        **{n: zmod.span_count(getattr(rep, n).rows, k) for n in ("nucleus", "commutant", "centre")},
        "unity": rep.unity is not None,
        "idempotents": len(rep.idempotents),
        "torsion_free": {key: v["ok"] for key, v in doc["torsion_free"].items()},
    }
    if primeness:
        out["primeness"] = {
            key: (v["ok"] if isinstance(v, dict) else v) for key, v in doc["primeness"].items()
        }
    return out


# Every tabled source small enough to analyse here; matrix2_z7 and the
# largest structure rings are left to the benchmark run itself.
SMALL = [(key, True) for key in workloads.ANALYZE
         if key[0] in ("zorn", "matrix2", "matrix2_pair", "example1", "example2",
                       "triangular2") and rb.source_ring(*key).size <= 1296
         and "primeness" in workloads.ANALYZE[key]]
SMALL += [(("zorn", 3), False), (("zorn+matrix2", 2), False),
          (("matrix2+triangular2", 4), False)]


@pytest.mark.parametrize("key,primeness", SMALL, ids=lambda v: str(v))
def test_rebased_copy_keeps_invariants(key, primeness):
    source = rb.source_ring(*key)
    copy = rb.rebase(source, "copy", rb.rng_for("test", *key))
    assert not np.array_equal(copy.ring.table, source.table)
    want = invariants(source, primeness)
    assert invariants(copy.ring, primeness) == want
    assert want == workloads.ANALYZE[key]


def test_basis_change_is_an_isomorphism():
    source = rb.source_ring("zorn", 2)
    dom = rb.rebase(source, "a", rb.rng_for("iso", "a"))
    cod = rb.rebase(source, "b", rb.rng_for("iso", "b"))
    values = workloads.iso_values(dom, cod)
    assert sorted(values) == list(range(source.size))
    mul_d, mul_c = dom.ring.mul_index_table(), cod.ring.mul_index_table()
    assert np.array_equal(values[mul_d], mul_c[values[:, None], values[None, :]])


def test_same_seed_same_inputs(tmp_path):
    def files(seed, name):
        d = tmp_path / name
        d.mkdir()
        workloads.build_round("maps", seed, 0, str(d))
        return {p.name: p.read_bytes() for p in d.iterdir()}

    first, again, other = files(5, "a"), files(5, "b"), files(6, "c")
    assert first == again
    assert first.keys() == other.keys() and first != other


def test_round_inputs_pass_their_gates(tmp_path, monkeypatch):
    """Every constructed map and copy of one maps round gets the verdicts
    its gate expects (the two most expensive commands are left out)."""
    import altring.cli

    monkeypatch.setattr(workloads, "MAP_SEARCH", [
        (family, k, budget and 300, 1) for family, k, budget, _ in workloads.MAP_SEARCH])
    monkeypatch.setattr(workloads, "LIE_MAPS", [
        entry[:4] + (1,) for entry in workloads.LIE_MAPS])
    for cmd in workloads.build_round("maps", 11, 0, str(tmp_path)):
        if "zorn+matrix2" in cmd.name or "matrix2_z5 --kind lie-derivable" in cmd.name:
            continue
        code, out, err = run.invoke(altring.cli.main, cmd.argv)
        assert run.Runner.check(cmd, code, out, err) == [], cmd.name


def test_gates_reject_wrong_reports(tmp_path):
    import altring.cli

    cmds = workloads.build_round("warmup", 1, 0, str(tmp_path))
    for cmd in cmds:
        code, out, err = run.invoke(altring.cli.main, cmd.argv)
        doc = json.loads(out)
        assert cmd.gate(doc) == [], cmd.name
        if "flags" in doc:
            doc["flags"]["associative"] = not doc["flags"]["associative"]
            doc["idempotents"] = doc["idempotents"][:-1]
        elif "components" in doc:
            doc["relations"]["ok"] = not doc["relations"]["ok"]
        elif "verdict" in doc:
            doc["additive"] = not doc["additive"]
        else:
            doc["maps"] = doc["maps"][:-1]
            doc["count"] -= 1
        assert cmd.gate(doc), cmd.name
    assert run.Runner.check(cmds[0], 2, "", "bad input") != []


def test_self_times_on_synthetic_nested_spans():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and c
    # [8, 12] (running past the root); a has a grandchild [2, 3].
    synthetic = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("g", 2.0, 3.0, 1, 0),
        ("b", 3.0, 6.0, 0, 0),
        ("c", 8.0, 12.0, 0, 0),
    ]
    assert spans.self_times(synthetic) == pytest.approx([10 - 5 - 2, 2.0, 1.0, 3.0, 4.0])


def test_layer_metrics_roll_up():
    tracer = spans.Tracer()
    tracer.spans = [
        ("cli", 0.0, 10.0, -1, 0),
        ("analysis.prime_criterion", 1.0, 5.0, 0, 0),
        ("zmod.kernel", 2.0, 3.0, 1, 0),
        ("zmod.howell", 2.5, 2.75, 2, 0),
        ("zmod.kernel", 6.0, 7.0, 0, 0),
        ("core.index_tables", 7.0, 8.0, 0, 0),
    ]
    tracer.counters.update({"index.hits": 3, "index.bytes": 64})
    m = spans.layer_metrics(tracer, 0.5)
    assert m["analysis.prime_criterion.kernels"] == 1
    assert m["zmod.kernel.calls"] == 2
    assert m["zmod.kernel.self_s"] == pytest.approx(0.75 + 1.0)
    assert m["analysis.prime_criterion.self_s"] == pytest.approx(3.0)
    assert m["cli.self_s"] == pytest.approx(10 - 4 - 1 - 1)
    assert m["core.index_tables.hit_ratio"] == pytest.approx(0.75)
    assert m["trace.overhead_s"] == 0.5


def test_traced_names_are_declared(tmp_path):
    import altring

    runner = run.Runner(altring, "warmup", 3, str(tmp_path))
    tracer = spans.Tracer()
    runner.round(0, tracer=tracer)
    assert runner.counts() == (5, 0)
    assert not tracer._saved, "wrappers left installed"
    metrics = spans.layer_metrics(tracer, 0.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: spans.LAYER_UNITS[name] for name in metrics} == declared
    # the warm-up commands reach every layer, so no layer reads a constant 0
    assert all(v > 0 for name, v in metrics.items() if name != "trace.overhead_s"), metrics
    # spans are closed and belong to commands
    assert all(end is not None and cmd >= 0 for _, _, end, _, cmd in tracer.spans)


def test_declared_end_to_end_metrics_match():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.E2E_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_every_layer_metric_has_a_mapping():
    for name in spans.LAYER_UNITS:
        for metric, workload in spans.moves(name):
            assert metric in run.E2E_UNITS and workload in workloads.WORKLOADS
    for pairs in spans.UNMOVED.values():
        for metric, workload in pairs:
            assert metric in run.E2E_UNITS and workload in workloads.WORKLOADS


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "maps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
