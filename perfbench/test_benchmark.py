"""Checks on the benchmark itself, run apart from the package's suite:

    python3 -m pytest perfbench/test_benchmark.py -q
"""

from __future__ import annotations

import json

import pytest

import run
import spans
import workloads
from workloads import sf

SEEDS = range(10)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_empty_edge_set_misses_every_target(name, seed):
    # An instance the empty set already satisfies would time a construction
    # that has nothing to do.
    for inst in workloads.WORKLOADS[name].instances(seed):
        assert not inst.empty_ok(), f"{name} seed {seed}: {inst.label} is trivial"


def test_instances_follow_the_seed():
    a = workloads.shortcut_random_cases(4)
    assert [c.graph for c in a] == [c.graph for c in workloads.shortcut_random_cases(4)]
    assert a[0].graph != workloads.shortcut_random_cases(5)[0].graph


def test_every_wrap_target_resolves():
    assert spans.check_targets() == []


def test_missing_target_is_named(monkeypatch):
    from shortcutforge import shortcut_algos

    monkeypatch.delattr(shortcut_algos, "first_incoming_edge")
    with pytest.raises(spans.MissingTarget, match="shortcut_algos.first_incoming_edge"):
        with spans.installed(spans.Tracer()):
            pass


def test_tracing_changes_no_result_and_restores_targets():
    from shortcutforge import shortcut_algos

    original = shortcut_algos.decompose
    init = sf.Digraph.__init__
    g = sf.generate(sf.GenSpec("random_dag", 80, density=3.0, seed=2))
    plain = sf.build_shortcuts(g, 4, seed=2)
    t = spans.Tracer()
    with spans.installed(t), t.span("bench.build"):
        traced = sf.build_shortcuts(g, 4, seed=2)
    assert traced.tagged == plain.tagged
    assert shortcut_algos.decompose is original and sf.Digraph.__init__ is init

    summary = t.summary()
    assert summary["chain_decomp.decompose.calls"] == 1
    assert summary["shortcut_algos.first_incoming_edge.calls"] > 0
    assert summary["shortcut_algos.ShortcutSet.rows_kept"] >= len(plain)
    assert summary["shortcut_algos.small_diam.regime_calls"] == 1
    root = next(sp for sp in t.spans if sp.name == "bench.build")
    assert t.self_total(("bench.build",)) == pytest.approx(root.duration, abs=1e-9)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
