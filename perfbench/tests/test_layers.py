"""Self time is a span's duration minus what its children cover."""

import json

import layers


def test_self_time_subtracts_children_within_a_thread(tmp_path):
    spans = [
        ["composite.search", 0.0, 10.0, -1, {}],
        ["composite.evaluate", 1.0, 5.0, 0, {}],
        ["ems.fixpoint", 2.0, 4.0, 1, {"iterations": 3, "pair_updates": 40}],
        ["composite.delta_merge", 6.0, 7.0, 0, {}],
        ["logs.parse", 11.0, None, -1, {}],  # still open at exit
    ]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({
        "launched": 0.0, "exited": 12.0, "modules": ["repro", "repro.cli"],
        "threads": {"MainThread#1": spans},
    }))
    profile = layers.Profile()
    profile.add(path)
    assert profile.self_s["composite.search"] == 10.0 - 4.0 - 1.0
    assert profile.self_s["composite.evaluate"] == 4.0 - 2.0
    assert profile.self_s["ems.fixpoint"] == 2.0
    assert profile.self_s["logs.parse"] == 0.0
    assert profile.layer_seconds() == 10.0
    metrics = profile.metrics(operations=2)
    assert metrics["ems.iterations"] == 1.5
    assert metrics["composite.unattributed_s"] == 2.5
    assert metrics["cli.import_modules"] == 2
