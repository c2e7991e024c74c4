"""The benchmark's tracer wraps fedka functions by name: every name it wraps
must exist, and removing the tracer must put every original back. Its
per-layer table calls each layer's forward and backward positionally, and
must keep running; so do its counters, which read call arguments."""

from pathlib import Path

import pytest

from fedka import config, federation

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    return spans


def test_every_traced_name_exists(spans):
    missing = [f"{getattr(ns, '__name__', ns)}.{attr}"
               for _, sites in spans.TARGETS for ns, attr in sites if attr not in ns.__dict__]
    assert missing == []


def test_tracer_removal_restores_every_original(spans):
    sites = [(ns, attr) for _, entries in spans.TARGETS for ns, attr in entries]
    originals = [ns.__dict__[attr] for ns, attr in sites]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(ns.__dict__[attr] is not original
                   for (ns, attr), original in zip(sites, originals))
    finally:
        tracer.remove()
    assert all(ns.__dict__[attr] is original for (ns, attr), original in zip(sites, originals))


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    return layers


def test_layer_table_times_every_layer(layers):
    rows = layers.table(1)
    assert [(r["model"], r["index"]) for r in rows] == [
        (model, i) for model, spec in layers.MODELS.items() for i in range(len(spec.layers))]
    assert all(r["forward_s"] > 0 and r["backward_s"] > 0 for r in rows)


def test_tracer_counters_match_independent_counts(spans, tmp_path, monkeypatch):
    """The counters read call arguments and results by position: the test
    set is classwise_accuracy's third argument, and a downsampled anchor's
    length is its entry count."""
    cfg = config.resolve({
        "master_seed": 5,
        "dataset": {"kind": "synth", "classes": 3, "per_class": 30, "dims": 2,
                    "separation": 6.0, "seed": 500, "test_per_class": 40},
        "partition": {"clients": 3, "alpha": 0.1, "seed": 3},
        "model": {"preset": "mlp", "hidden": [8]},
        "strategy": {"kind": "fedka", "beta": 0.1},
        "training": {"rounds": 2, "local_epochs": 1, "batch_size": 16, "lr": 0.05},
        "output_dir": str(tmp_path / "run"),
    })
    calls = []
    original = federation.classwise_accuracy

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(federation, "classwise_accuracy", counting)
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = federation.run_experiment(cfg)
    finally:
        tracer.remove()
    _, counts = tracer.take()
    _, test = federation.build_datasets(cfg)
    anchor_rows = len((out / "anchors.csv").read_text().splitlines()) - 1
    assert calls and anchor_rows > 0
    assert counts["metrics.eval_samples"] == len(test) * len(calls)
    assert counts["anchor.entries"] == anchor_rows
