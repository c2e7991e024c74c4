"""Forgetting-degree and accuracy tests with hand-checked expectations."""

import math

import numpy as np
import pytest

from fedka import data, metrics, nn
from fedka.rng import stream


# ---------------------------------------------------------------------------
# forgetting degree
# ---------------------------------------------------------------------------


def test_forgetting_worked_examples():
    # (0.8 - 0.2) / (0.8 + 1e-8)
    assert metrics.forgetting_degree(0.8, 0.2, 1e-8) == pytest.approx(0.75, abs=1e-7)
    # no change, any accuracy
    for a in (0.0, 0.3, 1.0):
        assert metrics.forgetting_degree(a, a, 1e-8) == 0.0
    # zero global accuracy: pole guarded by xi, large negative value
    assert metrics.forgetting_degree(0.0, 0.4, 1e-8) == pytest.approx(-4e7, rel=1e-9)


def test_forgetting_sign_semantics_and_upper_bound():
    rng = stream(1, "tau")
    for _ in range(100_000):
        g, l = rng.uniform(0.0, 1.0, size=2)
        tau = metrics.forgetting_degree(g, l)
        assert tau <= 1.0
        if l > g:
            assert tau < 0.0
        elif l < g:
            assert tau > 0.0
        else:
            assert tau == 0.0


def test_forgetting_validation():
    with pytest.raises(ValueError):
        metrics.forgetting_degree(1.2, 0.5)
    with pytest.raises(ValueError):
        metrics.forgetting_degree(0.5, 0.5, xi=0.0)


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------


def constant_class0_model(input_dim, k):
    spec = nn.mlp_spec(input_dim, (), k)
    params = np.zeros(spec.param_count)
    params[-k] = 10.0  # bias of class 0
    return spec, nn.ModelState(params, np.zeros_like(params), spec.spec_hash)


def test_constant_predictor_class_accuracy():
    ds = data.synth_blobs(4, 50, 3, 2.0, seed=2)
    spec, state = constant_class0_model(3, 4)
    acc = metrics.classwise_accuracy(state, spec, ds)
    assert np.array_equal(acc, [1.0, 0.0, 0.0, 0.0])
    # balanced test set: global equals plain mean
    assert metrics.global_accuracy(acc, ds) == pytest.approx(0.25)


def test_random_logits_are_chance_level():
    k = 4
    ds = data.synth_blobs(k, 1000, 6, 0.0, seed=3)
    logits = stream(4, "logits").normal(size=(len(ds), k))
    acc = metrics.accuracy_from_logits(logits, ds)
    assert np.all(np.abs(acc - 1.0 / k) < 0.05)


def test_argmax_ties_go_to_lowest_class():
    spec = nn.mlp_spec(2, (), 3)
    state = nn.ModelState(np.zeros(spec.param_count), np.zeros(spec.param_count), spec.spec_hash)
    ds = data.LabeledDataset(np.ones((3, 2)), np.array([0, 1, 2]), 3, "ties")
    acc = metrics.classwise_accuracy(state, spec, ds)
    # all logits equal -> everything predicted as class 0
    assert np.array_equal(acc, [1.0, 0.0, 0.0])


def test_absent_class_is_nan_and_excluded():
    ds = data.LabeledDataset(np.zeros((4, 2)), np.array([0, 0, 2, 2]), 3, "gap")
    spec, state = constant_class0_model(2, 3)
    acc = metrics.classwise_accuracy(state, spec, ds)
    assert acc[0] == 1.0 and math.isnan(acc[1]) and acc[2] == 0.0
    # weighted global over defined classes only
    assert metrics.global_accuracy(acc, ds) == pytest.approx(0.5)
    shard = data.make_shard(0, np.array([0, 1]), ds, gamma=0.05)
    records = metrics.measure_local_forgetting(shard, acc, state, spec, ds, round_index=3)
    assert sorted(r.klass for r in records) == [0, 2]
    assert all(r.tau == 0.0 for r in records)  # local model == global column source
    assert {r.role for r in records} == {"dominant", "missing"}


def test_forgetting_records_satisfy_their_own_equation():
    ds = data.synth_blobs(3, 30, 2, 4.0, seed=5)
    spec = nn.mlp_spec(2, (8,), 3)
    g_state = nn.init_state(spec, stream(6, "init"))
    l_state = nn.init_state(spec, stream(7, "init"))
    shard = data.make_shard(1, np.arange(20), ds, gamma=0.05)
    g_acc = metrics.classwise_accuracy(g_state, spec, ds)
    records = metrics.measure_local_forgetting(shard, g_acc, l_state, spec, ds, round_index=9)
    assert len(records) == 3
    for r in records:
        assert r.tau == metrics.forgetting_degree(r.acc_global, r.acc_local)
        assert r.round == 9 and r.client == 1


# ---------------------------------------------------------------------------
# rounds to target
# ---------------------------------------------------------------------------


def test_rounds_to_target_crossings():
    curve = [(1, 0.3), (2, 0.6), (3, 0.7)]
    assert metrics.rounds_to_target(curve, 0.5) == 2
    assert metrics.rounds_to_target(curve, 0.6) == 2  # boundary inclusive
    assert metrics.rounds_to_target(curve, 0.9) is None
    # curve against itself at its own final accuracy
    assert metrics.rounds_to_target(curve, curve[-1][1]) == 3


def test_rounds_to_target_validation():
    with pytest.raises(ValueError):
        metrics.rounds_to_target([], 0.5)
    with pytest.raises(ValueError):
        metrics.rounds_to_target([(2, 0.1), (1, 0.2)], 0.5)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    rec = metrics.RoundRecord(
        round=4, global_acc=1 / 3, class_acc=(1 / 3, 2 / 3), participants=(0, 2),
        client_losses={0: 0.123456789012, 2: 1.5},
    )
    forg = [
        metrics.ForgettingRecord(4, 0, 1, "non_dominant", 2 / 3, 1 / 3, 0.5 - 1e-11),
        metrics.ForgettingRecord(4, 2, 0, "missing", 0.25, 0.75, -2.0 + 1e-11),
    ]
    with metrics.MetricsWriter(tmp_path, class_count=2) as writer:
        writer.write_round(rec, [(0, 10), (1, 20), (2, 30)])
        writer.write_forgetting(forg)

    rounds = metrics.read_rounds(tmp_path / "metrics" / "rounds.csv")
    assert len(rounds) == 1
    assert rounds[0].round == 4
    assert rounds[0].global_acc == pytest.approx(1 / 3, abs=1e-10)
    assert rounds[0].class_acc == pytest.approx((1 / 3, 2 / 3), abs=1e-10)

    back = metrics.read_forgetting(tmp_path / "metrics" / "forgetting.csv")
    assert len(back) == 2
    for orig, parsed in zip(forg, back):
        assert (parsed.round, parsed.client, parsed.klass, parsed.role) == (
            orig.round, orig.client, orig.klass, orig.role)
        assert parsed.acc_global == pytest.approx(orig.acc_global, rel=1e-9)
        assert parsed.tau == pytest.approx(orig.tau, rel=1e-9)

    clients = (tmp_path / "metrics" / "clients.csv").read_text().splitlines()
    assert clients[0] == "round,client,participated,n_samples,mean_loss"
    assert clients[1].startswith("4,0,1,10,0.123456789")
    assert clients[2] == "4,1,0,20,"


def test_headers_match_pinned_layout(tmp_path):
    with metrics.MetricsWriter(tmp_path / "plain", class_count=3):
        pass
    plain = tmp_path / "plain"
    assert (plain / "metrics" / "rounds.csv").read_text() == (
        "round,global_acc,acc_class_0,acc_class_1,acc_class_2\n")
    assert (plain / "metrics" / "forgetting.csv").read_text() == (
        "round,client,class,role,acc_global,acc_local,tau\n")
    assert not (plain / "anchors.csv").exists()
    assert not (plain / "metrics" / "forgetting_epochs.csv").exists()

    rec = metrics.ForgettingRecord(2, 1, 0, "missing", 0.5, 0.25, 0.5)
    with metrics.MetricsWriter(tmp_path / "full", 3, anchor_selection="hard",
                               epoch_forgetting=True) as writer:
        writer.write_anchors(2, 1, [(0, "shared", 17)])
        writer.write_epoch_forgetting(3, [rec])
    full = tmp_path / "full"
    assert (full / "anchors.csv").read_text() == (
        "round,client,class,source,sample_id,strategy\n2,1,0,shared,17,hard\n")
    assert (full / "metrics" / "forgetting_epochs.csv").read_text() == (
        "round,epoch,client,class,role,acc_global,acc_local,tau\n2,3,1,0,missing,0.5,0.25,0.5\n")


def test_summary_contains_speedup_table(tmp_path):
    curve = [(1, 0.2), (2, 0.5), (3, 0.8)]
    rec = metrics.RoundRecord(3, 0.8, (0.8, 0.8), (0,), {})
    metrics.write_summary(tmp_path / "summary.json", rec, curve, targets=[0.5, 0.95])
    import json
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["final_global_acc"] == 0.8
    assert payload["rounds_to_target"]["0.5"] == 2
    assert payload["rounds_to_target"]["0.95"] is None
