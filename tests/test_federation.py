"""Orchestration tests: sampling, local training, aggregation, full runs."""

import json
from pathlib import Path

import numpy as np
import pytest

from fedka import anchor, config, data, federation, metrics, nn
from fedka.rng import stream


def small_setup(seed=0, k=3, per_class=40):
    ds = data.synth_blobs(k, per_class, 2, 5.0, seed=seed)
    spec = nn.mlp_spec(2, (8,), k)
    state = nn.init_state(spec, stream(seed, "init"))
    shard = data.make_shard(0, np.arange(0, len(ds), 2), ds, gamma=0.05)
    return ds, spec, state, shard


def cfg_for(kind, epochs=2, **strategy):
    """A resolved config describing small_setup's data, for local_train."""
    return config.resolve({
        "master_seed": 7,
        "dataset": {"kind": "synth", "classes": 3, "per_class": 40, "dims": 2,
                    "separation": 5.0, "seed": 0},
        "partition": {"clients": 1, "alpha": 1.0},
        "model": {"preset": "mlp", "hidden": [8]},
        "strategy": {"kind": kind, **strategy},
        "training": {"local_epochs": epochs, "batch_size": 16, "lr": 0.05,
                     "weight_decay": 1e-5},
    })


# ---------------------------------------------------------------------------
# participant sampling
# ---------------------------------------------------------------------------


def test_full_participation_returns_everyone():
    ids = list(range(10))
    assert federation.sample_participants(ids, 1.0, stream(1, "p", 1)) == tuple(range(10))


def test_low_ratio_picks_ceil():
    picked = federation.sample_participants(range(10), 0.2, stream(1, "p", 1))
    assert len(picked) == 2
    assert set(picked) <= set(range(10))
    assert len(federation.sample_participants(range(10), 0.11, stream(1, "p", 1))) == 2
    assert len(federation.sample_participants(range(3), 0.01, stream(1, "p", 1))) == 1


def test_sampling_deterministic_per_seed_and_round():
    a = federation.sample_participants(range(30), 0.3, stream(5, "participants", 4))
    b = federation.sample_participants(range(30), 0.3, stream(5, "participants", 4))
    assert a == b
    rounds = {federation.sample_participants(range(30), 0.3, stream(5, "participants", r))
              for r in range(8)}
    assert len(rounds) > 1


def test_sampling_rejects_bad_ratio():
    with pytest.raises(ValueError):
        federation.sample_participants(range(4), 0.0, stream(0, "p"))
    with pytest.raises(ValueError):
        federation.sample_participants(range(4), 1.5, stream(0, "p"))


# ---------------------------------------------------------------------------
# local training
# ---------------------------------------------------------------------------


def test_zero_epochs_returns_global_exactly():
    ds, spec, state, shard = small_setup()
    update = federation.local_train(cfg_for("fedavg", epochs=0), 1, shard, state, spec, ds)
    assert np.array_equal(update.state.params, state.params)
    assert not update.state.momentum.any()
    assert update.loss_trace == ()
    assert update.sample_count == len(shard)


def test_training_changes_parameters_and_logs_loss():
    ds, spec, state, shard = small_setup()
    update = federation.local_train(cfg_for("fedavg", epochs=3), 1, shard, state, spec, ds)
    assert not np.array_equal(update.state.params, state.params)
    assert len(update.loss_trace) == 3
    assert update.loss_trace[-1] < update.loss_trace[0]
    # caller's global state untouched
    assert not state.momentum.any()


def test_fedprox_zero_mu_is_bitwise_fedavg():
    ds, spec, state, shard = small_setup()
    avg = federation.local_train(cfg_for("fedavg"), 1, shard, state, spec, ds)
    prox = federation.local_train(cfg_for("fedprox", mu=0.0), 1, shard, state, spec, ds)
    assert np.array_equal(avg.state.params, prox.state.params)
    assert avg.loss_trace == prox.loss_trace


def test_fedka_zero_beta_is_bitwise_fedavg_with_anchor_audit():
    ds, spec, state, shard = small_setup()
    shared = anchor.build_shared_dataset(ds, seed=7)
    avg = federation.local_train(cfg_for("fedavg"), 1, shard, state, spec, ds)
    ka = federation.local_train(cfg_for("fedka", beta=0.0), 1, shard, state, spec, ds, shared)
    assert np.array_equal(avg.state.params, ka.state.params)
    assert avg.loss_trace == ka.loss_trace


def test_fedka_audit_log_when_client_has_vulnerable_classes():
    ds, spec, state, _ = small_setup()
    lopsided = data.make_shard(
        0, np.concatenate([ds.class_indices[0][:1], ds.class_indices[2][:39]]), ds, 0.05)
    assert lopsided.missing == {1} and lopsided.non_dominant == {0}
    shared = anchor.build_shared_dataset(ds, seed=7)
    update = federation.local_train(cfg_for("fedka", beta=0.1), 1, lopsided, state,
                                    spec, ds, shared)
    assert len(update.anchor_log) == 2
    by_class = {row[0]: row for row in update.anchor_log}
    assert by_class[1][1] == "shared"
    assert by_class[0][1] == "local"


def test_fedka_positive_beta_changes_training():
    ds, spec, state, _ = small_setup()
    lopsided = data.make_shard(
        0, np.concatenate([ds.class_indices[0][:1], ds.class_indices[2][:39]]), ds, 0.05)
    shared = anchor.build_shared_dataset(ds, seed=7)
    plain = federation.local_train(cfg_for("fedavg"), 1, lopsided, state, spec, ds)
    ka = federation.local_train(cfg_for("fedka", beta=0.5), 1, lopsided, state, spec, ds, shared)
    assert not np.array_equal(plain.state.params, ka.state.params)


def test_fedka_local_train_matches_two_pass_reference():
    # Reference: CE and the anchor term each take their own forward and
    # backward pass, and the teacher's logits are recomputed from the global
    # model at every step. The fused step differs in summation order only.
    ds, spec, state, _ = small_setup()
    lopsided = data.make_shard(
        0, np.concatenate([ds.class_indices[0][:1], ds.class_indices[2][:39]]), ds, 0.05)
    shared = anchor.build_shared_dataset(ds, seed=7)
    cfg = cfg_for("fedka", beta=0.3)
    t, strategy = cfg.training, cfg.strategy
    fused = federation.local_train(cfg, 1, lopsided, state, spec, ds, shared)

    arng = stream(cfg.master_seed, "anchor", 1, lopsided.client_id)
    built = anchor.downsample_anchor(
        anchor.build_anchor(lopsided, shared, ds, 1, arng), strategy.mu_anchor, arng)
    assert fused.anchor_log == tuple((e.label, e.source, e.sample_id) for e in built.entries)
    assert {e.source for e in built.entries} == {"shared", "local"} and built.dominant
    ref = state.fresh_local()
    inputs, labels = ds.take(lopsided.indices)
    brng = stream(cfg.master_seed, "batch", 1, lopsided.client_id)
    trace = []
    for _ in range(t.local_epochs):
        order = brng.permutation(len(lopsided))
        losses = []
        for start in range(0, len(lopsided), t.batch_size):
            sel = order[start:start + t.batch_size]
            loss, grad = nn.ce_loss_and_grad(ref, spec, nn.Batch(inputs[sel], labels[sel]))
            ka_loss, ka_grad = anchor.ka_loss_and_grad(built, state, ref, spec)
            ref = nn.sgd_step(ref, grad + strategy.beta * ka_grad,
                              t.lr, t.momentum, t.weight_decay)
            losses.append(loss + strategy.beta * ka_loss)
        trace.append(float(np.mean(losses)))
    np.testing.assert_allclose(fused.state.params, ref.params, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(fused.loss_trace, trace, rtol=1e-10)


def test_large_prox_mu_tethers_to_global():
    ds, spec, state, shard = small_setup()
    free = federation.local_train(cfg_for("fedavg"), 1, shard, state, spec, ds)
    tight = federation.local_train(cfg_for("fedprox", mu=50.0), 1, shard, state, spec, ds)
    d_free = np.linalg.norm(free.state.params - state.params)
    d_tight = np.linalg.norm(tight.state.params - state.params)
    assert d_tight < d_free


def test_fedka_requires_shared_dataset():
    ds, spec, state, shard = small_setup()
    with pytest.raises(ValueError, match="shared"):
        federation.local_train(cfg_for("fedka"), 1, shard, state, spec, ds)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def make_update(params, n, spec_hash="x", client=0):
    state = nn.ModelState(np.asarray(params, dtype=float),
                          np.ones(len(params)), spec_hash)
    return federation.ClientUpdate(client, state, n, (0.0,))


def test_single_client_aggregation_is_identity():
    agg = federation.aggregate([make_update([1.5, -2.5], 7)])
    assert np.array_equal(agg.params, [1.5, -2.5])
    assert not agg.momentum.any()


def test_weighted_mean_hand_example():
    agg = federation.aggregate([
        make_update([0.0, 0.0], 1, client=0),
        make_update([4.0, 4.0], 3, client=1),
    ])
    assert np.array_equal(agg.params, [3.0, 3.0])


def test_aggregate_of_identical_states_is_exact():
    params = stream(3, "p").normal(size=20)
    agg = federation.aggregate([make_update(params, 5, client=i) for i in range(4)])
    assert np.allclose(agg.params, params, rtol=0, atol=1e-15)


def test_aggregate_stays_within_participant_envelope():
    rng = stream(4, "agg")
    updates = [make_update(rng.normal(size=50), int(rng.integers(1, 100)), client=i)
               for i in range(6)]
    agg = federation.aggregate(updates)
    stacked = np.stack([u.state.params for u in updates])
    tol = 1e-12 * np.maximum(1.0, np.abs(stacked).max(axis=0))
    assert np.all(agg.params >= stacked.min(axis=0) - tol)
    assert np.all(agg.params <= stacked.max(axis=0) + tol)


def test_aggregate_validation():
    with pytest.raises(ValueError):
        federation.aggregate([])
    with pytest.raises(nn.ShapeError):
        federation.aggregate([make_update([1.0], 1), make_update([2.0], 1, spec_hash="y")])
    with pytest.raises(ValueError):
        federation.ClientUpdate(0, nn.ModelState(np.zeros(1), np.zeros(1), "x"), 0, ())


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def raw_config(tmp_path, **over):
    raw = {
        "name": "smoke",
        "master_seed": 11,
        "dataset": {"kind": "synth", "classes": 3, "per_class": 30, "dims": 2,
                    "separation": 6.0, "seed": 500, "test_per_class": 40},
        "partition": {"clients": 3, "alpha": 0.5, "seed": 21},
        "model": {"preset": "mlp", "hidden": [8]},
        "strategy": {"kind": "fedavg"},
        "training": {"rounds": 3, "local_epochs": 2, "batch_size": 16, "lr": 0.05},
        "output_dir": str(tmp_path / "run"),
    }
    for key, value in over.items():
        section, _, leaf = key.partition(".")
        if leaf:
            raw.setdefault(section, {})[leaf] = value
        else:
            raw[section] = value
    return raw


def run_cfg(tmp_path, **over):
    cfg = config.resolve(raw_config(tmp_path, **over))
    return federation.run_experiment(cfg), cfg


def test_smoke_run_produces_full_artifact_set(tmp_path):
    out, cfg = run_cfg(tmp_path)
    assert (out / "manifest.json").exists()
    assert (out / "config.json").exists()
    assert (out / "model.json").exists()
    rounds = metrics.read_rounds(out / "metrics" / "rounds.csv")
    assert [r.round for r in rounds] == [1, 2, 3]
    assert rounds[-1].global_acc > 0.5  # separable blobs learn fast
    forg = metrics.read_forgetting(out / "metrics" / "forgetting.csv")
    assert forg and all(rec.round in (1, 2, 3) for rec in forg)
    clients = (out / "metrics" / "clients.csv").read_text().splitlines()
    assert len(clients) == 1 + 3 * 3
    final = nn.load_state(out / "checkpoints" / "final.bin")
    spec = nn.NetworkSpec.load(out / "model.json")
    assert final.spec_hash == spec.spec_hash
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_round"] == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["training"]["rounds"] == 3
    assert manifest["dataset_hash"] != manifest["test_hash"]
    # no anchors file for plain averaging
    assert not (out / "anchors.csv").exists()


def test_zero_rounds_leaves_initial_model(tmp_path):
    out, cfg = run_cfg(tmp_path, **{"training.rounds": 0})
    rounds = (out / "metrics" / "rounds.csv").read_text().splitlines()
    assert len(rounds) == 1  # header only
    final = nn.load_state(out / "checkpoints" / "final.bin")
    train, _ = federation.build_datasets(cfg)
    spec = federation.build_model_spec(cfg, train.inputs.shape[1:], train.class_count)
    init = nn.init_state(spec, stream(cfg.master_seed, "init"))
    assert np.array_equal(final.params, init.params)


def test_rerun_is_byte_identical(tmp_path):
    out_a, _ = run_cfg(tmp_path / "a")
    out_b, _ = run_cfg(tmp_path / "b")
    for rel in ("metrics/rounds.csv", "metrics/forgetting.csv", "metrics/clients.csv"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
    assert ((out_a / "checkpoints" / "final.bin").read_bytes()
            == (out_b / "checkpoints" / "final.bin").read_bytes())


def test_parallel_equals_serial(tmp_path):
    out_s, _ = run_cfg(tmp_path / "serial")
    out_p, _ = run_cfg(tmp_path / "parallel", **{"training.parallel_clients": 3})
    for rel in ("metrics/rounds.csv", "metrics/forgetting.csv", "metrics/clients.csv"):
        assert (out_s / rel).read_bytes() == (out_p / rel).read_bytes()


def test_finished_run_not_overwritten(tmp_path):
    out, cfg = run_cfg(tmp_path)
    with pytest.raises(federation.RunError, match="finished run"):
        federation.run_experiment(cfg)
    federation.run_experiment(cfg, force=True)  # explicit override allowed


def test_partial_participation_marks_nonparticipants(tmp_path):
    out, _ = run_cfg(tmp_path, **{"training.participation_ratio": 0.5,
                                  "partition.clients": 4})
    lines = (out / "metrics" / "clients.csv").read_text().splitlines()[1:]
    by_round: dict[str, list] = {}
    for line in lines:
        cells = line.split(",")
        by_round.setdefault(cells[0], []).append(cells)
    for rnd, rows in by_round.items():
        participated = [c for c in rows if c[2] == "1"]
        skipped = [c for c in rows if c[2] == "0"]
        assert len(participated) == 2 and len(skipped) == 2
        assert all(c[4] == "" for c in skipped)  # no loss for idle clients
    forg = metrics.read_forgetting(out / "metrics" / "forgetting.csv")
    participants_per_round = {}
    for rec in forg:
        participants_per_round.setdefault(rec.round, set()).add(rec.client)
    assert all(len(v) == 2 for v in participants_per_round.values())


def test_fedka_run_writes_anchor_audit(tmp_path):
    out, _ = run_cfg(tmp_path, strategy={"kind": "fedka", "beta": 0.1},
                     partition={"clients": 3, "alpha": 0.1, "seed": 3})
    lines = (out / "anchors.csv").read_text().splitlines()
    assert lines[0] == "round,client,class,source,sample_id,strategy"
    assert len(lines) > 1
    for line in lines[1:]:
        rnd, client, klass, source, sample_id, strategy = line.split(",")
        assert source in ("shared", "local")
        assert strategy == "random"


def test_reduction_schedule_changes_client_sizes(tmp_path):
    out, _ = run_cfg(
        tmp_path,
        schedules={"reduction": [[0, 2, 0, 0]]},  # client 0 drops class 0 at round 2
        partition={"clients": 2, "alpha": 100.0, "seed": 9},
    )
    lines = (out / "metrics" / "clients.csv").read_text().splitlines()[1:]
    sizes = {(c[0], c[1]): int(c[3]) for c in (l.split(",") for l in lines)}
    assert sizes[("2", "0")] < sizes[("1", "0")]
    assert sizes[("2", "1")] == sizes[("1", "1")]
    assert sizes[("3", "0")] == sizes[("2", "0")]


BALANCED_PAIR = {"clients": 2, "alpha": 100.0, "seed": 9}


def test_shard_timeline_matches_per_round_schedule(tmp_path):
    probe = config.resolve(raw_config(tmp_path, partition=BALANCED_PAIR))
    train, _ = federation.build_datasets(probe)
    c0, c1 = (s.counts.tolist() for s in federation.build_shards(probe, train))
    # rows at round 0, two classes at round 2, and one after the last round (3)
    rows = [[0, 0, 0, c0[0] - 2], [0, 2, 1, c0[1] // 2], [1, 2, 2, c1[2] // 3],
            [1, 2, 0, c1[0] - 1], [0, 5, 0, 1], [1, 3, 2, 0]]
    cfg = config.resolve(raw_config(tmp_path, partition=BALANCED_PAIR,
                                    schedules={"reduction": rows}))
    changes = federation.shards_by_round(cfg, train)
    assert sorted(changes) == [0, 1, 2, 3, 5]
    base = changes[0]
    for r in range(1, cfg.training.rounds + 2):
        shards = dict(base)
        for k in sorted(k for k in changes if 0 < k <= r):
            shards.update(changes[k])
        for cid, shard in shards.items():
            sched = [tuple(row[1:]) for row in rows if row[0] == cid]
            want = data.apply_reduction_schedule(base[cid], sched, train, upto_round=r)
            assert np.array_equal(shard.indices, want.indices), (r, cid)
            assert (shard.dominant, shard.non_dominant, shard.missing) == (
                want.dominant, want.non_dominant, want.missing), (r, cid)


def test_round_zero_row_shrinks_round_one(tmp_path):
    probe = config.resolve(raw_config(tmp_path / "probe", partition=BALANCED_PAIR))
    train, _ = federation.build_datasets(probe)
    base = federation.build_shards(probe, train)
    out, _ = run_cfg(tmp_path, schedules={"reduction": [[0, 0, 1, 2]]}, partition=BALANCED_PAIR)
    lines = (out / "metrics" / "clients.csv").read_text().splitlines()[1:]
    sizes = {(c[0], c[1]): int(c[3]) for c in (l.split(",") for l in lines)}
    assert sizes[("1", "0")] == len(base[0]) - int(base[0].counts[1] - 2)
    assert sizes[("1", "1")] == len(base[1])
    assert sizes[("3", "0")] == sizes[("1", "0")]


def test_schedule_for_unknown_client_fails_fast(tmp_path):
    raw = raw_config(tmp_path, schedules={"reduction": [[9, 2, 0, 0]]})
    cfg = config.resolve(raw)
    with pytest.raises(federation.RunError, match="unknown client 9"):
        federation.run_experiment(cfg)


def test_every_schedule_row_checked_before_round_one(tmp_path):
    # keep exceeds the class count in a row due after the last (third) round
    cfg = config.resolve(raw_config(tmp_path, schedules={"reduction": [[0, 5, 0, 10000]]}))
    with pytest.raises(federation.RunError, match="schedule of client 0: round 5: cannot keep 10000"):
        federation.run_experiment(cfg)
    assert not (tmp_path / "run" / "metrics").exists()


def test_mlp_preset_flattens_image_samples(tmp_path):
    cfg = config.resolve(raw_config(tmp_path, **{"model.hidden": [6]}))
    spec = federation.build_model_spec(cfg, (1, 10, 10), 3)
    assert [layer.name for layer in spec.layers] == [
        "flatten", "dense(100->6)", "relu", "dense(6->3)"]
    assert spec.spec_hash == "b02d96a68d4c0c2c85fe89011915b0888cdccfdf81576a67fda00ec314cdec35"


def test_checkpoint_interval(tmp_path):
    out, _ = run_cfg(tmp_path, **{"metrics.checkpoint_interval": 2})
    names = sorted(p.name for p in (out / "checkpoints").iterdir())
    assert names == ["final.bin", "round_00002.bin"]


def test_epoch_forgetting_flag(tmp_path):
    out, _ = run_cfg(tmp_path, **{"metrics.epoch_forgetting": True})
    path = out / "metrics" / "forgetting_epochs.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "round,epoch,client,class,role,acc_global,acc_local,tau"
    epochs = {line.split(",")[1] for line in lines[1:]}
    assert epochs == {"1", "2"}
