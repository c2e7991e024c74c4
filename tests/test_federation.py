"""Orchestration tests: sampling, local training, aggregation, full runs."""

import dataclasses
import json
import os
import re
import resource
import sys
import threading
import tracemalloc
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
    [update] = federation.local_train(cfg_for("fedavg", epochs=0), 1, [shard], state, spec, ds)
    assert np.array_equal(update.state.params, state.params)
    assert update.loss_trace == ()
    assert update.sample_count == len(shard)


def test_training_changes_parameters_and_logs_loss():
    ds, spec, state, shard = small_setup()
    before = state.params.copy()
    [update] = federation.local_train(cfg_for("fedavg", epochs=3), 1, [shard], state, spec, ds)
    assert not np.array_equal(update.state.params, state.params)
    assert len(update.loss_trace) == 3
    assert update.loss_trace[-1] < update.loss_trace[0]
    # caller's global state untouched
    assert state.params.tobytes() == before.tobytes()


def test_fedprox_zero_mu_is_bitwise_fedavg():
    ds, spec, state, shard = small_setup()
    [avg] = federation.local_train(cfg_for("fedavg"), 1, [shard], state, spec, ds)
    [prox] = federation.local_train(cfg_for("fedprox", mu=0.0), 1, [shard], state, spec, ds)
    assert np.array_equal(avg.state.params, prox.state.params)
    assert avg.loss_trace == prox.loss_trace


def test_fedka_zero_beta_is_bitwise_fedavg_with_anchor_audit():
    ds, spec, state, shard = small_setup()
    shared = anchor.build_shared_dataset(ds, seed=7)
    [avg] = federation.local_train(cfg_for("fedavg"), 1, [shard], state, spec, ds)
    [ka] = federation.local_train(cfg_for("fedka", beta=0.0), 1, [shard], state, spec, ds, shared)
    assert np.array_equal(avg.state.params, ka.state.params)
    assert avg.loss_trace == ka.loss_trace


def test_fedka_audit_log_when_client_has_vulnerable_classes():
    ds, spec, state, _ = small_setup()
    lopsided = data.make_shard(
        0, np.concatenate([ds.class_indices[0][:1], ds.class_indices[2][:39]]), ds, 0.05)
    assert lopsided.missing == {1} and lopsided.non_dominant == {0}
    shared = anchor.build_shared_dataset(ds, seed=7)
    [update] = federation.local_train(cfg_for("fedka", beta=0.1), 1, [lopsided], state,
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
    [plain] = federation.local_train(cfg_for("fedavg"), 1, [lopsided], state, spec, ds)
    [ka] = federation.local_train(cfg_for("fedka", beta=0.5), 1, [lopsided], state, spec, ds, shared)
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
    [fused] = federation.local_train(cfg, 1, [lopsided], state, spec, ds, shared)

    arng = stream(cfg.master_seed, "anchor", 1, lopsided.client_id)
    built = anchor.downsample_anchor(
        anchor.build_anchor(lopsided, shared, ds, arng), strategy.mu_anchor, arng)
    assert fused.anchor_log == tuple((e.label, e.source, e.sample_id) for e in built.entries)
    assert {e.source for e in built.entries} == {"shared", "local"} and built.dominant
    ref, momentum = nn.ModelState(state.params.copy(), state.spec_hash), np.zeros_like(state.params)
    inputs, labels = ds.take(lopsided.indices)
    brng = stream(cfg.master_seed, "batch", 1, lopsided.client_id)
    trace = []
    for _ in range(t.local_epochs):
        order = brng.permutation(len(lopsided))
        losses = []
        for start in range(0, len(lopsided), t.batch_size):
            sel = order[start:start + t.batch_size]
            loss, grad = nn.ce_loss_and_grad(ref, spec, inputs[sel], labels[sel])
            ka_loss, ka_grad = anchor.ka_loss_and_grad(built, state, ref, spec)
            ref.params, momentum = nn.sgd_step(ref.params, momentum, grad + strategy.beta * ka_grad,
                                               t.lr, t.momentum, t.weight_decay)
            losses.append(loss + strategy.beta * ka_loss)
        trace.append(float(np.mean(losses)))
    np.testing.assert_allclose(fused.state.params, ref.params, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(fused.loss_trace, trace, rtol=1e-10)


def test_large_prox_mu_tethers_to_global():
    ds, spec, state, shard = small_setup()
    [free] = federation.local_train(cfg_for("fedavg"), 1, [shard], state, spec, ds)
    [tight] = federation.local_train(cfg_for("fedprox", mu=50.0), 1, [shard], state, spec, ds)
    d_free = np.linalg.norm(free.state.params - state.params)
    d_tight = np.linalg.norm(tight.state.params - state.params)
    assert d_tight < d_free


def test_fedka_requires_shared_dataset():
    ds, spec, state, shard = small_setup()
    with pytest.raises(ValueError, match="shared"):
        federation.local_train(cfg_for("fedka"), 1, [shard], state, spec, ds)


def test_local_train_refuses_an_unknown_strategy_kind():
    ds, spec, state, shard = small_setup()
    cfg = cfg_for("fedavg")
    cfg = dataclasses.replace(cfg, strategy=dataclasses.replace(cfg.strategy, kind="fedsgd"))
    with pytest.raises(ValueError, match="unknown strategy 'fedsgd'"):
        federation.local_train(cfg, 1, [shard], state, spec, ds)


# ---------------------------------------------------------------------------
# lockstep training against a serial reference
# ---------------------------------------------------------------------------

# class counts of five clients at gamma 0.05: anchors of 0 rows (every class
# dominant), 3 (two missing classes and a non-dominant one), 1, 2 and 1 rows.
# At batch 8: partial last batches of 7, 4 and a single row; client 3 takes
# one step an epoch and leaves the stack after three, client 2 takes 24.
LOCKSTEP_COUNTS = [[10, 10, 10, 10], [1, 0, 0, 30], [0, 20, 20, 20], [0, 0, 2, 1], [4, 0, 3, 2]]


def lockstep_setup(preset):
    flat = data.synth_blobs(4, 80, 36, 4.0, seed=3)
    if preset == "mlp":
        ds, spec = flat, nn.mlp_spec(36, (8,), 4)
    else:
        ds = data.LabeledDataset(flat.inputs.reshape(-1, 1, 6, 6), flat.labels, 4, "images")
        spec = nn.NetworkSpec((nn.Conv2d(1, 2, 3), nn.Relu(), nn.MaxPool(2), nn.Flatten(),
                               nn.Dense(8, 6), nn.Relu(), nn.Dense(6, 4)), (1, 6, 6), 4)
    used = np.zeros(4, dtype=int)
    shards = []
    for cid, counts in enumerate(LOCKSTEP_COUNTS):
        idx = [ds.class_indices[k][used[k]:used[k] + c] for k, c in enumerate(counts)]
        used += counts
        shards.append(data.make_shard(cid, np.concatenate(idx), ds, gamma=0.05))
    state = nn.init_state(spec, stream(5, "init"))
    return ds, spec, state, shards


def serial_reference(cfg, r, shard, global_state, spec, ds, shared):
    """One client alone, step by step through the training step on a stack
    of one and nn.sgd_step; returns the client's state, its loss trace, its
    anchor log and its parameters after each epoch."""
    strategy, t = cfg.strategy, cfg.training
    params, momentum = global_state.params.copy(), np.zeros_like(global_state.params)
    term, anchor_log = None, ()
    if strategy.kind == "fedka":
        arng = stream(cfg.master_seed, "anchor", r, shard.client_id)
        chooser = anchor.select_anchor_strategy(shard, strategy.selection, ds, global_state, spec)
        built = anchor.downsample_anchor(
            anchor.build_anchor(shard, shared, ds, arng, variant=strategy.variant, chooser=chooser),
            strategy.mu_anchor, arng)
        anchor_log = tuple((e.label, e.source, e.sample_id) for e in built.entries)
        if strategy.beta > 0.0 and len(built) > 0:
            term = built
    anchored = anchor.anchor_rows([term], global_state, spec)
    center = global_state.params if strategy.kind == "fedprox" and strategy.mu > 0.0 else None
    inputs, labels = ds.take(shard.indices)
    brng = stream(cfg.master_seed, "batch", r, shard.client_id)
    trace, epoch_states = [], []
    for _ in range(t.local_epochs):
        order = brng.permutation(len(shard))
        losses = []
        for start in range(0, len(shard), t.batch_size):
            sel = order[start:start + t.batch_size]
            rows = anchored.layout((len(sel),))
            x = inputs[sel] if term is None else np.concatenate([inputs[sel], anchored.inputs])
            grad = np.empty((1, spec.param_count))
            logits, p_loss = anchor.fused_gradient(spec, params[None], x, labels[sel], rows,
                                                   strategy.beta, grad, center, strategy.mu)
            loss = float(anchor.fused_losses(logits, labels[sel], rows, strategy.beta)[0])
            if center is not None:
                loss += float(p_loss[0])
            params, momentum = nn.sgd_step(params, momentum, grad[0], t.lr, t.momentum, t.weight_decay)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
        if cfg.metrics.epoch_forgetting:
            epoch_states.append(params)
    return nn.ModelState(params, global_state.spec_hash), tuple(trace), anchor_log, epoch_states


def lockstep_cfg(kind, **strategy):
    return config.resolve({
        "master_seed": 9,
        "dataset": {"kind": "synth", "classes": 4, "per_class": 80, "dims": 36,
                    "separation": 4.0, "seed": 3},
        "partition": {"clients": 5, "alpha": 1.0},
        "model": {"preset": "mlp", "hidden": [8]},
        "strategy": {"kind": kind, **strategy},
        "training": {"local_epochs": 3, "batch_size": 8, "lr": 0.05, "weight_decay": 1e-3},
        "metrics": {"epoch_forgetting": True},
    })


@pytest.mark.parametrize("preset, kind, strategy", [
    ("mlp", "fedavg", {}),
    ("mlp", "fedprox", {"mu": 0.2}),
    ("mlp", "fedka", {"beta": 0.3}),
    ("mlp", "fedka", {"beta": 0.0}),
    ("t_cnn", "fedka", {"beta": 0.3}),
])
def test_lockstep_matches_serial_reference_byte_for_byte(preset, kind, strategy):
    ds, spec, state, shards = lockstep_setup(preset)
    shared = anchor.build_shared_dataset(ds, seed=9)
    cfg = lockstep_cfg(kind, **strategy)
    if kind == "fedka":
        sizes = [len(anchor.build_anchor(s, shared, ds, stream(0, "a"))) for s in shards]
        assert sizes == [0, 3, 1, 2, 1]
    updates = federation.local_train(cfg, 2, shards, state, spec, ds, shared)
    assert [u.client_id for u in updates] == [s.client_id for s in shards]
    for shard, update in zip(shards, updates):
        ref, trace, anchor_log, epoch_states = serial_reference(cfg, 2, shard, state, spec, ds, shared)
        assert update.sample_count == len(shard)
        assert update.state.params.tobytes() == ref.params.tobytes()
        assert np.array(update.loss_trace).tobytes() == np.array(trace).tobytes()
        assert update.anchor_log == anchor_log
        # the last epoch's state is the update's own
        assert len(update.epoch_states) + 1 == len(epoch_states) == 3
        for got, want in zip([*update.epoch_states, update.state], epoch_states):
            assert got.params.tobytes() == want.tobytes()
    # a different grouping of the same clients gives the same updates, and an empty group none
    halves = (federation.local_train(cfg, 2, shards[:2], state, spec, ds, shared)
              + federation.local_train(cfg, 2, [], state, spec, ds, shared)
              + federation.local_train(cfg, 2, shards[2:], state, spec, ds, shared))
    for a, b in zip(updates, halves):
        assert a.state.params.tobytes() == b.state.params.tobytes()
        assert a.loss_trace == b.loss_trace


def test_training_workspace_changes_no_bit():
    """One workspace kept across two rounds, whose stacks hold different row
    counts, trains exactly as fresh allocations do. Two convs, so col2im
    runs too, and fedka, so the anchor rows pass through them."""
    ds, _, _, shards = lockstep_setup("t_cnn")
    spec = nn.NetworkSpec((nn.Conv2d(1, 3, 3), nn.Relu(), nn.Conv2d(3, 4, 3), nn.Relu(),
                           nn.MaxPool(2), nn.Flatten(), nn.Dense(4, 4)), (1, 6, 6), 4)
    state = nn.init_state(spec, stream(5, "init"))
    shared = anchor.build_shared_dataset(ds, seed=9)
    cfg = lockstep_cfg("fedka", beta=0.3)
    workspace = nn.Workspace()
    for r, group in ((1, shards), (2, shards[3:])):
        kept = federation.local_train(cfg, r, group, state, spec, ds, shared, workspace)
        fresh = federation.local_train(cfg, r, group, state, spec, ds, shared)
        for a, b in zip(kept, fresh, strict=True):
            assert a.state.params.tobytes() == b.state.params.tobytes()
            assert a.loss_trace == b.loss_trace
    assert workspace._memory.size > 0


@pytest.mark.parametrize("kind, strategy", [("fedka", {"beta": 0.3}), ("fedprox", {"mu": 0.2})])
def test_losses_settled_after_every_step_equal_one_settle_a_round(kind, strategy, monkeypatch):
    """With the bound on kept logits at one entry, the losses are settled
    after every step instead of once at the end of the round. The traces
    are byte for byte the same: uneven shards with partial last batches
    give the steps several layouts, anchors of 3, 1, 2 and 1 rows (fedka)
    and proximal losses (fedprox) join each settle."""
    ds, spec, state, shards = lockstep_setup("mlp")
    shared = anchor.build_shared_dataset(ds, seed=9)
    cfg = lockstep_cfg(kind, **strategy)
    step_layouts, settles = set(), []
    original = anchor.AnchorRows.layout

    def recording(blocks, batch_counts, clients=None):
        if clients is None:
            step_layouts.add(tuple(batch_counts))
        else:
            settles.append(len(clients))
        return original(blocks, batch_counts, clients)

    monkeypatch.setattr(anchor.AnchorRows, "layout", recording)
    whole = federation.local_train(cfg, 2, shards, state, spec, ds, shared)
    assert len(step_layouts) >= 3 and len(settles) == 1
    monkeypatch.setattr(federation, "_PENDING_LOSS_ENTRIES", 1)
    settles.clear()
    stepwise = federation.local_train(cfg, 2, shards, state, spec, ds, shared)
    assert len(settles) == 24                  # client 2's steps: 8 an epoch for 3 epochs
    for a, b in zip(whole, stepwise, strict=True):
        assert np.array(a.loss_trace).tobytes() == np.array(b.loss_trace).tobytes()
        assert a.state.params.tobytes() == b.state.params.tobytes()


def test_a_non_finite_anchor_input_names_the_first_client_it_reaches():
    """A NaN in a shared sample is reported, before any step, for the first
    client whose anchor holds it in stack order: most steps first (15, 12,
    24, 3 and 6 steps for clients 0 to 4), ties in shard order. Shared
    class 1 stands in the anchors of clients 1, 3 and 4, which miss that
    class: client 1 comes first in both orders. Shared class 0 stands in
    those of clients 2 and 3: with classes 0 and 1 poisoned, client 2 comes
    first in stack order, client 1 in shard order. The poisoned samples are
    train-set rows that no shard holds, so no batch meets them."""
    ds, spec, state, shards = lockstep_setup("mlp")
    held = np.concatenate([s.indices for s in shards])
    spare = np.array([np.setdiff1d(ds.class_indices[k], held)[-1] for k in range(ds.class_count)])
    inputs = ds.inputs.copy()
    inputs[spare, 0] = np.nan
    poisoned = data.LabeledDataset(inputs, ds.labels, ds.class_count, "poisoned")
    shared = anchor.build_shared_dataset(ds, seed=9)
    for classes, client in [([1], 1), ([0, 1], 2)]:
        ids = shared.copy()
        ids[classes] = spare[classes]
        with pytest.raises(federation.RunError,
                           match=f"round 2, client {client}: non-finite values in network inputs") as info:
            federation.local_train(lockstep_cfg("fedka", beta=0.3), 2, shards, state, spec, poisoned, ids)
        assert isinstance(info.value.__cause__, nn.NonFiniteError)


def test_warmed_workspace_step_allocates_no_activation():
    """A lockstep t_cnn step through a workspace that has run one step before
    writes every conv, ReLU and pool output and input gradient into its
    region: the step allocates less than one conv0 activation, counting
    the pages it faults in, which tracemalloc does not see."""
    spec = nn.tcnn_spec((1, 28, 28), 4, conv_kernel=5)
    flat = data.synth_blobs(4, 5, 784, 4.0, seed=3)
    inputs, labels = flat.inputs.reshape(-1, 1, 28, 28), flat.labels
    state = nn.init_state(spec, stream(5, "init"))
    rows = anchor.anchor_rows([None, None], state, spec).layout((12, 8))
    params = np.repeat(state.params[None], 2, axis=0)
    momentum, grad = np.zeros_like(params), np.empty_like(params)
    workspace = nn.Workspace()

    def step() -> int:
        """The bytes of the pages the step faults in."""
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        anchor.fused_gradient(spec, params, inputs, labels, rows, 0.0, grad, workspace=workspace)
        nn.sgd_update(params, momentum, grad, 0.01, 0.9, 1e-4)
        return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) * resource.getpagesize()

    conv0 = len(inputs) * 32 * 24 * 24 * 8     # 20 rows of 32 channels of 24x24
    assert step() >= conv0                      # the first step touches its region
    tracemalloc.start()
    try:
        faulted = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak + faulted < conv0


@pytest.mark.parametrize("preset, cores, stacks", [("t_cnn", 2, 2), ("mlp", 2, 1), ("t_cnn", 8, 2)],
                         ids=["t_cnn-2", "mlp-1", "t_cnn-8-cores"])
def test_parallel_clients_0_picks_the_stacks_by_work(preset, cores, stacks, monkeypatch):
    """On 2 cores the rule gives t_cnn (137M multiply-adds for a batch of
    32 rows) two stacks, the calling thread's among them, and an MLP of
    100k a row one; 8 cores give t_cnn's 4 clients no more than
    CHOSEN_STACKS. The updates are those of one serial stack."""
    flat = data.synth_blobs(4, 10, 784, 4.0, seed=3)
    if preset == "t_cnn":
        ds = data.LabeledDataset(flat.inputs.reshape(-1, 1, 28, 28), flat.labels, 4, "images")
        spec = nn.tcnn_spec((1, 28, 28), 4, conv_kernel=5)
    else:
        ds, spec = flat, nn.mlp_spec(784, (128,), 4)
    shards = {s.client_id: s for s in data.dirichlet_partition(ds, 4, 1.0, 5)}
    state = nn.init_state(spec, stream(5, "init"))
    cfg = lockstep_cfg("fedavg")
    cfg = dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, batch_size=32))
    assert cfg.training.parallel_clients == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    threads = []
    original = federation.local_train

    def recorder(*args):
        threads.append(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(federation, "local_train", recorder)
    updates = federation.run_round(cfg, 1, shards, state, spec, ds, None, nn.Workspace())
    assert len(threads) == len(set(threads)) == stacks and threading.get_ident() in threads
    serial_cfg = dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, parallel_clients=1))
    serial = federation.run_round(serial_cfg, 1, shards, state, spec, ds, None, nn.Workspace())
    assert len(threads) == stacks + 1
    for a, b in zip(updates, serial, strict=True):
        assert a.client_id == b.client_id
        assert a.state.params.tobytes() == b.state.params.tobytes()
        assert a.loss_trace == b.loss_trace


def test_more_training_stacks_than_cores_lose_no_update():
    """Five stacks in five threads on the host's cores, switching every few
    µs: each stack writes its own rows of the round's arrays only, so every
    update is the one of a single stack."""
    ds, spec, state, shards = lockstep_setup("t_cnn")
    shards = {s.client_id: s for s in shards}
    cfg = lockstep_cfg("fedavg")
    serial_cfg, stacked_cfg = (
        dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, parallel_clients=k))
        for k in (1, 5))
    serial = federation.run_round(serial_cfg, 1, shards, state, spec, ds, None, nn.Workspace())
    workspace = nn.Workspace()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            updates = federation.run_round(stacked_cfg, 1, shards, state, spec, ds, None, workspace)
            for a, b in zip(updates, serial, strict=True):
                assert a.client_id == b.client_id
                assert a.state.params.tobytes() == b.state.params.tobytes()
                assert a.loss_trace == b.loss_trace
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == 1


def test_rounds_on_one_workspace_train_in_its_kept_stack_memory():
    """The round's parameter, momentum and gradient stacks live in the
    workspace: a later round, and one with fewer participants, trains in the
    memory of the first, and every update is the one of a fresh workspace."""
    ds, spec, state, shards = lockstep_setup("mlp")
    shards = {s.client_id: s for s in shards}
    cfg = lockstep_cfg("fedavg")
    fewer = dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, participation_ratio=0.4))
    workspace = nn.Workspace()
    kept = workspace.stacks(len(shards), spec.param_count)
    for r, round_cfg in ((1, cfg), (2, cfg), (3, fewer)):
        updates = federation.run_round(round_cfg, r, shards, state, spec, ds, None, workspace)
        fresh = federation.run_round(round_cfg, r, shards, state, spec, ds, None, nn.Workspace())
        assert len(updates) == (2 if r == 3 else 5)
        for a, b in zip(updates, fresh, strict=True):
            assert np.shares_memory(a.state.params, kept)
            assert a.state.params.tobytes() == b.state.params.tobytes()


def test_round_of_one_step_clients_writes_no_momentum_row():
    """A t_cnn round whose clients take one step each leaves the momentum
    rows of the workspace's stacks untouched: their pages fault in only when
    written after the round, a later round leaves what was written there,
    and every update is the one of a fresh workspace."""
    flat = data.synth_blobs(4, 5, 784, 4.0, seed=3)
    ds = data.LabeledDataset(flat.inputs.reshape(-1, 1, 28, 28), flat.labels, 4, "images")
    spec = nn.tcnn_spec((1, 28, 28), 4, conv_kernel=5)
    shards = {s.client_id: s for s in data.dirichlet_partition(ds, 2, 1.0, 5)}
    state = nn.init_state(spec, stream(5, "init"))
    cfg = lockstep_cfg("fedavg")
    cfg = dataclasses.replace(cfg, training=dataclasses.replace(
        cfg.training, batch_size=32, local_epochs=1, parallel_clients=1))
    assert max(len(s) for s in shards.values()) <= 32
    workspace = nn.Workspace()
    momentum = workspace.stacks(len(shards), spec.param_count)[1]
    federation.run_round(cfg, 1, shards, state, spec, ds, None, workspace)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    momentum[...] = np.nan
    faulted = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) * resource.getpagesize()
    assert faulted >= momentum.nbytes - resource.getpagesize()
    updates = federation.run_round(cfg, 2, shards, state, spec, ds, None, workspace)
    assert np.isnan(momentum).all()
    fresh = federation.run_round(cfg, 2, shards, state, spec, ds, None, nn.Workspace())
    for a, b in zip(updates, fresh, strict=True):
        assert a.state.params.tobytes() == b.state.params.tobytes()


def recording_steps(monkeypatch):
    """Count the SGD updates and stacked training steps local_train makes
    (not every nn.forward: the teacher's pass is one too)."""
    calls = []
    for module, name in ((nn, "sgd_update"), (anchor, "fused_gradient")):
        original = getattr(module, name)

        def recorder(*args, original=original, name=name, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorder)
    return calls


@pytest.mark.parametrize("preset", ["mlp", "t_cnn"])
def test_bad_label_or_nan_in_a_shard_raises_before_the_first_step(preset, monkeypatch):
    ds, spec, state, shards = lockstep_setup(preset)
    cfg = lockstep_cfg("fedavg")
    calls = recording_steps(monkeypatch)
    # a spec with three classes cannot take client 1's class-3 labels
    narrow = nn.NetworkSpec(spec.layers[:-1] + (nn.Dense(spec.layers[-1].in_features, 3),),
                            spec.input_shape, 3)
    narrow_state = nn.init_state(narrow, stream(5, "init"))
    with pytest.raises(federation.RunError, match=r"round 1, client 0: labels must lie in \[0, 3\)") as info:
        federation.local_train(cfg, 1, shards, narrow_state, narrow, ds)
    assert isinstance(info.value.__cause__, nn.ShapeError)
    inputs = ds.inputs.copy()
    inputs[shards[2].indices[-1]] = np.nan
    poisoned = data.LabeledDataset(inputs, ds.labels, ds.class_count, "poisoned")
    with pytest.raises(federation.RunError,
                       match="round 1, client 2: non-finite values in network inputs") as info:
        federation.local_train(cfg, 1, shards, state, spec, poisoned)
    assert isinstance(info.value.__cause__, nn.NonFiniteError)
    assert calls == []


@pytest.mark.parametrize("preset", ["mlp", "t_cnn"])
def test_overflow_in_one_client_names_round_client_and_layer(preset):
    ds, spec, state, shards = lockstep_setup(preset)
    inputs = ds.inputs.copy()
    inputs[shards[4].indices] = 1e300
    huge = data.LabeledDataset(inputs, ds.labels, ds.class_count, "huge")
    layer = spec.layers[0].name.replace("(", r"\(").replace(")", r"\)")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            federation.RunError, match=rf"round 3, client 4: non-finite values after layer 0 \({layer}\)"):
        federation.local_train(lockstep_cfg("fedavg"), 3, shards[2:], state, spec, huge)


def test_failing_clients_in_two_stacks_raise_the_earlier_stack(monkeypatch):
    """Three stacks on three threads: the stacks of 5 clients by samples are
    [2], [0, 3] and [1, 4]. Clients 0 (stack 1) and 4 (stack 2) hold a NaN;
    the round raises stack 1's failure once no worker thread is left."""
    ds, spec, state, shards = lockstep_setup("t_cnn")
    inputs = ds.inputs.copy()
    for cid in (0, 4):
        inputs[shards[cid].indices[0]] = np.nan
    poisoned = data.LabeledDataset(inputs, ds.labels, ds.class_count, "poisoned")
    cfg = lockstep_cfg("fedavg")
    cfg = dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, parallel_clients=3))
    stacks = {}
    original = federation.local_train

    def recorder(cfg, r, group, global_state, spec, dataset, shared, lane, stack):
        stacks[lane] = [s.client_id for s in group]
        return original(cfg, r, group, global_state, spec, dataset, shared, lane, stack)

    monkeypatch.setattr(federation, "local_train", recorder)
    workspace = nn.Workspace()
    with pytest.raises(federation.RunError,
                       match="round 2, client 0: non-finite values in network inputs") as info:
        federation.run_round(cfg, 2, {s.client_id: s for s in shards}, state, spec, poisoned, None,
                             workspace)
    assert isinstance(info.value.__cause__, nn.NonFiniteError)
    assert [stacks[lane] for lane in workspace.lanes(3)] == [[2], [0, 3], [1, 4]]
    assert threading.active_count() == 1


def test_run_round_names_the_round_of_a_failure_no_client_caused():
    """A failure in a stack that is not a RunError, here a fedka round
    without the shared dataset, is reported with its round and chained."""
    ds, spec, state, shards = lockstep_setup("mlp")
    with pytest.raises(federation.RunError,
                       match=r"^round 3: fedka training needs the shared one-per-class dataset$") as info:
        federation.run_round(lockstep_cfg("fedka"), 3, {s.client_id: s for s in shards}, state, spec, ds,
                             None, nn.Workspace())
    assert type(info.value.__cause__) is ValueError
    assert threading.active_count() == 1


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def make_update(params, n, spec_hash="x", client=0):
    state = nn.ModelState(np.asarray(params, dtype=float), spec_hash)
    return federation.ClientUpdate(client, state, n, (0.0,))


def test_single_client_aggregation_is_identity():
    agg = federation.aggregate([make_update([1.5, -2.5], 7)])
    assert np.array_equal(agg.params, [1.5, -2.5])


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
        federation.ClientUpdate(0, nn.ModelState(np.zeros(1), "x"), 0, ())


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
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_round"] is None
    assert summary["final_global_acc"] is None and summary["final_class_acc"] is None
    assert len(summary["rounds_to_target"]) == 9
    assert all(reached is None for reached in summary["rounds_to_target"].values())


def test_zero_local_epochs_record_no_epoch_no_loss_and_no_forgetting(tmp_path):
    out, _ = run_cfg(tmp_path, **{"training.local_epochs": 0, "metrics.epoch_forgetting": True})
    epochs = (out / "metrics" / "forgetting_epochs.csv").read_text().splitlines()
    assert epochs == ["round,epoch,client,class,role,acc_global,acc_local,tau"]
    clients = [line.split(",") for line in (out / "metrics" / "clients.csv").read_text().splitlines()[1:]]
    assert len(clients) == 3 * 3 and all(c[2] == "1" and c[4] == "" for c in clients)
    forg = metrics.read_forgetting(out / "metrics" / "forgetting.csv")
    assert forg and all(rec.tau == 0.0 for rec in forg)


def test_one_local_epoch_records_the_final_state_as_epoch_1(tmp_path):
    out, _ = run_cfg(tmp_path, **{"training.local_epochs": 1, "metrics.epoch_forgetting": True})
    final = (out / "metrics" / "forgetting.csv").read_text().splitlines()[1:]
    epochs = [line.split(",") for line in
              (out / "metrics" / "forgetting_epochs.csv").read_text().splitlines()[1:]]
    assert final and {cells[1] for cells in epochs} == {"1"}
    assert [",".join(cells[:1] + cells[2:]) for cells in epochs] == final


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


def test_each_training_stack_keeps_one_workspace_for_the_run(tmp_path, monkeypatch):
    """Threads never share buffers, no round allocates them anew, and the
    stacks train through the lanes of the workspace evaluation runs
    through."""
    used, evaluated = {}, set()
    original_train, original_eval = federation.local_train, federation.classwise_accuracies

    def train(cfg, r, shards, global_state, spec, dataset, shared, workspace, stack):
        used.setdefault(r, set()).add(workspace)
        return original_train(cfg, r, shards, global_state, spec, dataset, shared, workspace, stack)

    def evaluate(states, spec, test_set, workspace):
        evaluated.add(workspace)
        return original_eval(states, spec, test_set, workspace)

    monkeypatch.setattr(federation, "local_train", train)
    monkeypatch.setattr(federation, "classwise_accuracies", evaluate)
    run_cfg(tmp_path, **{"training.parallel_clients": 3})
    assert len(used[1]) == 3 and used[1] == used[2] == used[3]
    (root,) = evaluated
    assert used[1] == set(root.lanes(3))


def test_finished_run_not_overwritten(tmp_path):
    out, cfg = run_cfg(tmp_path)
    with pytest.raises(federation.RunError, match="finished run"):
        federation.run_experiment(cfg)
    federation.run_experiment(cfg, force=True)  # explicit override allowed


def test_forced_rerun_that_fails_leaves_no_file_of_the_old_run(tmp_path, monkeypatch):
    old, _ = run_cfg(tmp_path, strategy={"kind": "fedka", "beta": 0.1},
                     metrics={"checkpoint_interval": 1, "epoch_forgetting": True})
    assert (old / "anchors.csv").exists() and (old / "checkpoints" / "round_00003.bin").exists()
    (old / "notes.txt").write_text("kept\n")
    original = federation.run_round

    def fail_in_round_2(cfg, r, *rest):
        if r == 2:
            raise RuntimeError("stop in round 2")
        return original(cfg, r, *rest)

    monkeypatch.setattr(federation, "run_round", fail_in_round_2)
    cfg = config.resolve(raw_config(tmp_path, **{"training.rounds": 2,
                                                 "metrics.checkpoint_interval": 1}))
    with pytest.raises(RuntimeError, match="stop in round 2"):
        federation.run_experiment(cfg, force=True)
    left = sorted(str(p.relative_to(old)) for p in old.rglob("*") if p.is_file())
    assert left == ["checkpoints/round_00001.bin", "config.json", "metrics/clients.csv",
                    "metrics/forgetting.csv", "metrics/rounds.csv", "model.json", "notes.txt"]
    assert len((old / "metrics" / "rounds.csv").read_text().splitlines()) == 2
    assert json.loads((old / "config.json").read_text())["strategy"]["kind"] == "fedavg"


def test_forced_rerun_deletes_the_temporaries_of_cut_checkpoint_writes(tmp_path):
    old, cfg = run_cfg(tmp_path)
    planted = [old / "checkpoints" / ".round_00002.bin.tmp", old / "checkpoints" / ".final.bin.tmp"]
    for path in planted:
        path.write_bytes(b"cut short")
    (old / "notes.txt").write_text("kept\n")
    federation.run_experiment(cfg, force=True)
    assert not any(path.exists() for path in planted)
    assert (old / "notes.txt").read_text() == "kept\n"


def test_metric_files_opened_before_a_failure_are_closed(tmp_path, monkeypatch):
    handles = []

    def recording_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(metrics, "open", recording_open, raising=False)
    (tmp_path / "run" / "metrics" / "forgetting_epochs.csv").mkdir(parents=True)
    cfg = config.resolve(raw_config(tmp_path, **{"metrics.epoch_forgetting": True}))
    with pytest.raises(federation.RunError, match="cannot open metric files"):
        federation.run_experiment(cfg)
    assert len(handles) == 3 and all(fh.closed for fh in handles)


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
    # rows at round 0, two classes at round 2, one after the last round (3),
    # and rows at rounds 0 and 1 on one class, both taking effect in round 1
    rows = [[0, 0, 0, c0[0] - 2], [0, 2, 1, c0[1] // 2], [1, 2, 2, c1[2] // 3],
            [1, 2, 0, c1[0] - 1], [0, 5, 0, 1], [1, 3, 2, 0],
            [1, 0, 1, c1[1] - 1], [1, 1, 1, c1[1] - 3]]
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
            # each class keeps the lowest samples its latest due row names
            keep = {klass: n for c, rnd, klass, n in sorted(rows, key=lambda row: row[1])
                    if c == cid and rnd <= r}
            kept = [base[cid].class_members(k)[:keep.get(k)] for k in range(train.class_count)]
            want = data.make_shard(cid, np.concatenate(kept), train, base[cid].gamma)
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
    # a class the 3-class dataset lacks, with nothing to keep
    cfg = config.resolve(raw_config(tmp_path / "class", schedules={"reduction": [[0, 1, 99, 0]]}))
    with pytest.raises(federation.RunError, match=r"schedule of client 0: round 1: class 99 outside \[0, 3\)"):
        federation.run_experiment(cfg)
    assert not (tmp_path / "class" / "run" / "metrics").exists()
    # two bad rows, listed late first: the earlier round's row is named
    rows = [[0, 4, 0, 10000], [0, 2, 1, 10000]]
    cfg = config.resolve(raw_config(tmp_path / "two", schedules={"reduction": rows}))
    with pytest.raises(federation.RunError, match="schedule of client 0: round 2: cannot keep 10000"):
        federation.run_experiment(cfg)
    assert not (tmp_path / "two" / "run" / "metrics").exists()


def test_class_named_twice_in_one_round_names_the_round(tmp_path):
    # one class at round 2 twice, after a valid row at round 1 on the same class
    rows = [[0, 1, 0, 2], [0, 2, 0, 1], [0, 2, 0, 0]]
    cfg = config.resolve(raw_config(tmp_path, partition=BALANCED_PAIR, schedules={"reduction": rows}))
    with pytest.raises(federation.RunError,
                       match="^reduction schedule of client 0: round 2: class 0 named twice$"):
        federation.run_experiment(cfg)
    assert not (tmp_path / "run" / "metrics").exists()


def test_partition_file_that_assigns_no_sample_fails_before_writing(tmp_path):
    path = tmp_path / "assignments.csv"
    path.write_text("sample_id,client_id,label\n")
    probe = config.resolve(raw_config(tmp_path))
    train, _ = federation.build_datasets(probe)
    with pytest.raises(ValueError, match=re.escape(f"{path}: assigns no sample")):
        data.load_assignments(path, train, gamma=0.1)
    cfg = config.resolve(raw_config(tmp_path, partition={"file": str(path), "gamma": 0.1}))
    with pytest.raises(ValueError, match="assigns no sample"):
        federation.run_experiment(cfg)
    assert not (tmp_path / "run" / "metrics").exists()


def test_partition_file_with_a_negative_client_fails_before_writing(tmp_path):
    """A reduction row names a client by a non-negative id, so a shard of a
    negative client could never be reduced: the file is refused."""
    probe = config.resolve(raw_config(tmp_path))
    train, _ = federation.build_datasets(probe)
    path = tmp_path / "assignments.csv"
    path.write_text("sample_id,client_id,label\n" + "".join(
        f"{i},{-1 if i == 0 else i % 2},{label}\n" for i, label in enumerate(train.labels.tolist())))
    with pytest.raises(ValueError, match=re.escape(f"{path}: client_id -1 is negative")):
        data.load_assignments(path, train, gamma=0.1)
    cfg = config.resolve(raw_config(tmp_path, partition={"file": str(path), "gamma": 0.1}))
    with pytest.raises(ValueError, match="client_id -1 is negative"):
        federation.run_experiment(cfg)
    assert not (tmp_path / "run" / "metrics").exists()


def test_tcnn_preset_on_flat_samples_fails_before_writing(tmp_path):
    cfg = config.resolve(raw_config(tmp_path, model={"preset": "t_cnn"}))
    with pytest.raises(ValueError, match=re.escape("t_cnn wants (C, H, W) samples, dataset has (2,)")):
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
