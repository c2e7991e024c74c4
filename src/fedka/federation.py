"""Round orchestration: sample clients, train locally, aggregate.

One communication round distributes the global parameters to a sampled
subset of clients, runs E local epochs of mini-batch SGD per client under
the configured strategy, and averages the returned parameters weighted by
client sample counts (weights renormalized over the participants).

Every random draw comes from a named stream keyed by (master seed, role,
round, client), so runs are bit-reproducible, clients can train in any
order or in parallel without changing results, and switching strategy
never shifts the draws of unrelated components.
"""

from __future__ import annotations

import json
import math
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, anchor, nn
from .config import ExperimentConfig
from .data import (ClientShard, LabeledDataset, PartitionSpec, apply_reduction_schedule,
                   dirichlet_partition, load_assignments, load_idx, synth_blobs)
from .metrics import (MetricsWriter, RoundRecord, classwise_accuracy, global_accuracy,
                      measure_local_forgetting, write_summary)
from .rng import as_generator, stream


class RunError(RuntimeError):
    """A round failed; the message names the round and client."""


@dataclass
class ClientUpdate:
    client_id: int
    state: nn.ModelState
    sample_count: int
    loss_trace: tuple[float, ...]
    anchor_log: tuple[tuple, ...] = ()       # (class, source, sample_id) rows
    epoch_states: tuple[nn.ModelState, ...] = ()

    def __post_init__(self):
        if self.sample_count <= 0:
            raise ValueError("client updates need a positive sample count")


def sample_participants(client_ids, ratio: float, rng) -> tuple[int, ...]:
    """ceil(ratio * N) distinct clients, uniform without replacement."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"participation ratio must lie in (0, 1], got {ratio}")
    ids = sorted(client_ids)
    count = min(len(ids), max(1, math.ceil(ratio * len(ids))))
    rng = as_generator(rng)
    picked = rng.choice(len(ids), size=count, replace=False)
    return tuple(sorted(ids[i] for i in picked))


def local_train(
    cfg: ExperimentConfig,
    round_index: int,
    shard: ClientShard,
    global_state: nn.ModelState,
    spec: nn.NetworkSpec,
    dataset: LabeledDataset,
    shared: anchor.SharedDataset | None = None,
) -> ClientUpdate:
    """Train a fresh copy of the global model on one client's shard, under
    ``cfg.training`` and ``cfg.strategy``.

    The copy starts with zeroed momentum. Proximal and anchor terms are
    evaluated only when their weights are nonzero, so a zero-weight run is
    bit-identical to plain averaging; the anchor itself is still built (it
    has its own stream, and the audit trail stays meaningful).
    """
    strategy, t = cfg.strategy, cfg.training
    if strategy.kind not in ("fedavg", "fedprox", "fedka"):
        raise ValueError(f"unknown strategy {strategy.kind!r}")
    if strategy.kind == "fedka" and shared is None:
        raise ValueError("fedka training needs the shared one-per-class dataset")
    state = global_state.fresh_local()

    target = None
    anchor_log: tuple[tuple, ...] = ()
    if strategy.kind == "fedka":
        arng = stream(cfg.master_seed, "anchor", round_index, shard.client_id)
        chooser = anchor.select_anchor_strategy(
            shard, strategy.selection, dataset, global_state, spec)
        built = anchor.build_anchor(
            shard, shared, dataset, round_index, arng,
            variant=strategy.variant, chooser=chooser)
        built = anchor.downsample_anchor(built, strategy.mu_anchor, arng)
        anchor_log = tuple((e.label, e.source, e.sample_id) for e in built.entries)
        if strategy.beta > 0.0 and len(built) > 0:
            target = anchor.anchor_target(built, global_state, spec)

    inputs, labels = dataset.take(shard.indices)
    n = len(shard)
    brng = stream(cfg.master_seed, "batch", round_index, shard.client_id)
    trace = []
    epoch_states = []
    for _ in range(t.local_epochs):
        order = brng.permutation(n)
        step_losses = []
        for start in range(0, n, t.batch_size):
            sel = order[start:start + t.batch_size]
            batch = nn.Batch(inputs[sel], labels[sel])
            if target is not None:
                loss, grad = anchor.anchored_loss_and_grad(state, spec, batch, target, strategy.beta)
            else:
                loss, grad = nn.ce_loss_and_grad(state, spec, batch)
            if strategy.kind == "fedprox" and strategy.mu > 0.0:
                p_loss, p_grad = nn.proximal_loss_and_grad(state.params, global_state.params, strategy.mu)
                loss += p_loss
                grad = grad + p_grad
            state = nn.sgd_step(state, grad, t.lr, t.momentum, t.weight_decay)
            step_losses.append(loss)
        trace.append(float(np.mean(step_losses)))
        if cfg.metrics.epoch_forgetting:
            epoch_states.append(state.copy())
    return ClientUpdate(shard.client_id, state, n, tuple(trace), anchor_log,
                        tuple(epoch_states))


def aggregate(updates: list[ClientUpdate]) -> nn.ModelState:
    """Sample-count-weighted mean of participant parameters.

    Output momentum is zero: the server holds parameters, not optimizer
    state. Weights must form a convex combination to 1e-12.
    """
    if not updates:
        raise ValueError("nothing to aggregate")
    spec_hash = updates[0].state.spec_hash
    if any(u.state.spec_hash != spec_hash for u in updates):
        raise nn.ShapeError("cannot aggregate states built for different specs")
    total = sum(u.sample_count for u in updates)
    if total <= 0:
        raise ValueError("total sample count is zero")
    weights = [u.sample_count / total for u in updates]
    drift = abs(sum(weights) - 1.0)
    if drift > 1e-12:
        raise ArithmeticError(f"aggregation weights sum off by {drift:.3e}")
    params = np.zeros_like(updates[0].state.params)
    term = np.empty_like(params)
    for w, u in zip(weights, updates):
        params += np.multiply(u.state.params, w, out=term)
    return nn.ModelState(params, np.zeros_like(params), spec_hash)


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------


def build_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    d = cfg.dataset
    if d.kind == "synth":
        train = synth_blobs(d.classes, d.per_class, d.dims, d.separation, d.seed)
        test = synth_blobs(d.classes, d.test_per_class, d.dims, d.separation, d.test_seed)
        return train, test
    train = load_idx(d.train_images, d.train_labels, d.classes or None)
    test = load_idx(d.test_images, d.test_labels, train.class_count)
    return train, test


def build_model_spec(cfg: ExperimentConfig, sample_shape: tuple[int, ...], class_count: int) -> nn.NetworkSpec:
    m = cfg.model
    if m.preset == "t_cnn":
        if len(sample_shape) != 3:
            raise ValueError(f"t_cnn wants (C, H, W) samples, dataset has {sample_shape}")
        return nn.tcnn_spec(sample_shape, class_count, m.conv_kernel)
    return nn.mlp_spec(sample_shape, m.hidden, class_count)


def build_shards(cfg: ExperimentConfig, train: LabeledDataset) -> list[ClientShard]:
    p = cfg.partition
    if p.file:
        return load_assignments(p.file, train, p.gamma)
    spec = PartitionSpec(p.clients, p.alpha, p.seed, p.min_samples_per_client)
    return dirichlet_partition(train, spec, gamma=p.gamma)


def shards_by_round(cfg: ExperimentConfig, train: LabeledDataset) -> dict[int, dict[int, ClientShard]]:
    """Each client's shard from the round it takes effect: key 0 holds the
    partition, each later key the clients that a reduction row shrinks at
    that round (a row at round 0 takes effect in round 1). Every row is
    applied here, before round 1, including rows due after the last round.
    """
    base = {s.client_id: s for s in build_shards(cfg, train)}
    rows: dict[int, list[tuple[int, int, int]]] = {}
    for client, rnd, klass, keep in cfg.reduction:
        rows.setdefault(client, []).append((rnd, klass, keep))
    changes = {0: base}
    for client, sched in rows.items():
        if client not in base:
            raise RunError(f"reduction schedule names unknown client {client}")
        # latest round first: that call applies every row, so a bad schedule
        # fails on the same row as when the whole schedule is applied
        try:
            for rnd in sorted({max(r, 1) for r, _, _ in sched}, reverse=True):
                changes.setdefault(rnd, {})[client] = apply_reduction_schedule(
                    base[client], sched, train, upto_round=rnd)
        except ValueError as exc:
            raise RunError(f"reduction schedule of client {client}: {exc}") from None
    return changes


def run_round(cfg: ExperimentConfig, r: int, shards: dict[int, ClientShard],
              global_state: nn.ModelState, spec: nn.NetworkSpec, train: LabeledDataset,
              shared: anchor.SharedDataset | None) -> list[ClientUpdate]:
    """Round r's local stages: each sampled participant trains on its shard,
    in threads when ``training.parallel_clients`` > 1. Returns the updates
    in client order; a failure raises RunError naming the round and client.
    """
    t = cfg.training
    participants = sample_participants(
        shards, t.participation_ratio, stream(cfg.master_seed, "participants", r))

    def train_one(cid: int) -> ClientUpdate:
        try:
            return local_train(cfg, r, shards[cid], global_state, spec, train, shared)
        except Exception as exc:
            raise RunError(f"round {r}, client {cid}: {exc}") from exc

    if t.parallel_clients > 1 and len(participants) > 1:
        with ThreadPoolExecutor(max_workers=t.parallel_clients) as pool:
            return list(pool.map(train_one, participants))
    return [train_one(cid) for cid in participants]


def run_experiment(cfg: ExperimentConfig, progress=None, force: bool = False) -> Path:
    """Execute the configured experiment; returns the artifact directory.

    Refuses to overwrite a directory holding a finished run (manifest
    present) unless forced. On error, metrics written so far stay on disk.
    """
    out = Path(cfg.output_dir)
    if (out / "manifest.json").exists() and not force:
        raise RunError(f"{out} already holds a finished run (use force to overwrite)")
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()

    train, test = build_datasets(cfg)
    spec = build_model_spec(cfg, train.inputs.shape[1:], train.class_count)
    changes = shards_by_round(cfg, train)
    shards = changes.pop(0)

    global_state = nn.init_state(spec, stream(cfg.master_seed, "init"))
    shared = None
    if cfg.strategy.kind == "fedka":
        shared = anchor.build_shared_dataset(train, cfg.master_seed)

    (out / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
    spec.save(out / "model.json")
    checkpoints = out / "checkpoints"
    checkpoints.mkdir(exist_ok=True)

    t = cfg.training
    history: list[RoundRecord] = []
    try:
        writer = MetricsWriter(
            out, train.class_count,
            anchor_selection=cfg.strategy.selection if cfg.strategy.kind == "fedka" else None,
            epoch_forgetting=cfg.metrics.epoch_forgetting)
    except OSError as exc:
        raise RunError(f"cannot open metric files: {exc}") from None
    with writer:
        teacher_acc = classwise_accuracy(global_state, spec, test)
        for r in range(1, t.rounds + 1):
            shards.update(changes.get(r, {}))
            updates = run_round(cfg, r, shards, global_state, spec, train, shared)
            global_state = aggregate(updates)
            post_acc = classwise_accuracy(global_state, spec, test)
            acc = global_accuracy(post_acc, test)

            for u in updates:
                shard = shards[u.client_id]
                records = measure_local_forgetting(
                    shard, teacher_acc, u.state, spec, test, r, cfg.metrics.xi)
                writer.write_forgetting(records)
                writer.write_anchors(r, u.client_id, u.anchor_log)
                for e, st in enumerate(u.epoch_states[:-1], start=1):
                    writer.write_epoch_forgetting(e, measure_local_forgetting(
                        shard, teacher_acc, st, spec, test, r, cfg.metrics.xi))
                if u.epoch_states:
                    # the last epoch ends in the final state, whose records are above
                    writer.write_epoch_forgetting(len(u.epoch_states), records)

            record = RoundRecord(
                round=r, global_acc=acc, class_acc=tuple(post_acc),
                participants=tuple(u.client_id for u in updates),
                client_losses={u.client_id: float(np.mean(u.loss_trace)) for u in updates
                               if u.loss_trace},
            )
            writer.write_round(record, [(cid, len(s)) for cid, s in shards.items()])
            history.append(record)
            if cfg.metrics.checkpoint_interval and r % cfg.metrics.checkpoint_interval == 0:
                nn.save_state(global_state, checkpoints / f"round_{r:05d}.bin")
            teacher_acc = post_acc
            if progress is not None:
                progress(r, t.rounds, acc)

    nn.save_state(global_state, checkpoints / "final.bin")
    write_summary(out / "summary.json", history[-1] if history else None,
                  [(h.round, h.global_acc) for h in history],
                  targets=[round(0.1 * k, 1) for k in range(1, 10)])
    manifest = {
        "config": cfg.to_dict(),
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "dataset_hash": train.content_hash(),
        "test_hash": test.content_hash(),
        "model_spec_hash": spec.spec_hash,
        "completed_rounds": t.rounds,
        "wall_time_s": round(time.time() - started, 3),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out
