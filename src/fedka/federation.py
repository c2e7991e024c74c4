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
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, anchor, nn
from .config import ExperimentConfig
from .data import (ClientShard, LabeledDataset, PartitionSpec, apply_reduction_schedule,
                   dirichlet_partition, load_assignments, load_idx, synth_blobs)
from .metrics import (MetricsWriter, RoundRecord, classwise_accuracies, classwise_accuracy,
                      global_accuracy, measure_local_forgetting, write_summary)
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
    epoch_states: tuple[nn.ModelState, ...] = ()   # after epochs 1..E-1, with epoch_forgetting

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


@dataclass
class _Client:
    """One client's round, planned before the first step."""

    shard: ClientShard
    steps: list[np.ndarray]            # dataset rows of each batch, in step order
    per_epoch: int                     # steps an epoch
    anchor_log: tuple[tuple, ...]
    target: anchor.AnchorTarget | None


def _plan_client(cfg: ExperimentConfig, round_index: int, shard: ClientShard,
                 global_state: nn.ModelState, spec: nn.NetworkSpec, dataset: LabeledDataset,
                 shared: anchor.SharedDataset | None) -> _Client:
    """The client's anchor target and every batch of its round, drawn from
    its own ``anchor`` and ``batch`` streams; its labels and inputs are
    checked here, once, rather than at every step."""
    strategy, t = cfg.strategy, cfg.training
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

    n = len(shard)
    brng = stream(cfg.master_seed, "batch", round_index, shard.client_id)
    steps = []
    for _ in range(t.local_epochs):
        rows = shard.indices[brng.permutation(n)]
        steps += [rows[start:start + t.batch_size] for start in range(0, n, t.batch_size)]
    if steps:
        inputs, labels = dataset.take(shard.indices)
        nn.batch_labels(spec, labels)
        nn.check_inputs(spec, inputs)
    return _Client(shard, steps, -(-n // t.batch_size), anchor_log, target)


# the most stacks training.parallel_clients = 0 chooses: the most measured
# (a 2-core host, one BLAS thread each); more would each keep a workspace
# lane's memory, a cost never weighed against their speed
CHOSEN_STACKS = 2

# logit entries that lockstep training keeps for the loss trace before it
# computes their losses
_PENDING_LOSS_ENTRIES = 1 << 22


def local_train(
    cfg: ExperimentConfig,
    round_index: int,
    shards: list[ClientShard],
    global_state: nn.ModelState,
    spec: nn.NetworkSpec,
    dataset: LabeledDataset,
    shared: anchor.SharedDataset | None = None,
    workspace: nn.Workspace | None = None,
    stack: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> list[ClientUpdate]:
    """Train a fresh copy of the global model on each client's shard, under
    ``cfg.training`` and ``cfg.strategy``, all clients in lockstep; returns
    the updates in the order of ``shards``. The passes run through the
    ``workspace``, which nothing else may use meanwhile.

    Each copy starts with zeroed momentum. Proximal and anchor terms are
    evaluated only when their weights are nonzero, so a zero-weight run is
    bit-identical to plain averaging; the anchor itself is still built (it
    has its own stream, and the audit trail stays meaningful).

    The copies' parameters, momentum and gradients are three (P, n) stacks,
    P = len(shards): the C-contiguous arrays of ``stack``, or arrays
    allocated here when None. Each step makes
    one forward pass, one loss gradient and one SGD update for every client
    that still has batches, and a client leaves the stack when they run out.
    Every client draws from its own streams and every GEMM runs on its own
    rows, so each update is the one the client would get training alone.
    The losses of the trace are computed from the kept logits in bulk, not
    at every step. A failure in a client raises RunError naming the round
    and the client.
    """
    strategy, t = cfg.strategy, cfg.training
    if strategy.kind not in ("fedavg", "fedprox", "fedka"):
        raise ValueError(f"unknown strategy {strategy.kind!r}")
    if strategy.kind == "fedka" and shared is None:
        raise ValueError("fedka training needs the shared one-per-class dataset")
    nn.check_state(global_state, spec)

    def failed(cid: int, exc: Exception) -> RunError:
        return RunError(f"round {round_index}, client {cid}: {exc}")

    planned = []
    for shard in shards:
        try:
            planned.append(_plan_client(cfg, round_index, shard, global_state, spec, dataset, shared))
        except Exception as exc:
            raise failed(shard.client_id, exc) from exc
    # longest first, so that the clients still training are always a prefix
    order = sorted(range(len(planned)), key=lambda i: -len(planned[i].steps))
    clients = [planned[i] for i in order]
    targets = [c.target for c in clients]
    center = global_state.params if strategy.kind == "fedprox" and strategy.mu > 0.0 else None

    if stack is None:
        stack = tuple(np.empty((len(clients), spec.param_count)) for _ in range(3))
    params, momentum, grad = stack
    params[...] = global_state.params
    momentum[...] = 0.0
    losses = [np.empty(len(c.steps)) for c in clients]
    epoch_states: list[list[nn.ModelState]] = [[] for _ in clients]
    layouts: dict[tuple[int, ...], tuple[anchor.FusedRows, np.ndarray | None]] = {}
    pending: dict[tuple[int, ...], tuple[anchor.FusedRows, list]] = {}

    def settle_losses() -> None:
        for rows, records in pending.values():
            steps, logits, labels, prox_losses = zip(*records)
            step_losses = anchor.fused_losses(np.stack(logits), np.stack(labels), rows, strategy.beta)
            if center is not None:
                step_losses += np.stack(prox_losses)
            for p in range(step_losses.shape[1]):
                losses[p][list(steps)] = step_losses[:, p]
        pending.clear()

    active = sum(1 for c in clients if c.steps)
    s = pending_entries = 0
    while active:
        training = clients[:active]
        sizes = tuple([len(c.steps[s]) for c in training])
        layout = layouts.get(sizes)
        if layout is None:
            rows = anchor.fused_rows(sizes, targets[:active])
            buffer = None
            if rows.anchor is not None:
                # the anchor rows stay put; each step fills in the batch rows
                buffer = np.empty((rows.offsets[-1], *spec.input_shape))
                buffer[rows.anchor] = np.concatenate(
                    [tg.inputs for tg in targets[:active] if tg is not None])
            layout = layouts[sizes] = (rows, buffer)
        rows, inputs = layout
        batch = np.concatenate([c.steps[s] for c in training])
        if inputs is None:
            inputs = dataset.inputs[batch]
        else:
            inputs[rows.batch] = dataset.inputs[batch]
        labels = dataset.labels[batch]
        stack_params, stack_grad = params[:active], grad[:active]
        try:
            logits, prox_loss = anchor.fused_gradient(
                spec, stack_params, inputs, labels, rows, strategy.beta, stack_grad,
                center, strategy.mu, workspace)
            nn.sgd_update(stack_params, momentum[:active], stack_grad, t.lr, t.momentum, t.weight_decay)
        except nn.NonFiniteError as exc:
            raise failed(training[exc.client].shard.client_id, exc) from exc
        pending.setdefault(sizes, (rows, []))[1].append((s, logits, labels, prox_loss))
        pending_entries += logits.size
        s += 1
        if cfg.metrics.epoch_forgetting:
            for p, c in enumerate(training):
                if s % c.per_epoch == 0 and s < len(c.steps):   # the last ends in the update's state
                    epoch_states[p].append(nn.ModelState(
                        params[p].copy(), momentum[p].copy(), global_state.spec_hash))
        while active and len(clients[active - 1].steps) == s:
            active -= 1
        if pending_entries > _PENDING_LOSS_ENTRIES:
            settle_losses()
            pending_entries = 0
    settle_losses()

    updates = {}
    for p, c in enumerate(clients):
        # an epoch's trace entry is the mean of its step losses
        trace = np.mean(losses[p].reshape(-1, c.per_epoch), axis=1).tolist() if c.steps else []
        state = nn.ModelState(params[p], momentum[p], global_state.spec_hash)
        updates[order[p]] = ClientUpdate(c.shard.client_id, state, len(c.shard), tuple(trace),
                                         c.anchor_log, tuple(epoch_states[p]))
    return [updates[i] for i in range(len(clients))]


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
    weights = [u.sample_count / total for u in updates]
    drift = abs(sum(weights) - 1.0)
    if drift > 1e-12:
        raise ArithmeticError(f"aggregation weights sum off by {drift:.3e}")
    params = np.zeros_like(updates[0].state.params)
    term = np.empty(min(nn.CACHE_BLOCK, params.size))
    # block by block, so that the sum and the term stay in cache; each entry
    # still adds the clients' terms in client order
    for lo in range(0, params.size, nn.CACHE_BLOCK):
        block = params[lo:lo + nn.CACHE_BLOCK]
        part = term[:len(block)]
        for w, u in zip(weights, updates):
            block += np.multiply(u.state.params[lo:lo + nn.CACHE_BLOCK], w, out=part)
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
              shared: anchor.SharedDataset | None, workspace: nn.Workspace) -> list[ClientUpdate]:
    """Round r's local stages: the sampled participants train on their
    shards in lockstep, split into k stacks, stack i the unit i of
    nn.on_lanes on k threads, so a caller that keeps one ``workspace``
    across rounds reuses its lanes' memory. k is
    ``training.parallel_clients`` when that is set, else nn.thread_count for
    one client's forward pass over a batch, at most CHOSEN_STACKS; never
    more than the participants. The stacks hold about as many samples
    each: the largest shard goes first, each to the stack with the fewest
    samples so far. The stacks' parameter, momentum and gradient rows are
    allocated here, one array each, a contiguous range of rows per stack.
    Returns the updates in client order; a failure raises RunError naming
    the round (and the client, when one is at fault).
    """
    t = cfg.training
    participants = sample_participants(
        shards, t.participation_ratio, stream(cfg.master_seed, "participants", r))
    k = t.parallel_clients or min(nn.thread_count(spec.macs_per_row * t.batch_size, len(participants)),
                                  CHOSEN_STACKS)
    k = min(k, len(participants))
    stacks: list[list[int]] = [[] for _ in range(k)]
    samples = [0] * k
    for cid in sorted(participants, key=lambda c: -len(shards[c])):
        i = samples.index(min(samples))
        stacks[i].append(cid)
        samples[i] += len(shards[cid])
    bounds = np.cumsum([0] + [len(ids) for ids in stacks])
    arrays = [np.empty((len(participants), spec.param_count)) for _ in range(3)]

    def train_stack(i: int, lane: nn.Workspace) -> list[ClientUpdate]:
        rows = slice(bounds[i], bounds[i + 1])
        try:
            return local_train(cfg, r, [shards[cid] for cid in stacks[i]], global_state, spec,
                               train, shared, lane, tuple(a[rows] for a in arrays))
        except RunError:
            raise
        except Exception as exc:
            raise RunError(f"round {r}: {exc}") from exc

    return sorted(sum(nn.on_lanes(workspace, k, k, train_stack), []), key=lambda u: u.client_id)


def _clear_outputs(out: Path) -> None:
    """Delete every file an earlier run wrote to ``out``, its manifest
    first, so that a run which fails part-way leaves no finished-run marker
    over its partial files, and no file its own config does not write, nor
    the temporary of a cut checkpoint write. Other files are left alone."""
    checkpoints, metrics_dir = out / "checkpoints", out / "metrics"
    for path in [out / "manifest.json", out / "summary.json", out / "config.json",
                 out / "model.json", out / "anchors.csv", checkpoints / "final.bin",
                 *checkpoints.glob("round_*.bin"), *checkpoints.glob(".*.bin.tmp"),
                 *(metrics_dir / f"{name}.csv"
                   for name in ("rounds", "forgetting", "clients", "forgetting_epochs"))]:
        if path.is_file():
            path.unlink()


# What no round of a run changes, as start builds it: the config, the train
# and test sets, the model spec, the shared dataset (fedka), shards_by_round,
# and the workspace through whose lane t thread t trains and evaluates.
RunInputs = namedtuple("RunInputs", "cfg train test spec shared changes workspace")


@dataclass(frozen=True)
class RunState:
    """A run after ``round`` rounds; ``teacher_acc`` is ``global_state``'s per-class accuracy."""

    round: int
    global_state: nn.ModelState
    shards: dict[int, ClientShard]
    teacher_acc: np.ndarray


def start(cfg: ExperimentConfig) -> tuple[RunInputs, RunState]:
    """The run's inputs and its state before round 1; writes nothing."""
    train, test = build_datasets(cfg)
    spec = build_model_spec(cfg, train.inputs.shape[1:], train.class_count)
    changes = shards_by_round(cfg, train)
    global_state = nn.init_state(spec, stream(cfg.master_seed, "init"))
    shared = anchor.build_shared_dataset(train, cfg.master_seed) if cfg.strategy.kind == "fedka" else None
    run = RunInputs(cfg, train, test, spec, shared, changes, nn.Workspace())
    return run, RunState(0, global_state, dict(changes[0]),
                         classwise_accuracy(global_state, spec, test, run.workspace))


def round_step(run: RunInputs, state: RunState) -> tuple[RunState, RoundRecord, list[tuple]]:
    """Round ``state.round + 1``. Returns the state after it, its record and,
    per participant, (anchor log, per-class accuracies of its states after
    each epoch with epoch_forgetting, its final state last). No
    participant's model state outlives the call."""
    r = state.round + 1
    shards = {**state.shards, **run.changes.get(r, {})}
    updates = run_round(run.cfg, r, shards, state.global_state, run.spec, run.train, run.shared,
                        run.workspace)
    global_state = aggregate(updates)
    states = [global_state] + [s for u in updates for s in (*u.epoch_states, u.state)]
    accs = classwise_accuracies(states, run.spec, run.test, run.workspace)
    rows = np.split(accs[1:], np.cumsum([len(u.epoch_states) + 1 for u in updates])[:-1])
    record = RoundRecord(r, global_accuracy(accs[0], run.test), tuple(accs[0]),
                         tuple(u.client_id for u in updates),
                         {u.client_id: float(np.mean(u.loss_trace)) for u in updates if u.loss_trace})
    stages = [(u.anchor_log, a) for u, a in zip(updates, rows)]
    return RunState(r, global_state, shards, accs[0]), record, stages


def run_experiment(cfg: ExperimentConfig, progress=None, force: bool = False) -> Path:
    """Execute the configured experiment; returns the artifact directory.

    Refuses to overwrite a directory holding a finished run (manifest
    present) unless forced, and clears what an earlier run left there
    before it starts. On error, metrics written so far stay on disk.
    """
    out = Path(cfg.output_dir)
    if (out / "manifest.json").exists() and not force:
        raise RunError(f"{out} already holds a finished run (use force to overwrite)")
    _clear_outputs(out)
    started = time.time()
    run, state = start(cfg)
    checkpoints = out / "checkpoints"
    checkpoints.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
    run.spec.save(out / "model.json")
    try:
        writer = MetricsWriter(
            out, run.train.class_count,
            anchor_selection=cfg.strategy.selection if cfg.strategy.kind == "fedka" else None,
            epoch_forgetting=cfg.metrics.epoch_forgetting)
    except OSError as exc:
        raise RunError(f"cannot open metric files: {exc}") from None

    t, record, curve = cfg.training, None, []
    with writer:
        for r in range(1, t.rounds + 1):
            teacher_acc = state.teacher_acc
            state, record, stages = round_step(run, state)
            for cid, (anchor_log, accs) in zip(record.participants, stages):
                records = [measure_local_forgetting(state.shards[cid], teacher_acc, acc, r, cfg.metrics.xi)
                           for acc in accs]
                writer.write_forgetting(records[-1])
                writer.write_anchors(r, cid, anchor_log)
                if cfg.metrics.epoch_forgetting and t.local_epochs:
                    for e, epoch_records in enumerate(records, 1):
                        writer.write_epoch_forgetting(e, epoch_records)
            writer.write_round(record, [(cid, len(s)) for cid, s in state.shards.items()])
            curve.append((r, record.global_acc))
            if cfg.metrics.checkpoint_interval and r % cfg.metrics.checkpoint_interval == 0:
                nn.save_state(state.global_state, checkpoints / f"round_{r:05d}.bin")
            if progress is not None:
                progress(r, t.rounds, record.global_acc)

    nn.save_state(state.global_state, checkpoints / "final.bin")
    write_summary(out / "summary.json", record, curve,
                  targets=[round(0.1 * k, 1) for k in range(1, 10)])
    manifest = {
        "config": cfg.to_dict(),
        "versions": {"package": __version__, "numpy": np.__version__, "python": platform.python_version()},
        "dataset_hash": run.train.content_hash(),
        "test_hash": run.test.content_hash(),
        "model_spec_hash": run.spec.spec_hash,
        "completed_rounds": t.rounds,
        "wall_time_s": round(time.time() - started, 3),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out
