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
from .data import (ClientShard, LabeledDataset, apply_reduction_schedule, dirichlet_partition,
                   load_assignments, load_idx, synth_blobs)
from .metrics import (MetricsWriter, RoundRecord, classwise_accuracies, classwise_accuracy,
                      global_accuracy, measure_local_forgetting, write_summary)
from .rng import stream


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


def sample_participants(client_ids, ratio: float, rng: np.random.Generator) -> tuple[int, ...]:
    """ceil(ratio * N) distinct clients, uniform without replacement."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"participation ratio must lie in (0, 1], got {ratio}")
    ids = sorted(client_ids)
    count = min(len(ids), max(1, math.ceil(ratio * len(ids))))
    picked = rng.choice(len(ids), size=count, replace=False)
    return tuple(sorted(ids[i] for i in picked))


@dataclass
class _Client:
    """One client's round, planned before the first step."""

    shard: ClientShard
    order: np.ndarray                  # the dataset rows its steps take, in step order
    per_epoch: int                     # steps an epoch
    steps: int                         # steps in the round
    anchor_log: tuple[tuple, ...]
    anchor: anchor.KnowledgeAnchor | None   # the anchor of its anchor term, if it has one


def _plan_client(cfg: ExperimentConfig, round_index: int, shard: ClientShard,
                 global_state: nn.ModelState, spec: nn.NetworkSpec, dataset: LabeledDataset,
                 shared: np.ndarray | None) -> _Client:
    """The client's anchor and every batch of its round, drawn from its own
    ``anchor`` and ``batch`` streams; its labels and inputs are checked
    here, once, rather than at every step."""
    strategy, t = cfg.strategy, cfg.training
    term = None
    anchor_log: tuple[tuple, ...] = ()
    if strategy.kind == "fedka":
        arng = stream(cfg.master_seed, "anchor", round_index, shard.client_id)
        chooser = anchor.select_anchor_strategy(
            shard, strategy.selection, dataset, global_state, spec)
        built = anchor.build_anchor(
            shard, shared, dataset, arng, variant=strategy.variant, chooser=chooser)
        built = anchor.downsample_anchor(built, strategy.mu_anchor, arng)
        anchor_log = tuple((e.label, e.source, e.sample_id) for e in built.entries)
        if strategy.beta > 0.0 and len(built) > 0:
            term = built

    n, epochs = len(shard), t.local_epochs
    brng = stream(cfg.master_seed, "batch", round_index, shard.client_id)
    # each epoch a permutation of the shard, cut into batches
    order = shard.indices[np.array([brng.permutation(n) for _ in range(epochs)], dtype=np.intp).reshape(-1)]
    per_epoch = -(-n // t.batch_size)
    if n and epochs:
        inputs, labels = dataset.take(shard.indices)
        nn.batch_labels(spec, labels, len(inputs))
        nn.check_inputs(spec, inputs)
    return _Client(shard, order, per_epoch, per_epoch * epochs, anchor_log, term)


# the most stacks training.parallel_clients = 0 chooses: the most measured
# (a 2-core host, one BLAS thread each); more would each keep a workspace
# lane's memory, a cost never weighed against their speed
CHOSEN_STACKS = 2

# logit entries (32 MiB) that lockstep training keeps for the loss trace
# before it computes their losses
_PENDING_LOSS_ENTRIES = 1 << 22


def local_train(
    cfg: ExperimentConfig,
    round_index: int,
    shards: list[ClientShard],
    global_state: nn.ModelState,
    spec: nn.NetworkSpec,
    dataset: LabeledDataset,
    shared: np.ndarray | None = None,
    workspace: nn.Workspace | None = None,
    stack: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> list[ClientUpdate]:
    """Train a fresh copy of the global model on each client's shard, under
    ``cfg.training`` and ``cfg.strategy``, all clients in lockstep; returns
    the updates in the order of ``shards``. A fedka client's anchor takes
    its missing classes' samples from ``shared``, the sample ids of
    anchor.build_shared_dataset. The passes run through the ``workspace``,
    which nothing else may use meanwhile.

    Each copy starts with zeroed momentum, which its first step does not
    read (nn.sgd_update's first_step), and its update holds its parameters
    only. Proximal and anchor terms are evaluated only when their weights
    are nonzero, so a zero-weight run is bit-identical to plain averaging;
    the anchor itself is still built (it has its own stream, and the audit
    trail stays meaningful).

    The copies' parameters, momentum and gradients are three (P, n) stacks,
    P = len(shards): the C-contiguous arrays of ``stack``, or arrays
    allocated here when None. Only the momentum rows of the clients that
    take a second step are written, a prefix of the stack; a round whose
    clients take one step each writes none. Each step makes
    one forward pass, one loss gradient and one SGD update for every client
    that still has batches, and a client leaves the stack when they run out.
    Every client draws from its own streams and every GEMM runs on its own
    rows, so each update is the one the client would get training alone.

    What the steps share is planned once: the clients' anchor rows, from
    one anchor.anchor_rows call (one pass of the teacher over every anchor),
    and the dataset rows and labels of every batch. A step keeps its logits,
    and the losses of the trace are settled in bulk: one fused_losses call
    over all the kept steps, a stack row for each (step, client), at the end
    of the round, or earlier once the kept logits exceed
    _PENDING_LOSS_ENTRIES. A failure in a client raises RunError naming the
    round and the client; a non-finite anchor input is reported for the
    first client it reaches in stack order (most steps first, ties in the
    order of ``shards``), before any step.
    """
    strategy, t = cfg.strategy, cfg.training
    if strategy.kind not in ("fedavg", "fedprox", "fedka"):
        raise ValueError(f"unknown strategy {strategy.kind!r}")
    if strategy.kind == "fedka" and shared is None:
        raise ValueError("fedka training needs the shared one-per-class dataset")
    nn.check_state(global_state, spec)
    if not shards:
        return []

    def failed(cid: int, exc: Exception) -> RunError:
        return RunError(f"round {round_index}, client {cid}: {exc}")

    planned = []
    for shard in shards:
        try:
            planned.append(_plan_client(cfg, round_index, shard, global_state, spec, dataset, shared))
        except Exception as exc:
            raise failed(shard.client_id, exc) from exc
    # longest first, so that the clients still training are always a prefix
    order = sorted(range(len(planned)), key=lambda i: -planned[i].steps)
    clients = [planned[i] for i in order]
    try:
        blocks = anchor.anchor_rows([c.anchor for c in clients], global_state, spec)
    except nn.NonFiniteError as exc:
        raise failed(clients[exc.client].shard.client_id, exc) from exc
    center = global_state.params if strategy.kind == "fedprox" and strategy.mu > 0.0 else None

    # The round's (step, client) pairs, step after step and each step's
    # clients in stack order: the batch rows of each, and the dataset rows
    # and labels of all their batches. A client's batches cut its order in
    # step order; a stable sort by (step, stack row) interleaves them.
    counts = np.zeros((len(clients), max([c.steps for c in clients], default=0)), dtype=np.intp)
    for p, c in enumerate(clients):
        epoch = np.minimum(t.batch_size, len(c.shard) - t.batch_size * np.arange(c.per_epoch))
        counts[p, :c.steps] = np.tile(epoch, t.local_epochs)
    step_of, stack_row = np.nonzero(counts.T)
    batch_counts = counts[stack_row, step_of]
    pair_key = np.concatenate([np.repeat(np.arange(c.steps) * len(clients) + p, counts[p, :c.steps])
                               for p, c in enumerate(clients)])
    rows_taken = np.concatenate([c.order for c in clients])[np.argsort(pair_key, kind="stable")]
    labels = dataset.labels[rows_taken]
    # step s's pairs and rows start at pair_start[s] and row_start[s]
    pair_start = [0, *np.cumsum(np.count_nonzero(counts, axis=0)).tolist()]
    row_start = [0, *np.cumsum(counts.sum(axis=0)).tolist()]
    sizes_of = batch_counts.tolist()

    if stack is None:
        stack = tuple(np.empty((len(clients), spec.param_count)) for _ in range(3))
    params, momentum, grad = stack
    params[...] = global_state.params
    # the momentum rows that steps read: those of the clients that take a
    # second step, a prefix of the stack
    momentum_rows = sum(c.steps > 1 for c in clients)
    losses = np.empty(counts.shape)
    epoch_states: list[list[nn.ModelState]] = [[] for _ in clients]
    layouts: dict[tuple[int, ...], tuple[anchor.FusedRows, np.ndarray | None]] = {}
    # the logits and proximal losses of the steps whose losses are still to
    # be computed, from step ``settled`` on
    logits_kept, prox_kept = [], []

    def settle_losses(start: int, end: int) -> None:
        """The losses of steps start to end - 1, whose logits are kept."""
        pairs = slice(pair_start[start], pair_start[end])
        rows = blocks.layout(batch_counts[pairs], stack_row[pairs])
        step_losses = anchor.fused_losses(np.concatenate(logits_kept),
                                          labels[row_start[start]:row_start[end]], rows, strategy.beta)
        if center is not None:
            step_losses += np.concatenate(prox_kept)
        losses[stack_row[pairs], step_of[pairs]] = step_losses
        logits_kept.clear()
        prox_kept.clear()

    settled = pending_entries = 0
    for s in range(counts.shape[1]):
        sizes = tuple(sizes_of[pair_start[s]:pair_start[s + 1]])
        active = len(sizes)
        layout = layouts.get(sizes)
        if layout is None:
            rows = blocks.layout(sizes)
            buffer = None
            if rows.anchor is not None:
                # the anchor rows stay put; each step fills in the batch rows
                buffer = np.empty((rows.offsets[-1], *spec.input_shape))
                buffer[rows.anchor] = blocks.inputs[:len(rows.anchor)]
            layout = layouts[sizes] = (rows, buffer)
        rows, inputs = layout
        batch = slice(row_start[s], row_start[s + 1])
        if inputs is None:
            inputs = dataset.inputs.take(rows_taken[batch], axis=0)
        else:
            inputs[rows.batch] = dataset.inputs.take(rows_taken[batch], axis=0)
        stack_params, stack_grad = params[:active], grad[:active]
        try:
            logits, prox_loss = anchor.fused_gradient(
                spec, stack_params, inputs, labels[batch], rows, strategy.beta, stack_grad,
                center, strategy.mu, workspace)
            nn.sgd_update(stack_params, momentum[:min(active, momentum_rows)], stack_grad, t.lr,
                          t.momentum, t.weight_decay, first_step=s == 0)
        except nn.NonFiniteError as exc:
            raise failed(clients[exc.client].shard.client_id, exc) from exc
        logits_kept.append(logits)
        prox_kept.append(prox_loss)
        pending_entries += logits.size
        if cfg.metrics.epoch_forgetting:
            for p, c in enumerate(clients[:active]):
                # the last epoch ends in the update's state
                if (s + 1) % c.per_epoch == 0 and s + 1 < c.steps:
                    epoch_states[p].append(nn.ModelState(params[p].copy(), global_state.spec_hash))
        if pending_entries > _PENDING_LOSS_ENTRIES or s + 1 == counts.shape[1]:
            settle_losses(settled, s + 1)
            settled, pending_entries = s + 1, 0

    updates = {}
    for p, c in enumerate(clients):
        # an epoch's trace entry is the mean of its step losses
        trace = np.mean(losses[p, :c.steps].reshape(-1, c.per_epoch), axis=1).tolist() if c.steps else []
        state = nn.ModelState(params[p], global_state.spec_hash)
        updates[order[p]] = ClientUpdate(c.shard.client_id, state, len(c.shard), tuple(trace),
                                         c.anchor_log, tuple(epoch_states[p]))
    return [updates[i] for i in range(len(clients))]


def aggregate(updates: list[ClientUpdate]) -> nn.ModelState:
    """Sample-count-weighted mean of participant parameters. Weights must
    form a convex combination to 1e-12.
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
    return nn.ModelState(params, spec_hash)


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
    """The partition's shards: read from ``partition.file`` when set, else
    dirichlet_partition with the section's clients, alpha, seed,
    min_samples_per_client and gamma."""
    p = cfg.partition
    if p.file:
        return load_assignments(p.file, train, p.gamma)
    return dirichlet_partition(train, p.clients, p.alpha, p.seed, p.min_samples_per_client, p.gamma)


def shards_by_round(cfg: ExperimentConfig, train: LabeledDataset) -> dict[int, dict[int, ClientShard]]:
    """Each client's shard from the round it takes effect: key 0 holds the
    partition, each later key the clients that a reduction row shrinks at
    that round. A client's rows are grouped by their round, and the rounds
    are applied in ascending order, each to the shard the round before
    left; round 0's result is stored under key 1, so a round-0 and a
    round-1 row on one class both take effect in round 1, in that order.
    Every row is applied here, before round 1, including rows due after
    the last round.
    """
    base = {s.client_id: s for s in build_shards(cfg, train)}
    rows: dict[int, dict[int, list[tuple[int, int]]]] = {}
    for client, rnd, klass, keep in cfg.reduction:
        rows.setdefault(client, {}).setdefault(rnd, []).append((klass, keep))
    changes = {0: base}
    for client, by_round in rows.items():
        if client not in base:
            raise RunError(f"reduction schedule names unknown client {client}")
        shard = base[client]
        for rnd in sorted(by_round):
            try:
                shard = apply_reduction_schedule(shard, by_round[rnd], train)
            except ValueError as exc:
                raise RunError(f"reduction schedule of client {client}: round {rnd}: {exc}") from None
            changes.setdefault(max(rnd, 1), {})[client] = shard
    return changes


def run_round(cfg: ExperimentConfig, r: int, shards: dict[int, ClientShard],
              global_state: nn.ModelState, spec: nn.NetworkSpec, train: LabeledDataset,
              shared: np.ndarray | None, workspace: nn.Workspace) -> list[ClientUpdate]:
    """Round r's local stages: the sampled participants train on their
    shards in lockstep, split into k stacks, stack i the unit i of
    nn.on_lanes on k threads, so a caller that keeps one ``workspace``
    across rounds reuses its lanes' memory. k is
    ``training.parallel_clients`` when that is set, else nn.thread_count for
    one client's forward pass over a batch, at most CHOSEN_STACKS; never
    more than the participants. The stacks hold about as many samples
    each: the largest shard goes first, each to the stack with the fewest
    samples so far. The stacks' parameter, momentum and gradient rows are
    ``workspace.stacks``, a contiguous range of rows per stack, of which
    local_train writes the momentum rows of the clients that take a second
    step only; the updates' states live there until the workspace's next
    round. Returns the updates in client order; a failure raises RunError
    naming the round (and the client, when one is at fault).
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
    arrays = workspace.stacks(len(participants), spec.param_count)

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
# and test sets, the model spec, the shared dataset's sample ids (fedka),
# shards_by_round, and the workspace through whose lane t thread t trains and
# evaluates.
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
