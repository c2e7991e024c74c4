"""Knowledge anchors: the counterweight a client trains against.

Each round a client assembles a tiny reference set covering exactly the
classes its own data cannot protect: for every missing class, the sample
from a globally shared one-per-class dataset; for every non-dominant
class, one of its own samples. Dominant classes never appear. The anchor
is optionally down-sampled to a cap, and the training loss adds

    beta * (1/|T|) * || phi(f_g(T)) - phi(f_i(T)) ||^2

where phi drops the logit columns of the client's dominant classes and
f_g is the round's received global model, treated as a frozen teacher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import nn
from .data import ClientShard, LabeledDataset
from .rng import stream

ANCHOR_CAP_DEFAULT = 10

VARIANTS = ("full", "ka_n", "ka_m", "none")
SELECTIONS = ("random", "hard", "proficient")


def build_shared_dataset(dataset: LabeledDataset, seed: int) -> np.ndarray:
    """The shared one-per-class dataset, assembled once per experiment, as
    the (K,) dataset indices of its samples, class k's at k: the first
    class-k hit in a seed-shuffled index order.

    With partitioned data the picks land on arbitrary clients, so no single
    client sources the whole set.
    """
    order = stream(seed, "shared").permutation(len(dataset))
    chosen = np.full(dataset.class_count, -1, dtype=np.int64)
    remaining = dataset.class_count
    for idx in order:
        k = dataset.labels[idx]
        if chosen[k] < 0:
            chosen[k] = idx
            remaining -= 1
            if remaining == 0:
                break
    if remaining:
        missing = np.flatnonzero(chosen < 0).tolist()
        raise ValueError(f"no samples anywhere for classes {missing}")
    return chosen


@dataclass(frozen=True)
class AnchorEntry:
    input: np.ndarray
    label: int
    source: str       # "shared" | "local"
    sample_id: int    # index into the parent dataset


@dataclass(frozen=True)
class KnowledgeAnchor:
    entries: tuple[AnchorEntry, ...]
    dominant: frozenset[int]

    def __len__(self) -> int:
        return len(self.entries)

    def inputs(self) -> np.ndarray:
        return np.stack([e.input for e in self.entries])


def anchor_variant(shard: ClientShard, variant: str) -> frozenset[int]:
    """Class ids the anchor may cover under an ablation variant."""
    if variant == "full":
        return shard.missing | shard.non_dominant
    if variant == "ka_n":
        return frozenset(shard.non_dominant)
    if variant == "ka_m":
        return frozenset(shard.missing)
    if variant == "none":
        return frozenset()
    raise ValueError(f"unknown anchor variant {variant!r}, pick one of {VARIANTS}")


def select_anchor_strategy(
    shard: ClientShard,
    strategy: str,
    dataset: LabeledDataset,
    state: nn.ModelState | None = None,
    spec: nn.NetworkSpec | None = None,
) -> Callable[[int, np.random.Generator], int]:
    """Chooser mapping a non-dominant class to one of the client's samples.

    random draws uniformly; hard takes the sample with the largest CE loss
    under the given model, proficient the smallest. Loss ties break toward
    the lowest sample index (members are in ascending index order). The
    first call scores every sample of the shard's non-dominant classes, the
    ones build_anchor asks for, in one pass, each class on its own rows of
    a stack (nn.per_sample_ce), so every loss is the one a pass over its
    class alone gives; a class outside them is scored when asked for.
    """
    if strategy == "random":
        def choose(k: int, rng: np.random.Generator) -> int:
            members = shard.class_members(k)
            return int(members[rng.integers(len(members))])
        return choose
    if strategy in ("hard", "proficient"):
        if state is None or spec is None:
            raise ValueError(f"{strategy} selection needs a model to score losses")
        scored: dict[int, np.ndarray] = {}

        def score(classes: list[int]) -> None:
            members = [shard.class_members(k) for k in classes]
            inputs, labels = dataset.take(np.concatenate(members))
            offsets = np.cumsum([0] + [len(m) for m in members]).tolist()
            losses = nn.per_sample_ce(state, spec, inputs, labels, offsets)
            for k, start, stop in zip(classes, offsets, offsets[1:]):
                scored[k] = losses[start:stop]

        def choose(k: int, rng: np.random.Generator) -> int:
            if not scored:
                score(sorted(shard.non_dominant | {k}))
            elif k not in scored:
                score([k])
            losses = scored[k]
            pick = int(np.argmax(losses)) if strategy == "hard" else int(np.argmin(losses))
            return int(shard.class_members(k)[pick])
        return choose
    raise ValueError(f"unknown selection strategy {strategy!r}, pick one of {SELECTIONS}")


def build_anchor(
    shard: ClientShard,
    shared: np.ndarray,
    dataset: LabeledDataset,
    rng: np.random.Generator,
    *,
    variant: str = "full",
    chooser: Callable[[int, np.random.Generator], int] | None = None,
) -> KnowledgeAnchor:
    """Assemble the per-round anchor: the shared sample (``shared``, the
    sample ids of build_shared_dataset) for each missing class, one local
    sample for each non-dominant class, nothing for dominant. Every entry's
    input is its sample's row of ``dataset``.

    The chooser (see select_anchor_strategy) picks the local sample; by
    default it draws uniformly. Class ids are visited in ascending order so
    the rng draw sequence is reproducible.
    """
    allowed = anchor_variant(shard, variant)
    if chooser is None:
        chooser = select_anchor_strategy(shard, "random", dataset)
    entries = []
    for k in sorted(allowed):
        if k in shard.missing:
            source, sample_id = "shared", int(shared[k])
        else:
            source, sample_id = "local", chooser(k, rng)
        entries.append(AnchorEntry(dataset.inputs[sample_id], k, source, sample_id))
    return KnowledgeAnchor(tuple(entries), frozenset(shard.dominant))


def downsample_anchor(anchor: KnowledgeAnchor, cap: int, rng: np.random.Generator) -> KnowledgeAnchor:
    """Keep a uniform random subset of at most ``cap`` entries."""
    if cap < 1:
        raise ValueError("anchor cap must be >= 1")
    if len(anchor) <= cap:
        return anchor
    keep = np.sort(rng.choice(len(anchor), size=cap, replace=False))
    return KnowledgeAnchor(tuple(anchor.entries[i] for i in keep), anchor.dominant)


def kept_classes(dominant: Sequence[int] | frozenset[int], class_count: int) -> np.ndarray:
    """Class ids outside ``dominant`` in ascending order: the logit columns
    the anchor term compares."""
    kept = np.array([c for c in range(class_count) if c not in dominant], dtype=np.intp)
    if kept.size == 0:
        raise ValueError("every class is dominant: no logits left to compare")
    return kept


def ka_losses(student_logits: np.ndarray, teacher_logits: np.ndarray, kept: np.ndarray,
              counts: Sequence[int], entries: Sequence[int]) -> np.ndarray:
    """The anchor term of each client: the squared teacher-student gap over
    the ``kept`` entries (a boolean mask of the anchor rows' logits), summed
    per row and averaged over the client's counts[p] rows. The rows are the
    anchors of the clients one after another, entries[p] kept entries for
    client p."""
    gap = (student_logits - teacher_logits)[kept]
    return nn.segment_sums(gap * gap, entries) / counts


def ka_grad(student_logits: np.ndarray, teacher_logits: np.ndarray, kept: np.ndarray,
            scale: np.ndarray) -> np.ndarray:
    """Its gradient w.r.t. the student logits: ``scale`` (2 / the client's
    anchor rows, per row) times the gap in the kept entries, 0 elsewhere."""
    return np.where(kept, scale * (student_logits - teacher_logits), 0.0)


@dataclass(frozen=True)
class FusedRows:
    """Where the rows of one forward pass over several clients sit: each
    client's batch rows, then its anchor rows, one client after another.
    Client p owns rows ``offsets[p]:offsets[p + 1]``."""

    offsets: tuple[int, ...]
    batch: np.ndarray                  # the batch rows, client after client
    batch_counts: np.ndarray           # batch rows per client
    divisor: np.ndarray                # per row: its client's batch size (1 on anchor rows)
    anchor: np.ndarray | None          # the anchor rows; None when no client has any
    anchored: np.ndarray               # the clients with anchor rows
    anchor_counts: np.ndarray          # anchor rows per anchored client
    entries: np.ndarray                # kept logit entries per anchored client
    kept: np.ndarray | None            # per anchor row: the mask of kept columns
    scale: np.ndarray | None           # per anchor row: 2 / its client's anchor rows
    teacher: np.ndarray | None         # per anchor row: the teacher's logits


@dataclass(frozen=True)
class AnchorRows:
    """The anchor rows of a stack's clients, one client after another, and
    what the anchor term needs of each row: built once a round, for the
    layouts of all its steps. Client p owns rows ``starts[p]:starts[p] +
    counts[p]``; a client without an anchor term has none."""

    counts: np.ndarray                 # anchor rows per client
    starts: np.ndarray                 # each client's first row
    entries: np.ndarray                # kept logit entries per client
    inputs: np.ndarray | None          # the rows' inputs; None when no client has any
    kept: np.ndarray | None            # per row: the mask of kept columns
    scale: np.ndarray | None           # per row: 2 / its client's anchor rows
    teacher: np.ndarray | None         # per row: the teacher's logits

    def layout(self, batch_counts, clients: np.ndarray | None = None) -> FusedRows:
        """The layout of a pass whose stack row j is client ``clients[j]``,
        with a batch of batch_counts[j] rows followed by the client's anchor
        rows; without ``clients``, the stack is the first len(batch_counts)
        clients, whose anchor rows are the first rows here. A client may
        come more than once: over the rows of many steps, a stack row for
        each (step, client), fused_losses gives every step's losses at once."""
        m = np.array(batch_counts, dtype=np.intp)
        clients = np.arange(len(m)) if clients is None else clients
        a, entries = self.counts[clients], self.entries[clients]
        # runs of rows: stack row j's batch rows in run 2j, its anchor rows in 2j + 1
        runs = np.empty(2 * len(m), dtype=np.intp)
        runs[0::2], runs[1::2] = m, a
        run_of_row = np.arange(len(runs)).repeat(runs)
        in_anchor = (run_of_row & 1).astype(bool)
        sizes = runs.astype(np.float64)
        sizes[1::2] = 1.0
        batch, anchor, anchored = (~in_anchor).nonzero()[0], in_anchor.nonzero()[0], a.nonzero()[0]
        offsets, divisor = (0, *runs.cumsum()[1::2].tolist()), sizes[run_of_row][:, None]
        counts, entries = a[anchored], entries[anchored]
        if not len(anchor):
            return FusedRows(offsets, batch, m, divisor, None, anchored, counts, entries, None, None, None)
        # the rows of each anchored stack row's client, one client after another
        ends = counts.cumsum()
        source = np.arange(len(anchor)) + (self.starts[clients[anchored]] - ends + counts).repeat(counts)
        return FusedRows(offsets, batch, m, divisor, anchor, anchored, counts, entries,
                         self.kept[source], self.scale[source], self.teacher[source])


def anchor_rows(anchors: Sequence[KnowledgeAnchor | None], teacher: nn.ModelState,
                spec: nn.NetworkSpec) -> AnchorRows:
    """The AnchorRows of a stack whose row p has the anchor term of
    anchors[p] (None for none), against the frozen ``teacher``: one pass of
    it over every anchor's inputs, each stack row's on rows of its own
    (nn.forward_copies), so each anchor gets the logits of a pass over it
    alone. A NonFiniteError names the stack row at fault."""
    counts = np.array([0 if a is None else len(a) for a in anchors], dtype=np.intp)
    starts = counts.cumsum() - counts
    used = [a for a in anchors if a is not None and len(a)]
    if not used:
        return AnchorRows(counts, starts, counts, None, None, None, None)
    inputs = np.concatenate([a.inputs() for a in used])
    logits = nn.forward_copies(teacher, spec, inputs, [0, *counts.cumsum().tolist()])
    rows = counts[counts > 0]
    kept = np.zeros((len(used), spec.class_count), dtype=bool)
    for mask, a in zip(kept, used):
        mask[kept_classes(a.dominant, spec.class_count)] = True
    entries = np.zeros_like(counts)
    entries[counts > 0] = rows * kept.sum(axis=1)
    return AnchorRows(counts, starts, entries, inputs, np.repeat(kept, rows, axis=0),
                      np.repeat(2.0 / rows, rows)[:, None], logits)


def fused_grad_logits(logits: np.ndarray, labels: np.ndarray, rows: FusedRows, beta: float) -> np.ndarray:
    """The gradient w.r.t. (N, C) logits of each client's cross-entropy on
    its batch rows plus ``beta`` times the anchor term on its anchor rows."""
    grad = nn.ce_grad(logits, labels, rows.batch, rows.divisor)
    if rows.anchor is not None:
        grad[rows.anchor] = beta * ka_grad(logits[rows.anchor], rows.teacher, rows.kept, rows.scale)
    return grad


def fused_losses(logits: np.ndarray, labels: np.ndarray, rows: FusedRows, beta: float) -> np.ndarray:
    """Those objectives per client, for (N, C) logits and the labels of the
    batch rows. Over the rows of many steps, laid out by AnchorRows.layout
    with a stack row for each (step, client), each loss is the one its
    step alone gives."""
    losses = nn.ce_losses(logits, labels, rows.batch, rows.batch_counts)
    if rows.anchor is not None:
        losses[rows.anchored] += beta * ka_losses(
            logits[rows.anchor], rows.teacher, rows.kept, rows.anchor_counts, rows.entries)
    return losses


def fused_gradient(spec: nn.NetworkSpec, params: np.ndarray, inputs: np.ndarray, labels: np.ndarray,
                   rows: FusedRows, beta: float, out: np.ndarray, center: np.ndarray | None = None,
                   mu: float = 0.0, workspace: nn.Workspace | None = None):
    """The training step's gradient, written into ``out``: per client of the
    (P, n) stack ``params``, that of fused_grad_logits' objective on ``rows``
    plus FedProx's term around ``center`` if given. One forward and one
    backward pass over ``inputs`` (checked by the caller), conv columns in
    the ``workspace``. Returns the logits, for fused_losses, and the clients'
    proximal losses (None without a center)."""
    logits, caches = nn.forward(spec, params, inputs, True, rows.offsets, workspace)
    grad_logits = fused_grad_logits(logits, labels, rows, beta)
    nn.backward_from_logits(spec, params, caches, grad_logits, out=out,
                            offsets=rows.offsets, workspace=workspace)
    prox_losses = None
    if center is not None:
        prox_losses, prox_grad = nn.proximal_loss_and_grad(params, center, mu)
        out += prox_grad
    return logits, prox_losses


def ka_loss_and_grad(
    anchor: KnowledgeAnchor,
    global_state: nn.ModelState,
    local_state: nn.ModelState,
    spec: nn.NetworkSpec,
    teacher_logits: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean squared gap between teacher and student on the anchor, after
    discarding dominant columns, with the exact gradient for the student.

    The teacher (global) model is frozen: its logits are data here and may
    be passed in precomputed. Training adds this term inside the CE pass
    (fused_gradient); this standalone form is the two-pass reference that
    tests compare the fused step with.
    """
    if local_state.spec_hash != spec.spec_hash or global_state.spec_hash != spec.spec_hash:
        raise nn.ShapeError("anchor loss needs both states built for the given spec")
    if len(anchor) == 0:
        return 0.0, np.zeros_like(local_state.params)
    inputs = anchor.inputs()
    if teacher_logits is None:
        teacher_logits = nn.forward_logits(global_state, spec, inputs)
    kept = np.zeros((len(inputs), spec.class_count), dtype=bool)
    kept[:, kept_classes(anchor.dominant, spec.class_count)] = True
    student_logits, caches = nn.forward_with_caches(local_state, spec, inputs)
    loss = ka_losses(student_logits, teacher_logits, kept, (len(inputs),), (int(kept.sum()),))
    grad_logits = ka_grad(student_logits, teacher_logits, kept, 2.0 / len(inputs))
    return float(loss[0]), nn.backward_from_logits(spec, local_state.params, caches, grad_logits)
