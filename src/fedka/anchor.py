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


@dataclass(frozen=True)
class SharedDataset:
    """One sample per class, assembled once per experiment."""

    inputs: np.ndarray       # (K, *feature shape)
    sample_ids: np.ndarray   # provenance: index into the source dataset
    class_count: int

    def __post_init__(self):
        if len(self.inputs) != self.class_count or len(self.sample_ids) != self.class_count:
            raise ValueError(f"shared dataset must hold exactly {self.class_count} entries")


def build_shared_dataset(dataset: LabeledDataset, seed: int) -> SharedDataset:
    """Pick one sample per class: first hit in a seed-shuffled index order.

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
    return SharedDataset(dataset.inputs[chosen], chosen, dataset.class_count)


@dataclass(frozen=True)
class AnchorEntry:
    input: np.ndarray
    label: int
    source: str       # "shared" | "local"
    sample_id: int    # index into the parent dataset


@dataclass(frozen=True)
class KnowledgeAnchor:
    entries: tuple[AnchorEntry, ...]
    owner: int
    round: int
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
    the lowest sample index (members are in ascending index order).
    """
    if strategy == "random":
        def choose(k: int, rng: np.random.Generator) -> int:
            members = shard.class_members(k)
            return int(members[rng.integers(len(members))])
        return choose
    if strategy in ("hard", "proficient"):
        if state is None or spec is None:
            raise ValueError(f"{strategy} selection needs a model to score losses")

        def choose(k: int, rng: np.random.Generator) -> int:
            members = shard.class_members(k)
            inputs, labels = dataset.take(members)
            losses = nn.per_sample_ce(state, spec, inputs, labels)
            pick = int(np.argmax(losses)) if strategy == "hard" else int(np.argmin(losses))
            return int(members[pick])
        return choose
    raise ValueError(f"unknown selection strategy {strategy!r}, pick one of {SELECTIONS}")


def build_anchor(
    shard: ClientShard,
    shared: SharedDataset,
    dataset: LabeledDataset,
    round_index: int,
    rng: np.random.Generator,
    *,
    variant: str = "full",
    chooser: Callable[[int, np.random.Generator], int] | None = None,
) -> KnowledgeAnchor:
    """Assemble the per-round anchor: shared samples for missing classes,
    one local sample for each non-dominant class, nothing for dominant.

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
            entries.append(AnchorEntry(shared.inputs[k], k, "shared", int(shared.sample_ids[k])))
        else:
            sample_id = chooser(k, rng)
            entries.append(AnchorEntry(dataset.inputs[sample_id], k, "local", sample_id))
    return KnowledgeAnchor(tuple(entries), shard.client_id, round_index, frozenset(shard.dominant))


def downsample_anchor(anchor: KnowledgeAnchor, cap: int, rng: np.random.Generator) -> KnowledgeAnchor:
    """Keep a uniform random subset of at most ``cap`` entries."""
    if cap < 1:
        raise ValueError("anchor cap must be >= 1")
    if len(anchor) <= cap:
        return anchor
    keep = np.sort(rng.choice(len(anchor), size=cap, replace=False))
    return KnowledgeAnchor(
        tuple(anchor.entries[i] for i in keep), anchor.owner, anchor.round, anchor.dominant
    )


def kept_classes(dominant: Sequence[int] | frozenset[int], class_count: int) -> np.ndarray:
    """Class ids outside ``dominant`` in ascending order: the logit columns
    the anchor term compares."""
    kept = np.array([c for c in range(class_count) if c not in dominant], dtype=np.intp)
    if kept.size == 0:
        raise ValueError("every class is dominant: no logits left to compare")
    return kept


def ka_logit_loss_and_grad(
    student_logits: np.ndarray, teacher_kept: np.ndarray, kept: np.ndarray
) -> tuple[float, np.ndarray]:
    """The anchor term on logits: the squared teacher-student gap over the
    kept columns, summed per row and averaged over rows, and its gradient
    with respect to the student logits (zero in the discarded columns).

    ``teacher_kept`` holds the teacher's logits in the ``kept`` columns only.
    """
    rows = len(student_logits)
    diff = student_logits[:, kept] - teacher_kept
    loss = float(np.sum(diff * diff) / rows)
    grad_logits = np.zeros_like(student_logits)
    grad_logits[:, kept] = (2.0 / rows) * diff
    return loss, grad_logits


@dataclass(frozen=True)
class AnchorTarget:
    """What the anchor term needs at every step of a round: the stacked
    anchor inputs, the kept logit columns, and the frozen teacher's logits
    in those columns. The teacher does not move within a round, so all
    three are computed once per round."""

    inputs: np.ndarray
    kept: np.ndarray
    teacher_kept: np.ndarray


def anchor_target(
    anchor: KnowledgeAnchor, global_state: nn.ModelState, spec: nn.NetworkSpec
) -> AnchorTarget:
    """The round's anchor target, with the global model as the teacher."""
    inputs = anchor.inputs()
    kept = kept_classes(anchor.dominant, spec.class_count)
    return AnchorTarget(inputs, kept, nn.forward_logits(global_state, spec, inputs)[:, kept])


def anchored_loss_and_grad(
    state: nn.ModelState,
    spec: nn.NetworkSpec,
    batch: nn.Batch,
    target: AnchorTarget,
    beta: float,
) -> tuple[float, np.ndarray]:
    """Cross-entropy on the batch plus ``beta`` times the anchor term, with
    the exact gradient, from one forward and one backward pass over the
    batch rows followed by the anchor rows."""
    labels = nn.batch_labels(spec, batch)
    m = len(labels)
    logits, caches = nn.forward_with_caches(
        state, spec, np.concatenate([batch.inputs, target.inputs]))
    ce, grad_ce = nn.softmax_cross_entropy(logits[:m], labels)
    ka, grad_ka = ka_logit_loss_and_grad(logits[m:], target.teacher_kept, target.kept)
    grad_logits = np.concatenate([grad_ce, beta * grad_ka])
    return ce + beta * ka, nn.backward_from_logits(spec, state.params, caches, grad_logits)


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
    (anchored_loss_and_grad); this standalone form is its reference.
    """
    if local_state.spec_hash != spec.spec_hash or global_state.spec_hash != spec.spec_hash:
        raise nn.ShapeError("anchor loss needs both states built for the given spec")
    if len(anchor) == 0:
        return 0.0, np.zeros_like(local_state.params)
    inputs = anchor.inputs()
    if teacher_logits is None:
        teacher_logits = nn.forward_logits(global_state, spec, inputs)
    kept = kept_classes(anchor.dominant, spec.class_count)
    student_logits, caches = nn.forward_with_caches(local_state, spec, inputs)
    loss, grad_logits = ka_logit_loss_and_grad(student_logits, teacher_logits[:, kept], kept)
    return loss, nn.backward_from_logits(spec, local_state.params, caches, grad_logits)
