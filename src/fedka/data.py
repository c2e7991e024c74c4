"""Datasets, Non-IID partitioning and class-role bookkeeping.

A client shard records which samples of a parent dataset a client owns and
classifies every class id into one of three roles by its share of the
client's data: dominant (share >= gamma), non-dominant (positive share
below gamma) or missing (no samples). The boundary case share == gamma is
dominant. Partitioning draws, for every class, a Dirichlet proportion
vector over clients and splits that class's samples multinomially, which
yields label-skewed shards for small concentration values.
"""

from __future__ import annotations

import csv
import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .rng import stream

DEFAULT_GAMMA = 0.05


class PartitionError(RuntimeError):
    """Resampling budget exhausted without satisfying shard minima."""


class IdxFormatError(ValueError):
    """Malformed IDX file; carries the byte offset of the problem."""

    def __init__(self, path, offset: int, message: str):
        super().__init__(f"{path}: byte {offset}: {message}")
        self.offset = offset


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable (inputs, labels) pairs with a fixed class vocabulary."""

    inputs: np.ndarray
    labels: np.ndarray
    class_count: int
    name: str

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        if len(inputs) == 0:
            raise ValueError("dataset is empty")
        if len(inputs) != len(labels):
            raise ValueError(f"{len(inputs)} inputs vs {len(labels)} labels")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise ValueError(f"labels must lie in [0, {self.class_count})")
        inputs.setflags(write=False)
        labels.setflags(write=False)

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def class_indices(self) -> tuple[np.ndarray, ...]:
        """Sorted sample indices per class; empty arrays for absent classes."""
        return tuple(np.flatnonzero(self.labels == k) for k in range(self.class_count))

    @cached_property
    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.class_count)

    def take(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.inputs[indices], self.labels[indices]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.name}|{self.class_count}|{self.inputs.shape}".encode())
        h.update(np.ascontiguousarray(self.inputs).tobytes())
        h.update(np.ascontiguousarray(self.labels).tobytes())
        return h.hexdigest()


def synth_blobs(class_count: int, per_class: int, dims: int, separation: float, seed: int) -> LabeledDataset:
    """Unit-variance Gaussian clusters, one per class.

    Centers sit `separation` apart: on a line for dims == 1, otherwise on a
    regular polygon in the first two coordinates whose side length equals
    `separation` (circumradius sep / (2 sin(pi/K))).
    """
    if class_count < 1 or per_class < 1 or dims < 1:
        raise ValueError("class_count, per_class and dims must be positive")
    if separation < 0:
        raise ValueError("separation must be non-negative")
    centers = np.zeros((class_count, dims))
    if class_count > 1:
        if dims == 1:
            centers[:, 0] = np.arange(class_count) * separation
        else:
            radius = separation / (2.0 * np.sin(np.pi / class_count))
            angles = 2.0 * np.pi * np.arange(class_count) / class_count
            centers[:, 0] = radius * np.cos(angles)
            centers[:, 1] = radius * np.sin(angles)
    rng = stream(seed, "blobs")
    noise = rng.normal(size=(class_count, per_class, dims))
    inputs = (centers[:, None, :] + noise).reshape(class_count * per_class, dims)
    labels = np.repeat(np.arange(class_count), per_class)
    return LabeledDataset(
        inputs, labels, class_count,
        f"blobs(K={class_count},n={per_class},d={dims},sep={separation:g},seed={seed})",
    )


def _read_header(blob: bytes, path, expected_magic: int, dim_count: int):
    if len(blob) < 4:
        raise IdxFormatError(path, 0, f"file holds {len(blob)} bytes, no room for a magic number")
    (magic,) = struct.unpack_from(">I", blob, 0)
    if magic != expected_magic:
        raise IdxFormatError(path, 0, f"magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    need = 4 + 4 * dim_count
    if len(blob) < need:
        raise IdxFormatError(path, len(blob), f"truncated header: {len(blob)} bytes, need {need}")
    dims = struct.unpack_from(f">{dim_count}I", blob, 4)
    return dims, need


def load_idx(images_path, labels_path, class_count: int | None = None) -> LabeledDataset:
    """Read an IDX image/label file pair; pixels scaled into [0, 1]."""
    img_blob = Path(images_path).read_bytes()
    lbl_blob = Path(labels_path).read_bytes()
    (n, rows, cols), img_off = _read_header(img_blob, images_path, 0x00000803, 3)
    (n_lbl,), lbl_off = _read_header(lbl_blob, labels_path, 0x00000801, 1)
    if n != n_lbl:
        raise IdxFormatError(labels_path, 4, f"{n_lbl} labels for {n} images")
    expected = img_off + n * rows * cols
    if len(img_blob) != expected:
        raise IdxFormatError(images_path, len(img_blob),
                             f"expected {expected} bytes for {n}x{rows}x{cols} pixels, got {len(img_blob)}")
    if len(lbl_blob) != lbl_off + n:
        raise IdxFormatError(labels_path, len(lbl_blob),
                             f"expected {lbl_off + n} bytes for {n} labels, got {len(lbl_blob)}")
    pixels = np.frombuffer(img_blob, dtype=np.uint8, offset=img_off)
    images = pixels.reshape(n, 1, rows, cols).astype(np.float64) / 255.0
    labels = np.frombuffer(lbl_blob, dtype=np.uint8, offset=lbl_off).astype(np.int64)
    k = int(labels.max()) + 1 if class_count is None else class_count
    if labels.max() >= k:
        bad = int(np.argmax(labels >= k))
        raise IdxFormatError(labels_path, lbl_off + bad,
                             f"label {labels[bad]} outside [0, {k})")
    return LabeledDataset(images, labels, k, Path(images_path).name)


# ---------------------------------------------------------------------------
# Roles and shards
# ---------------------------------------------------------------------------


def classify_roles(counts: Sequence[int], gamma: float):
    """Split class ids into (dominant, non_dominant, missing) by data share."""
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    counts = np.asarray(counts)
    if counts.min() < 0:
        raise ValueError("negative class count")
    total = counts.sum()
    if total == 0:
        raise ValueError("all class counts are zero (empty client)")
    share = counts / total
    dominant = frozenset(np.flatnonzero(share >= gamma).tolist())
    missing = frozenset(np.flatnonzero(counts == 0).tolist())
    non_dominant = frozenset(range(len(counts))) - dominant - missing
    return dominant, non_dominant, missing


@dataclass(frozen=True)
class ClientShard:
    """One client's slice of a dataset plus its class-role classification."""

    client_id: int
    indices: np.ndarray          # sorted ascending, into the parent dataset
    labels: np.ndarray           # aligned with indices
    counts: np.ndarray           # length class_count
    dominant: frozenset[int]
    non_dominant: frozenset[int]
    missing: frozenset[int]
    gamma: float

    def __post_init__(self):
        for name in ("indices", "labels", "counts"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.indices) != len(self.labels):
            raise ValueError("indices and labels misaligned")
        if self.counts.sum() != len(self.indices):
            raise ValueError("counts do not add up to the shard size")
        if np.any(np.diff(self.indices) <= 0):
            raise ValueError("shard indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def class_count(self) -> int:
        return len(self.counts)

    def class_members(self, k: int) -> np.ndarray:
        """Dataset indices of this shard's class-k samples, ascending."""
        return self.indices[self.labels == k]

    def role_of(self, k: int) -> str:
        if k in self.dominant:
            return "dominant"
        if k in self.non_dominant:
            return "non_dominant"
        return "missing"


def make_shard(client_id: int, indices: np.ndarray, dataset: LabeledDataset, gamma: float) -> ClientShard:
    indices = np.sort(np.asarray(indices, dtype=np.int64))
    labels = dataset.labels[indices]
    counts = np.bincount(labels, minlength=dataset.class_count)
    dom, non, mis = classify_roles(counts, gamma)
    return ClientShard(client_id, indices, labels, counts, dom, non, mis, gamma)


@dataclass(frozen=True)
class PartitionSpec:
    client_count: int
    alpha: float
    seed: int
    min_samples_per_client: int = 1

    def __post_init__(self):
        if self.client_count < 1:
            raise ValueError("client_count must be >= 1")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if self.min_samples_per_client < 0:
            raise ValueError("min_samples_per_client must be >= 0")


def dirichlet_partition(
    dataset: LabeledDataset,
    spec: PartitionSpec,
    gamma: float = DEFAULT_GAMMA,
    max_retries: int = 100,
) -> list[ClientShard]:
    """Label-skewed split: per class k, client proportions ~ Dir(alpha * 1_N).

    The whole draw is retried (bounded) until every client holds at least
    ``min_samples_per_client`` samples.
    """
    n_clients = spec.client_count
    rng = stream(spec.seed, "partition")
    for _ in range(max_retries + 1):
        assigned: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
        for k in range(dataset.class_count):
            members = dataset.class_indices[k]
            if len(members) == 0:
                continue
            proportions = rng.dirichlet(np.full(n_clients, spec.alpha))
            counts = rng.multinomial(len(members), proportions)
            shuffled = rng.permutation(members)
            offsets = np.cumsum(counts)[:-1]
            for client, chunk in enumerate(np.split(shuffled, offsets)):
                assigned[client].append(chunk)
        sizes = [sum(len(c) for c in chunks) for chunks in assigned]
        if min(sizes) >= max(spec.min_samples_per_client, 1):
            return [
                make_shard(i, np.concatenate(chunks), dataset, gamma)
                for i, chunks in enumerate(assigned)
            ]
    raise PartitionError(
        f"could not give every client >= {spec.min_samples_per_client} samples "
        f"after {max_retries} retries; raise alpha or lower client_count"
    )


def apply_reduction_schedule(
    shard: ClientShard,
    schedule: Iterable[tuple[int, int, int]],
    dataset: LabeledDataset,
    upto_round: int | None = None,
) -> ClientShard:
    """Shrink classes per a (round, class, keep_count) schedule.

    Entries are applied in round order; each truncates the class to its
    ``keep_count`` lowest original indices and roles are recomputed. With
    ``upto_round`` set, only entries scheduled at or before that round
    apply, which gives the shard as the training loop sees it mid-run.
    """
    entries = sorted(schedule, key=lambda e: (e[0], e[1]))
    last_round: dict[int, int] = {}
    indices = shard.indices
    labels = shard.labels
    for rnd, klass, keep in entries:
        if klass in last_round and rnd <= last_round[klass]:
            raise ValueError(f"rounds for class {klass} must be strictly increasing")
        last_round[klass] = rnd
        if upto_round is not None and rnd > upto_round:
            continue
        current = int((labels == klass).sum())
        if keep < 0 or keep > current:
            raise ValueError(
                f"round {rnd}: cannot keep {keep} of {current} class-{klass} samples"
            )
        members = indices[labels == klass]
        mask = np.isin(indices, members[keep:], invert=True)  # indices ascending: keep lowest
        indices = indices[mask]
        labels = labels[mask]
    if len(indices) == len(shard.indices):
        return shard
    return make_shard(shard.client_id, indices, dataset, shard.gamma)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def export_assignments(shards: Sequence[ClientShard], path) -> None:
    """(sample_id, client_id, label) rows, one per assigned sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "client_id", "label"])
        for shard in shards:
            for idx, label in zip(shard.indices, shard.labels):
                writer.writerow([int(idx), shard.client_id, int(label)])


def load_assignments(path, dataset: LabeledDataset, gamma: float) -> list[ClientShard]:
    """Rebuild shards from an assignment CSV, verifying labels against the
    dataset."""
    by_client: dict[int, list[int]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            idx, client, label = int(row["sample_id"]), int(row["client_id"]), int(row["label"])
            if idx < 0 or idx >= len(dataset):
                raise ValueError(f"{path}: sample_id {idx} outside the dataset")
            if dataset.labels[idx] != label:
                raise ValueError(
                    f"{path}: sample {idx} is labeled {dataset.labels[idx]} in the "
                    f"dataset, {label} in the file"
                )
            by_client.setdefault(client, []).append(idx)
    all_ids = [i for members in by_client.values() for i in members]
    if len(all_ids) != len(set(all_ids)):
        raise ValueError(f"{path}: duplicate sample assignments")
    return [
        make_shard(client, np.array(members), dataset, gamma)
        for client, members in sorted(by_client.items())
    ]


def export_count_matrix(shards: Sequence[ClientShard], path) -> None:
    """Client-by-class count table for partition inspection."""
    if not shards:
        raise ValueError("no shards")
    k = shards[0].class_count
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client"] + [f"class_{i}" for i in range(k)])
        for shard in shards:
            writer.writerow([shard.client_id] + shard.counts.tolist())
