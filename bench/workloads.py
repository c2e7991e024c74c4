"""Benchmark workloads: experiment configs and the inputs they read.

Every input is generated from the workload seed, so the same seed always
gives the same configs and the same IDX bytes. The program sees only these
generated configs and files, through its public API.

Each run sweeps several master seeds derived from the workload seed, the
way a researcher runs a seed sweep: the partition, and with it the work per
round, changes from seed to seed, and one master seed alone would make the
run's figures depend on which seed the run was given.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fedka.config import resolve
from fedka.data import synth_blobs
from fedka.federation import build_datasets, build_shards

IMAGE_SIDE = 28
# Rotated blob coordinates are roughly unit-variance; this maps one standard
# deviation to 60 grey levels and clips negatives to black. With a mid-grey
# offset instead, every pixel sits near 0.5 and t_cnn stays at chance.
PIXEL_SCALE = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    target_acc: float       # global accuracy every experiment must reach
    sweep: int              # master seeds per run
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("blob-fedka", 0.5, 15,
                 "tiny MLP under fedka: per-step Python overhead and the anchor term"),
        Workload("tcnn-fedavg", 0.45, 11,
                 "t_cnn on 28x28 IDX images under fedavg: conv and maxpool kernels"),
        Workload("wide-fedprox-eval", 0.3, 11,
                 "wide MLP, 5000-sample test set: forward-only evaluation at batch 5000"),
    )
}


def master_seeds(workload: Workload, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 0x5EED])
    return [int(s) for s in rng.integers(0, 2**31, size=workload.sweep)]


def _write_idx(images: np.ndarray, labels: np.ndarray, images_path: Path, labels_path: Path) -> None:
    n = len(labels)
    images_path.write_bytes(struct.pack(">IIII", 0x803, n, IMAGE_SIDE, IMAGE_SIDE)
                            + images.astype(np.uint8).tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x801, n) + labels.astype(np.uint8).tobytes())


def write_image_idx(directory: Path, seed: int, classes: int, per_class: int,
                    test_per_class: int, separation: float) -> dict:
    """Blobs in 784 dims, rotated by a seeded orthogonal matrix, quantized to
    bytes and stored as 28x28 IDX images; returns the four file paths.

    Unrotated blobs keep their signal in the first two coordinates, which
    reshape into two corner pixels; the rotation spreads it over the image.
    """
    dims = IMAGE_SIDE * IMAGE_SIDE
    rng = np.random.default_rng([seed, 0x1D8])
    q, r = np.linalg.qr(rng.normal(size=(dims, dims)))
    rotation = q * np.sign(np.diag(r))
    train = synth_blobs(classes, per_class, dims, separation, int(rng.integers(2**31)))
    test = synth_blobs(classes, test_per_class, dims, separation, int(rng.integers(2**31)))
    directory.mkdir(parents=True, exist_ok=True)
    paths = {key: str(directory / f"{key}.idx") for key in
             ("train_images", "train_labels", "test_images", "test_labels")}
    for ds, images, labels in ((train, "train_images", "train_labels"),
                               (test, "test_images", "test_labels")):
        pixels = np.clip(np.rint(ds.inputs @ rotation * PIXEL_SCALE), 0, 255)
        _write_idx(pixels, ds.labels, Path(paths[images]), Path(paths[labels]))
    return paths


def _blob_fedka(master_seed: int, data_dir: Path) -> dict:
    raw = {
        "name": "blob-fedka", "master_seed": master_seed,
        "dataset": {"kind": "synth", "classes": 4, "per_class": 100, "dims": 8,
                    "separation": 6.0, "test_per_class": 250},
        "partition": {"clients": 4, "alpha": 0.1, "min_samples_per_client": 16},
        "model": {"preset": "mlp", "hidden": [8]},
        "strategy": {"kind": "fedka", "beta": 0.1},
        "training": {"rounds": 30, "local_epochs": 10, "batch_size": 16,
                     "lr": 0.05, "weight_decay": 0.05},
    }
    # Criterion-7-style stepwise reduction of one class on one client. The
    # class picked is the one whose count is closest to 40, so every master
    # seed drops about the same number of samples and does about the same work.
    cfg = resolve(raw, output_root=str(data_dir))
    train, _ = build_datasets(cfg)
    _, count, client, klass = min((abs(int(c) - 40), int(c), s.client_id, k)
                                  for s in build_shards(cfg, train) for k, c in enumerate(s.counts))
    raw["schedules"] = {"reduction": [[client, 10, klass, count // 2],
                                      [client, 20, klass, count // 10]]}
    return raw


def _tcnn_fedavg(master_seed: int, data_dir: Path) -> dict:
    # One image set per master seed; 20 train and 20 test images keep a round
    # near 0.25 s, so a run pools over a hundred rounds. Shards are smaller
    # than the batch, so each client takes one step per epoch.
    paths = write_image_idx(data_dir / f"idx-{master_seed}", master_seed,
                            classes=10, per_class=2, test_per_class=2, separation=100.0)
    return {
        "name": "tcnn-fedavg", "master_seed": master_seed,
        "dataset": {"kind": "idx", **paths},
        "partition": {"clients": 4, "alpha": 0.1},
        "model": {"preset": "t_cnn", "conv_kernel": 5},
        "strategy": {"kind": "fedavg"},
        "training": {"rounds": 10, "local_epochs": 1, "batch_size": 32,
                     "lr": 0.1, "weight_decay": 1e-4},
    }


def _wide_fedprox_eval(master_seed: int, data_dir: Path) -> dict:
    return {
        "name": "wide-fedprox-eval", "master_seed": master_seed,
        "dataset": {"kind": "synth", "classes": 10, "per_class": 200, "dims": 64,
                    "separation": 4.0, "test_per_class": 500},
        "partition": {"clients": 16, "alpha": 0.3, "min_samples_per_client": 8},
        "model": {"preset": "mlp", "hidden": [128]},
        "strategy": {"kind": "fedprox", "mu": 0.01},
        "training": {"rounds": 10, "local_epochs": 2, "batch_size": 32, "lr": 0.02,
                     "weight_decay": 0.01, "participation_ratio": 0.5},
        "metrics": {"epoch_forgetting": True, "checkpoint_interval": 1},
    }


_BUILDERS = {
    "blob-fedka": _blob_fedka,
    "tcnn-fedavg": _tcnn_fedavg,
    "wide-fedprox-eval": _wide_fedprox_eval,
}


def make_raw_configs(workload: Workload, seed: int, data_dir: Path) -> list[dict]:
    """One raw config per master seed of the sweep, inputs written under data_dir."""
    build = _BUILDERS[workload.name]
    return [build(s, data_dir) for s in master_seeds(workload, seed)]
