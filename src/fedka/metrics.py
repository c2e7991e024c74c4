"""Forgetting instrumentation and accuracy bookkeeping.

The forgetting degree of a class compares the accuracy a client's freshly
trained local model achieves on it against the accuracy of the global
model the client started the round from:

    tau = (acc_global - acc_local) / (acc_global + xi)

Positive tau means the local stage lost ability on the class, negative
means it gained; the value never exceeds 1 and is unbounded below. xi
keeps the ratio finite when the global model scores zero.

Per-class accuracy is measured on a held-out test set; classes without
test samples get NaN and are excluded from forgetting records rather than
zero-filled (a zero would fabricate tau = 1).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import nn
from .data import ClientShard, LabeledDataset

DEFAULT_XI = 1e-8


def forgetting_degree(acc_global: float, acc_local: float, xi: float = DEFAULT_XI) -> float:
    """Relative accuracy drop of the local model on one class."""
    if not 0.0 <= acc_global <= 1.0 or not 0.0 <= acc_local <= 1.0:
        raise ValueError("accuracies must lie in [0, 1]")
    if not xi > 0:
        raise ValueError("xi must be > 0")
    return (acc_global - acc_local) / (acc_global + xi)


def accuracy_from_logits(logits: np.ndarray, test_set: LabeledDataset) -> np.ndarray:
    """Per-class argmax accuracy; NaN where the test set lacks the class.

    Argmax ties resolve to the lowest class id.
    """
    predicted = logits.argmax(axis=1)
    correct = predicted == test_set.labels
    acc = np.full(test_set.class_count, np.nan)
    for k in range(test_set.class_count):
        members = test_set.class_indices[k]
        if len(members):
            acc[k] = correct[members].mean()
    return acc


def classwise_accuracy(state: nn.ModelState, spec: nn.NetworkSpec, test_set: LabeledDataset) -> np.ndarray:
    """Per-class accuracy of a model on the test set."""
    if spec.class_count != test_set.class_count:
        raise ValueError(
            f"model emits {spec.class_count} classes, test set has {test_set.class_count}"
        )
    return accuracy_from_logits(nn.forward_logits(state, spec, test_set.inputs), test_set)


def global_accuracy(per_class: np.ndarray, test_set: LabeledDataset) -> float:
    """Sample-weighted mean of the defined per-class accuracies."""
    defined = ~np.isnan(per_class)
    weights = test_set.class_counts[defined]
    return float(np.sum(per_class[defined] * weights) / weights.sum())


@dataclass(frozen=True)
class ForgettingRecord:
    round: int
    client: int
    klass: int
    role: str
    acc_global: float
    acc_local: float
    tau: float


@dataclass(frozen=True)
class RoundRecord:
    round: int
    global_acc: float
    class_acc: tuple[float, ...]
    participants: tuple[int, ...]
    client_losses: dict[int, float]


def measure_local_forgetting(
    shard: ClientShard,
    global_acc_by_class: np.ndarray,
    local_state: nn.ModelState,
    spec: nn.NetworkSpec,
    test_set: LabeledDataset,
    round_index: int,
    xi: float = DEFAULT_XI,
) -> list[ForgettingRecord]:
    """One record per class with defined test accuracy, roles from the shard.

    ``global_acc_by_class`` is the accuracy vector of the round's received
    global model; passing it in lets the orchestrator evaluate the teacher
    once per round instead of once per client.
    """
    local_acc = classwise_accuracy(local_state, spec, test_set)
    records = []
    for k in range(spec.class_count):
        g, l = global_acc_by_class[k], local_acc[k]
        if math.isnan(g) or math.isnan(l):
            continue
        records.append(ForgettingRecord(
            round=round_index,
            client=shard.client_id,
            klass=k,
            role=shard.role_of(k),
            acc_global=float(g),
            acc_local=float(l),
            tau=forgetting_degree(float(g), float(l), xi),
        ))
    return records


def rounds_to_target(curve: Sequence[tuple[int, float]], target: float) -> int | None:
    """First round whose accuracy reaches the target; None if never."""
    if not curve:
        raise ValueError("empty accuracy curve")
    rounds = [r for r, _ in curve]
    if any(b <= a for a, b in zip(rounds, rounds[1:])):
        raise ValueError("curve rounds must be ascending")
    for r, acc in curve:
        if acc >= target:
            return r
    return None


# ---------------------------------------------------------------------------
# Persistent records
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _forgetting_row(rec: ForgettingRecord, *epoch: str) -> str:
    return ",".join([
        str(rec.round), *epoch, str(rec.client), str(rec.klass), rec.role,
        _fmt(rec.acc_global), _fmt(rec.acc_local), _fmt(rec.tau),
    ]) + "\n"


class MetricsWriter:
    """The one writer of a run's CSV files, flushed at round barriers.

    ``metrics/rounds.csv``, ``forgetting.csv`` and ``clients.csv`` are always
    written; ``anchors.csv`` only when an anchor selection is named (fedka
    runs), and ``metrics/forgetting_epochs.csv`` only with
    ``epoch_forgetting``. Files are written incrementally so a failed run
    keeps its finished rounds.
    """

    def __init__(self, run_dir, class_count: int, anchor_selection: str | None = None,
                 epoch_forgetting: bool = False):
        metrics_dir = Path(run_dir) / "metrics"
        metrics_dir.mkdir(parents=True, exist_ok=True)
        self._files = []
        self._selection = anchor_selection
        self._rounds = self._open(metrics_dir / "rounds.csv", "round,global_acc," + ",".join(
            f"acc_class_{k}" for k in range(class_count)))
        self._forget = self._open(metrics_dir / "forgetting.csv",
                                  "round,client,class,role,acc_global,acc_local,tau")
        self._clients = self._open(metrics_dir / "clients.csv",
                                   "round,client,participated,n_samples,mean_loss")
        if anchor_selection is not None:
            self._anchors = self._open(metrics_dir.parent / "anchors.csv",
                                       "round,client,class,source,sample_id,strategy")
        if epoch_forgetting:
            self._epochs = self._open(metrics_dir / "forgetting_epochs.csv",
                                      "round,epoch,client,class,role,acc_global,acc_local,tau")

    def _open(self, path: Path, header: str):
        fh = open(path, "w", newline="")
        self._files.append(fh)
        fh.write(header + "\n")
        return fh

    def write_round(self, rec: RoundRecord, all_clients: Iterable[tuple[int, int]]) -> None:
        """Persist one finished round. ``all_clients`` yields (client_id,
        n_samples) for every client, participant or not."""
        self._rounds.write(
            ",".join([str(rec.round), _fmt(rec.global_acc)] + [_fmt(a) for a in rec.class_acc]) + "\n"
        )
        participants = set(rec.participants)
        for client_id, n in all_clients:
            loss = rec.client_losses.get(client_id)
            self._clients.write(",".join([
                str(rec.round), str(client_id),
                "1" if client_id in participants else "0",
                str(n),
                _fmt(loss) if loss is not None else "",
            ]) + "\n")
        for fh in self._files:
            fh.flush()

    def write_forgetting(self, records: Iterable[ForgettingRecord]) -> None:
        for rec in records:
            self._forget.write(_forgetting_row(rec))

    def write_epoch_forgetting(self, epoch: int, records: Iterable[ForgettingRecord]) -> None:
        """Records of the state a client held after local epoch ``epoch``."""
        for rec in records:
            self._epochs.write(_forgetting_row(rec, str(epoch)))

    def write_anchors(self, round_index: int, client: int, rows: Iterable[tuple]) -> None:
        """One row per (class, source, sample_id) anchor entry."""
        for klass, source, sample_id in rows:
            self._anchors.write(
                f"{round_index},{client},{klass},{source},{sample_id},{self._selection}\n")

    def close(self) -> None:
        for fh in self._files:
            fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_rounds(path) -> list[RoundRecord]:
    """Parse a rounds.csv back into records (participant/loss fields empty)."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            class_acc = tuple(
                float(v) for k, v in row.items() if k.startswith("acc_class_")
            )
            out.append(RoundRecord(
                round=int(row["round"]),
                global_acc=float(row["global_acc"]),
                class_acc=class_acc,
                participants=(),
                client_losses={},
            ))
    return out


def read_forgetting(path) -> list[ForgettingRecord]:
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(ForgettingRecord(
                round=int(row["round"]),
                client=int(row["client"]),
                klass=int(row["class"]),
                role=row["role"],
                acc_global=float(row["acc_global"]),
                acc_local=float(row["acc_local"]),
                tau=float(row["tau"]),
            ))
    return out


def write_summary(path, final_round: RoundRecord | None, curve: Sequence[tuple[int, float]],
                  targets: Sequence[float] = ()) -> None:
    """summary.json: final accuracies plus a rounds-to-target table."""
    table = {}
    for target in targets:
        reached = rounds_to_target(curve, target) if curve else None
        table[_fmt(target)] = reached
    payload = {
        "final_round": final_round.round if final_round else None,
        "final_global_acc": final_round.global_acc if final_round else None,
        "final_class_acc": list(final_round.class_acc) if final_round else None,
        "rounds_to_target": table,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
