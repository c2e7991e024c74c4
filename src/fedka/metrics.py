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


def _class_hits(logits: np.ndarray, labels: np.ndarray, class_count: int) -> np.ndarray:
    """Per class, the rows whose argmax is their label; argmax ties resolve
    to the lowest class id."""
    return np.bincount(labels[logits.argmax(axis=1) == labels], minlength=class_count)


def _accuracy(hits: np.ndarray, test_set: LabeledDataset) -> np.ndarray:
    counts = test_set.class_counts
    # integer counts convert exactly, so this divides as the mean over the class would
    return np.divide(hits, counts, out=np.full(hits.shape, np.nan), where=counts > 0)


# every block of an evaluation pass has at least this many rows: OpenBLAS
# takes its small-matrix kernels for small enough products, and they round
# differently from the kernels a whole test set's products take
MIN_BLOCK_ROWS = 1000


def row_blocks(n: int) -> list[slice]:
    """The blocks an n-row test set is evaluated in: the largest power of
    two of near-equal blocks that keeps each at MIN_BLOCK_ROWS rows or more,
    so that they split evenly over 2, 4 or 8 threads. They depend on n
    alone; fewer than 2 * MIN_BLOCK_ROWS rows make one block."""
    count = 1
    while n >= 2 * count * MIN_BLOCK_ROWS:
        count *= 2
    return [slice(n * b // count, n * (b + 1) // count) for b in range(count)]


def classwise_accuracies(states: Sequence[nn.ModelState], spec: nn.NetworkSpec,
                         test_set: LabeledDataset, workspace: nn.Workspace | None = None) -> np.ndarray:
    """Per-class accuracy of each state on the test set, one row per state.

    The test inputs are checked once per call. The (state, block) units over
    the fixed row_blocks, state after state, are nn.forward passes run
    by nn.on_lanes on nn.thread_count threads (a fresh ``workspace`` when
    None). A unit yields its block's per-class hit counts, integers whose
    sums are exact in any order, so no result depends on the thread count."""
    if spec.class_count != test_set.class_count:
        raise ValueError(
            f"model emits {spec.class_count} classes, test set has {test_set.class_count}"
        )
    for state in states:
        nn.check_state(state, spec)
    workspace = nn.Workspace() if workspace is None else workspace
    inputs, labels = nn.check_inputs(spec, test_set.inputs), test_set.labels
    blocks = row_blocks(len(inputs))

    def evaluate(u: int, lane: nn.Workspace) -> np.ndarray:
        s, b = divmod(u, len(blocks))
        logits = nn.forward(spec, states[s].params, inputs[blocks[b]], workspace=lane)[0]
        return _class_hits(logits, labels[blocks[b]], spec.class_count)

    units = len(states) * len(blocks)
    k = nn.thread_count(spec.macs_per_row * (len(inputs) // len(blocks)), units)
    hits = np.array(nn.on_lanes(workspace, k, units, evaluate), dtype=np.int64)
    return _accuracy(hits.reshape(len(states), len(blocks), spec.class_count).sum(axis=1), test_set)


def classwise_accuracy(state: nn.ModelState, spec: nn.NetworkSpec, test_set: LabeledDataset,
                       workspace: nn.Workspace | None = None) -> np.ndarray:
    """Per-class accuracy of one model on the test set (classwise_accuracies)."""
    return classwise_accuracies([state], spec, test_set, workspace)[0]


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
    local_acc_by_class: np.ndarray,
    round_index: int,
    xi: float = DEFAULT_XI,
) -> list[ForgettingRecord]:
    """One record per class with defined test accuracy, roles from the shard.

    ``global_acc_by_class`` is the accuracy vector of the round's received
    global model and ``local_acc_by_class`` that of the local model, so the
    orchestrator evaluates every state of a round in one call.
    """
    records = []
    for k, (g, l) in enumerate(zip(global_acc_by_class, local_acc_by_class)):
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


def fmt(v: float) -> str:
    """A float as every metric file and report prints it: 10 significant digits."""
    return f"{v:.10g}"


def _forgetting_row(rec: ForgettingRecord, *epoch: str) -> str:
    return ",".join([
        str(rec.round), *epoch, str(rec.client), str(rec.klass), rec.role,
        fmt(rec.acc_global), fmt(rec.acc_local), fmt(rec.tau),
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
        try:
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
        except BaseException:
            # no caller gets a writer to close: close what was opened here
            self.close()
            raise

    def _open(self, path: Path, header: str):
        fh = open(path, "w", newline="")
        self._files.append(fh)
        fh.write(header + "\n")
        return fh

    def write_round(self, rec: RoundRecord, all_clients: Iterable[tuple[int, int]]) -> None:
        """Persist one finished round. ``all_clients`` yields (client_id,
        n_samples) for every client, participant or not."""
        self._rounds.write(
            ",".join([str(rec.round), fmt(rec.global_acc)] + [fmt(a) for a in rec.class_acc]) + "\n"
        )
        participants = set(rec.participants)
        for client_id, n in all_clients:
            loss = rec.client_losses.get(client_id)
            self._clients.write(",".join([
                str(rec.round), str(client_id),
                "1" if client_id in participants else "0",
                str(n),
                fmt(loss) if loss is not None else "",
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
        table[fmt(target)] = reached
    payload = {
        "final_round": final_round.round if final_round else None,
        "final_global_acc": final_round.global_acc if final_round else None,
        "final_class_acc": list(final_round.class_acc) if final_round else None,
        "rounds_to_target": table,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
