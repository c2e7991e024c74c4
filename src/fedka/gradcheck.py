"""Finite-difference verification of every training objective.

Checks the training step's gradients (anchor.fused_gradient) of plain
cross-entropy, the proximal and the anchored objective against central
differences, over several seeds and both model presets. Each seed stacks
three distinct clients of batch_size + 1, 1 (a matrix-vector product in
OpenBLAS) and batch_size rows; only the last holds an anchor, as in a round
that mixes anchored and plain clients. A client's batch is an (inputs,
labels) pair, as the training step takes it. Sampled coordinates of the
stack are differenced through their own client's loss as the loss trace
computes it (anchor.fused_losses, nn.proximal_loss_and_grad), on that model
alone. Draws whose pass over a client's rows, anchor rows included, comes
within the probe step of a ReLU or pooling kink are resampled (central
differences would straddle the kink)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import anchor as anchor_mod
from . import nn
from .rng import stream

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4
KINK_MARGIN = 1e-6
RESAMPLE_ATTEMPTS = 50


@dataclass(frozen=True)
class CheckResult:
    label: str
    seeds: int
    coords_per_seed: int
    worst_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_rel_error < self.tolerance

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (f"{status:4s} {self.label:34s} worst {self.worst_rel_error:.3e} "
                f"(tol {self.tolerance:g}, {self.seeds} seeds x {self.coords_per_seed} coords)")


LossOnly = Callable[[nn.ModelState], float]


def check_objective(
    grad: np.ndarray,
    loss_only: LossOnly,
    state: nn.ModelState,
    coords: np.ndarray,
    step: float,
) -> float:
    """Worst |analytic - central difference| / max(|analytic|, |central|,
    1e-12) on given coords of ``grad``, the gradient of ``loss_only`` at
    ``state``."""
    if step <= 0:
        raise ValueError("finite-difference step must be > 0")
    probe = state.params.copy()
    moved = nn.ModelState(probe, state.spec_hash)
    worst = 0.0
    for c in coords:
        base = probe[c]
        probe[c] = base + step
        plus = loss_only(moved)
        probe[c] = base - step
        minus = loss_only(moved)
        probe[c] = base
        numeric = (plus - minus) / (2.0 * step)
        analytic = grad[c]
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12))
    return worst


def objective_loss(
    spec: nn.NetworkSpec,
    inputs: np.ndarray,
    labels: np.ndarray,
    anchor: anchor_mod.KnowledgeAnchor | None = None,
    teacher: nn.ModelState | None = None,
    beta: float = 0.0,
    center: np.ndarray | None = None,
    mu: float = 0.0,
) -> LossOnly:
    """The forward-only loss of a client's objective as the loss trace
    computes it: cross-entropy on the batch (inputs, labels), plus ``beta``
    times the anchor term on ``anchor`` against the ``teacher``, plus the
    proximal term around ``center``."""
    labels = nn.batch_labels(spec, labels, len(inputs))
    rows = anchor_mod.anchor_rows([anchor], teacher, spec).layout((len(labels),))
    inputs = _client_rows(inputs, anchor)

    def loss(state: nn.ModelState) -> float:
        value = float(anchor_mod.fused_losses(
            nn.forward_logits(state, spec, inputs), labels, rows, beta)[0])
        if center is not None:
            value += nn.proximal_loss_and_grad(state.params, center, mu)[0]
        return value
    return loss


def _client_rows(inputs: np.ndarray, anchor: anchor_mod.KnowledgeAnchor | None) -> np.ndarray:
    """A client's rows of a pass: its batch's inputs, then its anchor rows."""
    return inputs if anchor is None else np.concatenate([inputs, anchor.inputs()])


def _sample_away_from_kinks(spec, seed, batch_size, attempt_tokens, anchor=None, margin=KINK_MARGIN):
    """(state, inputs, labels) whose forward pass over the inputs and any
    rows of ``anchor`` clears every kink by `margin`."""
    for attempt in range(RESAMPLE_ATTEMPTS):
        state = nn.init_state(spec, stream(seed, "gc-init", attempt, *attempt_tokens))
        rng = stream(seed, "gc-data", attempt, *attempt_tokens)
        x = rng.normal(size=(batch_size, *spec.input_shape))
        labels = rng.integers(0, spec.class_count, size=batch_size)
        if nn.activation_margin(state, spec, _client_rows(x, anchor)) > margin:
            return state, x, labels
    raise RuntimeError(f"no kink-free draw found in {RESAMPLE_ATTEMPTS} attempts")


def _anchor_for(spec, seed, size=3):
    rng = stream(seed, "gc-anchor")
    entries = tuple(
        anchor_mod.AnchorEntry(rng.normal(size=spec.input_shape), k % spec.class_count,
                               "local", k)
        for k in range(size)
    )
    dominant = frozenset({spec.class_count - 1})
    return anchor_mod.KnowledgeAnchor(entries, dominant=dominant)


def _client_stack(spec, seed, batch_size):
    """The teacher, the anchored objective's anchors and three kink-free
    (state, inputs, labels) clients of batch_size + 1, 1 and batch_size
    rows."""
    teacher = nn.init_state(spec, stream(seed, "gc-teacher"))
    anchors = [None, None, _anchor_for(spec, seed)]
    clients = [_sample_away_from_kinks(spec, seed, m, (p,), anchors[p])
               for p, m in enumerate((batch_size + 1, 1, batch_size))]
    return teacher, anchors, clients


def check_preset(
    label: str,
    spec: nn.NetworkSpec,
    seeds: int,
    coords_per_seed: int,
    step: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
    batch_size: int = 4,
    mu: float = 0.1,
    beta: float = 0.3,
) -> list[CheckResult]:
    """CE, proximal and anchored objectives on one architecture."""
    if seeds < 1 or coords_per_seed < 1:
        raise ValueError(f"gradcheck needs seeds >= 1 and coords >= 1, got {seeds} and {coords_per_seed}")
    names = (f"{label} cross-entropy", f"{label} proximal (mu={mu:g})",
             f"{label} anchored (beta={beta:g})")
    worst = [0.0] * len(names)
    workspace = nn.Workspace()
    n = spec.param_count
    for seed in range(seeds):
        teacher, anchored, clients = _client_stack(spec, seed, batch_size)
        params = np.stack([state.params for state, _, _ in clients])
        labels = np.concatenate([y for _, _, y in clients])
        sizes = [len(y) for _, _, y in clients]
        grad = np.empty_like(params)
        coords = stream(seed, "gc-coords").choice(
            params.size, size=min(coords_per_seed, params.size), replace=False)
        plain = [None] * len(clients)
        objectives = [(plain, 0.0, None, 0.0), (plain, 0.0, teacher.params, mu), (anchored, beta, None, 0.0)]
        for i, (anchors, b, center, m) in enumerate(objectives):
            rows = anchor_mod.anchor_rows(anchors, teacher, spec).layout(sizes)
            inputs = np.concatenate([_client_rows(x, a) for (_, x, _), a in zip(clients, anchors)])
            anchor_mod.fused_gradient(spec, params, inputs, labels, rows, b, grad, center, m, workspace)
            for p, ((state, x, y), a) in enumerate(zip(clients, anchors)):
                loss_only = objective_loss(spec, x, y, a, teacher, b, center, m)
                mine = coords[coords // n == p] % n    # client p's coordinates
                worst[i] = max(worst[i], check_objective(grad[p], loss_only, state, mine, step))
    return [CheckResult(name, seeds, coords_per_seed, w, tol) for name, w in zip(names, worst)]


def run_gradcheck(
    seeds: int = 5,
    coords_per_seed: int = 30,
    step: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
    include_cnn: bool = True,
) -> list[CheckResult]:
    """The full verification battery over both presets."""
    results = check_preset("mlp", nn.mlp_spec(12, (16, 8), 5), seeds, coords_per_seed,
                           step=step, tol=tol, batch_size=6)
    if include_cnn:
        results += check_preset("t_cnn", nn.tcnn_spec(), seeds, coords_per_seed,
                                step=step, tol=tol, batch_size=2)
    return results
