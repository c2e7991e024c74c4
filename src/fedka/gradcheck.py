"""Finite-difference verification of every training objective.

Checks the analytic gradients of plain cross-entropy, the proximal
objective and the anchored objective against central differences on
randomly sampled coordinates, over several seeds and both model presets.
The differences are taken of each objective's loss as training computes
it for its loss trace (anchor.fused_losses, nn.proximal_loss_and_grad).
Draws whose forward pass runs too close to a ReLU or pooling kink for the
probe step are resampled (the analytic subgradient is still valid there,
but central differences straddle the kink and disagree).
"""

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


Objective = Callable[[nn.ModelState], tuple[float, np.ndarray]]
LossOnly = Callable[[nn.ModelState], float]


def check_objective(
    objective: Objective,
    loss_only: LossOnly,
    state: nn.ModelState,
    coords: np.ndarray,
    step: float,
) -> float:
    """Worst |analytic - central difference| / max(|analytic|, |central|,
    1e-12) of the objective's gradient on given coords.

    ``loss_only`` must compute the same scalar as ``objective`` without the
    backward pass; central differences call it two times per coordinate.
    """
    if step <= 0:
        raise ValueError("finite-difference step must be > 0")
    _, grad = objective(state)
    probe = state.params.copy()
    moved = nn.ModelState(probe, state.momentum, state.spec_hash)
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
    batch: nn.Batch,
    target: anchor_mod.AnchorTarget | None = None,
    beta: float = 0.0,
    center: np.ndarray | None = None,
    mu: float = 0.0,
) -> LossOnly:
    """The forward-only loss of a client's objective: cross-entropy on the
    batch, plus ``beta`` times the anchor term on ``target``'s rows, plus
    the proximal term around ``center``. Like training's loss trace, it
    takes one forward pass over the batch rows followed by the anchor rows,
    anchor.fused_losses and nn.proximal_loss_and_grad."""
    labels = nn.batch_labels(spec, batch)
    rows = anchor_mod.fused_rows((len(labels),), [target])
    inputs = batch.inputs if target is None else np.concatenate([batch.inputs, target.inputs])

    def loss(state: nn.ModelState) -> float:
        value = float(anchor_mod.fused_losses(
            nn.forward_logits(state, spec, inputs), labels, rows, beta)[0])
        if center is not None:
            value += nn.proximal_loss_and_grad(state.params, center, mu)[0]
        return value
    return loss


def _sample_away_from_kinks(spec, seed, batch_size, attempt_tokens, margin=KINK_MARGIN):
    """Model state + batch whose forward pass clears every kink by `margin`."""
    for attempt in range(RESAMPLE_ATTEMPTS):
        state = nn.init_state(spec, stream(seed, "gc-init", attempt, *attempt_tokens))
        rng = stream(seed, "gc-data", attempt, *attempt_tokens)
        x = rng.normal(size=(batch_size, *spec.input_shape))
        y = rng.integers(0, spec.class_count, size=batch_size)
        if nn.activation_margin(state, spec, x) > margin:
            return state, nn.Batch(x, y)
    raise RuntimeError(f"no kink-free draw found in {RESAMPLE_ATTEMPTS} attempts")


def _anchor_for(spec, seed, size=3):
    rng = stream(seed, "gc-anchor")
    entries = tuple(
        anchor_mod.AnchorEntry(rng.normal(size=spec.input_shape), k % spec.class_count,
                               "local", k)
        for k in range(size)
    )
    dominant = frozenset({spec.class_count - 1})
    return anchor_mod.KnowledgeAnchor(entries, owner=0, round=0, dominant=dominant)


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
    names = (f"{label} cross-entropy", f"{label} proximal (mu={mu:g})",
             f"{label} anchored (beta={beta:g})")
    worst = [0.0] * len(names)
    for seed in range(seeds):
        state, batch = _sample_away_from_kinks(spec, seed, batch_size, ())
        teacher = nn.init_state(spec, stream(seed, "gc-teacher"))
        target = anchor_mod.anchor_target(_anchor_for(spec, seed), teacher, spec)
        coords = stream(seed, "gc-coords").choice(
            spec.param_count, size=min(coords_per_seed, spec.param_count), replace=False)

        def prox(s):
            loss, grad = nn.ce_loss_and_grad(s, spec, batch)
            p_loss, p_grad = nn.proximal_loss_and_grad(s.params, teacher.params, mu)
            return loss + p_loss, grad + p_grad

        checks = [
            (lambda s: nn.ce_loss_and_grad(s, spec, batch), objective_loss(spec, batch)),
            (prox, objective_loss(spec, batch, center=teacher.params, mu=mu)),
            (lambda s: anchor_mod.anchored_loss_and_grad(s, spec, batch, target, beta),
             objective_loss(spec, batch, target, beta)),
        ]
        for i, (objective, loss_only) in enumerate(checks):
            worst[i] = max(worst[i], check_objective(objective, loss_only, state, coords, step))
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
