"""Finite-difference verification of every training objective.

Checks the analytic gradients of plain cross-entropy, the proximal
objective and the anchored objective against central differences on
randomly sampled coordinates, over several seeds and both model presets.
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
    """Worst relative error of the objective's gradient on given coords.

    ``loss_only`` must compute the same scalar as ``objective`` without the
    backward pass; central differences call it two times per coordinate.
    """
    _, grad = objective(state)
    def loss_at(params: np.ndarray) -> float:
        return loss_only(nn.ModelState(params, state.momentum, state.spec_hash))
    return nn.max_rel_grad_error(loss_at, grad, state.params, coords, step)


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
    worst = {"ce": 0.0, "prox": 0.0, "anchored": 0.0}
    for seed in range(seeds):
        state, batch = _sample_away_from_kinks(spec, seed, batch_size, ())
        teacher = nn.init_state(spec, stream(seed, "gc-teacher"))
        built = _anchor_for(spec, seed)
        coords = stream(seed, "gc-coords").choice(
            spec.param_count, size=min(coords_per_seed, spec.param_count), replace=False)

        target = anchor_mod.anchor_target(built, teacher, spec)

        def ce(s):
            return nn.ce_loss_and_grad(s, spec, batch)

        def ce_only(s):
            return nn.ce_loss(s, spec, batch)

        def prox(s):
            loss, grad = nn.ce_loss_and_grad(s, spec, batch)
            p_loss, p_grad = nn.proximal_loss_and_grad(s.params, teacher.params, mu)
            return loss + p_loss, grad + p_grad

        def prox_only(s):
            return nn.ce_loss(s, spec, batch) + nn.proximal_loss_and_grad(s.params, teacher.params, mu)[0]

        def anchored(s):
            return anchor_mod.anchored_loss_and_grad(s, spec, batch, target, beta)

        def anchored_only(s):
            student_logits = nn.forward_logits(s, spec, target.inputs)
            a_loss, _ = anchor_mod.ka_logit_loss_and_grad(
                student_logits, target.teacher_kept, target.kept)
            return nn.ce_loss(s, spec, batch) + beta * a_loss

        worst["ce"] = max(worst["ce"], check_objective(ce, ce_only, state, coords, step))
        worst["prox"] = max(worst["prox"], check_objective(prox, prox_only, state, coords, step))
        worst["anchored"] = max(
            worst["anchored"], check_objective(anchored, anchored_only, state, coords, step))
    return [
        CheckResult(f"{label} cross-entropy", seeds, coords_per_seed, worst["ce"], tol),
        CheckResult(f"{label} proximal (mu={mu:g})", seeds, coords_per_seed, worst["prox"], tol),
        CheckResult(f"{label} anchored (beta={beta:g})", seeds, coords_per_seed, worst["anchored"], tol),
    ]


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
