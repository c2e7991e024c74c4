"""The finite-difference battery itself: it must pass on correct gradients
and fail loudly on corrupted ones."""

import numpy as np
import pytest

from fedka import anchor, nn
from fedka.gradcheck import (
    KINK_MARGIN,
    CheckResult,
    check_objective,
    check_preset,
    objective_loss,
    run_gradcheck,
    _anchor_for,
    _client_stack,
    _sample_away_from_kinks,
)
from fedka.rng import stream


SPEC = nn.mlp_spec(6, (8,), 3)


def _state_and_batch(seed=0):
    return _sample_away_from_kinks(SPEC, seed, batch_size=5, attempt_tokens=())


def step_of_one(spec, state, x, y, built=None, teacher=None, beta=0.0, center=None, mu=0.0):
    """The training step on a stack of one: the gradient, and the loss the
    trace records for it."""
    rows = anchor.anchor_rows([built], teacher, spec).layout((len(y),))
    inputs = x if built is None else np.concatenate([x, built.inputs()])
    grad = np.empty((1, spec.param_count))
    logits, prox_losses = anchor.fused_gradient(spec, state.params[None], inputs, y,
                                                rows, beta, grad, center, mu)
    loss = anchor.fused_losses(logits, y, rows, beta)
    if center is not None:
        loss += prox_losses
    return grad[0], float(loss[0])


def test_correct_gradient_passes():
    state, x, y = _state_and_batch()
    coords = np.arange(min(40, SPEC.param_count))
    grad, _ = step_of_one(SPEC, state, x, y)
    err = check_objective(grad, objective_loss(SPEC, x, y), state, coords, step=1e-5)
    assert err < 1e-4


def test_corrupted_gradient_fails():
    state, x, y = _state_and_batch()
    coords = np.arange(20)
    grad, _ = step_of_one(SPEC, state, x, y)
    grad[coords] *= 1.5
    err = check_objective(grad, objective_loss(SPEC, x, y), state, coords, step=1e-5)
    assert err > 0.2


def test_mismatched_loss_only_fails():
    # A loss-only path that disagrees with the objective must be detected,
    # not silently accepted.
    state, x, y = _state_and_batch()
    coords = np.arange(20)
    grad, _ = step_of_one(SPEC, state, x, y)
    loss_only = objective_loss(SPEC, x, y)

    def wrong_loss(s):
        return 2.0 * loss_only(s)

    err = check_objective(grad, wrong_loss, state, coords, step=1e-5)
    assert err > 0.2


def test_loss_only_matches_objective_loss():
    # the central differences probe the very loss the training step records
    for spec in (nn.mlp_spec(12, (16, 8), 5), nn.tcnn_spec()):
        state, x, y = _sample_away_from_kinks(spec, 3, 2, ())
        teacher = nn.init_state(spec, stream(3, "teacher"))
        built = _anchor_for(spec, 3)
        center = teacher.params

        _, ce = step_of_one(spec, state, x, y)
        assert objective_loss(spec, x, y)(state) == ce
        _, prox = step_of_one(spec, state, x, y, center=center, mu=0.1)
        assert objective_loss(spec, x, y, center=center, mu=0.1)(state) == prox
        _, anchored = step_of_one(spec, state, x, y, built, teacher, 0.3)
        assert objective_loss(spec, x, y, built, teacher, 0.3)(state) == anchored
        assert anchored != ce


def test_kink_avoidance_returns_clear_margin():
    for seed in range(6):
        state, x, y = _sample_away_from_kinks(SPEC, seed, 5, ())
        assert nn.activation_margin(state, SPEC, x) > 1e-6


@pytest.mark.parametrize("spec, batch_size", [(nn.mlp_spec(12, (16, 8), 5), 6),
                                              (nn.tcnn_spec(), 2)], ids=["mlp", "t_cnn"])
def test_kink_margin_covers_every_differenced_row(spec, batch_size):
    # the anchored client's differenced pass also runs over the anchor rows
    for seed in range(5):
        _, anchors, clients = _client_stack(spec, seed, batch_size)
        assert [len(y) for _, _, y in clients] == [batch_size + 1, 1, batch_size]
        assert [a is None for a in anchors] == [True, True, False]
        for (state, x, _), a in zip(clients, anchors):
            seen = x if a is None else np.concatenate([x, a.inputs()])
            assert nn.activation_margin(state, spec, seen) > KINK_MARGIN


def test_kink_avoidance_gives_up():
    with pytest.raises(RuntimeError, match="kink-free"):
        _sample_away_from_kinks(SPEC, 0, 5, (), margin=1e9)


def test_check_preset_covers_three_objectives():
    results = check_preset("tiny", SPEC, seeds=2, coords_per_seed=10, batch_size=4)
    labels = [r.label for r in results]
    assert labels == ["tiny cross-entropy", "tiny proximal (mu=0.1)", "tiny anchored (beta=0.3)"]
    for r in results:
        assert r.passed, r.line()
        assert r.seeds == 2 and r.coords_per_seed == 10


def test_stacking_fault_fails_every_objective(monkeypatch):
    # client boundaries shifted by one row in the backward pass: a fault only
    # a stack of several clients reaches
    original = nn.backward_from_logits

    def shifted(spec, params, caches, grad_logits, out=None, offsets=None, workspace=None):
        if offsets is not None:
            offsets = (offsets[0], *(o + 1 for o in offsets[1:-1]), offsets[-1])
        return original(spec, params, caches, grad_logits, out, offsets, workspace)

    monkeypatch.setattr(nn, "backward_from_logits", shifted)
    results = check_preset("tiny", SPEC, seeds=2, coords_per_seed=30, batch_size=4)
    assert [r.passed for r in results] == [False, False, False]


@pytest.mark.parametrize("seeds, coords", [(0, 30), (-3, 0), (1, 0)])
def test_nothing_to_check_is_refused(seeds, coords):
    with pytest.raises(ValueError, match="seeds >= 1 and coords >= 1"):
        check_preset("tiny", SPEC, seeds, coords)
    with pytest.raises(ValueError, match="seeds >= 1 and coords >= 1"):
        run_gradcheck(seeds, coords, include_cnn=False)


@pytest.mark.parametrize("step", [0.0, -1e-5])
def test_non_positive_step_is_refused(step):
    state, x, y = _state_and_batch()
    grad, _ = step_of_one(SPEC, state, x, y)
    with pytest.raises(ValueError, match="finite-difference step must be > 0"):
        check_objective(grad, objective_loss(SPEC, x, y), state, np.arange(5), step=step)


def test_run_gradcheck_mlp_only():
    results = run_gradcheck(seeds=2, coords_per_seed=8, include_cnn=False)
    assert len(results) == 3
    assert all(r.passed for r in results)


def test_result_line_format():
    good = CheckResult("x", 5, 30, 2.5e-7, 1e-4)
    bad = CheckResult("y", 5, 30, 2.5e-3, 1e-4)
    assert good.passed and good.line().startswith("ok")
    assert not bad.passed and bad.line().startswith("FAIL")
    assert "5 seeds x 30 coords" in good.line()
