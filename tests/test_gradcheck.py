"""The finite-difference battery itself: it must pass on correct gradients
and fail loudly on corrupted ones."""

import numpy as np
import pytest

from fedka import anchor, nn
from fedka.gradcheck import (
    CheckResult,
    check_objective,
    check_preset,
    objective_loss,
    run_gradcheck,
    _anchor_for,
    _sample_away_from_kinks,
)
from fedka.rng import stream


SPEC = nn.mlp_spec(6, (8,), 3)


def _state_and_batch(seed=0):
    return _sample_away_from_kinks(SPEC, seed, batch_size=5, attempt_tokens=())


def test_correct_gradient_passes():
    state, batch = _state_and_batch()
    coords = np.arange(min(40, SPEC.param_count))

    def obj(s):
        return nn.ce_loss_and_grad(s, SPEC, batch)

    err = check_objective(obj, objective_loss(SPEC, batch), state, coords, step=1e-5)
    assert err < 1e-4


def test_corrupted_gradient_fails():
    state, batch = _state_and_batch()
    coords = np.arange(20)

    def broken(s):
        loss, grad = nn.ce_loss_and_grad(s, SPEC, batch)
        grad = grad.copy()
        grad[coords] *= 1.5
        return loss, grad

    err = check_objective(broken, objective_loss(SPEC, batch), state, coords, step=1e-5)
    assert err > 0.2


def test_mismatched_loss_only_fails():
    # A loss-only path that disagrees with the objective must be detected,
    # not silently accepted.
    state, batch = _state_and_batch()
    coords = np.arange(20)

    def obj(s):
        return nn.ce_loss_and_grad(s, SPEC, batch)

    loss_only = objective_loss(SPEC, batch)

    def wrong_loss(s):
        return 2.0 * loss_only(s)

    err = check_objective(obj, wrong_loss, state, coords, step=1e-5)
    assert err > 0.2


def test_loss_only_matches_objective_loss():
    # the central differences probe the very loss each objective returns
    for spec in (nn.mlp_spec(12, (16, 8), 5), nn.tcnn_spec()):
        state, batch = _sample_away_from_kinks(spec, 3, 2, ())
        teacher = nn.init_state(spec, stream(3, "teacher"))
        target = anchor.anchor_target(_anchor_for(spec, 3), teacher, spec)
        center = teacher.params

        ce, _ = nn.ce_loss_and_grad(state, spec, batch)
        assert objective_loss(spec, batch)(state) == ce
        prox = ce + nn.proximal_loss_and_grad(state.params, center, 0.1)[0]
        assert objective_loss(spec, batch, center=center, mu=0.1)(state) == prox
        anchored, _ = anchor.anchored_loss_and_grad(state, spec, batch, target, 0.3)
        assert objective_loss(spec, batch, target, 0.3)(state) == anchored
        assert anchored != ce


def test_kink_avoidance_returns_clear_margin():
    for seed in range(6):
        state, batch = _sample_away_from_kinks(SPEC, seed, 5, ())
        assert nn.activation_margin(state, SPEC, batch.inputs) > 1e-6


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
