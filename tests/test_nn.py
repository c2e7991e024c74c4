"""Network engine tests.

Expected values are either closed-form constants, hand-computed scalars, or
produced by independent reference routes written inline (explicit Python
loops for convolution, central differences for gradients).
"""

import math

import numpy as np
import pytest

from fedka import nn
from fedka.rng import stream

# ln(4): CE of a uniform predictor over 4 classes
LN4 = 1.3862943611198906


def small_mlp(seed=0, input_dim=6, hidden=(8,), classes=4):
    spec = nn.mlp_spec(input_dim, hidden, classes)
    state = nn.init_state(spec, stream(seed, "init"))
    return spec, state


def random_batch(spec, n, seed=1):
    rng = stream(seed, "batch")
    x = rng.normal(size=(n, *spec.input_shape))
    y = rng.integers(0, spec.class_count, size=n)
    return nn.Batch(x, y)


# ---------------------------------------------------------------------------
# cross-entropy
# ---------------------------------------------------------------------------


def test_uniform_logits_give_log_k():
    logits = np.zeros((3, 4))
    loss, _ = nn.softmax_cross_entropy(logits, np.array([0, 1, 3]))
    assert loss == pytest.approx(LN4, abs=1e-15)


def test_ce_matches_scalar_reference():
    # one sample, three logits, label 0, done with math.exp only
    z = [2.0, -1.0, 0.5]
    denom = sum(math.exp(v) for v in z)
    expected = math.log(denom) - z[0]
    loss, grad = nn.softmax_cross_entropy(np.array([z]), np.array([0]))
    assert loss == pytest.approx(expected, rel=1e-14)
    probs = [math.exp(v) / denom for v in z]
    expected_grad = [probs[0] - 1.0, probs[1], probs[2]]
    assert np.allclose(grad[0], expected_grad, rtol=1e-14)


def test_ce_is_shift_invariant_and_stable_at_large_logits():
    logits = np.array([[1000.0, 0.0], [-1000.0, -1001.0]])
    loss, grad = nn.softmax_cross_entropy(logits, np.array([0, 0]))
    assert math.isfinite(loss)
    assert np.all(np.isfinite(grad))
    shifted, _ = nn.softmax_cross_entropy(logits + 37.5, np.array([0, 0]))
    assert shifted == pytest.approx(loss, rel=1e-12)


def test_ce_grad_rows_sum_to_zero():
    rng = stream(3, "logits")
    logits = rng.normal(size=(5, 7))
    labels = rng.integers(0, 7, size=5)
    _, grad = nn.softmax_cross_entropy(logits, labels)
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-15)


def test_per_sample_ce_mean_matches_batch_loss():
    spec, state = small_mlp()
    batch = random_batch(spec, 9)
    loss, _ = nn.ce_loss_and_grad(state, spec, batch)
    per = nn.per_sample_ce(state, spec, batch.inputs, batch.labels)
    assert per.shape == (9,)
    assert per.mean() == pytest.approx(loss, rel=1e-13)


# ---------------------------------------------------------------------------
# layers against explicit reference loops
# ---------------------------------------------------------------------------


def test_dense_identity_passes_input_through():
    spec = nn.NetworkSpec((nn.Dense(3, 3),), (3,), 3)
    params = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
    state = nn.ModelState(params, np.zeros_like(params), spec.spec_hash)
    x = np.array([[0.5, -2.0, 7.0]])
    assert np.array_equal(nn.forward_logits(state, spec, x), x)


def test_conv_forward_matches_loop_reference():
    rng = stream(7, "conv")
    layer = nn.Conv2d(2, 3, 2)
    params = rng.normal(size=layer.param_count())
    x = rng.normal(size=(2, 2, 4, 5))
    out = layer.forward(params, x)
    w, b = layer._split(params)
    ref = np.zeros_like(out)
    for bi in range(2):
        for o in range(3):
            for i in range(3):
                for j in range(4):
                    acc = b[o]
                    for c in range(2):
                        for di in range(2):
                            for dj in range(2):
                                acc += w[o, c, di, dj] * x[bi, c, i + di, j + dj]
                    ref[bi, o, i, j] = acc
    assert np.allclose(out, ref, rtol=1e-13, atol=1e-13)


def test_maxpool_forward_and_tie_breaking():
    layer = nn.MaxPool(2)
    x = np.array([[[[1.0, 2.0, 0.0, 0.0],
                    [3.0, 4.0, 0.0, 0.0],
                    [5.0, 5.0, 9.0, 9.0],
                    [5.0, 5.0, 9.0, 9.0]]]])
    out = layer.forward(None, x)
    assert np.array_equal(out, [[[[4.0, 0.0], [5.0, 9.0]]]])
    grad_out = np.ones_like(out)
    _, grad_x = layer.backward(None, x, grad_out)
    # ties inside a window route all gradient to the first cell, row-major
    assert grad_x[0, 0, 2, 0] == 1.0 and grad_x[0, 0, 2, 1] == 0.0
    assert grad_x[0, 0, 2, 2] == 1.0 and grad_x[0, 0, 3, 3] == 0.0
    assert grad_x[0, 0, 1, 1] == 1.0 and grad_x[0, 0, 0, 0] == 0.0


def test_maxpool_drops_ragged_edge():
    layer = nn.MaxPool(2)
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, 4, 4] = 99.0  # lives in the dropped fringe
    out = layer.forward(None, x)
    assert out.shape == (1, 1, 2, 2)
    assert out.max() == 0.0
    _, grad_x = layer.backward(None, x, np.ones_like(out))
    assert grad_x[0, 0, 4, 4] == 0.0


def maxpool_block_reference(layer, x, grad_out):
    """Max-pool forward and input gradient over the (..., k*k) window blocks."""
    b, c, h, w = x.shape
    k = layer.kernel
    oh, ow = h // k, w // k
    blocks = layer._blocks(x)
    winners = np.argmax(blocks, axis=-1)
    grad_blocks = np.zeros_like(blocks)
    np.put_along_axis(grad_blocks, winners[..., None], grad_out[..., None], axis=-1)
    grad_x = np.zeros_like(x)
    grad_x[:, :, : oh * k, : ow * k] = (
        grad_blocks.reshape(b, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh * k, ow * k)
    )
    return blocks.max(axis=-1), grad_x


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("side", [(5, 5), (7, 9)])
def test_strided_maxpool_matches_block_reference_bit_for_bit(side, k):
    layer = nn.MaxPool(k)
    rng = stream(4, "pool")
    # post-ReLU integers: many all-zero windows and many tied maxima
    x = np.maximum(np.round(rng.normal(size=(3, 2, *side)) * 2.0), 0.0)
    out = layer.forward(None, x)
    grad_out = rng.normal(size=out.shape)
    gp, grad_x = layer.backward(None, x, grad_out)
    ref_out, ref_grad_x = maxpool_block_reference(layer, x, grad_out)
    assert gp is None
    assert out.shape == ref_out.shape and out.tobytes() == ref_out.tobytes()
    assert grad_x.shape == x.shape and grad_x.tobytes() == ref_grad_x.tobytes()


@pytest.mark.parametrize("layer, in_shape", [(nn.Dense(6, 4), (6,)), (nn.Conv2d(2, 3, 3), (2, 6, 5))])
def test_backward_without_input_grad_keeps_param_grad(layer, in_shape):
    rng = stream(5, "layer")
    params = rng.normal(size=layer.param_count())
    x = rng.normal(size=(4, *in_shape))
    grad_out = rng.normal(size=layer.forward(params, x).shape)
    gp, grad_x = layer.backward(params, x, grad_out)
    gp_only, none = layer.backward(params, x, grad_out, input_grad=False)
    assert grad_x.shape == x.shape and none is None
    assert gp_only.tobytes() == gp.tobytes()


@pytest.mark.parametrize("preset", ["mlp", "t_cnn"])
def test_backward_never_asks_layer_zero_for_input_grad(preset, monkeypatch):
    if preset == "mlp":
        spec = nn.mlp_spec(6, (8,), 4)
    else:
        spec = nn.tcnn_spec((1, 10, 10), 3, conv_kernel=3)
    state = nn.init_state(spec, stream(6, "init"))
    batch = random_batch(spec, 5)
    _, caches = nn.forward_with_caches(state, spec, batch.inputs)
    grad_logits = stream(7, "logits").normal(size=(5, spec.class_count))
    # reference: every layer computes its input gradient, the parameter
    # gradients are written into a zero-filled flat vector
    ref = np.zeros_like(state.params)
    g = grad_logits
    for i in reversed(range(len(spec.layers))):
        gp, g = spec.layers[i].backward(state.params[spec.param_slices[i]], caches[i], g)
        if gp is not None:
            ref[spec.param_slices[i]] = gp
    asked = []
    for cls in (nn.Dense, nn.Relu, nn.Conv2d, nn.MaxPool, nn.Flatten):
        def recorder(self, params, x, grad_out, input_grad=True, backward=cls.backward):
            asked.append(input_grad)
            return backward(self, params, x, grad_out, input_grad=input_grad)

        monkeypatch.setattr(cls, "backward", recorder)
    grad = nn.backward_from_logits(spec, state.params, caches, grad_logits)
    # layers run last to first: only the final call, layer 0's, skips it
    assert asked == [True] * (len(spec.layers) - 1) + [False]
    assert grad.tobytes() == ref.tobytes()


def test_relu_subgradient_at_zero_is_zero():
    layer = nn.Relu()
    x = np.array([[-1.0, 0.0, 2.0]])
    _, grad_x = layer.backward(None, x, np.ones_like(x))
    assert np.array_equal(grad_x, [[0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# spec plumbing
# ---------------------------------------------------------------------------


def test_tcnn_shapes_and_param_count():
    spec = nn.tcnn_spec()
    assert spec.layer_shapes[0] == (3, 32, 32)
    assert (64, 5, 5) in spec.layer_shapes
    assert spec.layer_shapes[-1] == (10,)
    # 32*3*25+32, 64*32*25+64, 1600*512+512, 512*10+10 summed by hand
    assert spec.param_count == 2432 + 51264 + 819712 + 5130


def test_spec_rejects_shape_breaks():
    with pytest.raises(nn.ShapeError, match="layer 1"):
        nn.NetworkSpec((nn.Dense(4, 5), nn.Dense(4, 3)), (4,), 3)
    with pytest.raises(nn.ShapeError, match="logits"):
        nn.NetworkSpec((nn.Dense(4, 5),), (4,), 3)
    with pytest.raises(nn.ShapeError):
        nn.NetworkSpec((nn.Conv2d(3, 8, 40), nn.Flatten(), nn.Dense(8, 2)), (3, 32, 32), 2)


def test_spec_json_round_trip_and_softmax_rejection():
    spec = nn.tcnn_spec(class_count=7)
    clone = nn.NetworkSpec.from_json(spec.to_json())
    assert clone == spec
    assert clone.spec_hash == spec.spec_hash
    bad = spec.to_json()
    bad["layers"].append({"type": "softmax"})
    with pytest.raises(ValueError, match="raw logits"):
        nn.NetworkSpec.from_json(bad)


def test_spec_file_round_trip(tmp_path):
    spec = nn.mlp_spec(12, (5, 6), 3)
    path = tmp_path / "net.json"
    spec.save(path)
    assert nn.NetworkSpec.load(path) == spec


def test_init_respects_layer_bounds_and_is_deterministic():
    spec = nn.mlp_spec(6, (8,), 4)
    a = nn.init_state(spec, stream(11, "init"))
    b = nn.init_state(spec, stream(11, "init"))
    assert np.array_equal(a.params, b.params)
    assert np.any(a.params != nn.init_state(spec, stream(12, "init")).params)
    for layer, sl in zip(spec.layers, spec.param_slices):
        if layer.param_count() == 0:
            continue
        bound = math.sqrt(6.0 / sum(layer.fans()))
        chunk = a.params[sl]
        assert np.all(np.abs(chunk) <= bound)
        assert chunk.std() > 0


def test_state_spec_binding_is_enforced():
    spec_a, state_a = small_mlp()
    spec_b = nn.mlp_spec(6, (9,), 4)
    with pytest.raises(nn.ShapeError, match="spec"):
        nn.forward_logits(state_a, spec_b, np.zeros((1, 6)))


def test_forward_rejects_bad_inputs():
    spec, state = small_mlp()
    with pytest.raises(nn.ShapeError):
        nn.forward_logits(state, spec, np.zeros((2, 5)))
    with pytest.raises(nn.NonFiniteError):
        nn.forward_logits(state, spec, np.full((1, 6), np.nan))


def test_forward_reports_layer_of_overflow():
    spec = nn.NetworkSpec((nn.Dense(2, 2),), (2,), 2)
    params = np.array([1e308, 0.0, 0.0, 1e308, 0.0, 0.0])
    state = nn.ModelState(params, np.zeros(6), spec.spec_hash)
    with np.errstate(over="ignore"), pytest.raises(nn.NonFiniteError, match="layer 0"):
        nn.forward_logits(state, spec, np.full((1, 2), 1e30))


# ---------------------------------------------------------------------------
# gradients against central differences (independent loop in the test)
# ---------------------------------------------------------------------------


def numeric_grad(state, spec, batch, coords, step=1e-6):
    out = {}
    params = state.params.copy()
    for c in coords:
        base = params[c]
        params[c] = base + step
        plus, _ = nn.ce_loss_and_grad(nn.ModelState(params, state.momentum, state.spec_hash), spec, batch)
        params[c] = base - step
        minus, _ = nn.ce_loss_and_grad(nn.ModelState(params, state.momentum, state.spec_hash), spec, batch)
        params[c] = base
        out[c] = (plus - minus) / (2 * step)
    return out


def test_mlp_gradient_matches_central_differences():
    spec, state = small_mlp(seed=5)
    batch = random_batch(spec, 7, seed=6)
    _, grad = nn.ce_loss_and_grad(state, spec, batch)
    coords = stream(8, "coords").choice(spec.param_count, size=25, replace=False)
    for c, num in numeric_grad(state, spec, batch, coords).items():
        assert abs(grad[c] - num) / max(abs(grad[c]), abs(num), 1e-12) < 1e-4


def test_conv_pool_gradient_matches_central_differences():
    spec = nn.NetworkSpec(
        (nn.Conv2d(2, 3, 3), nn.Relu(), nn.MaxPool(2), nn.Flatten(), nn.Dense(12, 3)),
        (2, 6, 6),
        3,
    )
    state = nn.init_state(spec, stream(9, "init"))
    batch = random_batch(spec, 4, seed=10)
    assert nn.activation_margin(state, spec, batch.inputs) > 1e-6
    _, grad = nn.ce_loss_and_grad(state, spec, batch)
    coords = stream(11, "coords").choice(spec.param_count, size=30, replace=False)
    for c, num in numeric_grad(state, spec, batch, coords).items():
        assert abs(grad[c] - num) / max(abs(grad[c]), abs(num), 1e-12) < 1e-4


def test_activation_margin_detects_exact_kink():
    spec = nn.NetworkSpec((nn.Dense(2, 2), nn.Relu(), nn.Dense(2, 2)), (2,), 2)
    params = np.zeros(spec.param_count)
    state = nn.ModelState(params, params.copy(), spec.spec_hash)
    assert nn.activation_margin(state, spec, np.ones((1, 2))) == 0.0


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_sgd_step_hand_example():
    spec = nn.NetworkSpec((nn.Dense(1, 2),), (1,), 2)
    # v = 0.9*[0.5,0,0,0] + (g + 0.01*p); p' = p - 0.1*v, worked by hand
    state = nn.ModelState(
        np.array([1.0, -2.0, 0.0, 0.0]),
        np.array([0.5, 0.0, 0.0, 0.0]),
        spec.spec_hash,
    )
    grad = np.array([0.2, -0.4, 0.0, 0.0])
    new = nn.sgd_step(state, grad, lr=0.1, momentum_coef=0.9, weight_decay=0.01)
    assert np.allclose(new.momentum, [0.66, -0.42, 0.0, 0.0], atol=1e-15)
    assert np.allclose(new.params, [0.934, -1.958, 0.0, 0.0], atol=1e-15)
    # input state untouched
    assert state.params[0] == 1.0 and state.momentum[0] == 0.5


def test_sgd_plain_step_without_momentum_or_decay():
    spec = nn.NetworkSpec((nn.Dense(1, 1),), (1,), 1)
    state = nn.ModelState(np.array([2.0, 3.0]), np.zeros(2), spec.spec_hash)
    new = nn.sgd_step(state, np.array([1.0, -1.0]), lr=0.5)
    assert np.array_equal(new.params, [1.5, 3.5])


def test_sgd_rejects_bad_arguments():
    spec = nn.NetworkSpec((nn.Dense(1, 1),), (1,), 1)
    state = nn.ModelState(np.zeros(2), np.zeros(2), spec.spec_hash)
    with pytest.raises(ValueError):
        nn.sgd_step(state, np.zeros(2), lr=0.0)
    with pytest.raises(nn.ShapeError):
        nn.sgd_step(state, np.zeros(3), lr=0.1)
    with pytest.raises(nn.NonFiniteError):
        nn.sgd_step(state, np.array([np.inf, 0.0]), lr=0.1)


def test_training_reduces_loss_on_tiny_problem():
    spec, state = small_mlp(seed=20)
    batch = random_batch(spec, 16, seed=21)
    first, _ = nn.ce_loss_and_grad(state, spec, batch)
    for _ in range(60):
        _, grad = nn.ce_loss_and_grad(state, spec, batch)
        state = nn.sgd_step(state, grad, lr=0.1, momentum_coef=0.9)
    last, _ = nn.ce_loss_and_grad(state, spec, batch)
    assert last < first * 0.5


# ---------------------------------------------------------------------------
# serialization and determinism
# ---------------------------------------------------------------------------


def test_state_round_trip_is_bit_exact(tmp_path):
    spec, state = small_mlp(seed=30)
    state.momentum[:] = stream(31, "m").normal(size=state.momentum.shape)
    path = tmp_path / "model.bin"
    nn.save_state(state, path)
    back = nn.load_state(path)
    assert back.spec_hash == state.spec_hash
    assert np.array_equal(back.params, state.params)
    assert np.array_equal(back.momentum, state.momentum)


def test_load_state_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a model state")
    with pytest.raises(ValueError, match="magic"):
        nn.load_state(path)
    spec, state = small_mlp()
    nn.save_state(state, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="bytes"):
        nn.load_state(path)


def test_forward_is_bit_deterministic():
    spec = nn.tcnn_spec(input_shape=(2, 18, 18), class_count=5)
    state = nn.init_state(spec, stream(40, "init"))
    x = stream(41, "x").normal(size=(3, 2, 18, 18))
    a = nn.forward_logits(state, spec, x)
    b = nn.forward_logits(state, spec, x)
    assert np.array_equal(a, b)
    assert a.shape == (3, 5)


def test_margin_ignores_fully_clamped_pool_windows():
    spec = nn.NetworkSpec(
        (nn.Conv2d(1, 2, 3), nn.Relu(), nn.MaxPool(2), nn.Flatten(), nn.Dense(8, 2)),
        (1, 6, 6),
        2,
    )
    state = nn.init_state(spec, stream(50, "init"))
    # hunt a batch whose post-relu pool input contains an all-zero window;
    # such windows are locally constant and must not zero out the margin
    for seed in range(200):
        x = stream(51, "x", seed).normal(size=(4, 1, 6, 6))
        _, caches = nn.forward_with_caches(state, spec, x)
        blocks = nn.MaxPool(2)._blocks(caches[2])
        if np.any(blocks.max(axis=-1) == 0.0):
            assert nn.activation_margin(state, spec, x) > 0.0
            return
    pytest.skip("no clamped window produced")
