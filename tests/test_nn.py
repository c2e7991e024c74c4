"""Network engine tests.

Expected values are either closed-form constants, hand-computed scalars, or
produced by independent reference routes written inline (explicit Python
loops for convolution, the einsum expressions convolution was computed with
before it became im2col GEMMs, central differences for gradients).
"""

import math
import os
import resource
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fedka import anchor, data, metrics, nn
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
    [loss] = nn.ce_losses(logits, np.array([0, 1, 3]), np.arange(3), (3,))
    assert loss == pytest.approx(LN4, abs=1e-15)


def test_ce_matches_scalar_reference():
    # one sample, three logits, label 0, done with math.exp only
    z = [2.0, -1.0, 0.5]
    denom = sum(math.exp(v) for v in z)
    expected = math.log(denom) - z[0]
    logits, labels, rows = np.array([z]), np.array([0]), np.arange(1)
    [loss] = nn.ce_losses(logits, labels, rows, (1,))
    assert loss == pytest.approx(expected, rel=1e-14)
    grad = nn.ce_grad(logits, labels, rows, 1)
    probs = [math.exp(v) / denom for v in z]
    expected_grad = [probs[0] - 1.0, probs[1], probs[2]]
    assert np.allclose(grad[0], expected_grad, rtol=1e-14)


def test_ce_is_shift_invariant_and_stable_at_large_logits():
    logits = np.array([[1000.0, 0.0], [-1000.0, -1001.0]])
    labels, rows = np.array([0, 0]), np.arange(2)
    [loss] = nn.ce_losses(logits, labels, rows, (2,))
    grad = nn.ce_grad(logits, labels, rows, 2)
    assert math.isfinite(loss)
    assert np.all(np.isfinite(grad))
    [shifted] = nn.ce_losses(logits + 37.5, labels, rows, (2,))
    assert shifted == pytest.approx(loss, rel=1e-12)


def test_ce_grad_rows_sum_to_zero():
    rng = stream(3, "logits")
    logits = rng.normal(size=(5, 7))
    labels = rng.integers(0, 7, size=5)
    grad = nn.ce_grad(logits, labels, np.arange(5), 5)
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-15)


def test_ce_takes_row_maxima_by_column_with_the_bytes_of_a_max_reduction():
    """ce_losses and ce_grad take each row's maximum column by column; the
    results are those of the formula over numpy's max along the rows, also
    in rows whose maximum is a tie of 0.0 and -0.0."""
    rng = stream(4, "ties")
    logits = rng.normal(size=(12, 5)) * 3.0
    logits[:3] = [[0.0, -0.0, -1.5, -2.0, -0.5], [-1.0, -0.0, 0.0, -2.5, -3.0], [-0.0, -4.0, -1.0, -2.0, 0.0]]
    labels, rows = rng.integers(0, 5, size=12), np.arange(12)
    counts = (3, 1, 8)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = np.add.reduce(exp, axis=-1, keepdims=True)
    picked = shifted[rows, labels] - np.log(total[:, 0])
    expected = -np.array([np.add.reduce(picked[0:3]), picked[3], np.add.reduce(picked[4:])]) / counts
    assert nn.ce_losses(logits, labels, rows, counts).tobytes() == expected.tobytes()
    grad = exp / total
    grad[rows, labels] -= 1.0
    grad /= 4.0
    assert nn.ce_grad(logits, labels, rows, 4.0).tobytes() == grad.tobytes()


def test_segment_sums_reduce_each_run_as_a_vector():
    """Runs of one length are reduced together, each as np.add.reduce sums
    it alone: pairwise, in blocks of 128, from 8 entries on."""
    rng = stream(5, "runs")
    counts = [3, 130, 1, 0, 130, 9, 3, 257]
    values = rng.normal(size=sum(counts)) * 10.0 ** rng.integers(-8, 8, size=sum(counts))
    starts = np.cumsum([0, *counts])
    expected = [np.add.reduce(values[a:b]) for a, b in zip(starts, starts[1:])]
    assert nn.segment_sums(values, counts).tobytes() == np.array(expected).tobytes()


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


def pool_blocks(x, k):
    """The (b, c, oh, ow, k*k) window blocks of a kxk pool, by reshaping."""
    b, c, h, w = x.shape
    oh, ow = h // k, w // k
    cropped = x[:, :, : oh * k, : ow * k]
    blocks = cropped.reshape(b, c, oh, k, ow, k).transpose(0, 1, 2, 4, 3, 5)
    return blocks.reshape(b, c, oh, ow, k * k)


def maxpool_block_reference(layer, x, grad_out):
    """Max-pool forward and input gradient over the (..., k*k) window blocks."""
    b, c, h, w = x.shape
    k = layer.kernel
    oh, ow = h // k, w // k
    blocks = pool_blocks(x, k)
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
    # the forward pass's maxima, handed in, give the same bytes
    assert layer.backward(None, x, grad_out, best=out)[1].tobytes() == grad_x.tobytes()


# ---------------------------------------------------------------------------
# convolution as im2col GEMMs, against the einsum expressions it replaced
# ---------------------------------------------------------------------------


def conv_einsum_reference(layer, params, x, grad_out):
    """A single model's conv output, parameter gradient and input gradient
    as einsum computes them; the input gradient is the full correlation of
    grad_out with the flipped kernel, over grad_out padded by k - 1."""
    k = layer.kernel
    w, b = layer._split(params)
    win = sliding_window_view(x, (k, k), axis=(2, 3))
    y = np.einsum("bchwij,ocij->bohw", win, w, optimize=True) + b[None, :, None, None]
    grad_w = np.einsum("bchwij,bohw->ocij", win, grad_out, optimize=True)
    grad_b = np.add.reduce(grad_out, axis=(0, 2, 3))
    padded = np.pad(grad_out, ((0, 0), (0, 0), (k - 1, k - 1), (k - 1, k - 1)))
    gwin = sliding_window_view(padded, (k, k), axis=(2, 3))
    grad_x = np.einsum("bohwij,ocij->bchw", gwin, w[:, :, ::-1, ::-1], optimize=True)
    return y, np.concatenate([grad_w.ravel(), grad_b]), grad_x


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("c", [1, 3, 32])
@pytest.mark.parametrize("sizes", [None, (3, 1, 5), (1, 6, 1, 2)], ids=["single", "3-1-5", "1-6-1-2"])
def test_conv_gemms_match_einsum(sizes, c, k):
    """Forward and parameter gradient bit for bit; the col2im input
    gradient sums in another order, so it matches to rel 1e-12."""
    layer = nn.Conv2d(c, 8, k)
    rng = stream(12, "conv", c, k)
    clients = [4] if sizes is None else list(sizes)
    offsets = None if sizes is None else tuple(np.cumsum([0, *sizes]).tolist())
    params = rng.normal(size=(len(clients), layer.param_count()))
    x = rng.normal(size=(sum(clients), c, k + 4, k + 6))
    flat = params[0] if sizes is None else params
    y = layer.forward(flat, x, offsets)
    # channel-major, as the layers after a conv pass its gradient back, and C order
    channel_major = np.empty_like(y)
    channel_major[...] = rng.normal(size=y.shape)
    for grad_out in (channel_major, np.ascontiguousarray(channel_major)):
        gp, grad_x = layer.backward(flat, x, grad_out, offsets=offsets)
        gp = gp.reshape(len(clients), -1)
        start = 0
        for p, m in enumerate(clients):
            rows = slice(start, start + m)
            start += m
            ref_y, ref_gp, ref_x = conv_einsum_reference(layer, params[p], x[rows], grad_out[rows])
            assert y[rows].tobytes() == ref_y.tobytes()
            assert gp[p].tobytes() == ref_gp.tobytes()
            assert np.max(np.abs(grad_x[rows] - ref_x)) <= 1e-12 * np.max(np.abs(ref_x))


@pytest.mark.parametrize("sizes", [(1, 7, 19), (7,)], ids=["1-7-19", "one-client"])
def test_dense_stack_matches_single_model_passes(sizes):
    """Each client of a Dense stack gets byte for byte the output, the
    parameter gradient (bias included) and the input gradient of a
    single-model pass over its rows, which are ``x @ W + b``, ``x.T @ g``,
    the column sums of g and ``g @ W.T``: the stack adds every row's bias
    in one add."""
    layer = nn.Dense(6, 5)
    rng = stream(17, "dense", len(sizes))
    offsets = tuple(np.cumsum([0, *sizes]).tolist())
    params = rng.normal(size=(len(sizes), layer.param_count()))
    x = rng.normal(size=(offsets[-1], 6))
    grad_out = rng.normal(size=(offsets[-1], 5))
    y = layer.forward(params, x, offsets)
    gp, grad_x = layer.backward(params, x, grad_out, offsets=offsets)
    for p, rows in enumerate(slice(a, b) for a, b in zip(offsets, offsets[1:])):
        w, b = params[p, :30].reshape(6, 5), params[p, 30:]
        single_y = layer.forward(params[p], x[rows])
        single_gp, single_x = layer.backward(params[p], x[rows], grad_out[rows])
        assert single_y.tobytes() == (x[rows] @ w + b).tobytes()
        assert single_gp.tobytes() == np.concatenate(
            [(x[rows].T @ grad_out[rows]).ravel(), np.add.reduce(grad_out[rows], axis=0)]).tobytes()
        assert single_x.tobytes() == (grad_out[rows] @ w.T).tobytes()
        assert y[rows].tobytes() == single_y.tobytes()
        assert gp[p].tobytes() == single_gp.tobytes()
        assert grad_x[rows].tobytes() == single_x.tobytes()


POOL_RELU_CONV = nn.NetworkSpec((nn.Conv2d(2, 4, 3), nn.MaxPool(2), nn.Relu(), nn.Conv2d(4, 5, 3), nn.Relu(),
                                 nn.Flatten(), nn.Dense(20, 3)), (2, 10, 10), 3)


@pytest.mark.parametrize("spec", [nn.tcnn_spec((1, 12, 12), 4, 3), POOL_RELU_CONV],
                         ids=["t_cnn", "pool-relu-conv"])
def test_stack_backward_through_a_workspace_gives_single_model_bytes(spec, monkeypatch):
    """A stack's parameter gradient, with its input gradients in a
    workspace's areas (warmed by a step before) and allocated, is byte for
    byte each client's single-model gradient over its rows. In the
    pool-relu-conv spec the second ReLU's output gradient (the conv's,
    channel-major) and its input (the pool's output, C order) lie in
    different layouts."""
    offsets = (0, 20, 45, 60)
    assert offsets[-1] * sum(spec.gradient_areas) >= nn._SMALL_GRADIENTS
    params = np.stack([nn.init_state(spec, stream(70, "init", p)).params for p in range(3)])
    x = stream(71, "x").normal(size=(offsets[-1], *spec.input_shape))
    grad_logits = stream(72, "grad").normal(size=(offsets[-1], spec.class_count))
    layouts, backward = [], nn.Relu.backward

    def recording(self, params, x, grad_out, *args, **kwargs):
        layouts.append((x.flags.c_contiguous, grad_out.flags.c_contiguous))
        return backward(self, params, x, grad_out, *args, **kwargs)

    monkeypatch.setattr(nn.Relu, "backward", recording)
    workspace = nn.Workspace()
    stacked = []
    for kept in (workspace, workspace, None):
        _, caches = nn.forward_stack(spec, params, x, offsets, kept)
        stacked.append(nn.backward_from_logits(spec, params, caches, grad_logits, offsets=offsets,
                                               workspace=kept))
    if spec is POOL_RELU_CONV:
        assert (True, False) in layouts
    for p, rows in enumerate(slice(a, b) for a, b in zip(offsets, offsets[1:])):
        state = nn.ModelState(params[p], np.zeros_like(params[p]), spec.spec_hash)
        _, caches = nn.forward_with_caches(state, spec, x[rows])
        single = nn.backward_from_logits(spec, params[p], caches, grad_logits[rows]).tobytes()
        assert [grad[p].tobytes() for grad in stacked] == [single] * 3


def test_conv1_backward_peak_memory():
    """t_cnn's second conv at batch 32 on 32x12x12 inputs. The full
    correlation peaked at 65.2 MB on its padded windows; col2im needs one
    13.1 MB column matrix."""
    layer = nn.Conv2d(32, 64, 5)
    rng = stream(13, "conv1")
    params = rng.normal(size=layer.param_count())
    x = rng.normal(size=(32, 32, 12, 12))
    grad_out = np.empty_like(layer.forward(params, x))
    grad_out[...] = rng.normal(size=grad_out.shape)
    tracemalloc.start()
    try:
        layer.backward(params, x, grad_out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_conv1_forward_peak_memory():
    """The same conv's forward pass without a workspace builds its column
    matrix in chunks of at most nn.COLUMN_BUDGET entries (2 MiB), not as
    one 13.1 MB matrix; the output is 1 MB."""
    layer = nn.Conv2d(32, 64, 5)
    rng = stream(13, "conv1")
    params = rng.normal(size=layer.param_count())
    x = rng.normal(size=(32, 32, 12, 12))
    tracemalloc.start()
    try:
        layer.forward(params, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def whole_product_reference(layer, params, x):
    """``W @ cols + b`` over one column matrix of all of x's rows, in the
    channel-major layout Conv2d.forward returns."""
    k, o = layer.kernel, layer.out_channels
    w, b = layer._split(params)
    n, c, h, wd = x.shape
    oh, ow = h - k + 1, wd - k + 1
    cols = np.ascontiguousarray(sliding_window_view(x, (k, k), axis=(2, 3)).transpose(1, 4, 5, 0, 2, 3))
    y = w.reshape(o, c * k * k) @ cols.reshape(c * k * k, n * oh * ow)
    y += b[:, None]
    return y.reshape(o, n, oh, ow).transpose(1, 0, 2, 3)


@pytest.mark.parametrize("rows", [1, 7, 20, 333, 1250])
@pytest.mark.parametrize("layer, side", [(nn.Conv2d(1, 32, 5), 28), (nn.Conv2d(32, 64, 5), 12)],
                         ids=["conv0", "conv1"])
def test_column_chunks_give_the_whole_product_at_t_cnn_28x28_shapes(layer, side, rows):
    """t_cnn's two conv layers on 1x28x28 inputs (k=5; chunks of 16 and 4
    rows): a forward pass in column chunks gives the bytes of one product
    over all rows."""
    assert layer.chunk_rows((side - 4) ** 2) == {1: 16, 32: 4}[layer.in_channels]
    rng = stream(14, "chunks", layer.in_channels, rows)
    params = rng.normal(size=layer.param_count())
    x = rng.normal(size=(rows, layer.in_channels, side, side))
    assert layer.forward(params, x).tobytes() == whole_product_reference(layer, params, x).tobytes()


def test_stack_clients_beyond_one_chunk_get_the_bytes_of_their_own_passes():
    """3x32x32 t_cnn's second conv (32 -> 64, k=5 on 14x14: 100 output
    positions, chunks of 2 rows) is a shape where a split product can round
    differently from the whole one. A client's chunks count from its first
    row, so each client of a stack gets the bytes of a pass over its rows
    alone, the layer's and the whole network's, whose forward-only pass
    runs the layers before Flatten in chunks of 4 rows."""
    layer = nn.Conv2d(32, 64, 5)
    assert layer.chunk_rows(100) == 2
    offsets = (0, 3, 10, 15)
    slices = [slice(a, b) for a, b in zip(offsets, offsets[1:])]
    rng = stream(15, "stack chunks")
    params = rng.normal(size=(3, layer.param_count()))
    x = rng.normal(size=(15, 32, 14, 14))
    y = layer.forward(params, x, offsets)
    for p, rows in enumerate(slices):
        assert y[rows].tobytes() == layer.forward(params[p], x[rows]).tobytes()
    spec = nn.tcnn_spec((3, 32, 32), 10, conv_kernel=5)
    assert spec.conv_stage == (6, 4)
    states = [nn.init_state(spec, stream(16, "init", p)) for p in range(3)]
    inputs = rng.normal(size=(15, 3, 32, 32))
    logits, _ = nn.forward_stack(spec, np.stack([s.params for s in states]), inputs, offsets)
    for state, rows in zip(states, slices):
        assert logits[rows].tobytes() == nn.forward_logits(state, spec, inputs[rows]).tobytes()


@pytest.mark.parametrize("layer, in_shape",[(nn.Dense(6, 4), (6,)), (nn.Conv2d(2, 3, 3), (2, 6, 5))])
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
        def recorder(self, params, x, grad_out, input_grad=True, backward=cls.backward, **where):
            asked.append(input_grad)
            return backward(self, params, x, grad_out, input_grad=input_grad, **where)

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


@pytest.mark.parametrize("layout", ["C", "channel-major"])
def test_relu_backward_writes_over_grad_out(layout):
    """The input gradient is the very grad_out array, holding the bytes of
    grad_out * (x > 0) (a negative entry over x <= 0 gives -0.0), in
    grad_out's layout, with x in the other layout."""
    rng = stream(18, "relu", layout)
    shape = (3, 4, 5, 5)
    grad_order, x_order = (None, (1, 0, 2, 3)) if layout == "C" else ((1, 0, 2, 3), None)
    x = nn._layout(None, shape, x_order)
    x[...] = rng.normal(size=shape)
    x[0, 0, 0, :2] = 0.0, -0.0
    grad_out = nn._layout(None, shape, grad_order)
    grad_out[...] = rng.normal(size=shape)
    want = (grad_out * (x > 0)).tobytes()
    strides = grad_out.strides
    _, grad_x = nn.Relu().backward(None, x, grad_out)
    assert grad_x is grad_out and grad_x.strides == strides
    assert grad_x.tobytes() == want


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
    with pytest.raises(nn.ShapeError, match=r"layer 2: conv2d\(2->2,k5\) kernel exceeds"):
        nn.NetworkSpec((nn.Conv2d(1, 2, 3), nn.MaxPool(2), nn.Conv2d(2, 2, 5), nn.Flatten()), (1, 8, 8), 2)
    with pytest.raises(nn.ShapeError, match="logits"):
        nn.NetworkSpec((nn.Dense(4, 5),), (4,), 3)
    with pytest.raises(nn.ShapeError):
        nn.NetworkSpec((nn.Conv2d(3, 8, 40), nn.Flatten(), nn.Dense(8, 2)), (3, 32, 32), 2)


@pytest.mark.parametrize("spec, areas, row", [
    (nn.tcnn_spec((1, 28, 28), 10, 5), (18432, 4608), 125962),
    (nn.mlp_spec(8, [8], 4), (8, 0), 28),
], ids=["t_cnn-1x28x28", "mlp-8"])
def test_gradient_areas_hold_dense_conv_and_pool_input_gradients(spec, areas, row):
    """Only Dense, Conv2d and MaxPool layers beyond layer 0 write an input
    gradient into an area: t_cnn's first pool (32x24x24) and second conv
    (32x12x12) are the widest of each turn, and the mlp's one hidden
    ReLU takes none. A workspace row holds them, the outputs and t_cnn's
    largest column matrix."""
    assert spec.gradient_areas == areas
    assert spec.workspace_size(1) - spec.workspace_size(0) == row


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


def test_forward_reports_layer_of_overflow_beyond_layer_0():
    # layer 0 passes 1e300 through; only the dense layer 2 overflows
    spec = nn.mlp_spec(2, (2,), 2)
    params = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1e10, 0.0, 0.0, 1e10, 0.0, 0.0])
    state = nn.ModelState(params, np.zeros(12), spec.spec_hash)
    x = np.array([[1.0, 1.0], [1e300, 1.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(nn.NonFiniteError, match=r"layer 2 \(dense\(2->2\)\)"):
            nn.forward_logits(state, spec, x)
        with pytest.raises(nn.NonFiniteError, match=r"layer 2 \(dense\(2->2\)\)"):
            nn.forward_rows(spec, params, x, slice(0, 2), nn.Workspace())
        with pytest.raises(nn.NonFiniteError, match="layer 2") as caught:
            nn.forward_stack(spec, np.stack([params, params]), x, (0, 1, 2))
    assert caught.value.client == 1


# ---------------------------------------------------------------------------
# forward passes through a reused workspace
# ---------------------------------------------------------------------------


def test_workspace_reports_layer_of_overflow():
    spec = nn.NetworkSpec((nn.Dense(2, 2),), (2,), 2)
    params = np.array([1e308, 0.0, 0.0, 1e308, 0.0, 0.0])
    state = nn.ModelState(params, np.zeros(6), spec.spec_hash)
    with np.errstate(over="ignore"), pytest.raises(nn.NonFiniteError, match="layer 0"):
        nn.forward_rows(spec, state.params, np.full((1, 2), 1e30), slice(0, 1), nn.Workspace())


def test_workspace_region_grows_to_the_largest_pass(monkeypatch):
    """A pass larger than the region maps one of its size before it takes
    anything: a second pass as large faults in no pages, a smaller one
    keeps the region, and no pass, forward or backward, takes more than
    NetworkSpec.workspace_size promised."""
    used = []
    original = nn.Workspace.take

    def take(self, size):
        memory = original(self, size)
        used.append(self._used <= self._memory.size and memory.size == size)
        return memory

    monkeypatch.setattr(nn.Workspace, "take", take)
    spec = nn.tcnn_spec((1, 16, 16), 4, conv_kernel=3)
    state = nn.init_state(spec, stream(40, "init"))
    x = stream(41, "x").normal(size=(100, 1, 16, 16))
    workspace = nn.Workspace()

    def faulted_bytes(rows: int) -> int:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        logits = nn.forward_rows(spec, state.params, x, slice(0, rows), workspace)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        assert logits.tobytes() == nn.forward_logits(state, spec, x[:rows]).tobytes()
        return faults * resource.getpagesize()

    faulted_bytes(10)
    small = workspace._memory
    assert small.size == spec.workspace_size(10)
    conv0 = 100 * 32 * 14 * 14 * 8
    assert faulted_bytes(100) >= conv0
    grown = workspace._memory
    assert grown.size == spec.workspace_size(100)
    assert faulted_bytes(100) < conv0 // 8
    assert faulted_bytes(30) < conv0 // 8 and workspace._memory is grown
    # a training step after the largest pass takes its gradients from the same region
    labels = np.arange(100) % 4
    rows = anchor.anchor_rows([None, None], state, spec).layout((60, 40))
    params = np.repeat(state.params[None], 2, axis=0)
    anchor.fused_gradient(spec, params, x, labels, rows, 0.0, np.empty_like(params),
                          workspace=workspace)
    assert workspace._memory is grown and used and all(used)


def test_paper_scale_block_faults_in_a_bounded_workspace():
    """A 1250-row block of 1x28x28 t_cnn inputs, as evaluation runs a
    5000-row test set. The layers before Flatten run in chunks of 16 rows
    and the column matrices in chunks of at most 2 MiB, so the pass faults
    in at most 64 MiB (756 MiB with whole column matrices and activations),
    and its logits are forward_logits' bytes."""
    spec = nn.tcnn_spec((1, 28, 28), 10, conv_kernel=5)
    assert spec.conv_stage == (6, 16)
    state = nn.init_state(spec, stream(42, "init"))
    x = stream(43, "x").normal(size=(1250, 1, 28, 28))
    workspace = nn.Workspace()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    logits = nn.forward_rows(spec, state.params, x, slice(0, 1250), workspace)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    assert faults * resource.getpagesize() <= 64 << 20
    assert logits.tobytes() == nn.forward_logits(state, spec, x).tobytes()


@pytest.mark.parametrize("spec", [
    # the ReLU reads the network inputs directly, or through Flatten's view of them
    nn.NetworkSpec((nn.Relu(), nn.Dense(6, 3)), (6,), 3),
    nn.NetworkSpec((nn.Flatten(), nn.Relu(), nn.Dense(6, 3)), (2, 3), 3),
], ids=["relu-first", "flatten-relu"])
def test_workspace_never_writes_the_inputs(spec):
    state = nn.init_state(spec, stream(60, "init"))
    x = stream(61, "x").normal(size=(9, *spec.input_shape))
    assert (x < 0).any()
    before = x.copy()
    workspace = nn.Workspace()
    for _ in range(2):
        logits = nn.forward_rows(spec, state.params, x, slice(0, 9), workspace)
        assert x.tobytes() == before.tobytes()
        assert logits.tobytes() == nn.forward_logits(state, spec, before).tobytes()


def test_workspace_checks_every_new_input_array():
    spec, state = small_mlp()
    workspace = nn.Workspace()

    def evaluate(inputs):
        test_set = data.LabeledDataset(inputs, np.arange(2), spec.class_count, "x")
        return metrics.classwise_accuracy(state, spec, test_set, workspace)

    evaluate(np.zeros((2, 6)))
    with pytest.raises(nn.NonFiniteError, match="inputs"):
        evaluate(np.full((2, 6), np.nan))
    with pytest.raises(nn.ShapeError):
        evaluate(np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# units of work on threads, each thread through its own workspace lane
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cpus, expected", [(3, 3), (None, 1)])
def test_thread_count_without_cpu_affinity_counts_the_cpus(cpus, expected, monkeypatch):
    """Hosts without os.sched_getaffinity (macOS, Windows) take
    os.cpu_count, which is None when it cannot tell."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert nn.thread_count(nn.THREAD_MACS, 8) == expected
    assert nn.thread_count(nn.THREAD_MACS - 1, 8) == 1


def record_pools(monkeypatch):
    """The max_workers of every pool on_lanes starts."""
    pools = []

    class Pool(nn.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(nn, "ThreadPoolExecutor", Pool)
    return pools


@pytest.mark.parametrize("k", [1, 2, 3])
def test_on_lanes_runs_stripes_of_units_through_their_lanes(k, monkeypatch):
    """7 units, a multiple of neither 2 nor 3: thread t runs units t, t + k,
    ... in order through lane t, the calling thread is thread 0, and the
    results come back in unit order."""
    pools = record_pools(monkeypatch)
    workspace = nn.Workspace()
    runs = []

    def work(u, lane):
        runs.append((u, threading.get_ident(), lane))
        return u * u

    assert nn.on_lanes(workspace, k, 7, work) == [u * u for u in range(7)]
    lanes = workspace.lanes(k)
    for t in range(k):
        stripe = [(u, thread) for u, thread, lane in runs if lane is lanes[t]]
        assert [u for u, _ in stripe] == list(range(t, 7, k))
        # a pool may hand a finished worker the next thread's stripe
        assert {thread == threading.get_ident() for _, thread in stripe} == {t == 0}
    assert len(runs) == 7
    assert pools == ([] if k == 1 else [k - 1])
    assert threading.active_count() == 1


@pytest.mark.parametrize("planted, raised, ran", [
    ((1, 4), 1, [0, 1, 2, 3, 5, 6]),
    ((3, 2), 2, [0, 1, 2, 3, 4, 7]),
], ids=["one-thread", "calling-thread-later"])
def test_on_lanes_raises_the_earliest_failure_once_every_thread_stops(planted, raised, ran):
    """8 units on 3 threads: thread 0 runs 0, 3, 6, thread 1 runs 1, 4, 7 and
    thread 2 runs 2, 5. A thread stops at its first failure, the others
    run on, and the failure of the earliest unit is raised, also when the
    calling thread fails at a later one."""
    done = []

    def work(u, lane):
        done.append(u)
        if u in planted:
            raise ValueError(f"unit {u}")
        return u

    with pytest.raises(ValueError, match=rf"unit {raised}$"):
        nn.on_lanes(nn.Workspace(), 3, 8, work)
    assert sorted(done) == ran
    assert threading.active_count() == 1


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


@pytest.mark.parametrize("fault, row, col", [
    ("gradient", 1, 5), ("gradient", 1, 19_000), ("overflow", 1, 19_000), ("overflow", 2, 5),
], ids=["gradient-row1-block0", "gradient-row1-block1", "overflow-row1-block1", "overflow-row2"])
def test_sgd_update_names_the_stack_row_that_fails(fault, row, col):
    """A (3, 20,000) stack walked in blocks of 2^15 entries: row 1 (flat
    20,000 to 39,999) straddles the first boundary. A non-finite gradient
    entry, or a parameter that the step overflows, is reported for its own
    row, on either side of the boundary; a flat vector names no row."""
    assert nn.CACHE_BLOCK == 1 << 15
    rng = stream(19, "sgd rows")
    params, grad = rng.normal(size=(3, 20_000)), rng.normal(size=(3, 20_000))
    lr = 0.1
    if fault == "gradient":
        grad[row, col] = np.nan
        message = "gradient"
    else:
        params[row, col], grad[row, col], lr = 1e308, -1e308, 10.0
        message = "after SGD step"
    for w, g, client in ((params, grad, row), (params[row], grad[row], None)):
        with np.errstate(over="ignore"), pytest.raises(nn.NonFiniteError, match=message) as info:
            nn.sgd_update(w.copy(), np.zeros_like(w), g.copy(), lr, 0.9, 1e-4)
        assert info.value.client == client


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


def test_saved_state_is_header_then_little_endian_arrays(tmp_path):
    spec, state = small_mlp(seed=32)
    state.momentum[:] = stream(33, "m").normal(size=state.momentum.shape)
    expected = (b"FKMS" + bytes.fromhex(state.spec_hash) + struct.pack("<Q", spec.param_count)
                + state.params.astype("<f8").tobytes() + state.momentum.astype("<f8").tobytes())
    swapped = nn.ModelState(state.params.astype(">f8"), state.momentum.astype(">f8"), state.spec_hash)
    for saved in (state, swapped):
        nn.save_state(saved, tmp_path / "model.bin")
        assert (tmp_path / "model.bin").read_bytes() == expected


def test_failed_save_leaves_the_older_file_intact(tmp_path):
    spec, state = small_mlp(seed=34)
    path = tmp_path / "model.bin"
    nn.save_state(state, path)
    saved = path.read_bytes()
    broken = nn.ModelState(state.params + 1.0, np.full(state.momentum.shape, "x"), state.spec_hash)
    with pytest.raises(ValueError):
        nn.save_state(broken, path)
    assert path.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_load_state_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a model state")
    with pytest.raises(ValueError, match="magic"):
        nn.load_state(path)
    spec, state = small_mlp()
    nn.save_state(state, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="bytes"):
        nn.load_state(path)
    path.write_bytes(blob[:40])
    with pytest.raises(ValueError, match=f"{path.name}: 40 bytes, shorter than the 44-byte header"):
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
        blocks = pool_blocks(caches[2], 2)
        if np.any(blocks.max(axis=-1) == 0.0):
            assert nn.activation_margin(state, spec, x) > 0.0
            return
    pytest.skip("no clamped window produced")
