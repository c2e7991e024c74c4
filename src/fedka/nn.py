"""Minimal neural-network engine for the federated simulator.

Dense / ReLU / valid-convolution / max-pool models over float64 NumPy
arrays, with exact analytic gradients for softmax cross-entropy, SGD with
momentum and weight decay, and finite-difference gradient verification.

All parameters of a model live in one flat vector (deterministic layer
order, weights before biases within a layer) so states can be averaged
elementwise, serialized and compared bit-for-bit. Models emit raw logits;
no softmax layer exists in the layer vocabulary. Every function here is a
pure, deterministic map of its inputs: no global RNG, no hidden state.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Shape = tuple[int, ...]


class ShapeError(ValueError):
    """Input or layer-chain shape mismatch; the message names the layer."""


class NonFiniteError(FloatingPointError):
    """NaN or Inf met in inputs, activations, gradients or parameters."""


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int

    @property
    def name(self) -> str:
        return f"dense({self.in_features}->{self.out_features})"

    def output_shape(self, in_shape: Shape) -> Shape:
        if in_shape != (self.in_features,):
            raise ShapeError(f"{self.name} expects input shape ({self.in_features},), got {in_shape}")
        return (self.out_features,)

    def param_count(self) -> int:
        return self.in_features * self.out_features + self.out_features

    def fans(self) -> tuple[int, int]:
        return self.in_features, self.out_features

    def _split(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.in_features * self.out_features
        return params[:n].reshape(self.in_features, self.out_features), params[n:]

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        w, b = self._split(params)
        return x @ w + b

    def backward(self, params, x, grad_out, input_grad=True):
        w, _ = self._split(params)
        grad_w = x.T @ grad_out
        grad_b = grad_out.sum(axis=0)
        grad_x = grad_out @ w.T if input_grad else None
        return np.concatenate([grad_w.ravel(), grad_b]), grad_x

    def to_json(self) -> dict:
        return {"type": "dense", "in": self.in_features, "out": self.out_features}


@dataclass(frozen=True)
class Relu:
    @property
    def name(self) -> str:
        return "relu"

    def output_shape(self, in_shape: Shape) -> Shape:
        return in_shape

    def param_count(self) -> int:
        return 0

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def backward(self, params, x, grad_out, input_grad=True):
        # subgradient at 0 is fixed to 0
        return None, grad_out * (x > 0.0) if input_grad else None

    def to_json(self) -> dict:
        return {"type": "relu"}


@dataclass(frozen=True)
class Conv2d:
    """Valid (unpadded) stride-1 cross-correlation on (batch, C, H, W)."""

    in_channels: int
    out_channels: int
    kernel: int

    @property
    def name(self) -> str:
        return f"conv2d({self.in_channels}->{self.out_channels},k{self.kernel})"

    def output_shape(self, in_shape: Shape) -> Shape:
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise ShapeError(f"{self.name} expects (C={self.in_channels}, H, W) input, got {in_shape}")
        c, h, w = in_shape
        if h < self.kernel or w < self.kernel:
            raise ShapeError(f"{self.name} kernel exceeds input {in_shape}")
        return (self.out_channels, h - self.kernel + 1, w - self.kernel + 1)

    def param_count(self) -> int:
        return self.out_channels * self.in_channels * self.kernel**2 + self.out_channels

    def fans(self) -> tuple[int, int]:
        k2 = self.kernel**2
        return self.in_channels * k2, self.out_channels * k2

    def _split(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.out_channels * self.in_channels * self.kernel**2
        w = params[:n].reshape(self.out_channels, self.in_channels, self.kernel, self.kernel)
        return w, params[n:]

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        w, b = self._split(params)
        win = sliding_window_view(x, (self.kernel, self.kernel), axis=(2, 3))
        y = np.einsum("bchwij,ocij->bohw", win, w, optimize=True)
        return y + b[None, :, None, None]

    def backward(self, params, x, grad_out, input_grad=True):
        w, _ = self._split(params)
        k = self.kernel
        win = sliding_window_view(x, (k, k), axis=(2, 3))
        grad_w = np.einsum("bchwij,bohw->ocij", win, grad_out, optimize=True)
        grad_b = grad_out.sum(axis=(0, 2, 3))
        grad_x = None
        if input_grad:
            # full correlation of grad_out with the flipped kernel
            padded = np.pad(grad_out, ((0, 0), (0, 0), (k - 1, k - 1), (k - 1, k - 1)))
            gwin = sliding_window_view(padded, (k, k), axis=(2, 3))
            grad_x = np.einsum("bohwij,ocij->bchw", gwin, w[:, :, ::-1, ::-1], optimize=True)
        return np.concatenate([grad_w.ravel(), grad_b]), grad_x

    def to_json(self) -> dict:
        return {
            "type": "conv2d",
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel": self.kernel,
        }


@dataclass(frozen=True)
class MaxPool:
    """Non-overlapping kxk pooling; trailing rows/cols beyond a full window
    are dropped. Ties within a window go to the first index in row-major
    order."""

    kernel: int

    @property
    def name(self) -> str:
        return f"maxpool(k{self.kernel})"

    def output_shape(self, in_shape: Shape) -> Shape:
        if len(in_shape) != 3:
            raise ShapeError(f"{self.name} expects (C, H, W) input, got {in_shape}")
        c, h, w = in_shape
        if h < self.kernel or w < self.kernel:
            raise ShapeError(f"{self.name} window exceeds input {in_shape}")
        return (c, h // self.kernel, w // self.kernel)

    def param_count(self) -> int:
        return 0

    def _views(self, x: np.ndarray) -> list[np.ndarray]:
        """The k*k strided (b, c, oh, ow) views, one per window offset, in
        row-major offset order."""
        k = self.kernel
        oh, ow = x.shape[2] // k, x.shape[3] // k
        return [x[:, :, i : oh * k : k, j : ow * k : k] for i in range(k) for j in range(k)]

    def _blocks(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        k = self.kernel
        oh, ow = h // k, w // k
        cropped = x[:, :, : oh * k, : ow * k]
        blocks = cropped.reshape(b, c, oh, k, ow, k).transpose(0, 1, 2, 4, 3, 5)
        return blocks.reshape(b, c, oh, ow, k * k)

    @staticmethod
    def _max(views: list[np.ndarray]) -> np.ndarray:
        out = views[0].copy()
        for view in views[1:]:
            np.maximum(out, view, out=out)
        return out

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self._max(self._views(x))

    def backward(self, params, x, grad_out, input_grad=True):
        if not input_grad:
            return None, None
        views = self._views(x)
        best = self._max(views)
        grad_x = np.zeros_like(x)
        # walk the offsets in row-major order: the first one holding the
        # window's maximum takes its gradient, so a tie goes to the first
        unclaimed = np.ones(best.shape, dtype=bool)
        for view, grad_view in zip(views, self._views(grad_x)):
            wins = view == best
            wins &= unclaimed
            unclaimed ^= wins
            grad_view[...] = np.where(wins, grad_out, 0.0)
        return None, grad_x

    def to_json(self) -> dict:
        return {"type": "maxpool", "kernel": self.kernel}


@dataclass(frozen=True)
class Flatten:
    @property
    def name(self) -> str:
        return "flatten"

    def output_shape(self, in_shape: Shape) -> Shape:
        return (int(np.prod(in_shape)),)

    def param_count(self) -> int:
        return 0

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def backward(self, params, x, grad_out, input_grad=True):
        return None, grad_out.reshape(x.shape) if input_grad else None

    def to_json(self) -> dict:
        return {"type": "flatten"}


Layer = Dense | Relu | Conv2d | MaxPool | Flatten


def layer_from_json(obj: dict) -> Layer:
    kind = obj.get("type")
    if kind == "dense":
        return Dense(int(obj["in"]), int(obj["out"]))
    if kind == "relu":
        return Relu()
    if kind == "conv2d":
        return Conv2d(int(obj["in_channels"]), int(obj["out_channels"]), int(obj["kernel"]))
    if kind == "maxpool":
        return MaxPool(int(obj["kernel"]))
    if kind == "flatten":
        return Flatten()
    raise ValueError(f"unsupported layer type {kind!r}: models emit raw logits and "
                     f"only dense/relu/conv2d/maxpool/flatten layers exist")


# ---------------------------------------------------------------------------
# Network spec and state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkSpec:
    """Layer chain with a validated shape flow ending in ``class_count`` logits."""

    layers: tuple[Layer, ...]
    input_shape: Shape
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        if self.class_count < 1:
            raise ShapeError("class_count must be >= 1")
        if not self.layers:
            raise ShapeError("a network needs at least one layer")
        if any(d < 1 for d in self.input_shape):
            raise ShapeError(f"invalid input shape {self.input_shape}")
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            try:
                shape = layer.output_shape(shape)
            except ShapeError as exc:
                raise ShapeError(f"layer {i}: {exc}") from None
        if shape != (self.class_count,):
            raise ShapeError(
                f"final layer emits shape {shape}, expected ({self.class_count},) logits"
            )

    @cached_property
    def layer_shapes(self) -> tuple[Shape, ...]:
        """Input shape of every layer, plus the final output shape."""
        shapes = [self.input_shape]
        for layer in self.layers:
            shapes.append(layer.output_shape(shapes[-1]))
        return tuple(shapes)

    @cached_property
    def param_slices(self) -> tuple[slice, ...]:
        slices = []
        offset = 0
        for layer in self.layers:
            n = layer.param_count()
            slices.append(slice(offset, offset + n))
            offset += n
        return tuple(slices)

    @cached_property
    def param_count(self) -> int:
        return sum(layer.param_count() for layer in self.layers)

    @cached_property
    def spec_hash(self) -> str:
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_json(self) -> dict:
        return {
            "input_shape": list(self.input_shape),
            "class_count": self.class_count,
            "layers": [layer.to_json() for layer in self.layers],
        }

    @staticmethod
    def from_json(obj: dict) -> "NetworkSpec":
        return NetworkSpec(
            layers=tuple(layer_from_json(entry) for entry in obj["layers"]),
            input_shape=tuple(obj["input_shape"]),
            class_count=int(obj["class_count"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @staticmethod
    def load(path: str | Path) -> "NetworkSpec":
        return NetworkSpec.from_json(json.loads(Path(path).read_text()))


def mlp_spec(input_shape: int | Shape, hidden: Sequence[int], class_count: int) -> NetworkSpec:
    """dense-relu chains ending in a linear logit layer. An int or a 1-D
    sample shape feeds the first dense layer directly; a multi-axis sample
    shape is flattened first."""
    shape = tuple(int(d) for d in np.atleast_1d(input_shape))
    layers: list[Layer] = [Flatten()] if len(shape) > 1 else []
    prev = int(np.prod(shape))
    for width in hidden:
        layers.append(Dense(prev, int(width)))
        layers.append(Relu())
        prev = int(width)
    layers.append(Dense(prev, class_count))
    return NetworkSpec(tuple(layers), shape, class_count)


def tcnn_spec(input_shape: Shape = (3, 32, 32), class_count: int = 10, conv_kernel: int = 5) -> NetworkSpec:
    """Two conv blocks (32 and 64 filters, pool 2) into a 512-wide head."""
    c, h, w = input_shape
    layers: list[Layer] = [
        Conv2d(c, 32, conv_kernel),
        Relu(),
        MaxPool(2),
        Conv2d(32, 64, conv_kernel),
        Relu(),
        MaxPool(2),
        Flatten(),
    ]
    shape: Shape = tuple(input_shape)
    for layer in layers:
        shape = layer.output_shape(shape)
    layers += [Dense(shape[0], 512), Relu(), Dense(512, class_count)]
    return NetworkSpec(tuple(layers), tuple(input_shape), class_count)


@dataclass
class ModelState:
    """Flat parameter vector plus the SGD momentum buffer, bound to a spec."""

    params: np.ndarray
    momentum: np.ndarray
    spec_hash: str

    def copy(self) -> "ModelState":
        return ModelState(self.params.copy(), self.momentum.copy(), self.spec_hash)

    def fresh_local(self) -> "ModelState":
        """Copy of the parameters with the momentum buffer reset."""
        return ModelState(self.params.copy(), np.zeros_like(self.params), self.spec_hash)


def init_state(spec: NetworkSpec, rng: np.random.Generator) -> ModelState:
    """Uniform +-sqrt(6/(fan_in+fan_out)) per parameterized layer."""
    params = np.zeros(spec.param_count, dtype=np.float64)
    for layer, sl in zip(spec.layers, spec.param_slices):
        if layer.param_count() == 0:
            continue
        fan_in, fan_out = layer.fans()
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        params[sl] = rng.uniform(-bound, bound, size=layer.param_count())
    return ModelState(params, np.zeros_like(params), spec.spec_hash)


def _check_state(state: ModelState, spec: NetworkSpec) -> None:
    if state.spec_hash != spec.spec_hash:
        raise ShapeError(
            f"model state was built for spec {state.spec_hash[:12]}..., "
            f"not {spec.spec_hash[:12]}..."
        )
    if state.params.shape != (spec.param_count,):
        raise ShapeError(
            f"state holds {state.params.size} parameters, spec wants {spec.param_count}"
        )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _forward(spec: NetworkSpec, params: np.ndarray, x: np.ndarray, keep_caches: bool):
    caches: list[np.ndarray] | None = [] if keep_caches else None
    h = x
    for i, (layer, sl) in enumerate(zip(spec.layers, spec.param_slices)):
        if caches is not None:
            caches.append(h)
        h = layer.forward(params[sl], h)
        if not np.isfinite(h).all():
            raise NonFiniteError(f"non-finite values after layer {i} ({layer.name})")
    return h, caches


def _check_inputs(spec: NetworkSpec, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[1:] != spec.input_shape:
        raise ShapeError(
            f"inputs have sample shape {inputs.shape[1:]}, spec wants {spec.input_shape}"
        )
    if not np.isfinite(inputs).all():
        raise NonFiniteError("non-finite values in network inputs")
    return inputs


def forward_logits(state: ModelState, spec: NetworkSpec, inputs: np.ndarray) -> np.ndarray:
    """Raw (batch, class_count) logits. No softmax is ever applied."""
    _check_state(state, spec)
    inputs = _check_inputs(spec, inputs)
    logits, _ = _forward(spec, state.params, inputs, keep_caches=False)
    return logits


def forward_with_caches(state: ModelState, spec: NetworkSpec, inputs: np.ndarray):
    """Logits plus per-layer input caches for a subsequent backward pass."""
    _check_state(state, spec)
    inputs = _check_inputs(spec, inputs)
    return _forward(spec, state.params, inputs, keep_caches=True)


def backward_from_logits(
    spec: NetworkSpec, params: np.ndarray, caches: list[np.ndarray], grad_logits: np.ndarray
) -> np.ndarray:
    """Backpropagate an arbitrary dLoss/dlogits to a flat parameter gradient.

    Nothing reads the gradient with respect to the network inputs, so layer 0
    is not asked for it."""
    grads = []
    g = grad_logits
    for i in range(len(spec.layers) - 1, -1, -1):
        gp, g = spec.layers[i].backward(params[spec.param_slices[i]], caches[i], g, input_grad=i > 0)
        if gp is not None:
            grads.append(gp)
    # param_slices tile the flat vector from 0 in layer order
    return np.concatenate(grads[::-1]) if grads else np.zeros_like(params)


# ---------------------------------------------------------------------------
# Loss and optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(self.inputs) != len(labels):
            raise ShapeError(
                f"batch has {len(self.inputs)} inputs but {len(labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.labels)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax CE over the batch and its gradient w.r.t. the logits."""
    m = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    idx = np.arange(m)
    loss = -log_probs[idx, labels].mean()
    grad = exp / total
    grad[idx, labels] -= 1.0
    grad /= m
    return float(loss), grad


def per_sample_ce(state: ModelState, spec: NetworkSpec, inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Individual CE losses, used for hard / proficient sample mining."""
    logits = forward_logits(state, spec, inputs)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -log_probs[np.arange(len(labels)), np.asarray(labels)]


def batch_labels(spec: NetworkSpec, batch: Batch) -> np.ndarray:
    """The batch's labels, checked to be non-empty and in [0, class_count)."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    labels = np.asarray(batch.labels)
    if labels.min() < 0 or labels.max() >= spec.class_count:
        raise ShapeError(f"labels must lie in [0, {spec.class_count})")
    return labels


def ce_loss_and_grad(state: ModelState, spec: NetworkSpec, batch: Batch):
    """Mean softmax cross-entropy and its exact flat parameter gradient."""
    labels = batch_labels(spec, batch)
    logits, caches = forward_with_caches(state, spec, batch.inputs)
    loss, grad_logits = softmax_cross_entropy(logits, labels)
    grad = backward_from_logits(spec, state.params, caches, grad_logits)
    return loss, grad


def ce_loss(state: ModelState, spec: NetworkSpec, batch: Batch) -> float:
    """The loss of ce_loss_and_grad without the backward pass."""
    logits = forward_logits(state, spec, batch.inputs)
    loss, _ = softmax_cross_entropy(logits, np.asarray(batch.labels))
    return loss


def proximal_loss_and_grad(params: np.ndarray, center: np.ndarray, mu: float):
    """FedProx's term (mu/2)*||params - center||^2 and its gradient."""
    diff = params - center
    return 0.5 * mu * float(diff @ diff), mu * diff


def sgd_step(
    state: ModelState,
    grad: np.ndarray,
    lr: float,
    momentum_coef: float = 0.0,
    weight_decay: float = 0.0,
) -> ModelState:
    """v <- momentum*v + (grad + wd*params); params <- params - lr*v."""
    if lr <= 0:
        raise ValueError("learning rate must be > 0")
    if grad.shape != state.params.shape:
        raise ShapeError(f"gradient length {grad.size} != parameter length {state.params.size}")
    if not np.isfinite(grad).all():
        raise NonFiniteError("non-finite entries in gradient")
    # Two full-size buffers. IEEE addition and multiplication commute, so this
    # rounds exactly as the formula in the docstring. No shortcut for
    # momentum_coef == 0: the formula's 0*m + x turns x = -0.0 into 0.0, and
    # the momentum buffer is saved with the state.
    velocity = state.params * weight_decay
    velocity += grad
    step = state.momentum * momentum_coef
    velocity += step
    np.multiply(velocity, lr, out=step)
    params = np.subtract(state.params, step, out=step)
    if not np.isfinite(params).all():
        raise NonFiniteError("parameters became non-finite after SGD step")
    return ModelState(params, velocity, state.spec_hash)


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------


def max_rel_grad_error(loss_fn, grad: np.ndarray, params: np.ndarray, coords, step: float) -> float:
    """Worst |analytic - central difference| / max(|analytic|, |central|, 1e-12)."""
    if step <= 0:
        raise ValueError("finite-difference step must be > 0")
    worst = 0.0
    probe = params.copy()
    for c in coords:
        base = probe[c]
        probe[c] = base + step
        plus = loss_fn(probe)
        probe[c] = base - step
        minus = loss_fn(probe)
        probe[c] = base
        numeric = (plus - minus) / (2.0 * step)
        analytic = grad[c]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        worst = max(worst, err)
    return worst


def activation_margin(state: ModelState, spec: NetworkSpec, inputs: np.ndarray) -> float:
    """Distance of the forward pass from the nearest kink: the smallest
    |pre-activation| over ReLU inputs and smallest top-two gap over pooling
    windows. Finite-difference checks should resample inputs/weights when
    this is below ~the probe step.

    Pool windows that are entirely clamped (max == 0 directly after a ReLU)
    are locally constant, so their zero gap is not a kink; the ReLU term
    already guards the spots where a clamped unit could switch sign."""
    _, caches = forward_with_caches(state, spec, inputs)
    margin = math.inf
    for i, (layer, cache) in enumerate(zip(spec.layers, caches)):
        if isinstance(layer, Relu):
            margin = min(margin, float(np.min(np.abs(cache))))
        elif isinstance(layer, MaxPool):
            blocks = layer._blocks(cache)
            if blocks.shape[-1] < 2:
                continue
            top2 = np.sort(blocks, axis=-1)[..., -2:]
            gaps = top2[..., 1] - top2[..., 0]
            if i > 0 and isinstance(spec.layers[i - 1], Relu):
                gaps = gaps[top2[..., 1] > 0.0]
            if gaps.size:
                margin = min(margin, float(np.min(gaps)))
    return margin


# ---------------------------------------------------------------------------
# State serialization
# ---------------------------------------------------------------------------

_STATE_MAGIC = b"FKMS"


def save_state(state: ModelState, path: str | Path) -> None:
    """Little-endian blob: magic, 32-byte spec hash, u64 length, params then
    momentum as raw float64."""
    header = _STATE_MAGIC + bytes.fromhex(state.spec_hash) + struct.pack("<Q", state.params.size)
    body = state.params.astype("<f8").tobytes() + state.momentum.astype("<f8").tobytes()
    Path(path).write_bytes(header + body)


def load_state(path: str | Path) -> ModelState:
    blob = Path(path).read_bytes()
    if blob[:4] != _STATE_MAGIC:
        raise ValueError(f"{path}: not a model-state file (bad magic {blob[:4]!r})")
    spec_hash = blob[4:36].hex()
    (length,) = struct.unpack("<Q", blob[36:44])
    expected = 44 + 2 * 8 * length
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for {length} parameters, got {len(blob)}")
    params = np.frombuffer(blob, dtype="<f8", count=length, offset=44).astype(np.float64)
    momentum = np.frombuffer(blob, dtype="<f8", count=length, offset=44 + 8 * length).astype(np.float64)
    return ModelState(params, momentum, spec_hash)
