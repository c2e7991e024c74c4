"""Minimal neural-network engine for the federated simulator.

Dense / ReLU / valid-convolution / max-pool models over float64 NumPy
arrays, with exact analytic gradients for softmax cross-entropy, SGD with
momentum and weight decay, and finite-difference gradient verification.

All parameters of a model live in one flat vector (deterministic layer
order, weights before biases within a layer) so states can be averaged
elementwise, serialized and compared bit-for-bit. Models emit raw logits;
no softmax layer exists in the layer vocabulary. Every function here is a
deterministic map of its inputs: no global RNG, no hidden state.

The layers, the loss and SGD also run a stack of P models at once, for
training a round's clients in lockstep: the parameters are a (P, n) array,
and the activations hold the clients' rows one client after another, with
``offsets[p]:offsets[p + 1]`` the rows of client p. Every GEMM and parameter
gradient is computed per client on its own rows, with the shapes a single
model would use: OpenBLAS rounds a product's rows differently depending on
how many rows it has, so padding clients to a common row count would move
bits. Row-wise work (ReLU, pooling, the loss) and SGD run once for the whole
stack. A flat parameter vector with no offsets is the single-model case.
"""

from __future__ import annotations

import bisect
import functools
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
    """NaN or Inf met in inputs, activations, gradients or parameters.

    ``client`` is the stack position of the first client affected, or None
    for a single model."""

    def __init__(self, message: str, client: int | None = None):
        super().__init__(message)
        self.client = client


@functools.lru_cache(maxsize=4096)
def _row_slices(offsets: tuple[int, ...]) -> tuple[slice, ...]:
    return tuple(slice(offsets[p], offsets[p + 1]) for p in range(len(offsets) - 1))


def _clients(offsets, n_rows: int, *arrays) -> tuple:
    """Each client's row slice, then ``arrays`` as (P, ...) stacks: a single
    model (``offsets`` None) is a stack of one that owns all ``n_rows`` rows."""
    if offsets is None:
        return ((slice(0, n_rows),), *(a[None] for a in arrays))
    return (_row_slices(offsets), *arrays)


def _first_bad_row(values: np.ndarray) -> int:
    return int(np.argmin(np.isfinite(values.reshape(len(values), -1)).all(axis=1)))


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
        """Weight and bias views of a flat vector or of a (P, n) stack."""
        n = self.in_features * self.out_features
        w = params[..., :n].reshape(*params.shape[:-1], self.in_features, self.out_features)
        return w, params[..., n:]

    def forward(self, params: np.ndarray, x: np.ndarray, offsets=None, out=None) -> np.ndarray:
        """``x @ W + b``, written into ``out`` (allocated when None)."""
        slices, params = _clients(offsets, len(x), params)
        w, b = self._split(params)
        y = np.empty((len(x), self.out_features)) if out is None else out
        for p, rows in enumerate(slices):
            yp = y[rows]
            np.matmul(x[rows], w[p], out=yp)
            yp += b[p]
        return y

    def backward(self, params, x, grad_out, input_grad=True, out=None, offsets=None):
        """The parameter gradient, written into ``out`` (allocated when None),
        and the input gradient when asked for."""
        if out is None:
            out = np.empty(params.shape)
        slices, params, stack_out = _clients(offsets, len(x), params, out)
        w, _ = self._split(params)
        grad_w, grad_b = self._split(stack_out)
        grad_x = np.empty_like(x) if input_grad else None
        for p, rows in enumerate(slices):
            g = grad_out[rows]
            np.matmul(x[rows].T, g, out=grad_w[p])
            np.add.reduce(g, axis=0, out=grad_b[p])
            if input_grad:
                np.matmul(g, w[p].T, out=grad_x[rows])
        return out, grad_x

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

    def forward(self, params: np.ndarray, x: np.ndarray, offsets=None, out=None) -> np.ndarray:
        return np.maximum(x, 0.0, out=out)

    def backward(self, params, x, grad_out, input_grad=True, out=None, offsets=None):
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
        """Kernel and bias views of a flat vector or of a (P, n) stack."""
        n = self.out_channels * self.in_channels * self.kernel**2
        w = params[..., :n].reshape(*params.shape[:-1], self.out_channels, self.in_channels,
                                    self.kernel, self.kernel)
        return w, params[..., n:]

    def forward(self, params: np.ndarray, x: np.ndarray, offsets=None) -> np.ndarray:
        slices, params = _clients(offsets, len(x), params)
        w, b = self._split(params)
        k = self.kernel
        parts = [np.einsum("bchwij,ocij->bohw", sliding_window_view(x[rows], (k, k), axis=(2, 3)),
                           w[p], optimize=True) + b[p][None, :, None, None]
                 for p, rows in enumerate(slices)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def backward(self, params, x, grad_out, input_grad=True, out=None, offsets=None):
        """As Dense.backward."""
        if out is None:
            out = np.empty(params.shape)
        slices, params, stack_out = _clients(offsets, len(x), params, out)
        w, _ = self._split(params)
        grad_w, grad_b = self._split(stack_out)
        k = self.kernel
        parts = []
        for p, rows in enumerate(slices):
            win = sliding_window_view(x[rows], (k, k), axis=(2, 3))
            grad_w[p] = np.einsum("bchwij,bohw->ocij", win, grad_out[rows], optimize=True)
            np.add.reduce(grad_out[rows], axis=(0, 2, 3), out=grad_b[p])
            if input_grad:
                # full correlation of grad_out with the flipped kernel
                padded = np.pad(grad_out[rows], ((0, 0), (0, 0), (k - 1, k - 1), (k - 1, k - 1)))
                gwin = sliding_window_view(padded, (k, k), axis=(2, 3))
                parts.append(np.einsum("bohwij,ocij->bchw", gwin, w[p][:, :, ::-1, ::-1], optimize=True))
        grad_x = None
        if input_grad:
            grad_x = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return out, grad_x

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
        """The k*k strided (..., oh, ow) views over the last two axes, one per
        window offset, in row-major offset order."""
        k = self.kernel
        oh, ow = x.shape[-2] // k, x.shape[-1] // k
        return [x[..., i : oh * k : k, j : ow * k : k] for i in range(k) for j in range(k)]

    @staticmethod
    def _max(views: list[np.ndarray]) -> np.ndarray:
        out = views[0].copy()
        for view in views[1:]:
            np.maximum(out, view, out=out)
        return out

    def forward(self, params: np.ndarray, x: np.ndarray, offsets=None) -> np.ndarray:
        return self._max(self._views(x))

    def backward(self, params, x, grad_out, input_grad=True, out=None, offsets=None):
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

    def forward(self, params: np.ndarray, x: np.ndarray, offsets=None) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def backward(self, params, x, grad_out, input_grad=True, out=None, offsets=None):
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


def check_state(state: ModelState, spec: NetworkSpec) -> None:
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


class Workspace:
    """Buffers that forward-only passes reuse, for evaluating many states
    of one model on the same inputs.

    A fresh pass over a large batch allocates every activation anew, and the
    kernel faults its pages in each time. Through a workspace, each Dense
    layer writes into its own buffer and a ReLU works in place on an array
    the pass allocated, never on the caller's inputs or a view of them; conv
    and pooling layers allocate as usual. The logits of a pass live in a
    buffer until the next pass overwrites it. A workspace belongs to one
    thread.

    It also remembers the last read-only inputs it checked: their values
    cannot change, so check_inputs runs once for them, not at every pass."""

    def __init__(self):
        self._buffers: dict[int, np.ndarray] = {}
        self._checked: np.ndarray | None = None

    def buffer(self, layer: int, shape: Shape) -> np.ndarray:
        """Layer ``layer``'s output buffer, reallocated when its shape changes."""
        buf = self._buffers.get(layer)
        if buf is None or buf.shape != shape:
            buf = self._buffers[layer] = np.empty(shape)
        return buf

    def checked_inputs(self, spec: NetworkSpec, inputs: np.ndarray) -> np.ndarray:
        """check_inputs, skipped for the read-only array checked last."""
        if inputs is not self._checked or inputs.shape[1:] != spec.input_shape:
            inputs = check_inputs(spec, inputs)
            if not inputs.flags.writeable:
                self._checked = inputs
        return inputs


def _forward(spec: NetworkSpec, params: np.ndarray, x: np.ndarray, keep_caches: bool, offsets=None,
             workspace: Workspace | None = None):
    """Logits and, with ``keep_caches``, every layer's input. A ``workspace``
    serves single-model passes that keep no caches."""
    caches: list[np.ndarray] | None = [] if keep_caches else None
    h = x
    owned = False   # h was allocated by this pass: not x, nor a view of it
    for i, (layer, sl) in enumerate(zip(spec.layers, spec.param_slices)):
        if caches is not None:
            caches.append(h)
        if workspace is None:
            h = layer.forward(params[..., sl], h, offsets)
        elif isinstance(layer, Dense):
            h = layer.forward(params[..., sl], h, out=workspace.buffer(i, (len(h), layer.out_features)))
        elif isinstance(layer, Relu) and owned:
            h = layer.forward(params[..., sl], h, out=h)
        else:
            h = layer.forward(params[..., sl], h)
        # of all layers only Flatten returns a view of its input
        owned = owned or not isinstance(layer, Flatten)
        if not np.isfinite(h).all():
            client = None if offsets is None else bisect.bisect_right(offsets, _first_bad_row(h)) - 1
            raise NonFiniteError(f"non-finite values after layer {i} ({layer.name})", client)
    return h, caches


def check_inputs(spec: NetworkSpec, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[1:] != spec.input_shape:
        raise ShapeError(
            f"inputs have sample shape {inputs.shape[1:]}, spec wants {spec.input_shape}"
        )
    if not np.isfinite(inputs).all():
        raise NonFiniteError("non-finite values in network inputs")
    return inputs


def forward_logits(state: ModelState, spec: NetworkSpec, inputs: np.ndarray,
                   workspace: Workspace | None = None) -> np.ndarray:
    """Raw (batch, class_count) logits. No softmax is ever applied.

    Through a ``workspace`` the logits are bit-for-bit the same, but they
    live in one of its buffers, which the workspace's next pass overwrites."""
    check_state(state, spec)
    if workspace is None:
        inputs = check_inputs(spec, inputs)
    else:
        inputs = workspace.checked_inputs(spec, inputs)
    logits, _ = _forward(spec, state.params, inputs, keep_caches=False, workspace=workspace)
    return logits


def forward_with_caches(state: ModelState, spec: NetworkSpec, inputs: np.ndarray):
    """Logits plus per-layer input caches for a subsequent backward pass."""
    check_state(state, spec)
    inputs = check_inputs(spec, inputs)
    return _forward(spec, state.params, inputs, keep_caches=True)


def forward_stack(spec: NetworkSpec, params: np.ndarray, inputs: np.ndarray, offsets):
    """Logits and caches of a (P, n) stack of models, client p on the input
    rows ``offsets[p]:offsets[p + 1]``. The inputs are not checked here: the
    caller checks each client's data once, not at every step."""
    return _forward(spec, params, inputs, True, offsets)


def backward_from_logits(
    spec: NetworkSpec, params: np.ndarray, caches: list[np.ndarray], grad_logits: np.ndarray,
    out: np.ndarray | None = None, offsets=None,
) -> np.ndarray:
    """Backpropagate an arbitrary dLoss/dlogits to the parameter gradient of
    a flat vector, or of a (P, n) stack with its row ``offsets``. Each layer
    writes its part straight into ``out`` (allocated when None).

    Nothing reads the gradient with respect to the network inputs, so layer 0
    is not asked for it."""
    if out is None:
        # param_slices tile the vector, so every entry gets written
        out = np.empty_like(params)
    g = grad_logits
    for i in range(len(spec.layers) - 1, -1, -1):
        sl = spec.param_slices[i]
        _, g = spec.layers[i].backward(params[..., sl], caches[i], g, input_grad=i > 0,
                                       out=out[..., sl], offsets=offsets)
    return out


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


def segment_sums(values: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """Along the last axis, the sum of each run of ``counts[i]`` consecutive
    entries, each run reduced on its own exactly as np.sum reduces a vector.
    (np.add.reduceat adds in another order, and rounds differently.)"""
    # in C order the last axis is the inner loop of the reduction, which
    # numpy sums pairwise as it sums a vector; along another axis it adds
    # one entry after another
    values = np.ascontiguousarray(values)
    if len(counts) and min(counts) == max(counts) > 0:
        return np.add.reduce(values.reshape(*values.shape[:-1], len(counts), counts[0]), axis=-1)
    sums = np.empty((*values.shape[:-1], len(counts)))
    start = 0
    for i, c in enumerate(counts):
        sums[..., i] = np.add.reduce(values[..., start:start + c], axis=-1)
        start += c
    return sums


def ce_losses(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """Mean softmax CE of each client's batch: ``rows`` are the positions of
    the labelled rows of ``logits`` (..., N, C), client after client,
    counts[p] rows for client p. Leading axes (steps) are kept."""
    z = logits[..., rows, :]
    shifted = z - z.max(axis=-1, keepdims=True)
    log_total = np.log(np.add.reduce(np.exp(shifted), axis=-1))
    picked = np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0] - log_total
    return -(segment_sums(picked, counts) / counts)


def ce_grad(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray, divisor) -> np.ndarray:
    """The gradient of those means w.r.t. (N, C) logits. Each row is divided
    by its ``divisor`` entry, its client's batch size; rows outside ``rows``
    come back as softmax / divisor, for the caller to overwrite."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted, out=shifted)
    grad = exp / np.add.reduce(exp, axis=-1, keepdims=True)
    grad[rows, labels] -= 1.0
    grad /= divisor
    return grad


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax CE over the batch and its gradient w.r.t. the logits."""
    m = logits.shape[0]
    rows = np.arange(m)
    return float(ce_losses(logits, labels, rows, (m,))[0]), ce_grad(logits, labels, rows, m)


def per_sample_ce(state: ModelState, spec: NetworkSpec, inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Individual CE losses, used for hard / proficient sample mining."""
    logits = forward_logits(state, spec, inputs)
    n = len(logits)
    return ce_losses(logits, np.asarray(labels), np.arange(n), (1,) * n)


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


def proximal_loss_and_grad(params: np.ndarray, center: np.ndarray, mu: float):
    """FedProx's term (mu/2)*||params - center||^2 and its gradient, for a
    flat vector or per client of a (P, n) stack."""
    diff = params - center
    # a (1, n) @ (n, 1) product is the dot product a flat vector's diff @ diff takes
    loss = 0.5 * mu * np.matmul(diff[..., None, :], diff[..., None])[..., 0, 0]
    return (float(loss) if diff.ndim == 1 else loss), mu * diff


# sgd_update walks its arrays in blocks of this many entries, so that the
# five arrays of a block stay in cache
_SGD_BLOCK = 1 << 15


def sgd_update(params: np.ndarray, momentum: np.ndarray, grad: np.ndarray, lr: float,
               momentum_coef: float = 0.0, weight_decay: float = 0.0) -> None:
    """sgd_step in place, on a flat vector or a (P, n) stack: ``params`` and
    ``momentum`` take their new values, and ``grad`` is used up as scratch.
    The arrays must be C-contiguous. The finiteness checks run block by
    block, so a NonFiniteError leaves the arrays partly updated.

    IEEE addition and multiplication commute, so this rounds exactly as the
    formula in sgd_step's docstring. No shortcut for momentum_coef == 0: the
    formula's 0*m + x turns x = -0.0 into 0.0, and the momentum buffer is
    saved with the state."""
    if lr <= 0:
        raise ValueError("learning rate must be > 0")
    if not all(a.flags.c_contiguous for a in (params, momentum, grad)):
        raise ValueError("sgd_update works in place on C-contiguous arrays")
    width = params.shape[-1] if params.ndim == 2 else None
    flat = params.reshape(-1), momentum.reshape(-1), grad.reshape(-1)
    scratch = np.empty(min(_SGD_BLOCK, params.size))
    for lo in range(0, params.size, _SGD_BLOCK):
        w, m, g = (a[lo:lo + _SGD_BLOCK] for a in flat)
        if not np.isfinite(g).all():
            raise NonFiniteError("non-finite entries in gradient", _bad_client(g, lo, width))
        decay = scratch[:len(w)]
        np.multiply(w, weight_decay, out=decay)
        g += decay                              # grad + wd*params
        m *= momentum_coef
        np.add(g, m, out=m)                     # the velocity
        np.multiply(m, lr, out=g)               # the step
        w -= g
        if not np.isfinite(w).all():
            raise NonFiniteError("parameters became non-finite after SGD step", _bad_client(w, lo, width))


def _bad_client(block: np.ndarray, lo: int, width: int | None) -> int | None:
    """The stack row of a block's first non-finite entry: the block starts
    at flat index ``lo`` of a (P, width) stack; a flat vector has no rows."""
    return None if width is None else (lo + _first_bad_row(block)) // width


def sgd_step(
    state: ModelState,
    grad: np.ndarray,
    lr: float,
    momentum_coef: float = 0.0,
    weight_decay: float = 0.0,
) -> ModelState:
    """v <- momentum*v + (grad + wd*params); params <- params - lr*v."""
    if grad.shape != state.params.shape:
        raise ShapeError(f"gradient length {grad.size} != parameter length {state.params.size}")
    params, momentum = state.params.copy(), state.momentum.copy()
    sgd_update(params, momentum, np.array(grad, dtype=np.float64), lr, momentum_coef, weight_decay)
    return ModelState(params, momentum, state.spec_hash)


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------


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
            blocks = np.stack(layer._views(cache), axis=-1)
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
    if len(blob) < 44:
        raise ValueError(f"{path}: {len(blob)} bytes, shorter than the 44-byte header")
    spec_hash = blob[4:36].hex()
    (length,) = struct.unpack("<Q", blob[36:44])
    expected = 44 + 2 * 8 * length
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for {length} parameters, got {len(blob)}")
    params = np.frombuffer(blob, dtype="<f8", count=length, offset=44).astype(np.float64)
    momentum = np.frombuffer(blob, dtype="<f8", count=length, offset=44 + 8 * length).astype(np.float64)
    return ModelState(params, momentum, spec_hash)
