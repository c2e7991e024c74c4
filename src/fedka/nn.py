"""Minimal neural-network engine for the federated simulator.

Dense / ReLU / valid-convolution / max-pool models over float64 NumPy
arrays, with exact analytic gradients for softmax cross-entropy, and SGD
with momentum and weight decay.

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
Every forward pass, of one model or of a stack, for training or for
evaluation, is a call of forward; forward_logits, forward_copies and
forward_with_caches only check a state and its inputs before it.

A convolution is an explicit GEMM over an im2col column matrix
(Chellapilla et al. 2006), and its input gradient a GEMM followed by col2im.
The forward pass builds its column matrix in chunks of rows that fit
COLUMN_BUDGET, and a forward-only pass, of one model or of a stack, runs the
layers before Flatten in such chunks of each client's rows too
(NetworkSpec.conv_stage), so that its memory does not grow with the rows it
evaluates. The column matrices, and the activations and input gradients a
pass makes, can live in a Workspace, which a caller keeps from pass to pass.
A ReLU works in place, forward on an array the pass wrote, backward always:
its input gradient is its output gradient, written over.

How many threads a job gets follows from its multiply-adds (thread_count):
a unit of work below THREAD_MACS runs on the calling thread, since starting
a thread and handing it the GIL costs more than such a unit saves.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import math
import mmap
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

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


# a round's layouts, a few dozen, stay cached; each entry holds an index a row
@functools.lru_cache(maxsize=256)
def _row_clients(offsets: tuple[int, ...]) -> np.ndarray:
    """The stack row of the client that owns each row."""
    clients = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    clients.flags.writeable = False
    return clients


def _clients(offsets, n_rows: int, *arrays) -> tuple:
    """Each client's row slice, then ``arrays`` as (P, ...) stacks: a single
    model (``offsets`` None) is a stack of one that owns all ``n_rows`` rows."""
    if offsets is None:
        return ((slice(0, n_rows),), *(a[None] for a in arrays))
    return (_row_slices(offsets), *arrays)


def _order(x: np.ndarray) -> list[int] | None:
    """x's axes in the order they lie in memory, outermost first; None for
    C order."""
    if x.flags.c_contiguous:
        return None
    return sorted(range(x.ndim), key=lambda a: -x.strides[a])


def _layout(memory: np.ndarray | None, shape: Shape, order: Sequence[int] | None = None) -> np.ndarray:
    """An uninitialised array of ``shape`` whose axes lie in memory in
    ``order`` (C order when None), over the first entries of the flat
    ``memory``, or a new one when that is None. The layout matters beyond
    speed: numpy sums a reduction in memory order."""
    if order is None:
        return np.empty(shape) if memory is None else memory[:math.prod(shape)].reshape(shape)
    stored = tuple(shape[a] for a in order)
    return _layout(memory, stored).transpose(np.argsort(order))


def _mapped(size: int) -> np.ndarray:
    """``size`` float64 entries in pages of their own, outside the malloc
    heaps, given back to the system when the array goes: glibc keeps what a
    thread frees in that thread's heap, and memory kept for a run pins the
    heap around it."""
    return np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)))[:size]


# a unit of work (a forward pass over some rows) of this many multiply-adds
# or more is worth a thread of its own
THREAD_MACS = 1 << 22

# a forward pass's im2col column matrix holds at most this many entries
# (2 MiB) at a time, unless one row needs more (Conv2d.chunk_rows)
COLUMN_BUDGET = 1 << 18


def thread_count(macs: int, units: int) -> int:
    """Threads for ``units`` units of work of ``macs`` multiply-adds each: one
    per unit up to the usable cores from THREAD_MACS on, else one."""
    if macs < THREAD_MACS:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cores, units))


def on_lanes(workspace: Workspace, k: int, units: int, work: Callable[[int, Workspace], object]) -> list:
    """``work(u, lane)`` for every unit u < ``units`` on k threads, the
    results in unit order. Thread t runs units t, t + k, ... in order
    through lane t of the ``workspace`` (Workspace.lanes), so no thread
    waits for another; the calling thread is thread 0, and with k = 1 no
    other thread starts. The others are gone when this returns. A thread
    stops at its first failure, and the failure of the earliest unit is
    raised, as a single thread would meet it first."""
    lanes, results, failures = workspace.lanes(k), [None] * units, []

    def run(t: int) -> None:
        for u in range(t, units, k):
            try:
                results[u] = work(u, lanes[t])
            except Exception as exc:
                failures.append((u, exc))
                return

    if k == 1:
        run(0)
    else:
        with ThreadPoolExecutor(max_workers=k - 1) as pool:
            others = [pool.submit(run, t) for t in range(1, k)]
            run(0)
        for future in others:
            future.result()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _first_bad_row(values: np.ndarray) -> int:
    return int(np.argmin(np.isfinite(values.reshape(len(values), -1)).all(axis=1)))


def _bad_stack_row(values: np.ndarray, offsets) -> int | None:
    """The stack row that owns the first row of ``values`` holding a
    non-finite value; None without ``offsets`` (a single model)."""
    return None if offsets is None else bisect.bisect_right(offsets, _first_bad_row(values)) - 1


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

    def forward(self, params: np.ndarray, x: np.ndarray, offsets=None, out=None) -> np.ndarray:
        """``x @ W + b``, written into ``out`` (allocated when None): in a
        stack, each client's product on its own rows, then every row's bias
        in one add."""
        n = self.in_features * self.out_features
        y = np.empty((len(x), self.out_features)) if out is None else out
        if offsets is None:
            np.matmul(x, params[:n].reshape(self.in_features, self.out_features), out=y)
            y += params[n:]
            return y
        w = params[:, :n].reshape(len(params), self.in_features, self.out_features)
        for p, rows in enumerate(_row_slices(offsets)):
            np.matmul(x[rows], w[p], out=y[rows])
        y += params[:, n:].take(_row_clients(offsets), axis=0)
        return y

    def backward(self, params, x, grad_out, input_grad=True, out=None, offsets=None, grad_into=None):
        """The parameter gradient, written into ``out`` (allocated when None),
        and the input gradient when asked for, laid out over ``grad_into``
        (see _layout). Every layer's backward takes these arguments."""
        if out is None:
            out = np.empty(params.shape)
        grad_x = _layout(grad_into, x.shape, _order(x)) if input_grad else None
        slices, params, stack_out = _clients(offsets, len(x), params, out)
        n, shape = self.in_features * self.out_features, (len(params), self.in_features, self.out_features)
        w, grad_w, grad_b = params[:, :n].reshape(shape), stack_out[:, :n].reshape(shape), stack_out[:, n:]
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

    def backward(self, params, x, grad_out, input_grad=True, out=None, offsets=None, grad_into=None):
        """The input gradient ``grad_out * (x > 0)``, written over
        ``grad_out``, which is returned. ``x`` may be the layer's input or
        its output: both are > 0 at the same entries."""
        if not input_grad:
            return None, None
        # subgradient at 0 is fixed to 0
        return None, np.multiply(grad_out, x > 0.0, out=grad_out)

    def to_json(self) -> dict:
        return {"type": "relu"}


@dataclass(frozen=True)
class Conv2d:
    """Valid (unpadded) stride-1 cross-correlation on (batch, C, H, W), as
    explicit GEMMs over im2col column matrices.

    The forward pass returns a (batch, O, oh, ow) view of a channel-major
    (O, batch, oh, ow) array, and takes its output gradient in the same
    layout without a copy. Column matrices and the input gradient come from
    a ``workspace`` (see Workspace) or, without one, from
    allocations of their own."""

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

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """The (batch, C, oh, ow, k, k) view of x's sliding windows."""
        return sliding_window_view(x, (self.kernel, self.kernel), axis=(2, 3))

    def chunk_rows(self, hw: int) -> int:
        """Rows of one chunk of the forward pass's column matrix, over
        outputs of ``hw`` = oh*ow positions: the largest power of two whose
        C*k*k*hw-entry rows fit COLUMN_BUDGET, and at least one. Powers of
        two make the chunks of any two conv layers divide one another."""
        fitting = max(COLUMN_BUDGET // (self.in_channels * self.kernel**2 * hw), 1)
        return 1 << (fitting.bit_length() - 1)

    def forward(self, params: np.ndarray, x: np.ndarray, offsets=None, workspace=None,
                out=None) -> np.ndarray:
        """Per client, ``W @ cols`` into its own columns of the output, over
        a (C*k*k, rows*oh*ow) column matrix built chunk_rows rows at a time,
        counted from the client's first row: so a client's outputs never
        depend on the clients beside it. A chunk's product has fewer
        columns than the whole one. At t_cnn's 1x28x28, k=5 shapes the
        split products are bit-for-bit the whole product (einsum's); at
        other shapes they can differ from it in the last bit. ``out``, when
        given, is a channel-major (batch, O, oh, ow) array, as this
        returns."""
        slices, params = _clients(offsets, len(x), params)
        w, b = self._split(params)
        n, c, h, wd = x.shape
        k, o = self.kernel, self.out_channels
        oh, ow = h - k + 1, wd - k + 1
        hw, ckk = oh * ow, c * k * k
        chunk = self.chunk_rows(hw)
        size = ckk * min(chunk, max(rows.stop - rows.start for rows in slices)) * hw
        memory = np.empty(size) if workspace is None else workspace.take(size)
        if out is None:
            out = _layout(None, (n, o, oh, ow), (1, 0, 2, 3))
        y = out.transpose(1, 0, 2, 3).reshape(o, n * hw)
        windows = self._windows(x)
        for p, rows in enumerate(slices):
            wp = w[p].reshape(o, ckk)
            for lo in range(rows.start, rows.stop, chunk):
                m = min(chunk, rows.stop - lo)
                cols = memory[:ckk * m * hw].reshape(ckk, m * hw)
                cols.reshape(c, k, k, m, oh, ow)[...] = windows[lo:lo + m].transpose(1, 4, 5, 0, 2, 3)
                yp = y[:, lo * hw:(lo + m) * hw]
                np.matmul(wp, cols, out=yp)
                yp += b[p][:, None]
        if workspace is not None:
            workspace.give_back(memory)
        return out

    def backward(self, params, x, grad_out, input_grad=True, out=None, offsets=None,
                 grad_into=None, workspace=None):
        """As Dense.backward. Per client, the weight gradient is
        ``grad_out (O, rows*oh*ow) @ cols (rows*oh*ow, C*k*k)``, bit-for-bit
        einsum's, and the input gradient is col2im: ``W.T @ grad_out`` into
        a column matrix, then k*k shifted adds into the input's shape. That
        sums in another order than the full correlation of grad_out with
        the flipped kernel, so it differs from it in rounding. The two column
        matrices take turns in one buffer, taken from the ``workspace``."""
        if out is None:
            out = np.empty(params.shape)
        slices, params, stack_out = _clients(offsets, len(x), params, out)
        w, _ = self._split(params)
        grad_w, grad_b = self._split(stack_out)
        n, c, h, wd = x.shape
        k, o = self.kernel, self.out_channels
        oh, ow = h - k + 1, wd - k + 1
        hw, ckk = oh * ow, c * k * k
        # (O, rows*oh*ow); a view when grad_out is channel-major, as forward returns it
        go = grad_out.transpose(1, 0, 2, 3).reshape(o, n * hw)
        most = max(rows.stop - rows.start for rows in slices)
        grad_x = None
        if input_grad:
            grad_x = _layout(grad_into, (c, n, h, wd))
            grad_x.fill(0.0)
        scratch = np.empty(most * hw * ckk) if workspace is None else workspace.take(most * hw * ckk)
        for p, rows in enumerate(slices):
            m = rows.stop - rows.start
            g = go[:, rows.start * hw:rows.stop * hw]
            cols = scratch[:m * hw * ckk].reshape(m * hw, ckk)
            cols.reshape(m, oh, ow, c, k, k)[...] = self._windows(x[rows]).transpose(0, 2, 3, 1, 4, 5)
            np.matmul(g, cols, out=grad_w[p].reshape(o, ckk))
            np.add.reduce(grad_out[rows], axis=(0, 2, 3), out=grad_b[p])
            if input_grad:
                dcols = scratch[:ckk * m * hw].reshape(ckk, m * hw)
                np.matmul(w[p].reshape(o, ckk).T, g, out=dcols)
                dcols = dcols.reshape(c, k, k, m, oh, ow)
                gx = grad_x[:, rows]
                for i in range(k):
                    for j in range(k):
                        gx[:, :, i:i + oh, j:j + ow] += dcols[:, i, j]
        if workspace is not None:
            workspace.give_back(scratch)
        return out, None if grad_x is None else grad_x.transpose(1, 0, 2, 3)

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
    def _max(views: list[np.ndarray], out=None) -> np.ndarray:
        """The window maxima, written into ``out`` (a C-order array,
        allocated when None)."""
        if out is None:
            out = np.empty(views[0].shape)
        out[...] = views[0]
        for view in views[1:]:
            np.maximum(out, view, out=out)
        return out

    def forward(self, params: np.ndarray, x: np.ndarray, offsets=None, out=None) -> np.ndarray:
        return self._max(self._views(x), out)

    def backward(self, params, x, grad_out, input_grad=True, out=None, offsets=None,
                 grad_into=None, best=None):
        """The input gradient; ``best`` is the forward pass's output, the
        window maxima, recomputed when not given."""
        if not input_grad:
            return None, None
        views = self._views(x)
        if best is None:
            best = self._max(views)
        # the loop below writes every cell of a full window: zero only the
        # ragged rows and columns beyond the last one
        grad_x = _layout(grad_into, x.shape, _order(x))
        k = self.kernel
        grad_x[..., best.shape[-2] * k:, :] = 0.0
        grad_x[..., best.shape[-1] * k:] = 0.0
        # walk the offsets in row-major order: the first one holding the
        # window's maximum takes its gradient, so a tie goes to the first
        unclaimed = np.ones(best.shape, dtype=bool)
        for view, grad_view in zip(views, self._views(grad_x)):
            wins = view == best
            wins &= unclaimed
            unclaimed ^= wins
            grad_view[...] = 0.0
            np.copyto(grad_view, grad_out, where=wins)
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

    def forward(self, params: np.ndarray, x: np.ndarray, offsets=None, out=None) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def backward(self, params, x, grad_out, input_grad=True, out=None, offsets=None, grad_into=None):
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
        if self.layer_shapes[-1] != (self.class_count,):
            raise ShapeError(
                f"final layer emits shape {self.layer_shapes[-1]}, expected ({self.class_count},) logits"
            )

    @cached_property
    def layer_shapes(self) -> tuple[Shape, ...]:
        """Input shape of every layer, plus the final output shape; a
        ShapeError names the layer that breaks the chain."""
        shapes = [self.input_shape]
        for i, layer in enumerate(self.layers):
            try:
                shapes.append(layer.output_shape(shapes[-1]))
            except ShapeError as exc:
                raise ShapeError(f"layer {i}: {exc}") from None
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
    def macs_per_row(self) -> int:
        """Multiply-adds of one row's forward pass: in * out per Dense layer,
        C * k * k * O * oh * ow per Conv2d layer."""
        return sum(layer.in_features * layer.out_features if isinstance(layer, Dense)
                   else layer.in_channels * layer.kernel**2 * math.prod(shape)
                   for layer, shape in zip(self.layers, self.layer_shapes[1:])
                   if isinstance(layer, (Dense, Conv2d)))

    @cached_property
    def gradient_areas(self) -> tuple[int, int]:
        """Entries per row of the two areas a backward pass's input gradients
        take turns in: layer by layer from the last, each Dense, Conv2d and
        MaxPool layer but layer 0 (whose input gradient nothing reads)
        writes into the one its output gradient is not in. Flatten's input
        gradient is a view of its output's, and a ReLU's is its output's,
        written over."""
        widths, turn = [0, 0], 0
        for layer, shape in zip(self.layers[:0:-1], self.layer_shapes[-2:0:-1]):
            if isinstance(layer, (Dense, Conv2d, MaxPool)):
                widths[turn] = max(widths[turn], math.prod(shape))
                turn ^= 1
        return widths[0], widths[1]

    @cached_property
    def conv_stage(self) -> tuple[int, int]:
        """How a forward-only pass runs in row chunks of each client: the
        number of layers before the first Flatten, and the rows of a chunk,
        the largest of their conv layers' Conv2d.chunk_rows, which every
        other one divides. (0, 0) for a spec without conv layers, whose
        layers before Flatten, if any, are cheap and narrow."""
        if not any(isinstance(layer, Conv2d) for layer in self.layers):
            return 0, 0
        stage = next(i for i, layer in enumerate(self.layers) if isinstance(layer, Flatten))
        return stage, max(layer.chunk_rows(math.prod(shape[1:]))
                          for layer, shape in zip(self.layers[:stage], self.layer_shapes[1:])
                          if isinstance(layer, Conv2d))

    @cached_property
    def _workspace_row(self) -> int:
        # every output but Flatten's (a view), the two gradient areas and the
        # largest im2col column matrix, whole, as a client's kernel gradient
        # takes it
        outputs = sum(math.prod(shape) for layer, shape in zip(self.layers, self.layer_shapes[1:])
                      if not isinstance(layer, Flatten))
        columns = max((layer.in_channels * layer.kernel**2 * math.prod(shape[1:])
                       for layer, shape in zip(self.layers, self.layer_shapes[1:])
                       if isinstance(layer, Conv2d)), default=0)
        return outputs + sum(self.gradient_areas) + columns

    def workspace_size(self, rows: int) -> int:
        """Entries a forward pass over ``rows`` rows and the backward pass
        after it can take from a Workspace at most: every layer's output,
        the two gradient areas and one column matrix, each rounded up to a
        64-byte line. A forward-only pass, of one model or of a stack, takes
        less: the stage before Flatten's output over all rows (no wider than
        a gradient area), every other output only for one chunk of one
        client's rows, and column matrices of at most COLUMN_BUDGET entries,
        unless one row needs more."""
        return rows * self._workspace_row + 8 * (len(self.layers) + 2)

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
    """Flat parameter vector bound to a spec; local stages start from zeroed momentum."""

    params: np.ndarray
    spec_hash: str


def init_state(spec: NetworkSpec, rng: np.random.Generator) -> ModelState:
    """Uniform +-sqrt(6/(fan_in+fan_out)) per parameterized layer."""
    params = np.zeros(spec.param_count, dtype=np.float64)
    for layer, sl in zip(spec.layers, spec.param_slices):
        if layer.param_count() == 0:
            continue
        fan_in, fan_out = layer.fans()
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        params[sl] = rng.uniform(-bound, bound, size=layer.param_count())
    return ModelState(params, spec.spec_hash)


def check_state(state: ModelState, spec: NetworkSpec) -> ModelState:
    """The state, checked to be one of ``spec``'s."""
    if state.spec_hash != spec.spec_hash:
        raise ShapeError(
            f"model state was built for spec {state.spec_hash[:12]}..., "
            f"not {spec.spec_hash[:12]}..."
        )
    if state.params.shape != (spec.param_count,):
        raise ShapeError(
            f"state holds {state.params.size} parameters, spec wants {spec.param_count}"
        )
    return state


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


class Workspace:
    """Memory that passes reuse, for evaluating many states of one model on
    the same inputs and for training one stack of models step after step.

    A fresh pass allocates every activation anew, and the kernel faults its
    pages in each time. Through a workspace, a pass takes its arrays one
    after another from one region of memory: every layer's output, the conv
    layers' im2col column matrices (given back once the layer is done with
    them), and in a backward pass two areas that the input gradients of the
    Dense, Conv2d and MaxPool layers take turns in. A forward-only pass, of
    one model or of a stack, takes the outputs of the layers before Flatten
    for one chunk of one client's rows, and every chunk takes the same
    memory again (NetworkSpec.conv_stage); the chunks' last outputs are
    copied into one array over all rows. A forward pass starts again at the
    start of the region, and a backward pass goes on after the arrays of the
    forward pass before it.
    The region is mapped outside the malloc heaps, and the kernel maps its
    pages in as a pass first touches them. It only grows: a forward pass
    that could take more than the region holds (NetworkSpec.workspace_size)
    maps one of that size before it takes anything. So a thread holds the
    memory of its largest pass, be it training or evaluation, and faults
    each page in once. Two exceptions: the Dense layers of a pass that keeps
    caches allocate their outputs, so that the logits a caller keeps are
    arrays of their own, and ReLUs work in place, forward on arrays the pass
    wrote (a backward pass tells where they were positive from their
    outputs) and backward on their output gradients. What a pass leaves in
    the region lives until the next forward pass.

    A workspace serves one pass at a time. Threads run passes at once
    through its lanes (Workspace.lanes), each with a region of its own."""

    def __init__(self):
        self._memory = np.empty(0)
        self._used = 0      # entries taken since the forward pass started
        self._lanes: list[Workspace] = []
        self._stacks = np.empty(0)

    def stacks(self, rows: int, n: int) -> np.ndarray:
        """A (3, rows, n) array for a training round's parameter, momentum and
        gradient stacks, in a region of its own kept from call to call: stacks
        freed at a round's end leave the malloc heap's top free, glibc trims
        it, and each round would fault them in again. Training writes only
        the momentum rows of the clients that take a second step, so the
        pages of the other momentum rows are not faulted in by it."""
        if self._stacks.size < 3 * rows * n:
            self._stacks = _mapped(3 * rows * n)
        return self._stacks[:3 * rows * n].reshape(3, rows, n)

    def restart(self, size: int) -> None:
        """Start a forward pass that takes at most ``size`` entries: what
        earlier passes took may be overwritten."""
        self._used = 0
        if self._memory.size < size:
            # the arrays of earlier passes keep the old region until they go
            self._memory = _mapped(size)

    def take(self, size: int) -> np.ndarray:
        """The next ``size`` entries of the region."""
        start = self._used
        # whole 64-byte lines, so that every array starts on one
        self._used += -(-size // 8) * 8
        return self._memory[start:start + size]

    def give_back(self, memory: np.ndarray) -> None:
        """Give back the last ``take``, to be taken again."""
        self._used -= -(-memory.size // 8) * 8

    def lanes(self, count: int) -> list[Workspace]:
        """This workspace and ``count - 1`` others, kept from call to call:
        thread t of a job on ``count`` threads works through lane t."""
        while len(self._lanes) < count - 1:
            self._lanes.append(Workspace())
        return [self, *self._lanes[:count - 1]]


def forward(spec: NetworkSpec, params: np.ndarray, x: np.ndarray, keep_caches: bool = False, offsets=None,
            workspace: Workspace | None = None):
    """Logits and, with ``keep_caches``, every layer's input (a ReLU's
    output instead, when it works in place), for a backward pass. ``params``
    is a flat vector, or a (P, n) stack with client p on the rows
    ``offsets[p]:offsets[p + 1]``. The inputs are not checked here
    (check_inputs): a caller checks its data once, not at every pass.

    With a ``workspace``, the layers write their outputs into its region
    (see Workspace), where they live until its next forward pass. A pass
    that keeps no caches runs the layers before Flatten client by client,
    in chunks of rows counted from the client's first row
    (NetworkSpec.conv_stage), each chunk a pass of that client's model
    alone; the dense layers run on all rows at once, as a product split by
    rows rounds differently."""
    caches: list[np.ndarray] | None = [] if keep_caches else None
    if workspace is not None:
        workspace.restart(spec.workspace_size(len(x)))
    stage, chunk = spec.conv_stage if caches is None else (0, 0)
    if stage:
        shape = (len(x), *spec.layer_shapes[stage])
        staged = _layout(None if workspace is None else workspace.take(math.prod(shape)), shape)
        used = None if workspace is None else workspace._used
        slices, stack = _clients(offsets, len(x), params)
        for p, rows in enumerate(slices):
            for lo in range(rows.start, rows.stop, chunk):
                hi = min(lo + chunk, rows.stop)
                try:
                    staged[lo:hi] = _layers(spec, stack[p], x[lo:hi], range(stage), None, None, workspace)
                except NonFiniteError as exc:
                    exc.client = None if offsets is None else p
                    raise
                if workspace is not None:
                    # the next chunk takes the same memory
                    workspace._used = used
        x = staged
    logits = _layers(spec, params, x, range(stage, len(spec.layers)), caches, offsets, workspace,
                     owned=stage > 0)
    return logits, caches


def _layers(spec: NetworkSpec, params: np.ndarray, h: np.ndarray, layers: range, caches, offsets,
            workspace: Workspace | None, owned: bool = False) -> np.ndarray:
    """``layers`` of the spec, in order, from their input ``h``, as forward
    runs them. With a ``workspace``, every output but Flatten's view goes
    into its region, a ReLU's over its input when the pass wrote that, and
    a Dense output only in a pass that keeps no ``caches``: a training
    pass's logits are kept past the next pass. ``owned``: h was written by
    this pass, not x nor a view of it."""
    for i in layers:
        layer, sl = spec.layers[i], spec.param_slices[i]
        if caches is not None:
            caches.append(h)
        out = None
        if workspace is None or isinstance(layer, Flatten) or (isinstance(layer, Dense) and caches is not None):
            pass
        elif isinstance(layer, Relu) and owned:
            out = h
        else:
            # a conv layer's output is channel-major (see Conv2d)
            order = (1, 0, 2, 3) if isinstance(layer, Conv2d) else _order(h) if isinstance(layer, Relu) else None
            shape = (len(h), *spec.layer_shapes[i + 1])
            out = _layout(workspace.take(math.prod(shape)), shape, order)
        if isinstance(layer, Conv2d):
            h = layer.forward(params[..., sl], h, offsets, workspace, out)
        else:
            h = layer.forward(params[..., sl], h, offsets, out=out)
        # of all layers only Flatten returns a view of its input
        owned = owned or not isinstance(layer, Flatten)
        # ReLU, pooling and Flatten cannot turn finite values non-finite
        if isinstance(layer, (Dense, Conv2d)) and not np.isfinite(h).all():
            raise NonFiniteError(f"non-finite values after layer {i} ({layer.name})",
                                 _bad_stack_row(h, offsets))
    return h


def check_inputs(spec: NetworkSpec, inputs: np.ndarray, offsets=None) -> np.ndarray:
    """The inputs as float64, checked for the spec's sample shape and for
    finiteness; with ``offsets``, a NonFiniteError names the stack row of the
    first client whose rows hold a non-finite value."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[1:] != spec.input_shape:
        raise ShapeError(
            f"inputs have sample shape {inputs.shape[1:]}, spec wants {spec.input_shape}"
        )
    if not np.isfinite(inputs).all():
        raise NonFiniteError("non-finite values in network inputs", _bad_stack_row(inputs, offsets))
    return inputs


def forward_logits(state: ModelState, spec: NetworkSpec, inputs: np.ndarray) -> np.ndarray:
    """Raw (batch, class_count) logits, in arrays of their own: the inputs
    are checked and every activation is allocated. No softmax is ever
    applied."""
    return forward(spec, check_state(state, spec).params, check_inputs(spec, inputs))[0]


def forward_copies(state: ModelState, spec: NetworkSpec, inputs: np.ndarray, offsets) -> np.ndarray:
    """The logits of the checked ``inputs`` under copies of one model, the
    rows ``offsets[i]:offsets[i + 1]`` through copy i (a stack pass, see
    forward): so each run of rows gets bit for bit the logits of
    forward_logits over that run alone, and the conv stage runs in chunks
    of rows, as there, whatever the number of rows."""
    params = np.broadcast_to(check_state(state, spec).params, (len(offsets) - 1, spec.param_count))
    return forward(spec, params, check_inputs(spec, inputs, offsets), False, tuple(offsets))[0]


def forward_with_caches(state: ModelState, spec: NetworkSpec, inputs: np.ndarray):
    """Logits plus per-layer input caches for a subsequent backward pass."""
    return forward(spec, check_state(state, spec).params, check_inputs(spec, inputs), True)


# input gradients of fewer entries than this are allocated, not taken from a
# workspace: malloc hands out blocks this small from memory it keeps, for
# less than the workspace's bookkeeping costs
_SMALL_GRADIENTS = 1 << 14


def backward_from_logits(
    spec: NetworkSpec, params: np.ndarray, caches: list[np.ndarray], grad_logits: np.ndarray,
    out: np.ndarray | None = None, offsets=None, workspace: Workspace | None = None,
) -> np.ndarray:
    """Backpropagate an arbitrary dLoss/dlogits to the parameter gradient of
    a flat vector, or of a (P, n) stack with its row ``offsets``. Each layer
    writes its part straight into ``out`` (allocated when None). The input
    gradients of the Dense, Conv2d and MaxPool layers (unless they are
    small) and the conv column matrices are taken from the ``workspace``,
    after the arrays of the forward pass that made the ``caches``, and given
    back at the end. A ReLU writes its input gradient over its output
    gradient, so a spec that ends in a ReLU (no built spec does) has its
    ``grad_logits`` overwritten.

    Nothing reads the gradient with respect to the network inputs, so layer 0
    is not asked for it."""
    if out is None:
        # param_slices tile the vector, so every entry gets written
        out = np.empty_like(params)
    n, (first, second) = len(grad_logits), spec.gradient_areas
    areas: list = [None, None]
    memory = None
    if workspace is not None and n * (first + second) >= _SMALL_GRADIENTS:
        split = -(-n * first // 8) * 8     # the second area starts on a 64-byte line too
        memory = workspace.take(split + n * second)
        areas = [memory[:split], memory[split:]]
    g = grad_logits
    turn = 0
    for i in range(len(spec.layers) - 1, -1, -1):
        layer, sl = spec.layers[i], spec.param_slices[i]
        where = {}
        if isinstance(layer, Conv2d):
            where = {"workspace": workspace}
        elif isinstance(layer, MaxPool):
            # no pooling layer ends a net, so the next layer's input is its output
            where = {"best": caches[i + 1]}
        _, g = layer.backward(params[..., sl], caches[i], g, input_grad=i > 0, out=out[..., sl],
                              offsets=offsets, grad_into=areas[turn], **where)
        if isinstance(layer, (Dense, Conv2d, MaxPool)):
            turn ^= 1
    if memory is not None:
        workspace.give_back(memory)
    return out


# ---------------------------------------------------------------------------
# Loss and optimizer
# ---------------------------------------------------------------------------


def segment_sums(values: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """The sum of each run of ``counts[i]`` consecutive entries of the vector
    ``values``, each run reduced on its own exactly as np.sum reduces a
    vector. (np.add.reduceat adds in another order, and rounds differently.)
    The runs of one length are gathered into the rows of one matrix and
    reduced in one call."""
    # in C order the last axis is the inner loop of the reduction, which
    # numpy sums pairwise as it sums a vector; along another axis it adds
    # one entry after another
    counts = np.asarray(counts, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    sums = np.empty(len(counts))
    # (a set, not np.unique: that imports numpy.ma, 1.6 MB, on its first call)
    for c in set(counts.tolist()):
        runs = np.flatnonzero(counts == c)
        sums[runs] = np.add.reduce(values[starts[runs, None] + np.arange(c)], axis=-1)
    return sums


def _row_max(x: np.ndarray) -> np.ndarray:
    """The (N, 1) maxima of the rows of the (N, C) ``x``, taken column by
    column: numpy's max along a short last axis costs about 60 ns a row
    (numpy 2.4, x86-64). A maximum is exact, so this is the value a
    reduction gives, up to the sign of a tie of zeros, which the softmax
    cannot see: x - max is a zero of either sign at the tied entries, exp
    gives 1 for both, and the log of the row's exp sum is then at least
    log 2, so subtracting it from either zero gives the same."""
    best = x[:, 0]
    for j in range(1, x.shape[1]):
        best = np.maximum(best, x[:, j])
    return best[:, None]


def ce_losses(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """Mean softmax CE of each client's batch: ``rows`` are the positions of
    the labelled rows of the (N, C) ``logits``, client after client,
    counts[p] rows for client p."""
    z = logits[rows]
    shifted = z - _row_max(z)
    log_total = np.log(np.add.reduce(np.exp(shifted), axis=-1))
    picked = np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0] - log_total
    return -(segment_sums(picked, counts) / counts)


def ce_grad(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray, divisor) -> np.ndarray:
    """The gradient of those means w.r.t. (N, C) logits. Each row is divided
    by its ``divisor`` entry, its client's batch size; rows outside ``rows``
    come back as softmax / divisor, for the caller to overwrite."""
    shifted = logits - _row_max(logits)
    exp = np.exp(shifted, out=shifted)
    grad = exp / np.add.reduce(exp, axis=-1, keepdims=True)
    grad[rows, labels] -= 1.0
    grad /= divisor
    return grad


def per_sample_ce(state: ModelState, spec: NetworkSpec, inputs: np.ndarray, labels: np.ndarray,
                  offsets: Sequence[int] | None = None) -> np.ndarray:
    """Individual CE losses, used for hard / proficient sample mining. With
    ``offsets``, the rows ``offsets[i]:offsets[i + 1]`` go through the model
    as a stack of copies of it (forward_copies), so each run of rows scores
    bit-for-bit as it would alone, and the conv stage takes the memory of
    one chunk of rows; without them, all rows are one run."""
    logits = forward_copies(state, spec, inputs, (0, len(inputs)) if offsets is None else offsets)
    n = len(logits)
    return ce_losses(logits, np.asarray(labels), np.arange(n), (1,) * n)


def batch_labels(spec: NetworkSpec, labels: np.ndarray, rows: int) -> np.ndarray:
    """The labels of a batch of ``rows`` inputs, checked to be one per
    input, non-empty and in [0, class_count)."""
    labels = np.asarray(labels)
    if len(labels) != rows:
        raise ShapeError(f"batch has {rows} inputs but {len(labels)} labels")
    if len(labels) == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= spec.class_count:
        raise ShapeError(f"labels must lie in [0, {spec.class_count})")
    return labels


def ce_loss_and_grad(state: ModelState, spec: NetworkSpec, inputs: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy of the batch (inputs, labels) and its exact
    flat parameter gradient."""
    labels = batch_labels(spec, labels, len(inputs))
    logits, caches = forward_with_caches(state, spec, inputs)
    rows, m = np.arange(len(labels)), len(labels)
    grad = backward_from_logits(spec, state.params, caches, ce_grad(logits, labels, rows, m))
    return float(ce_losses(logits, labels, rows, (m,))[0]), grad


def proximal_loss_and_grad(params: np.ndarray, center: np.ndarray, mu: float):
    """FedProx's term (mu/2)*||params - center||^2 and its gradient, for a
    flat vector or per client of a (P, n) stack."""
    diff = params - center
    # a (1, n) @ (n, 1) product is the dot product a flat vector's diff @ diff takes
    loss = 0.5 * mu * np.matmul(diff[..., None, :], diff[..., None])[..., 0, 0]
    return (float(loss) if diff.ndim == 1 else loss), mu * diff


# sgd_update and federation.aggregate walk their arrays in blocks of this
# many entries, so that the arrays' blocks stay in cache together
CACHE_BLOCK = 1 << 15


def sgd_update(params: np.ndarray, momentum: np.ndarray, grad: np.ndarray, lr: float,
               momentum_coef: float = 0.0, weight_decay: float = 0.0, first_step: bool = False) -> None:
    """sgd_step in place, on a flat vector or a (P, n) stack: ``params`` and
    ``momentum`` take their new values, and ``grad`` is used up as scratch.
    The arrays must be C-contiguous. The finiteness checks run block by
    block, so a NonFiniteError leaves the arrays partly updated.

    IEEE addition and multiplication commute, so this rounds exactly as the
    formula in sgd_step's docstring. No shortcut for momentum_coef == 0: the
    formula's 0*m + g turns g = -0.0 into +0.0, so with w = -0.0, g = -0.0
    and no decay it keeps w = -0.0 (-0.0 - lr*0.0), where w - lr*g would
    give +0.0 and change the parameter's bytes.

    A ``first_step`` starts from zeroed momentum without reading it: the
    velocity is g + 0.0, the bytes of momentum_coef*0 + g for a finite
    momentum_coef. ``momentum`` then holds the first rows of the stack only,
    those of the clients that step again, or none; they take the velocity,
    and no other momentum entry is written."""
    if lr <= 0:
        raise ValueError("learning rate must be > 0")
    if not (params.flags.c_contiguous and momentum.flags.c_contiguous and grad.flags.c_contiguous):
        raise ValueError("sgd_update works in place on C-contiguous arrays")
    # blocks before a failed one hold finite values and blocks after it are
    # not updated yet, so a stack's first row holding a non-finite entry is
    # the failed entry's row
    stack = params.ndim == 2
    flat_w, flat_m, flat_g = params.reshape(-1), momentum.reshape(-1), grad.reshape(-1)
    scratch = np.empty(min(CACHE_BLOCK, params.size))
    for lo in range(0, params.size, CACHE_BLOCK):
        hi = lo + CACHE_BLOCK
        w, m, g = flat_w[lo:hi], flat_m[lo:hi], flat_g[lo:hi]
        if not np.isfinite(g).all():
            raise NonFiniteError("non-finite entries in gradient", _first_bad_row(grad) if stack else None)
        decay = scratch[:len(w)]
        np.multiply(w, weight_decay, out=decay)
        g += decay                              # grad + wd*params
        if first_step:
            g += 0.0                            # the velocity
            m[...] = g[:len(m)]
            g *= lr                             # the step
        else:
            m *= momentum_coef
            np.add(g, m, out=m)                 # the velocity
            np.multiply(m, lr, out=g)           # the step
        w -= g
        if not np.isfinite(w).all():
            raise NonFiniteError("parameters became non-finite after SGD step",
                                 _first_bad_row(params) if stack else None)


def sgd_step(params: np.ndarray, momentum: np.ndarray, grad: np.ndarray, lr: float,
             momentum_coef: float = 0.0, weight_decay: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """v <- momentum*v + (grad + wd*params); params <- params - lr*v.
    Returns the new (params, v) as new arrays; the inputs are unchanged."""
    if grad.shape != params.shape:
        raise ShapeError(f"gradient length {grad.size} != parameter length {params.size}")
    params, momentum = params.copy(), momentum.copy()
    sgd_update(params, momentum, np.array(grad, dtype=np.float64), lr, momentum_coef, weight_decay)
    return params, momentum


# ---------------------------------------------------------------------------
# Distance from the kinks
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
    """Little-endian blob of 44 + 8n bytes: magic, 32-byte spec hash, u64
    length n, then the n params as raw float64. It is written to a
    temporary file beside ``path`` and renamed over it, so a failed write
    leaves whatever file was at ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_STATE_MAGIC + bytes.fromhex(state.spec_hash) + struct.pack("<Q", state.params.size))
            # a contiguous little-endian float64 array is written without a copy
            fh.write(np.ascontiguousarray(state.params, dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_state(path: str | Path) -> ModelState:
    blob = Path(path).read_bytes()
    if blob[:4] != _STATE_MAGIC:
        raise ValueError(f"{path}: not a model-state file (bad magic {blob[:4]!r})")
    if len(blob) < 44:
        raise ValueError(f"{path}: {len(blob)} bytes, shorter than the 44-byte header")
    spec_hash = blob[4:36].hex()
    (length,) = struct.unpack("<Q", blob[36:44])
    expected = 44 + 8 * length
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for {length} parameters, got {len(blob)}")
    return ModelState(np.frombuffer(blob, dtype="<f8", offset=44).astype(np.float64), spec_hash)
