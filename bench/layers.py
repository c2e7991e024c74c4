"""Per-layer forward/backward table at batch 32 for the three benchmark models.

    python3 bench/layers.py [--repeats 20]

Calls each ``spec.layers[i].forward`` and ``.backward`` directly on random
inputs and reports the median time of each. For Dense and Conv2d layers it
adds floating-point operations and bytes moved, both computed from the
shapes (float64; bytes count each operand read and each result written once,
so cache misses are ignored), and the rate they imply. The table is also
written to ``bench/out/layers.json``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if not (BENCH.parent / "src" / "fedka").is_dir():
    print("no program to measure: src/fedka is missing", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(BENCH.parent / "src"))

try:
    import numpy as np

    from fedka import nn
except ImportError as exc:
    print(f"cannot import the program: {exc}", file=sys.stderr)
    sys.exit(2)

BATCH = 32
MODELS = {
    "t_cnn(1x28x28,k5)": nn.tcnn_spec((1, 28, 28), 10, 5),
    "mlp[8](8->4)": nn.mlp_spec(8, [8], 4),
    "mlp[128](64->10)": nn.mlp_spec(64, [128], 10),
}


def computed_cost(layer, in_shape, out_shape) -> tuple[float, float, float, float]:
    """(forward flops, backward flops, forward bytes, backward bytes)."""
    params = layer.param_count()
    n_in, n_out = BATCH * int(np.prod(in_shape)), BATCH * int(np.prod(out_shape))
    if isinstance(layer, nn.Dense):
        macs = BATCH * layer.in_features * layer.out_features
    else:  # Conv2d: one multiply-add per output element per kernel tap
        macs = n_out * layer.in_channels * layer.kernel ** 2
    fwd_flops = 2.0 * macs
    bwd_flops = 2.0 * 2.0 * macs + n_out           # weight and input gradients, bias sum
    fwd_bytes = 8.0 * (n_in + params + n_out)
    bwd_bytes = 8.0 * (n_in + params + n_out + params + n_in)
    return fwd_flops, bwd_flops, fwd_bytes, bwd_bytes


def timed(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def table(repeats: int) -> list[dict]:
    rows = []
    rng = np.random.default_rng(0)
    for model, spec in MODELS.items():
        state = nn.init_state(spec, rng)
        h = rng.normal(size=(BATCH, *spec.input_shape))
        for i, (layer, sl) in enumerate(zip(spec.layers, spec.param_slices)):
            params = state.params[sl]
            out = layer.forward(params, h)
            grad_out = rng.normal(size=out.shape)
            row = {
                "model": model, "index": i, "layer": layer.name,
                "forward_s": timed(lambda: layer.forward(params, h), repeats),
                "backward_s": timed(lambda: layer.backward(params, h, grad_out), repeats),
            }
            if isinstance(layer, (nn.Dense, nn.Conv2d)):
                f_flops, b_flops, f_bytes, b_bytes = computed_cost(
                    layer, spec.layer_shapes[i], spec.layer_shapes[i + 1])
                row.update({
                    "computed_forward_flops": f_flops, "computed_backward_flops": b_flops,
                    "computed_forward_bytes": f_bytes, "computed_backward_bytes": b_bytes,
                    "forward_gflop_per_s": f_flops / row["forward_s"] / 1e9,
                    "backward_gflop_per_s": b_flops / row["backward_s"] / 1e9,
                })
            rows.append(row)
            h = out
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    rows = table(args.repeats)
    print(f"batch {BATCH}, median of {args.repeats}, numpy {np.__version__}, BLAS threads 1; "
          "flops and bytes are computed from shapes")
    print(f"{'model':<18} {'#':>2} {'layer':<24} {'fwd ms':>9} {'bwd ms':>9} "
          f"{'fwd MFLOP':>10} {'bwd MFLOP':>10} {'fwd MB':>8} {'bwd MB':>8} {'fwd GF/s':>9} {'bwd GF/s':>9}")
    for r in rows:
        line = (f"{r['model']:<18} {r['index']:>2} {r['layer']:<24} "
                f"{r['forward_s'] * 1e3:>9.3f} {r['backward_s'] * 1e3:>9.3f}")
        if "computed_forward_flops" in r:
            line += (f" {r['computed_forward_flops'] / 1e6:>10.3f} {r['computed_backward_flops'] / 1e6:>10.3f}"
                     f" {r['computed_forward_bytes'] / 1e6:>8.3f} {r['computed_backward_bytes'] / 1e6:>8.3f}"
                     f" {r['forward_gflop_per_s']:>9.2f} {r['backward_gflop_per_s']:>9.2f}")
        print(line)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "layers.json").write_text(json.dumps(
        {"batch": BATCH, "repeats": args.repeats, "numpy": np.__version__, "rows": rows}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
