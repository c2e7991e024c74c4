"""fedka benchmark: whole experiments through the public API, one workload
per process.

    python3 bench/run.py --workload blob-fedka --seed 1 --seconds 36 --trace 0

Each run builds its inputs from ``--seed``: configs for a sweep of master
seeds and, for the image workload, IDX files. It times the setup calls
``run_experiment`` makes, runs every master seed of the sweep once, and
then repeats them, in sweep order, until ``--seconds`` are used (at least
one repeat). The only hook into a running experiment is the ``progress``
callback.

With ``--trace 0`` it reports the end-to-end metrics. The shared host this
was built on changes its speed by up to half for minutes at a time, and CPU
time changes with it, so raw wall times from runs a few minutes apart
disagree by more than any bound worth setting. Before and after the setup
calls that precede every experiment, the run times a short burst of fixed
work that uses no fedka code (``calibrate``). Every timing is multiplied by
``REFERENCE_CALIB_S`` over the run's median burst time, so that it reads as
seconds on the reference host; rates are divided by it. The unadjusted
figures are printed and kept under ``counts.measured`` in the output file.

With ``--trace 1`` the first run of each master seed is traced (see
spans.py), and it reports per-layer metrics, as measured; the tracing
overhead is measured against the repeats. An untimed warm-up experiment
comes before everything timed, traced or not.

Correctness: every experiment must reach the workload's accuracy target,
and a repeat's metric-CSV digests, traced or not, must equal those of the
first run of its master seed; for blob-fedka, so must a run with
``parallel_clients=2``.

The last line of standard output is one JSON object; everything else,
including the host calibration and the digests, is also written to
``bench/out/<workload>-seed<seed>-trace<t>.json``. BLAS runs one thread so
that the process never runs more threads than the host has cores.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "fedka").is_dir():
    print(f"no program to benchmark: {ROOT / 'src' / 'fedka'} is missing", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

try:
    import numpy as np

    from fedka import anchor, config, federation, nn, rng
    from spans import Tracer, summarize
    from workloads import WORKLOADS, make_raw_configs
except ImportError as exc:
    print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "round_s.p50": "s", "round_s.p90": "s",
    "train_samples_per_s": "1/s", "time_to_target_s": "s", "peak_rss_mb": "MB",
}
SETUP_REPEATS_PER_EXPERIMENT = 5


@dataclass
class Experiment:
    master_seed: int
    traced: bool
    timed: bool = True                                 # counts towards the metrics
    wall_s: float = 0.0
    round_ends: list = field(default_factory=list)   # seconds since the call began
    accs: list = field(default_factory=list)
    train_samples: list = field(default_factory=list)  # per round: sum of shard size x epochs
    digests: dict = field(default_factory=dict)
    output_bytes: int = 0
    error: str = ""
    layers: dict = field(default_factory=dict)


# One calibration burst takes about this long on the reference host (a
# 2-vCPU x86_64 Xeon VM, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_CALIB_S = 0.05
_CAL_SQUARE = np.random.default_rng(0).normal(size=(96, 96))


def calibrate() -> float:
    """Time one burst of fixed work that uses no fedka code: a Python loop,
    then a small BLAS matmul chain. Its time follows the host's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(600000):
        acc += i * i
    a = _CAL_SQUARE
    for _ in range(200):
        a = np.tanh(a @ a / 96.0)
    return time.perf_counter() - start


def host_info() -> dict:
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup_once(raw: dict, out_root: Path) -> float:
    """The setup calls run_experiment makes, called directly and timed."""
    start = time.perf_counter()
    cfg = config.resolve(raw, output_root=str(out_root))
    train, _ = federation.build_datasets(cfg)
    spec = federation.build_model_spec(cfg, train.inputs.shape[1:], train.class_count)
    federation.build_shards(cfg, train)
    nn.init_state(spec, rng.stream(cfg.master_seed, "init"))
    if cfg.strategy.kind == "fedka":
        anchor.build_shared_dataset(train, cfg.master_seed)
    return time.perf_counter() - start


def digest_outputs(run_dir: Path) -> dict:
    files = sorted((run_dir / "metrics").glob("*.csv")) + [run_dir / "anchors.csv"]
    return {f"{p.parent.name}/{p.name}" if p.parent != run_dir else p.name:
            hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else "absent"
            for p in files}


def read_train_samples(run_dir: Path, epochs: int) -> list[int]:
    per_round: dict[int, int] = {}
    with open(run_dir / "metrics" / "clients.csv") as fh:
        next(fh)
        for line in fh:
            rnd, _, participated, n, _ = line.rstrip("\n").split(",")
            if participated == "1":
                per_round[int(rnd)] = per_round.get(int(rnd), 0) + int(n) * epochs
    return [per_round.get(r, 0) for r in range(1, max(per_round) + 1)]


def run_one(raw: dict, run_dir: Path, target: float, tracer: Tracer | None,
            timed: bool = True) -> Experiment:
    exp = Experiment(raw["master_seed"], tracer is not None, timed)
    raw = {**raw, "output_dir": str(run_dir)}
    if tracer is not None:
        tracer.install()
    try:
        cfg = config.resolve(raw)
        start = time.perf_counter()
        federation.run_experiment(
            cfg, progress=lambda r, n, acc: (exp.round_ends.append(time.perf_counter() - start),
                                             exp.accs.append(acc)))
        exp.wall_s = time.perf_counter() - start
    except Exception as exc:  # a failed experiment is counted, not fatal
        exp.error = f"raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.remove()
    if not exp.error:
        exp.digests = digest_outputs(run_dir)
        exp.output_bytes = sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
        exp.train_samples = read_train_samples(run_dir, cfg.training.local_epochs)
        if not any(acc >= target for acc in exp.accs):
            exp.error = f"missed accuracy target {target} (best {max(exp.accs):.3f})"
    shutil.rmtree(run_dir, ignore_errors=True)
    return exp


def host_adjusted(measured: dict, scale: float) -> dict:
    """Scale the metrics to the reference host's speed: times are multiplied
    by REFERENCE_CALIB_S / (this run's median calibration burst) and rates
    divided by it. Memory is left as measured."""
    factor = {"s": scale, "1/s": 1.0 / scale}
    return {name: value * factor.get(END_TO_END_UNITS[name], 1.0) for name, value in measured.items()}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(experiments: list[Experiment], setup_times: list[float], target: float) -> tuple[dict, dict]:
    ok = [e for e in experiments if e.timed and not e.error]
    intervals, samples = [], []
    for e in ok:
        gaps = np.diff(e.round_ends).tolist()
        intervals += gaps
        samples += e.train_samples[1:len(gaps) + 1]
    to_target: dict[int, list[float]] = {}
    for e in ok:
        to_target.setdefault(e.master_seed, []).append(
            next(t for t, acc in zip(e.round_ends, e.accs) if acc >= target))
    values = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(e.wall_s for e in ok),
        "round_s.p50": percentile(intervals, 50),
        "round_s.p90": percentile(intervals, 90),
        "train_samples_per_s": sum(samples) / sum(intervals),
        # A mean over master seeds, each weighted once: the round that first
        # reaches the target differs between master seeds, and a median would
        # jump from one such round to another.
        "time_to_target_s": statistics.fmean(statistics.fmean(t) for t in to_target.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"round_intervals": len(intervals), "experiments": len(ok),
                    "setup_repeats": len(setup_times)}


LAYER_METRICS = (
    [("nn.ce_loss_and_grad", "self_s"), ("nn.ce_loss_and_grad", "calls"),
     ("nn.forward_with_caches", "self_s"), ("nn.forward_logits", "self_s"),
     ("nn.backward_from_logits", "self_s"), ("nn.sgd_step", "s"), ("nn.sgd_step", "calls")]
    + [(f"nn.{layer}.{direction}", stat)
       for layer in ("Dense", "Relu", "Conv2d", "MaxPool")
       for direction in ("forward", "backward") for stat in ("s", "calls")]
    + [("nn.save_state", "s"),
       ("anchor.build_anchor", "s"), ("anchor.downsample_anchor", "s"),
       ("anchor.ka_loss_and_grad", "self_s"), ("anchor.ka_loss_and_grad", "calls"),
       ("anchor.KnowledgeAnchor.inputs", "calls"), ("anchor.teacher_logits", "s"),
       ("federation.local_train", "self_s"), ("federation.local_train", "calls"),
       ("federation.aggregate", "s"), ("federation.run_experiment", "self_s"),
       ("metrics.classwise_accuracy", "s"), ("metrics.classwise_accuracy", "calls"),
       ("metrics.measure_local_forgetting", "self_s"),
       ("metrics.MetricsWriter.write_round", "s"), ("metrics.MetricsWriter.write_forgetting", "s"),
       ("data.synth_blobs", "s"), ("data.load_idx", "s"), ("data.dirichlet_partition", "s"),
       ("data.apply_reduction_schedule", "s"), ("data.apply_reduction_schedule", "calls"),
       ("rng.stream", "s"), ("rng.stream", "calls"), ("config.resolve", "s")]
)


def layer_values(summary: dict, counts: dict, output_bytes: int) -> dict:
    """One traced experiment's per-layer figures, keyed by metric name."""
    def get(name, stat):
        return summary.get(name, {}).get(stat, 0)

    out = {f"{name}.{stat}": get(name, stat) for name, stat in LAYER_METRICS}
    calls = get("anchor.downsample_anchor", "calls")
    out["anchor.entries.mean"] = counts.get("anchor.entries", 0) / calls if calls else 0.0
    out["metrics.eval_samples"] = counts.get("metrics.eval_samples", 0)
    out["federation.output_bytes"] = output_bytes
    total = get("federation.run_experiment", "s")
    out["trace.coverage"] = 1.0 - get("federation.run_experiment", "self_s") / total
    conv_pool = sum(get(f"nn.{layer}.{d}", "s") for layer in ("Conv2d", "MaxPool")
                    for d in ("forward", "backward"))
    step_and_anchor = sum(get(name, "s") for name in (
        "nn.ce_loss_and_grad", "nn.sgd_step", "anchor.ka_loss_and_grad", "anchor.build_anchor",
        "anchor.downsample_anchor", "anchor.select_anchor_strategy", "anchor.teacher_logits"))
    out["share.conv_pool"] = conv_pool / total
    out["share.classwise_accuracy"] = get("metrics.classwise_accuracy", "s") / total
    out["share.step_path_and_anchor"] = step_and_anchor / total
    return out


def per_layer(experiments: list[Experiment]) -> tuple[dict, dict]:
    """Median over traced experiments of each layer figure, the tracing
    overhead, and the layer shares of traced run time (kept apart)."""
    traced = [e for e in experiments if e.traced and not e.error]
    plain = {e.master_seed: e.wall_s for e in experiments if e.timed and not e.traced and not e.error}
    values = {name: statistics.median(e.layers[name] for e in traced) for name in traced[0].layers}
    values["trace.overhead_s"] = statistics.median(e.wall_s - plain[e.master_seed] for e in traced
                                                   if e.master_seed in plain)
    shares = {k: values.pop(k) for k in list(values) if k.startswith("share.")}
    return values, shares


LAYER_UNITS = {"trace.coverage": "ratio", "federation.output_bytes": "bytes",
               "anchor.entries.mean": "count", "metrics.eval_samples": "count"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name) or ("count" if name.endswith(".calls") else "s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "out" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host = host_info()
    raws = make_raw_configs(workload, args.seed, work / "data")

    # Warm-up, untimed: one setup and one experiment, so that imports, first
    # calls and allocator growth are paid before anything is timed.
    setup_once(raws[0], work / "setup")
    experiments = [run_one(raws[0], work / "runs" / "warm-up", workload.target_acc, None, timed=False)]

    # Every master seed once, traced with --trace 1; then untraced repeats,
    # cycling over the sweep, until the next one would end after --seconds.
    # There is at least one repeat, so the digests always have something to
    # be compared with. Each experiment is preceded by the timed setup calls
    # of its config between two calibration bursts, so that all three sample
    # the host over the same minutes.
    tracer = Tracer() if args.trace else None
    kept_spans: list = []
    calib: list[float] = []
    setup_times: list[float] = []
    started = time.perf_counter()
    timed = 0
    while timed <= len(raws) or (time.perf_counter() - started) * (timed + 1) / timed <= args.seconds:
        raw = raws[timed % len(raws)]
        calib.append(calibrate())
        setup_times += [setup_once(raw, work / "setup") for _ in range(SETUP_REPEATS_PER_EXPERIMENT)]
        calib.append(calibrate())
        active = tracer if timed < len(raws) else None
        if active is not None:
            tracer.experiment = len(experiments)
        exp = run_one(raw, work / "runs" / str(len(experiments)), workload.target_acc, active)
        if active is not None:
            spans, counts = tracer.take()
            exp.layers = layer_values(summarize(spans), counts, exp.output_bytes)
            kept_spans = kept_spans or spans
        experiments.append(exp)
        timed += 1
    repeats = timed - len(raws)
    measured_s = time.perf_counter() - started

    checks = []
    first = {}
    for exp in experiments:
        if exp.error:
            continue
        ref = first.setdefault(exp.master_seed, exp.digests)
        if exp.digests != ref:
            exp.error = "metric-CSV digests differ from the first run"
    checks.append(("digests identical across repeats"
                   + (" and traced/untraced" if tracer else ""),
                   all(not e.error.startswith("metric-CSV") for e in experiments)))
    if workload.name == "blob-fedka":
        raw = {**raws[0], "training": {**raws[0]["training"], "parallel_clients": 2}}
        par = run_one(raw, work / "runs" / "parallel", workload.target_acc, None, timed=False)
        same = not par.error and par.digests == first.get(raws[0]["master_seed"])
        checks.append(("digests identical with parallel_clients=2", same))
        par.error = par.error or ("" if same else "parallel_clients=2 digests differ from serial")
        experiments.append(par)
    failed = [e for e in experiments if e.error]
    checks.append(("every experiment reached its accuracy target and raised nothing",
                   not any(e.error.startswith(("raised", "missed")) for e in experiments)))
    host["calib_s"] = statistics.median(calib)
    host["speed_scale"] = REFERENCE_CALIB_S / host["calib_s"]

    timed_ok = [e for e in experiments if e.timed and not e.error]
    ok = any(not e.traced for e in timed_ok) and (tracer is None or any(e.traced for e in timed_ok))
    if ok and tracer is None:
        measured, counts = end_to_end(experiments, setup_times, workload.target_acc)
        values = host_adjusted(measured, host["speed_scale"])
        counts["measured"] = {name: round(v, 6) for name, v in measured.items()}
        units = END_TO_END_UNITS
    elif ok:
        values, shares = per_layer(experiments)
        counts = {"traced_experiments": sum(e.traced for e in experiments), "shares": shares}
        units = {name: layer_unit(name) for name in values}
    else:
        values, counts, units = {}, {}, {}
    correct = ok and all(passed for _, passed in checks)

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, master seeds {[r['master_seed'] for r in raws]}, "
          f"{len(raws)} + {repeats} repeats in {measured_s:.1f} s, trace={args.trace}")
    print("host: " + ", ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                               for k, v in host.items()))
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for key, value in counts.items():
        print(f"  {key}: {value}")
    print(f"  failed_ratio: {len(failed)}/{len(experiments)} = {len(failed) / len(experiments):.3f}")
    for exp in failed:
        print(f"  FAILED master seed {exp.master_seed}: {exp.error}")
    for name, passed in checks:
        print(f"  check {'PASS' if passed else 'FAIL'}: {name}")
    for seed, digests in first.items():
        print(f"  digests master seed {seed}: " + " ".join(f"{k}={v}" for k, v in digests.items()))

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repeats": repeats, "measured_s": measured_s, "host": host,
        "calib_bursts_s": calib,
        "counts": counts, "checks": dict(checks), "digests": first,
        "experiments": [{"master_seed": e.master_seed, "traced": e.traced, "timed": e.timed,
                         "wall_s": e.wall_s, "error": e.error} for e in experiments],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    (BENCH / "out" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if kept_spans:
        with gzip.open(BENCH / "out" / f"{tag}-spans.jsonl.gz", "wt") as fh:
            for span in kept_spans:
                fh.write(json.dumps(span) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": len(experiments), "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
