"""Command line entry point.

Subcommands:
  run        execute an experiment described by a config file
  partition  materialize and inspect a client partition without training
  compare    tabulate finished runs against a baseline run
  gradcheck  finite-difference verification of all training objectives

Exit codes: 0 success, 2 invalid config, 3 runtime failure. The default
output root is `runs/`, overridable with FEDKA_OUTPUT_ROOT.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

# One BLAS thread per Python thread, set before numpy loads OpenBLAS: a run
# spreads its training stacks and evaluation passes over the cores itself
# (nn.thread_count), and two threads each calling a two-thread BLAS ran a
# 40-round t_cnn experiment in 6.8 s instead of 4.0 s on a 2-core host
# (medians of 5). A thread count exported by the caller stands.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import (
    ConfigError,
    apply_overrides,
    load_config_file,
    resolve,
    resolve_partition,
)
from .data import export_assignments, export_count_matrix
from .federation import build_datasets, build_shards, run_experiment
from .gradcheck import DEFAULT_STEP, DEFAULT_TOL, run_gradcheck
from .metrics import fmt, read_rounds, rounds_to_target

OUTPUT_ROOT_ENV = "FEDKA_OUTPUT_ROOT"


def _output_root() -> str | None:
    return os.environ.get(OUTPUT_ROOT_ENV) or None


def _load(args) -> dict:
    raw = load_config_file(args.config)
    return apply_overrides(raw, args.set or [])


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = resolve(_load(args), output_root=_output_root())
    if args.dry_run:
        print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        return 0

    def progress(r: int, total: int, acc: float) -> None:
        if not args.quiet:
            print(f"round {r:4d}/{total}  global_acc {acc:.4f}", flush=True)

    out = run_experiment(cfg, progress=progress, force=args.force)
    print(f"run complete: {out}")
    return 0


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def cmd_partition(args) -> int:
    cfg = resolve_partition(_load(args), output_root=_output_root())
    train, _ = build_datasets(cfg)
    shards = build_shards(cfg, train)

    out = Path(args.out) if args.out else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_count_matrix(shards, out / "count_matrix.csv")
    export_assignments(shards, out / "assignments.csv")
    with open(out / "roles.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client", "class", "count", "share", "role"])
        for shard in shards:
            for k in range(shard.class_count):
                share = shard.counts[k] / len(shard)
                writer.writerow([shard.client_id, k, int(shard.counts[k]), fmt(share), shard.role_of(k)])

    for shard in shards:
        counts = " ".join(f"{c:5d}" for c in shard.counts)
        print(f"client {shard.client_id:3d}  n={len(shard):6d}  [{counts}]  "
              f"dominant={sorted(shard.dominant)} missing={sorted(shard.missing)}")
    print(f"partition written: {out}")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _load_run(run_dir: Path) -> dict:
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"{run_dir} has no manifest.json (not a finished run)")
    manifest = json.loads(manifest_path.read_text())
    records = read_rounds(run_dir / "metrics" / "rounds.csv")
    if not records:
        raise ValueError(f"{run_dir} has an empty rounds.csv, nothing to compare")
    return {
        "dir": run_dir,
        "name": manifest["config"].get("name", run_dir.name),
        "dataset_hash": manifest["dataset_hash"],
        "test_hash": manifest["test_hash"],
        "curve": [(r.round, r.global_acc) for r in records],
    }


def cmd_compare(args) -> int:
    run_dirs = [Path(d) for d in args.run_dirs]
    baseline_dir = Path(args.baseline) if args.baseline else run_dirs[0]
    baseline = _load_run(baseline_dir)
    runs = [_load_run(d) for d in run_dirs]

    for run in runs:
        for key in ("dataset_hash", "test_hash"):
            if run[key] != baseline[key]:
                raise ValueError(
                    f"refusing to compare {run['dir']} against {baseline['dir']}: "
                    f"{key} differs ({run[key][:12]}... vs {baseline[key][:12]}...)")

    target = baseline["curve"][-1][1]
    base_reached = rounds_to_target(baseline["curve"], target)
    rows = []
    for run in runs:
        final = run["curve"][-1][1]
        reached = rounds_to_target(run["curve"], target)
        spd = None if reached is None or base_reached is None else base_reached / reached
        rows.append({
            "run": run["name"],
            "dir": str(run["dir"]),
            "final_acc": fmt(final),
            "rounds_to_target": "\\" if reached is None else str(reached),
            "speedup": "\\" if spd is None else fmt(spd),
        })

    header = ["run", "final_acc", "rounds_to_target", "speedup"]
    md_lines = [
        f"Baseline: {baseline['name']} ({baseline['dir']}), "
        f"target accuracy {fmt(target)}",
        "",
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        md_lines.append("| " + " | ".join(row[h] for h in header) + " |")
    markdown = "\n".join(md_lines) + "\n"
    print(markdown, end="")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "compare.md").write_text(markdown)
    with open(out / "compare.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["run", "dir", "final_acc",
                                                "rounds_to_target", "speedup"])
        writer.writeheader()
        writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    results = run_gradcheck(seeds=args.seeds, coords_per_seed=args.coords,
                            step=args.step, tol=args.tol,
                            include_cnn=not args.quick)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 3


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------


def _add_config_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", help="path to a JSON or YAML experiment config")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                     help="override a config field, e.g. --set training.rounds=5")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedka",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    _add_config_arguments(p_run)
    p_run.add_argument("--dry-run", action="store_true",
                       help="validate and print the resolved config, train nothing")
    p_run.add_argument("--force", action="store_true",
                       help="overwrite a finished run in the output directory")
    p_run.add_argument("--quiet", action="store_true", help="suppress per-round progress")
    p_run.set_defaults(handler=cmd_run)

    p_part = sub.add_parser("partition", help="write partition tables without training")
    _add_config_arguments(p_part)
    p_part.add_argument("--out", default="", help="output directory (default: the run's)")
    p_part.set_defaults(handler=cmd_partition)

    p_cmp = sub.add_parser("compare", help="tabulate finished runs against a baseline")
    p_cmp.add_argument("run_dirs", nargs="+", help="finished run directories")
    p_cmp.add_argument("--baseline", default="",
                       help="baseline run directory (default: the first run)")
    p_cmp.add_argument("--out", default=".", help="where to write compare.md / compare.csv")
    p_cmp.set_defaults(handler=cmd_compare)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_gc.add_argument("--seeds", type=int, default=5)
    p_gc.add_argument("--coords", type=int, default=30, help="coordinates per seed")
    p_gc.add_argument("--step", type=float, default=DEFAULT_STEP)
    p_gc.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_gc.add_argument("--quick", action="store_true", help="skip the convolutional preset")
    p_gc.set_defaults(handler=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  (CLI boundary: report, don't crash)
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
