"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 10 [--workloads blob-fedka,...] [--trace 0]
                            [--record bench/history/NAME.json --label TEXT]

Runs ``bench/run.py`` once per (workload, seed), one process at a time, with
the run length from BENCHMARK.json. For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median; end-to-end metrics are marked "steady"
when that share is below a third of the metric's bound. ``--record`` writes
the per-run values and the summary as one point of the benchmark's history.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    history = {"label": args.label, "run_seconds": spec["run_seconds"], "trace": args.trace,
               "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        results = [run(workload, seed, spec["run_seconds"], args.trace) for seed in seeds]
        per_metric = {name: [r["metrics"][name]["value"] for r in results]
                      for name in results[0]["metrics"]}
        entry = {"seeds": list(seeds), "correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "metrics": {}}
        print(f"{workload}: correct={entry['correct']} failed {entry['failed']}/{entry['attempted']}")
        for name, values in per_metric.items():
            s = summarize(values)
            unit = results[0]["metrics"][name]["unit"]
            entry["metrics"][name] = {"unit": unit, "values": values, **s}
            mark = ""
            if name in bounds:
                ok = name == "setup_s" or s["spread"] < bounds[name] / 3
                steady &= ok
                mark = f"bound {bounds[name]:.2f} {'steady' if ok else 'NOT STEADY'}"
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:<44} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread:>7} {unit:<6} {mark}")
        history["workloads"][workload] = entry
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
