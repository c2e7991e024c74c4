"""End-to-end coverage of the command line interface.

Commands run in-process through cli.main so exit codes and output are
asserted directly; runs are kept tiny (tens of samples, a few rounds).
"""

import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fedka import cli
from fedka.metrics import read_rounds, rounds_to_target


def base_raw(**over):
    raw = {
        "name": "t",
        "master_seed": 11,
        "dataset": {"kind": "synth", "classes": 3, "per_class": 30, "dims": 2,
                    "separation": 6.0, "seed": 500},
        "partition": {"clients": 3, "alpha": 0.5, "seed": 21},
        "model": {"preset": "mlp", "hidden": [8]},
        "strategy": {"kind": "fedavg"},
        "training": {"rounds": 3, "local_epochs": 2, "batch_size": 16, "lr": 0.05},
    }
    raw.update(over)
    return raw


def write_config(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(base_raw(**over)))
    return str(path)


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_ROOT_ENV, raising=False)
    return tmp_path


def test_dry_run_prints_resolved_config_and_trains_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["run", cfg, "--dry-run"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["training"]["momentum"] == 0.9  # default materialized
    assert resolved["output_dir"] == "runs/t-seed11"
    assert not (tmp_path / "runs").exists()


def test_run_writes_artifacts_and_prints_progress(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("global_acc") == 3
    run_dir = tmp_path / "runs" / "t-seed11"
    for rel in ("manifest.json", "config.json", "model.json", "summary.json",
                "metrics/rounds.csv", "metrics/forgetting.csv",
                "metrics/clients.csv", "checkpoints/final.bin"):
        assert (run_dir / rel).exists(), rel


def test_missing_config_exits_2(capsys):
    assert cli.main(["run", "nowhere.yaml"]) == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_fields_exit_2_listing_all(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = cli.main(["run", cfg, "--set", "training.rounds=-1",
                     "--set", "strategy.mu=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "training.rounds" in err and "strategy.mu" in err


def test_finished_run_refused_unless_forced(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["run", cfg, "--quiet"]) == 0
    assert cli.main(["run", cfg, "--quiet"]) == 3
    assert "already holds a finished run" in capsys.readouterr().err
    assert cli.main(["run", cfg, "--quiet", "--force"]) == 0


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "elsewhere"))
    cfg = write_config(tmp_path)
    assert cli.main(["run", cfg, "--quiet"]) == 0
    assert (tmp_path / "elsewhere" / "t-seed11" / "manifest.json").exists()


def test_manifest_config_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["run", cfg, "--quiet"]) == 0
    run_dir = tmp_path / "runs" / "t-seed11"
    manifest = json.loads((run_dir / "manifest.json").read_text())

    replay = tmp_path / "replay.json"
    resolved = manifest["config"]
    resolved["output_dir"] = str(tmp_path / "replayed")
    replay.write_text(json.dumps(resolved))
    assert cli.main(["run", str(replay), "--quiet"]) == 0
    for rel in ("metrics/rounds.csv", "metrics/forgetting.csv", "metrics/clients.csv"):
        a = (run_dir / rel).read_bytes()
        b = (tmp_path / "replayed" / rel).read_bytes()
        assert a == b, f"{rel} differs on replay"


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_partition_writes_tables(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["partition", cfg, "--out", "part"]) == 0
    assert "partition written" in capsys.readouterr().out
    counts = read_csv(tmp_path / "part" / "count_matrix.csv")
    assert len(counts) == 3
    total = sum(int(v) for row in counts for k, v in row.items() if k != "client")
    assert total == 90
    roles = read_csv(tmp_path / "part" / "roles.csv")
    assert len(roles) == 9
    assert {r["role"] for r in roles} <= {"dominant", "non_dominant", "missing"}
    for r in roles:
        if r["role"] == "missing":
            assert r["count"] == "0"


def test_partition_single_client_row_is_global_counts(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["partition", cfg, "--set", "partition.clients=1",
                     "--out", "p1"]) == 0
    rows = read_csv(tmp_path / "p1" / "count_matrix.csv")
    assert len(rows) == 1
    assert [rows[0][f"class_{k}"] for k in range(3)] == ["30", "30", "30"]


def test_partition_config_without_model_sections(tmp_path):
    raw = {"name": "p", "master_seed": 4,
           "dataset": {"kind": "synth", "classes": 2, "per_class": 10, "dims": 1,
                       "separation": 2.0},
           "partition": {"clients": 2, "alpha": 1.0}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["partition", str(path), "--out", "po"]) == 0
    assert (tmp_path / "po" / "assignments.csv").exists()


def test_partition_roundtrips_into_run(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["partition", cfg, "--out", "part"]) == 0
    part_counts = {row["client"]: sum(int(row[f"class_{k}"]) for k in range(3))
                   for row in read_csv(tmp_path / "part" / "count_matrix.csv")}

    assert cli.main(["run", cfg, "--quiet", "--set", "name=viafile",
                     "--set", 'partition={"file": "part/assignments.csv"}']) == 0
    clients = read_csv(tmp_path / "runs" / "viafile-seed11" / "metrics" / "clients.csv")
    run_counts = {row["client"]: int(row["n_samples"])
                  for row in clients if row["round"] == "1"}
    assert run_counts == {c: n for c, n in part_counts.items()}


def test_alpha_sweep_concentration_decreases(tmp_path):
    # Lower Dirichlet alpha concentrates each class on fewer clients; the
    # mean top-client share per class must fall as alpha grows.
    cfg = write_config(tmp_path, dataset={"kind": "synth", "classes": 4,
                                          "per_class": 150, "dims": 2,
                                          "separation": 5.0, "seed": 1234})
    concentration = {}
    for alpha in (0.05, 0.1, 0.5):
        tops = []
        for seed in (0, 1, 2):
            out = f"sweep-{alpha}-{seed}"
            assert cli.main(["partition", cfg, "--out", out,
                             "--set", f"partition.alpha={alpha}",
                             "--set", f"partition.seed={seed}",
                             "--set", "partition.clients=6"]) == 0
            rows = read_csv(tmp_path / out / "count_matrix.csv")
            counts = np.array([[int(row[f"class_{k}"]) for k in range(4)]
                               for row in rows], dtype=float)
            share = counts / counts.sum(axis=0, keepdims=True)
            tops.append(share.max(axis=0).mean())
        concentration[alpha] = float(np.mean(tops))
    assert concentration[0.05] > concentration[0.1] > concentration[0.5]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_run_against_itself(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["run", cfg, "--quiet"]) == 0
    run_dir = str(tmp_path / "runs" / "t-seed11")
    assert cli.main(["compare", run_dir, "--out", "cmp"]) == 0
    rows = read_csv(tmp_path / "cmp" / "compare.csv")
    assert len(rows) == 1
    assert float(rows[0]["speedup"]) == 1.0
    assert (tmp_path / "cmp" / "compare.md").exists()
    assert "| t |" in capsys.readouterr().out


def test_compare_report_recomputable_from_csvs(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["run", cfg, "--quiet"]) == 0
    assert cli.main(["run", cfg, "--quiet", "--set", "name=other",
                     "--set", "training.local_epochs=1"]) == 0
    base = str(tmp_path / "runs" / "t-seed11")
    other = str(tmp_path / "runs" / "other-seed11")
    assert cli.main(["compare", other, "--baseline", base, "--out", "cmp"]) == 0

    row = read_csv(tmp_path / "cmp" / "compare.csv")[0]
    base_curve = [(r.round, r.global_acc) for r in read_rounds(f"{base}/metrics/rounds.csv")]
    other_curve = [(r.round, r.global_acc) for r in read_rounds(f"{other}/metrics/rounds.csv")]
    target = base_curve[-1][1]
    assert float(row["final_acc"]) == other_curve[-1][1]
    expect = rounds_to_target(other_curve, target)
    if expect is None:
        assert row["rounds_to_target"] == "\\"
    else:
        assert int(row["rounds_to_target"]) == expect
        assert float(row["speedup"]) == rounds_to_target(base_curve, target) / expect


def test_compare_unreached_target_renders_backslash(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["run", cfg, "--quiet", "--set", "training.rounds=6"]) == 0
    # an untrained run cannot reach the trained baseline's final accuracy
    assert cli.main(["run", cfg, "--quiet", "--set", "name=weak",
                     "--set", "training.rounds=1", "--set", "training.lr=1e-9"]) == 0
    base = str(tmp_path / "runs" / "t-seed11")
    weak = str(tmp_path / "runs" / "weak-seed11")
    assert cli.main(["compare", weak, "--baseline", base, "--out", "cmp"]) == 0
    row = read_csv(tmp_path / "cmp" / "compare.csv")[0]
    assert row["rounds_to_target"] == "\\" and row["speedup"] == "\\"


def test_compare_refuses_mismatched_datasets(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["run", cfg, "--quiet"]) == 0
    assert cli.main(["run", cfg, "--quiet", "--set", "name=shifted",
                     "--set", "dataset.seed=501"]) == 0
    code = cli.main(["compare", str(tmp_path / "runs" / "shifted-seed11"),
                     "--baseline", str(tmp_path / "runs" / "t-seed11")])
    assert code == 3
    err = capsys.readouterr().err
    assert "refusing to compare" in err and "dataset_hash" in err


def test_compare_requires_finished_runs(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert cli.main(["compare", str(tmp_path / "empty")]) == 3
    assert "manifest.json" in capsys.readouterr().err


def test_compare_refuses_an_empty_rounds_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["run", cfg, "--quiet"]) == 0
    run_dir = tmp_path / "runs" / "t-seed11"
    rounds = run_dir / "metrics" / "rounds.csv"
    rounds.write_text(rounds.read_text().splitlines()[0] + "\n")
    assert cli.main(["compare", str(run_dir)]) == 3
    assert f"{run_dir} has an empty rounds.csv, nothing to compare" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def test_gradcheck_quick_passes(capsys):
    assert cli.main(["gradcheck", "--quick", "--seeds", "2", "--coords", "6"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    assert all(line.startswith("ok") for line in out)


@pytest.mark.parametrize("argv", [["--seeds", "0"], ["--seeds", "-3", "--coords", "0"],
                                  ["--seeds", "1", "--coords", "0"]])
def test_gradcheck_that_checks_nothing_fails(argv, capsys):
    assert cli.main(["gradcheck", "--quick", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: gradcheck needs seeds >= 1 and coords >= 1")


@pytest.mark.parametrize("exported, expected", [(None, "1"), ("2", "2")])
def test_cli_runs_blas_on_one_thread_unless_told_otherwise(exported, expected):
    """The CLI sets one BLAS thread before numpy loads, as the thread rule
    assumes; a count the caller exported stands."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if exported is not None:
        env["OPENBLAS_NUM_THREADS"] = exported
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                       env.get("PYTHONPATH")]))
    # the variable's value at numpy's first import, when OpenBLAS reads it
    probe = textwrap.dedent("""
        import builtins, os, sys
        seen, original = [], builtins.__import__
        def hook(name, *args, **kwargs):
            if name == "numpy" and name not in sys.modules:
                seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
            return original(name, *args, **kwargs)
        builtins.__import__ = hook
        import fedka.cli
        print(*seen)
    """)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == [expected]
