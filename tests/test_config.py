"""Config loading, validation, overrides, and the resolved round trip."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from fedka import config
from fedka.config import (
    SECTIONS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    load_config_file,
    resolve,
    resolve_partition,
)
from fedka.rng import derive_seed

README = Path(__file__).resolve().parents[1] / "README.md"


def minimal_raw(**over):
    raw = {
        "name": "t",
        "master_seed": 5,
        "dataset": {"kind": "synth", "classes": 3, "per_class": 20, "dims": 2,
                    "separation": 4.0},
        "partition": {"clients": 2, "alpha": 0.5},
        "model": {"preset": "mlp", "hidden": [8]},
        "strategy": {"kind": "fedavg"},
    }
    raw.update(over)
    return raw


def test_defaults_materialized():
    cfg = resolve(minimal_raw())
    t = cfg.training
    assert (t.rounds, t.local_epochs, t.batch_size) == (100, 10, 128)
    assert (t.lr, t.momentum, t.weight_decay) == (0.01, 0.9, 1e-5)
    assert t.participation_ratio == 1.0 and t.parallel_clients == 1
    assert cfg.partition.gamma == 0.05 and cfg.partition.min_samples_per_client == 1
    assert cfg.metrics.xi == 1e-8
    assert cfg.reduction == ()
    assert cfg.output_dir == "runs/t-seed5"


def test_seeds_derived_from_master():
    cfg = resolve(minimal_raw())
    assert cfg.dataset.seed == derive_seed(5, "dataset")
    assert cfg.dataset.test_seed == derive_seed(cfg.dataset.seed, "test")
    assert cfg.partition.seed == derive_seed(5, "partition")
    # explicit values win over derivation
    raw = minimal_raw()
    raw["dataset"]["seed"] = 99
    raw["partition"]["seed"] = 98
    cfg2 = resolve(raw)
    assert cfg2.dataset.seed == 99 and cfg2.partition.seed == 98
    assert cfg2.dataset.test_seed == derive_seed(99, "test")


def test_every_violation_reported_with_field_path():
    raw = minimal_raw()
    raw["dataset"]["classes"] = 0
    raw["training"] = {"rounds": -1, "lr": 0}
    raw["strategy"] = {"kind": "fedavg", "mu": 0.1}
    raw["bogus"] = 1
    with pytest.raises(ConfigError) as err:
        resolve(raw)
    text = str(err.value)
    for needle in ("dataset.classes", "training.rounds", "training.lr",
                   "strategy.mu", "bogus"):
        assert needle in text, f"missing {needle} in:\n{text}"
    assert len(err.value.errors) == 5


def test_unknown_keys_rejected_at_every_level():
    raw = minimal_raw()
    raw["model"]["width"] = 3
    raw["metrics"] = {"epsilon": 1e-8, "eval_interval": 1}
    with pytest.raises(ConfigError) as err:
        resolve(raw)
    assert any(e.startswith("model.width") for e in err.value.errors)
    assert any(e.startswith("metrics.epsilon") for e in err.value.errors)
    # every round is evaluated and written; no key thins rounds.csv
    assert any(e.startswith("metrics.eval_interval: unknown key") for e in err.value.errors)


def test_missing_required_fields_named():
    with pytest.raises(ConfigError) as err:
        resolve({"dataset": {"kind": "synth"}, "partition": {}, "model": {},
                 "strategy": {}})
    text = str(err.value)
    for needle in ("master_seed", "dataset.classes", "partition.clients",
                   "model.preset", "strategy.kind"):
        assert needle in text


def test_float_fields_accept_numeric_strings():
    # YAML 1.1 parses bare 1e-8 as a string; the resolver coerces it.
    raw = minimal_raw(metrics={"xi": "1e-8"}, training={"weight_decay": "1e-5"})
    cfg = resolve(raw)
    assert cfg.metrics.xi == 1e-8
    assert cfg.training.weight_decay == 1e-5


def test_bool_is_not_an_int():
    raw = minimal_raw()
    raw["training"] = {"rounds": True}
    with pytest.raises(ConfigError, match="training.rounds"):
        resolve(raw)


def test_strategy_cross_key_rejection():
    raw = minimal_raw(strategy={"kind": "fedavg", "beta": 0.1})
    with pytest.raises(ConfigError, match="strategy.beta.*only applies to fedka"):
        resolve(raw)
    raw = minimal_raw(strategy={"kind": "fedprox"})
    with pytest.raises(ConfigError, match="strategy.mu.*required"):
        resolve(raw)
    raw = minimal_raw(strategy={"kind": "fedka", "mu": 0.5})
    with pytest.raises(ConfigError, match="strategy.mu"):
        resolve(raw)


def test_fedka_defaults():
    cfg = resolve(minimal_raw(strategy={"kind": "fedka"}))
    s = cfg.strategy
    assert s.beta == 0.1 and s.mu_anchor == 10
    assert s.selection == "random" and s.variant == "full"
    # teacher logits are always computed once per round; the old switch is gone
    raw = minimal_raw(strategy={"kind": "fedka", "cache_teacher_logits": True})
    with pytest.raises(ConfigError, match="strategy.cache_teacher_logits.*unknown key"):
        resolve(raw)


def test_gamma_range():
    for bad in (0.0, 1.0, 1.5, -0.2):
        raw = minimal_raw()
        raw["partition"]["gamma"] = bad
        with pytest.raises(ConfigError, match="partition.gamma"):
            resolve(raw)
    raw = minimal_raw()
    raw["partition"]["gamma"] = 0.3
    assert resolve(raw).partition.gamma == 0.3


def test_reduction_schedule_rows_validated():
    raw = minimal_raw(schedules={"reduction": [[0, 2, 1, 5], [1, -1, 0, 3], "x"]})
    with pytest.raises(ConfigError) as err:
        resolve(raw)
    assert any("reduction[1]" in e for e in err.value.errors)
    assert any("reduction[2]" in e for e in err.value.errors)
    raw = minimal_raw(schedules={"reduction": [[0, 2, 1, 5]]})
    assert resolve(raw).reduction == ((0, 2, 1, 5),)


def test_model_hidden_validation():
    raw = minimal_raw(model={"preset": "mlp", "hidden": [8, "x"]})
    with pytest.raises(ConfigError, match="model.hidden"):
        resolve(raw)
    raw = minimal_raw(model={"preset": "t_cnn", "hidden": [8]})
    with pytest.raises(ConfigError, match="model.hidden.*mlp"):
        resolve(raw)


def test_idx_dataset_requires_paths():
    raw = minimal_raw(dataset={"kind": "idx"})
    with pytest.raises(ConfigError) as err:
        resolve(raw)
    for needle in ("train_images", "train_labels", "test_images", "test_labels"):
        assert any(needle in e for e in err.value.errors)


def test_resolved_config_round_trips():
    for strategy in ({"kind": "fedavg"},
                     {"kind": "fedprox", "mu": 0.1},
                     {"kind": "fedka", "beta": 0.05, "selection": "hard"}):
        cfg = resolve(minimal_raw(strategy=strategy))
        again = resolve(cfg.to_dict())
        assert again == cfg
    # every key a config gives comes back out of to_dict: none is dropped
    raw = minimal_raw(dataset={"kind": "idx", "classes": 4, **IDX_PATHS},
                      partition={"file": "assignments.csv", "gamma": 0.2},
                      model={"preset": "t_cnn", "conv_kernel": 3},
                      strategy={"kind": "fedka", "beta": 0.3, "mu_anchor": 4,
                                "selection": "proficient", "variant": "ka_m"})
    cfg = resolve(raw)
    assert resolve(cfg.to_dict()) == cfg
    for name in SECTIONS:
        assert set(raw.get(name, {})) <= set(cfg.to_dict()[name]), name


def test_output_root_applies_only_without_explicit_dir():
    cfg = resolve(minimal_raw(), output_root="elsewhere")
    assert cfg.output_dir == "elsewhere/t-seed5"
    cfg = resolve(minimal_raw(output_dir="fixed"), output_root="elsewhere")
    assert cfg.output_dir == "fixed"


def test_partition_file_reference_skips_partition_params():
    raw = minimal_raw(partition={"file": "assignments.csv", "gamma": 0.1})
    cfg = resolve(raw)
    assert cfg.partition.file == "assignments.csv" and cfg.partition.gamma == 0.1
    assert resolve(cfg.to_dict()) == cfg


def test_resolve_partition_accepts_sectionless_config():
    raw = {"name": "p", "master_seed": 3,
           "dataset": {"kind": "synth", "classes": 2, "per_class": 10, "dims": 1,
                       "separation": 2.0},
           "partition": {"clients": 2, "alpha": 1.0}}
    cfg = resolve_partition(raw)
    assert cfg.partition.clients == 2
    # a full config passes through unchanged
    full = minimal_raw(strategy={"kind": "fedprox", "mu": 0.2})
    assert resolve_partition(full).strategy.mu == 0.2


def test_apply_overrides():
    raw = minimal_raw()
    out = apply_overrides(raw, ["training.rounds=7", "strategy.kind=fedprox",
                                "strategy.mu=0.5", "model.hidden=[4,4]"])
    assert out["training"]["rounds"] == 7
    assert out["strategy"] == {"kind": "fedprox", "mu": 0.5}
    assert out["model"]["hidden"] == [4, 4]
    assert raw["strategy"] == {"kind": "fedavg"}  # original untouched
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(raw, ["oops"])


def test_load_config_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(minimal_raw()))
    assert load_config_file(p)["name"] == "t"
    y = tmp_path / "c.yaml"
    y.write_text("name: t\nmaster_seed: 5\nmetrics:\n  xi: 1e-8\n")
    raw = load_config_file(y)
    assert raw["metrics"]["xi"] in ("1e-8", 1e-8)  # YAML 1.1 vs 1.2 readers
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="mapping"):
        load_config_file(bad)
    with pytest.raises(ConfigError, match="not found"):
        load_config_file(tmp_path / "nope.yaml")


# ---------------------------------------------------------------------------
# Pins: the resolved config's bytes and the messages of bad configs
# ---------------------------------------------------------------------------
# config.json, `run --dry-run` and the manifest all print cfg.to_dict(), and
# no golden digests config.json, so these strings pin its bytes. Error order
# is free; the set of messages is pinned.

IDX_PATHS = {"train_images": "tr-img.idx", "train_labels": "tr-lab.idx",
             "test_images": "te-img.idx", "test_labels": "te-lab.idx"}

TO_DICT_CASES = {
    "synth-defaults": minimal_raw(),
    "idx-classes-0": minimal_raw(dataset={"kind": "idx", **IDX_PATHS}),
    "idx-classes-7": minimal_raw(dataset={"kind": "idx", "classes": 7, **IDX_PATHS}),
    "partition-file": minimal_raw(partition={"file": "assignments.csv", "gamma": 0.1}),
    "fedprox": minimal_raw(strategy={"kind": "fedprox", "mu": 0.25}),
    "fedka-all-keys": minimal_raw(strategy={"kind": "fedka", "beta": 0.3, "mu_anchor": 4,
                                            "selection": "proficient", "variant": "ka_m"}),
    "t_cnn": minimal_raw(model={"preset": "t_cnn", "conv_kernel": 3},
                         dataset={"kind": "idx", **IDX_PATHS}),
    "training-metrics": minimal_raw(
        name="sweep", master_seed=2**40 + 3, output_dir="out/x",
        dataset={"kind": "synth", "classes": 4, "per_class": 30, "test_per_class": 9,
                 "dims": 3, "separation": 2, "seed": 77, "test_seed": 78},
        partition={"clients": 5, "alpha": 2, "seed": 9, "min_samples_per_client": 0,
                   "gamma": "0.25"},
        training={"rounds": 7, "local_epochs": 0, "batch_size": 3, "lr": "1e-3",
                  "momentum": 0, "weight_decay": 0, "participation_ratio": 0.5,
                  "parallel_clients": 2},
        metrics={"xi": 1e-6, "checkpoint_interval": 2, "epoch_forgetting": True},
        schedules={"reduction": [[0, 2, 1, 5], [1, 0, 0, 0]]}),
}

ERROR_CASES = {
    "mixed": minimal_raw(bogus=1, training={"rounds": -1, "lr": 0},
                         strategy={"kind": "fedavg", "mu": 0.1},
                         dataset={"kind": "synth", "classes": 0, "per_class": 20,
                                  "dims": 2, "separation": 4.0}),
    "missing": {"dataset": {"kind": "synth"}, "partition": {}, "model": {},
                "strategy": {}},
    "types": minimal_raw(name=5, master_seed="seven",
                         training={"rounds": True, "lr": "fast", "batch_size": 1.5,
                                   "momentum": 1.5, "participation_ratio": 0},
                         metrics={"epoch_forgetting": 1, "xi": 0}),
    "choices": minimal_raw(dataset={"kind": "csv", "classes": 3},
                           model={"preset": "resnet", "conv_kernel": 0},
                           strategy={"kind": "fedka", "selection": "best",
                                     "variant": "x", "mu_anchor": 0, "beta": -1}),
    "partition-and-rows": minimal_raw(
        partition={"clients": 0, "alpha": 0, "gamma": 1.0, "min_samples_per_client": -1},
        model={"preset": "mlp", "hidden": [8, 0]},
        schedules={"reduction": [[0, 2, 1], [0, 1, True, 3], "x"]}),
    "idx-unknown": minimal_raw(dataset={"kind": "idx", "classes": -1,
                                        "train_images": 3, "colour": "red"},
                               model={"preset": "t_cnn", "hidden": [8], "width": 2},
                               strategy={"kind": "fedprox", "beta": 0.1},
                               metrics={"epsilon": 1},
                               schedules={"reduction": 5, "forget": []}),
}

TO_DICT_PINS = {
    'synth-defaults': (
        '{"dataset": {"classes": 3, "dims": 2, "kind": "synth", "per_class": 20, '
        '"seed": 7661223976665057243, "separation": 4.0, "test_per_class": 20, '
        '"test_seed": 4248908799279674886}, "master_seed": 5, '
        '"metrics": {"checkpoint_interval": 0, "epoch_forgetting": false, "xi": 1e-08}, '
        '"model": {"conv_kernel": 5, "hidden": [8], "preset": "mlp"}, "name": "t", '
        '"output_dir": "runs/t-seed5", "partition": {"alpha": 0.5, "clients": 2, '
        '"gamma": 0.05, "min_samples_per_client": 1, "seed": 7574465381494210402}, '
        '"schedules": {"reduction": []}, "strategy": {"kind": "fedavg"}, '
        '"training": {"batch_size": 128, "local_epochs": 10, "lr": 0.01, "momentum": 0.9, '
        '"parallel_clients": 1, "participation_ratio": 1.0, "rounds": 100, '
        '"weight_decay": 1e-05}}'
    ),
    'idx-classes-0': (
        '{"dataset": {"kind": "idx", "test_images": "te-img.idx", "test_labels": "te-lab.idx", '
        '"train_images": "tr-img.idx", "train_labels": "tr-lab.idx"}, "master_seed": 5, '
        '"metrics": {"checkpoint_interval": 0, "epoch_forgetting": false, "xi": 1e-08}, '
        '"model": {"conv_kernel": 5, "hidden": [8], "preset": "mlp"}, "name": "t", '
        '"output_dir": "runs/t-seed5", "partition": {"alpha": 0.5, "clients": 2, '
        '"gamma": 0.05, "min_samples_per_client": 1, "seed": 7574465381494210402}, '
        '"schedules": {"reduction": []}, "strategy": {"kind": "fedavg"}, '
        '"training": {"batch_size": 128, "local_epochs": 10, "lr": 0.01, "momentum": 0.9, '
        '"parallel_clients": 1, "participation_ratio": 1.0, "rounds": 100, '
        '"weight_decay": 1e-05}}'
    ),
    'idx-classes-7': (
        '{"dataset": {"classes": 7, "kind": "idx", "test_images": "te-img.idx", '
        '"test_labels": "te-lab.idx", "train_images": "tr-img.idx", '
        '"train_labels": "tr-lab.idx"}, "master_seed": 5, '
        '"metrics": {"checkpoint_interval": 0, "epoch_forgetting": false, "xi": 1e-08}, '
        '"model": {"conv_kernel": 5, "hidden": [8], "preset": "mlp"}, "name": "t", '
        '"output_dir": "runs/t-seed5", "partition": {"alpha": 0.5, "clients": 2, '
        '"gamma": 0.05, "min_samples_per_client": 1, "seed": 7574465381494210402}, '
        '"schedules": {"reduction": []}, "strategy": {"kind": "fedavg"}, '
        '"training": {"batch_size": 128, "local_epochs": 10, "lr": 0.01, "momentum": 0.9, '
        '"parallel_clients": 1, "participation_ratio": 1.0, "rounds": 100, '
        '"weight_decay": 1e-05}}'
    ),
    'partition-file': (
        '{"dataset": {"classes": 3, "dims": 2, "kind": "synth", "per_class": 20, '
        '"seed": 7661223976665057243, "separation": 4.0, "test_per_class": 20, '
        '"test_seed": 4248908799279674886}, "master_seed": 5, '
        '"metrics": {"checkpoint_interval": 0, "epoch_forgetting": false, "xi": 1e-08}, '
        '"model": {"conv_kernel": 5, "hidden": [8], "preset": "mlp"}, "name": "t", '
        '"output_dir": "runs/t-seed5", "partition": {"file": "assignments.csv", "gamma": 0.1}, '
        '"schedules": {"reduction": []}, "strategy": {"kind": "fedavg"}, '
        '"training": {"batch_size": 128, "local_epochs": 10, "lr": 0.01, "momentum": 0.9, '
        '"parallel_clients": 1, "participation_ratio": 1.0, "rounds": 100, '
        '"weight_decay": 1e-05}}'
    ),
    'fedprox': (
        '{"dataset": {"classes": 3, "dims": 2, "kind": "synth", "per_class": 20, '
        '"seed": 7661223976665057243, "separation": 4.0, "test_per_class": 20, '
        '"test_seed": 4248908799279674886}, "master_seed": 5, '
        '"metrics": {"checkpoint_interval": 0, "epoch_forgetting": false, "xi": 1e-08}, '
        '"model": {"conv_kernel": 5, "hidden": [8], "preset": "mlp"}, "name": "t", '
        '"output_dir": "runs/t-seed5", "partition": {"alpha": 0.5, "clients": 2, '
        '"gamma": 0.05, "min_samples_per_client": 1, "seed": 7574465381494210402}, '
        '"schedules": {"reduction": []}, "strategy": {"kind": "fedprox", "mu": 0.25}, '
        '"training": {"batch_size": 128, "local_epochs": 10, "lr": 0.01, "momentum": 0.9, '
        '"parallel_clients": 1, "participation_ratio": 1.0, "rounds": 100, '
        '"weight_decay": 1e-05}}'
    ),
    'fedka-all-keys': (
        '{"dataset": {"classes": 3, "dims": 2, "kind": "synth", "per_class": 20, '
        '"seed": 7661223976665057243, "separation": 4.0, "test_per_class": 20, '
        '"test_seed": 4248908799279674886}, "master_seed": 5, '
        '"metrics": {"checkpoint_interval": 0, "epoch_forgetting": false, "xi": 1e-08}, '
        '"model": {"conv_kernel": 5, "hidden": [8], "preset": "mlp"}, "name": "t", '
        '"output_dir": "runs/t-seed5", "partition": {"alpha": 0.5, "clients": 2, '
        '"gamma": 0.05, "min_samples_per_client": 1, "seed": 7574465381494210402}, '
        '"schedules": {"reduction": []}, "strategy": {"beta": 0.3, "kind": "fedka", '
        '"mu_anchor": 4, "selection": "proficient", "variant": "ka_m"}, '
        '"training": {"batch_size": 128, "local_epochs": 10, "lr": 0.01, "momentum": 0.9, '
        '"parallel_clients": 1, "participation_ratio": 1.0, "rounds": 100, '
        '"weight_decay": 1e-05}}'
    ),
    't_cnn': (
        '{"dataset": {"kind": "idx", "test_images": "te-img.idx", "test_labels": "te-lab.idx", '
        '"train_images": "tr-img.idx", "train_labels": "tr-lab.idx"}, "master_seed": 5, '
        '"metrics": {"checkpoint_interval": 0, "epoch_forgetting": false, "xi": 1e-08}, '
        '"model": {"conv_kernel": 3, "preset": "t_cnn"}, "name": "t", '
        '"output_dir": "runs/t-seed5", "partition": {"alpha": 0.5, "clients": 2, '
        '"gamma": 0.05, "min_samples_per_client": 1, "seed": 7574465381494210402}, '
        '"schedules": {"reduction": []}, "strategy": {"kind": "fedavg"}, '
        '"training": {"batch_size": 128, "local_epochs": 10, "lr": 0.01, "momentum": 0.9, '
        '"parallel_clients": 1, "participation_ratio": 1.0, "rounds": 100, '
        '"weight_decay": 1e-05}}'
    ),
    'training-metrics': (
        '{"dataset": {"classes": 4, "dims": 3, "kind": "synth", "per_class": 30, "seed": 77, '
        '"separation": 2.0, "test_per_class": 9, "test_seed": 78}, '
        '"master_seed": 1099511627779, "metrics": {"checkpoint_interval": 2, '
        '"epoch_forgetting": true, "xi": 1e-06}, "model": {"conv_kernel": 5, "hidden": [8], '
        '"preset": "mlp"}, "name": "sweep", "output_dir": "out/x", "partition": {"alpha": 2.0, '
        '"clients": 5, "gamma": 0.25, "min_samples_per_client": 0, "seed": 9}, '
        '"schedules": {"reduction": [[0, 2, 1, 5], [1, 0, 0, 0]]}, '
        '"strategy": {"kind": "fedavg"}, "training": {"batch_size": 3, "local_epochs": 0, '
        '"lr": 0.001, "momentum": 0.0, "parallel_clients": 2, "participation_ratio": 0.5, '
        '"rounds": 7, "weight_decay": 0.0}}'
    ),
}

ERROR_PINS = {
    'mixed': [
        'bogus: unknown key (known: dataset, master_seed, metrics, model, name, output_dir, partition, schedules, strategy, training)',
        'dataset.classes: must be >= 1, got 0',
        'strategy.mu: only applies to fedprox',
        'training.lr: must be > 0.0, got 0.0',
        'training.rounds: must be >= 0, got -1',
    ],
    'missing': [
        'dataset.classes: required field is missing',
        'dataset.dims: required field is missing',
        'dataset.per_class: required field is missing',
        'dataset.separation: required field is missing',
        'master_seed: required field is missing',
        'model.preset: required field is missing',
        'partition.alpha: required field is missing',
        'partition.clients: required field is missing',
        'strategy.kind: required field is missing',
    ],
    'types': [
        "master_seed: expected int, got str ('seven')",
        'metrics.epoch_forgetting: expected bool, got int (1)',
        'metrics.xi: must be > 0.0, got 0.0',
        'name: expected str, got int (5)',
        'training.batch_size: expected int, got float (1.5)',
        "training.lr: expected float, got str ('fast')",
        'training.momentum: must be <= 1.0, got 1.5',
        'training.participation_ratio: must be > 0.0, got 0.0',
        'training.rounds: expected an integer, got a boolean',
    ],
    'choices': [
        "dataset.kind: must be one of synth, idx, got 'csv'",
        'model.conv_kernel: must be >= 1, got 0',
        "model.preset: must be one of mlp, t_cnn, got 'resnet'",
        'strategy.beta: must be >= 0.0, got -1.0',
        'strategy.mu_anchor: must be >= 1, got 0',
        "strategy.selection: must be one of random, hard, proficient, got 'best'",
        "strategy.variant: must be one of full, ka_n, ka_m, none, got 'x'",
    ],
    'partition-and-rows': [
        'model.hidden: must be a list of positive integers, got [8, 0]',
        'partition.alpha: must be > 0.0, got 0.0',
        'partition.clients: must be >= 1, got 0',
        'partition.gamma: must be < 1, got 1.0',
        'partition.min_samples_per_client: must be >= 0, got -1',
        'schedules.reduction[0]: must be [client, round, class, keep] of non-negative ints, got [0, 2, 1]',
        'schedules.reduction[1]: must be [client, round, class, keep] of non-negative ints, got [0, 1, True, 3]',
        "schedules.reduction[2]: must be [client, round, class, keep] of non-negative ints, got 'x'",
    ],
    'idx-unknown': [
        'dataset.classes: must be >= 0, got -1',
        'dataset.colour: unknown key (known: classes, dims, kind, per_class, seed, separation, test_images, test_labels, test_per_class, test_seed, train_images, train_labels)',
        'dataset.test_images: required field is missing',
        'dataset.test_labels: required field is missing',
        'dataset.train_images: expected str, got int (3)',
        'dataset.train_labels: required field is missing',
        'metrics.epsilon: unknown key (known: checkpoint_interval, epoch_forgetting, xi)',
        'model.hidden: only applies to the mlp preset',
        'model.width: unknown key (known: conv_kernel, hidden, preset)',
        'schedules.forget: unknown key (known: reduction)',
        'schedules.reduction: must be a list of [client, round, class, keep] rows',
        'strategy.beta: only applies to fedka',
        'strategy.mu: required field is missing',
    ],
}


@pytest.mark.parametrize("case", sorted(TO_DICT_CASES))
def test_to_dict_bytes_pinned(case):
    cfg = resolve(TO_DICT_CASES[case])
    assert json.dumps(cfg.to_dict(), sort_keys=True) == TO_DICT_PINS[case]
    assert resolve(cfg.to_dict()) == cfg


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_messages_pinned(case):
    with pytest.raises(ConfigError) as err:
        resolve(ERROR_CASES[case])
    assert sorted(err.value.errors) == ERROR_PINS[case]


FLOAT_KEYS = ("dataset.separation", "partition.alpha", "partition.gamma", "strategy.mu",
              "strategy.beta", "training.lr", "training.momentum", "training.weight_decay",
              "training.participation_ratio", "metrics.xi")
STRATEGY_OF = {"strategy.mu": "fedprox", "strategy.beta": "fedka"}


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", '"nan"', "1e999"])
def test_non_finite_float_override_rejected(text):
    value = float(json.loads(text))
    for key in FLOAT_KEYS:
        sets = [f"{key}={text}"]
        if key in STRATEGY_OF:
            sets.append(f"strategy.kind={STRATEGY_OF[key]}")
        with pytest.raises(ConfigError) as err:
            resolve(apply_overrides(minimal_raw(), sets))
        assert err.value.errors == [f"{key}: must be finite, got {value}"]


def test_non_finite_float_in_yaml_rejected(tmp_path):
    path = tmp_path / "c.yaml"  # flow-style YAML: a JSON mapping plus YAML's float literals
    path.write_text(json.dumps(minimal_raw())[:-1]
                    + ', "training": {"lr": .nan, "momentum": .inf, "weight_decay": nan},'
                    ' "metrics": {"xi": -.inf}}\n')
    with pytest.raises(ConfigError) as err:
        resolve(load_config_file(path))
    assert sorted(err.value.errors) == [
        "metrics.xi: must be finite, got -inf",
        "training.lr: must be finite, got nan",
        "training.momentum: must be finite, got inf",
        "training.weight_decay: must be finite, got nan",
    ]


def test_seeds_bounded_to_64_bits():
    top = 2**64 - 1
    raw = minimal_raw(master_seed=top)
    raw["dataset"].update(seed=top, test_seed=0)
    raw["partition"]["seed"] = top
    cfg = resolve(raw)
    assert (cfg.master_seed, cfg.dataset.seed, cfg.partition.seed) == (top, top, top)
    # rng masks to 64 bits, so 2**64 + 5 would run as 5 and -1 as 2**64 - 1
    raw = minimal_raw(master_seed=2**64 + 5)
    raw["dataset"].update(seed=2**64, test_seed=-1)
    raw["partition"]["seed"] = -1
    with pytest.raises(ConfigError) as err:
        resolve(raw)
    assert sorted(err.value.errors) == [
        f"dataset.seed: must be <= {top}, got {2**64}",
        "dataset.test_seed: must be >= 0, got -1",
        f"master_seed: must be <= {top}, got {2**64 + 5}",
        "partition.seed: must be >= 0, got -1",
    ]


def test_keys_that_do_not_apply_rejected():
    raw = minimal_raw(partition={"file": "assignments.csv", "clients": 4, "alpha": 0.5,
                                 "seed": 3, "min_samples_per_client": 2})
    with pytest.raises(ConfigError) as err:
        resolve(raw)
    assert sorted(err.value.errors) == [
        f"partition.{key}: only applies without a partition file"
        for key in ("alpha", "clients", "min_samples_per_client", "seed")]
    raw = minimal_raw()
    raw["dataset"]["train_images"] = "tr-img.idx"
    with pytest.raises(ConfigError) as err:
        resolve(raw)
    assert err.value.errors == ["dataset.train_images: only applies to idx"]
    synth_only = {"per_class": 20, "test_per_class": 5, "dims": 2, "separation": 4.0,
                  "seed": 1, "test_seed": 2}
    with pytest.raises(ConfigError) as err:
        resolve(minimal_raw(dataset={"kind": "idx", **IDX_PATHS, **synth_only}))
    assert sorted(err.value.errors) == [
        f"dataset.{key}: only applies to synth" for key in sorted(synth_only)]


def test_derived_seeds_computed_only_when_absent(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return derive_seed(*args)

    monkeypatch.setattr(config, "derive_seed", counting)
    raw = minimal_raw()
    raw["dataset"].update(seed=1, test_seed=2)
    raw["partition"]["seed"] = 3
    resolve(raw)
    assert calls == []
    resolve(minimal_raw())
    assert calls == [(5, "dataset"), (derive_seed(5, "dataset"), "test"), (5, "partition")]


def test_readme_config_table_names_every_key():
    text = README.read_text()
    table = text[text.index("## Config reference"):]
    rows = {}
    for line in table.splitlines()[2:]:
        if line.startswith("|"):
            cells = line.split("|")
            rows[cells[1].strip().strip("`")] = cells[2]
        elif rows:
            break
    schema = {"top level": [f.name for f in fields(ExperimentConfig) if f.metadata]}
    schema.update({name: [f.name for f in fields(cls)] for name, cls in SECTIONS.items()})
    for section, keys in schema.items():
        named = set(re.findall(r"`(\w+)`", rows[section]))
        missing = [key for key in keys if key not in named]
        assert not missing, f"README config table, row {section}: {missing} not named"
