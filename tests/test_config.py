"""Config loading, validation, overrides, and the resolved round trip."""

import json

import pytest

from fedka.config import (
    ConfigError,
    apply_overrides,
    load_config_file,
    resolve,
    resolve_partition,
)
from fedka.rng import derive_seed


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
