"""Declarative experiment configuration.

Configs are JSON or YAML dictionaries validated in full before any work:
every violation is collected and reported with its field path, unknown
keys are rejected, and all defaults are materialized so the resolved
config written into a run's manifest re-runs the experiment verbatim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .anchor import ANCHOR_CAP_DEFAULT, SELECTIONS, VARIANTS
from .data import DEFAULT_GAMMA
from .metrics import DEFAULT_XI
from .rng import derive_seed

STRATEGY_KINDS = ("fedavg", "fedprox", "fedka")
MODEL_PRESETS = ("mlp", "t_cnn")
DATASET_KINDS = ("synth", "idx")


class ConfigError(ValueError):
    """All validation problems of a config, one per line."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    text = path.read_text()
    if path.suffix == ".json":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: invalid JSON: {exc}"]) from None
    else:
        import yaml
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError([f"{path}: invalid YAML: {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: config must be a mapping, got {type(raw).__name__}"])
    return raw


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply --set key.path=value pairs; values parse as JSON when they can."""
    out = json.loads(json.dumps(raw))  # deep copy, JSON-typed
    for item in assignments:
        if "=" not in item:
            raise ConfigError([f"override {item!r} is not of the form key=value"])
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError([f"override {key!r} descends into a non-mapping"])
        node[parts[-1]] = parsed
    return out


# ---------------------------------------------------------------------------
# Typed sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetConfig:
    kind: str
    classes: int = 0
    per_class: int = 0
    test_per_class: int = 0
    dims: int = 0
    separation: float = 0.0
    seed: int = 0
    test_seed: int = 0
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""


@dataclass(frozen=True)
class PartitionConfig:
    clients: int
    alpha: float
    seed: int
    min_samples_per_client: int
    gamma: float
    file: str = ""


@dataclass(frozen=True)
class ModelConfig:
    preset: str
    hidden: tuple[int, ...] = ()
    conv_kernel: int = 5


@dataclass(frozen=True)
class StrategyConfig:
    kind: str
    mu: float = 0.0
    beta: float = 0.1
    mu_anchor: int = ANCHOR_CAP_DEFAULT
    selection: str = "random"
    variant: str = "full"


@dataclass(frozen=True)
class TrainingConfig:
    rounds: int = 100
    local_epochs: int = 10
    batch_size: int = 128
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-5
    participation_ratio: float = 1.0
    parallel_clients: int = 1


@dataclass(frozen=True)
class MetricsConfig:
    xi: float = DEFAULT_XI
    checkpoint_interval: int = 0  # 0: final checkpoint only
    epoch_forgetting: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    master_seed: int
    dataset: DatasetConfig
    partition: PartitionConfig
    model: ModelConfig
    strategy: StrategyConfig
    training: TrainingConfig
    metrics: MetricsConfig
    reduction: tuple[tuple[int, int, int, int], ...]  # (client, round, class, keep)
    output_dir: str

    def to_dict(self) -> dict:
        """Fully resolved config; feeding this back reproduces the run."""
        if self.dataset.kind == "synth":
            dataset = {k: vars(self.dataset)[k] for k in (
                "kind", "classes", "per_class", "test_per_class", "dims",
                "separation", "seed", "test_seed")}
        else:
            dataset = {k: vars(self.dataset)[k] for k in (
                "kind", "train_images", "train_labels", "test_images", "test_labels")}
            if self.dataset.classes:
                dataset["classes"] = self.dataset.classes
        d: dict[str, Any] = {
            "name": self.name,
            "master_seed": self.master_seed,
            "output_dir": self.output_dir,
            "dataset": dataset,
            "partition": (
                {"file": self.partition.file, "gamma": self.partition.gamma}
                if self.partition.file
                else {k: v for k, v in vars(self.partition).items() if v != ""}
            ),
            "model": {"preset": self.model.preset, "conv_kernel": self.model.conv_kernel},
            "strategy": dict(vars(self.strategy)),
            "training": dict(vars(self.training)),
            "metrics": dict(vars(self.metrics)),
            "schedules": {
                "reduction": [list(entry) for entry in self.reduction],
            },
        }
        if self.model.preset == "mlp":
            d["model"]["hidden"] = list(self.model.hidden)
        if self.strategy.kind != "fedka":
            for key in ("beta", "mu_anchor", "selection", "variant"):
                d["strategy"].pop(key)
        if self.strategy.kind != "fedprox":
            d["strategy"].pop("mu", None)
        return d


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


class _Check:
    """Accumulates violations; reads typed values out of a raw mapping."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def section(self, raw: dict, name: str, known: set[str], required: bool = True) -> dict:
        value = raw.get(name)
        if value is None:
            if required:
                self.fail(name, "section is required")
            return {}
        if not isinstance(value, dict):
            self.fail(name, f"must be a mapping, got {type(value).__name__}")
            return {}
        for key in value:
            if key not in known:
                self.fail(f"{name}.{key}", f"unknown key (known: {', '.join(sorted(known))})")
        return value

    def value(self, section: dict, path: str, key: str, kind, default=None, required=False,
              minimum=None, maximum=None, choices=None, exclusive_min=None):
        v = section.get(key, default)
        full = f"{path}.{key}" if path else key
        if v is None:
            if required:
                self.fail(full, "required field is missing")
            return default
        if kind is float and isinstance(v, str):
            try:
                v = float(v)  # YAML 1.1 reads "1e-8" as a string
            except ValueError:
                pass
        if kind is float and isinstance(v, int) and not isinstance(v, bool):
            v = float(v)
        if kind is int and isinstance(v, bool):
            self.fail(full, "expected an integer, got a boolean")
            return default
        if not isinstance(v, kind):
            self.fail(full, f"expected {kind.__name__}, got {type(v).__name__} ({v!r})")
            return default
        if choices is not None and v not in choices:
            self.fail(full, f"must be one of {', '.join(map(str, choices))}, got {v!r}")
            return default
        if minimum is not None and v < minimum:
            self.fail(full, f"must be >= {minimum}, got {v}")
        if exclusive_min is not None and v <= exclusive_min:
            self.fail(full, f"must be > {exclusive_min}, got {v}")
        if maximum is not None and v > maximum:
            self.fail(full, f"must be <= {maximum}, got {v}")
        return v


def resolve_partition(raw: dict, output_root: str | None = None) -> ExperimentConfig:
    """Resolve a config that may omit the model/strategy sections.

    Partitioning needs only the dataset and partition definitions; a full
    experiment config passes through unchanged.
    """
    raw = dict(raw)
    raw.setdefault("model", {"preset": "mlp", "hidden": []})
    raw.setdefault("strategy", {"kind": "fedavg"})
    return resolve(raw, output_root=output_root)


def resolve(raw: dict, output_root: str | None = None) -> ExperimentConfig:
    """Validate a raw mapping and materialize every default."""
    chk = _Check()
    known_top = {"name", "master_seed", "output_dir", "dataset", "partition", "model",
                 "strategy", "training", "metrics", "schedules"}
    for key in raw:
        if key not in known_top:
            chk.fail(key, f"unknown key (known: {', '.join(sorted(known_top))})")

    master_seed = chk.value(raw, "", "master_seed", int, required=True, minimum=0)
    name = chk.value(raw, "", "name", str, default="run")

    # dataset
    dsec = chk.section(raw, "dataset", {"kind", "classes", "per_class", "test_per_class",
                                        "dims", "separation", "seed", "test_seed",
                                        "train_images", "train_labels", "test_images",
                                        "test_labels"})
    kind = chk.value(dsec, "dataset", "kind", str, required=True, choices=DATASET_KINDS)
    dataset = DatasetConfig(kind=kind or "synth")
    if kind == "synth":
        classes = chk.value(dsec, "dataset", "classes", int, required=True, minimum=1)
        per_class = chk.value(dsec, "dataset", "per_class", int, required=True, minimum=1)
        test_per_class = chk.value(dsec, "dataset", "test_per_class", int,
                                   default=per_class, minimum=1)
        dims = chk.value(dsec, "dataset", "dims", int, required=True, minimum=1)
        separation = chk.value(dsec, "dataset", "separation", float, required=True, minimum=0.0)
        seed = chk.value(dsec, "dataset", "seed", int,
                         default=None if master_seed is None else derive_seed(master_seed, "dataset"))
        if seed is not None:
            test_seed = chk.value(dsec, "dataset", "test_seed", int,
                                  default=derive_seed(seed, "test"))
            dataset = DatasetConfig(
                kind="synth", classes=classes or 1, per_class=per_class or 1,
                test_per_class=test_per_class or 1, dims=dims or 1,
                separation=separation if separation is not None else 1.0,
                seed=seed, test_seed=test_seed,
            )
    elif kind == "idx":
        paths = {}
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            paths[key] = chk.value(dsec, "dataset", key, str, required=True) or ""
        classes = chk.value(dsec, "dataset", "classes", int, default=0, minimum=0)
        dataset = DatasetConfig(kind="idx", classes=classes, **paths)

    # partition
    psec = chk.section(raw, "partition", {"clients", "alpha", "seed",
                                          "min_samples_per_client", "gamma", "file"})
    pfile = chk.value(psec, "partition", "file", str, default="")
    clients = chk.value(psec, "partition", "clients", int, required=not pfile, minimum=1)
    alpha = chk.value(psec, "partition", "alpha", float, required=not pfile, exclusive_min=0.0)
    pseed = chk.value(psec, "partition", "seed", int,
                      default=None if master_seed is None else derive_seed(master_seed, "partition"))
    min_samples = chk.value(psec, "partition", "min_samples_per_client", int, default=1, minimum=0)
    gamma = chk.value(psec, "partition", "gamma", float, default=DEFAULT_GAMMA,
                      exclusive_min=0.0)
    if gamma is not None and gamma >= 1.0:
        chk.fail("partition.gamma", f"must be < 1, got {gamma}")
    partition = PartitionConfig(
        clients=clients or 1, alpha=alpha or 1.0, seed=pseed or 0,
        min_samples_per_client=min_samples if min_samples is not None else 1,
        gamma=gamma or DEFAULT_GAMMA, file=pfile or "",
    )

    # model
    msec = chk.section(raw, "model", {"preset", "hidden", "conv_kernel"})
    preset = chk.value(msec, "model", "preset", str, required=True, choices=MODEL_PRESETS)
    hidden: tuple[int, ...] = ()
    conv_kernel = chk.value(msec, "model", "conv_kernel", int, default=5, minimum=1)
    if preset == "mlp":
        raw_hidden = msec.get("hidden", [])
        if not isinstance(raw_hidden, list) or not all(
            isinstance(h, int) and not isinstance(h, bool) and h >= 1 for h in raw_hidden
        ):
            chk.fail("model.hidden", f"must be a list of positive integers, got {raw_hidden!r}")
        else:
            hidden = tuple(raw_hidden)
    elif preset == "t_cnn" and "hidden" in msec:
        chk.fail("model.hidden", "only applies to the mlp preset")
    model = ModelConfig(preset=preset or "mlp", hidden=hidden, conv_kernel=conv_kernel or 5)

    # strategy
    ssec = chk.section(raw, "strategy", {"kind", "mu", "beta", "mu_anchor", "selection",
                                         "variant"})
    skind = chk.value(ssec, "strategy", "kind", str, required=True, choices=STRATEGY_KINDS)
    mu = beta = 0.0
    mu_anchor = ANCHOR_CAP_DEFAULT
    selection, variant = "random", "full"
    if skind == "fedprox":
        mu = chk.value(ssec, "strategy", "mu", float, required=True, minimum=0.0)
    elif "mu" in ssec:
        chk.fail("strategy.mu", "only applies to fedprox")
    if skind == "fedka":
        beta = chk.value(ssec, "strategy", "beta", float, default=0.1, minimum=0.0)
        mu_anchor = chk.value(ssec, "strategy", "mu_anchor", int, default=ANCHOR_CAP_DEFAULT, minimum=1)
        selection = chk.value(ssec, "strategy", "selection", str, default="random", choices=SELECTIONS)
        variant = chk.value(ssec, "strategy", "variant", str, default="full", choices=VARIANTS)
    else:
        for key in ("beta", "mu_anchor", "selection", "variant"):
            if key in ssec:
                chk.fail(f"strategy.{key}", "only applies to fedka")
    strategy = StrategyConfig(
        kind=skind or "fedavg", mu=mu if mu is not None else 0.0,
        beta=beta if beta is not None else 0.1,
        mu_anchor=mu_anchor or ANCHOR_CAP_DEFAULT,
        selection=selection or "random", variant=variant or "full",
    )

    # training
    tsec = chk.section(raw, "training", {"rounds", "local_epochs", "batch_size", "lr",
                                         "momentum", "weight_decay", "participation_ratio",
                                         "parallel_clients"}, required=False)
    training = TrainingConfig(
        rounds=chk.value(tsec, "training", "rounds", int, default=100, minimum=0),
        local_epochs=chk.value(tsec, "training", "local_epochs", int, default=10, minimum=0),
        batch_size=chk.value(tsec, "training", "batch_size", int, default=128, minimum=1),
        lr=chk.value(tsec, "training", "lr", float, default=0.01, exclusive_min=0.0),
        momentum=chk.value(tsec, "training", "momentum", float, default=0.9, minimum=0.0, maximum=1.0),
        weight_decay=chk.value(tsec, "training", "weight_decay", float, default=1e-5, minimum=0.0),
        participation_ratio=chk.value(tsec, "training", "participation_ratio", float,
                                      default=1.0, exclusive_min=0.0, maximum=1.0),
        parallel_clients=chk.value(tsec, "training", "parallel_clients", int, default=1, minimum=1),
    )

    # metrics
    xsec = chk.section(raw, "metrics", {"xi", "checkpoint_interval", "epoch_forgetting"},
                       required=False)
    metrics = MetricsConfig(
        xi=chk.value(xsec, "metrics", "xi", float, default=DEFAULT_XI, exclusive_min=0.0),
        checkpoint_interval=chk.value(xsec, "metrics", "checkpoint_interval", int, default=0, minimum=0),
        epoch_forgetting=chk.value(xsec, "metrics", "epoch_forgetting", bool, default=False),
    )

    # schedules
    csec = chk.section(raw, "schedules", {"reduction"}, required=False)
    reduction: list[tuple[int, int, int, int]] = []
    raw_sched = csec.get("reduction", [])
    if not isinstance(raw_sched, list):
        chk.fail("schedules.reduction", "must be a list of [client, round, class, keep] rows")
    else:
        for i, row in enumerate(raw_sched):
            ok = (isinstance(row, (list, tuple)) and len(row) == 4
                  and all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in row))
            if not ok:
                chk.fail(f"schedules.reduction[{i}]",
                         f"must be [client, round, class, keep] of non-negative ints, got {row!r}")
            else:
                reduction.append(tuple(row))

    output_dir = chk.value(raw, "", "output_dir", str, default="")
    if not output_dir:
        root = output_root or "runs"
        output_dir = str(Path(root) / f"{name}-seed{master_seed}")

    if chk.errors:
        raise ConfigError(chk.errors)
    return ExperimentConfig(
        name=name, master_seed=master_seed, dataset=dataset, partition=partition,
        model=model, strategy=strategy, training=training, metrics=metrics,
        reduction=tuple(reduction), output_dir=output_dir,
    )
