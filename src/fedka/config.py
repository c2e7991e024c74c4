"""Declarative experiment configuration.

Configs are JSON or YAML dictionaries validated in full before any work:
every violation is collected and reported with its field path, unknown
keys are rejected, and all defaults are materialized so the resolved
config written into a run's manifest re-runs the experiment verbatim.

Each section is a dataclass whose fields are its keys. A field declares its
key's type, default and checks once; `resolve` reads and `to_dict` writes
every section from those declarations. (No ``from __future__ import
annotations``: the readers take each key's type from ``Field.type``.)
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

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
# Typed sections: each field is one config key
# ---------------------------------------------------------------------------

# A key that applies for one value of its section's discriminating key only:
# (that key, that value, how a rejection reads).
_SYNTH = ("kind", "synth", "to synth")
_IDX = ("kind", "idx", "to idx")
_DIRICHLET = ("file", "", "without a partition file")
_MLP = ("preset", "mlp", "to the mlp preset")
_FEDPROX = ("kind", "fedprox", "to fedprox")
_FEDKA = ("kind", "fedka", "to fedka")
# rng masks seeds to 64 bits, so a seed outside this range aliases one inside
_SEED = {"minimum": 0, "maximum": 2**64 - 1}


def _key(default=MISSING, *, only=None, derived=False, by_hand=False, **checks):
    """A config key with `_Check.value`'s ``checks``. With ``required=True``
    the default only fills a key that does not apply. ``only`` names the
    condition under which the key applies, ``derived`` leaves an absent key
    for `resolve` to derive, and ``by_hand`` leaves all its reading there."""
    return field(default=default, metadata={
        "only": only, "derived": derived, "by_hand": by_hand, "checks": checks})


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = _key(required=True, choices=DATASET_KINDS)
    classes: int = _key(0, by_hand=True)
    per_class: int = _key(0, only=_SYNTH, required=True, minimum=1)
    test_per_class: int = _key(0, only=_SYNTH, derived=True, minimum=1)
    dims: int = _key(0, only=_SYNTH, required=True, minimum=1)
    separation: float = _key(0.0, only=_SYNTH, required=True, minimum=0.0)
    seed: int = _key(0, only=_SYNTH, derived=True, **_SEED)
    test_seed: int = _key(0, only=_SYNTH, derived=True, **_SEED)
    train_images: str = _key("", only=_IDX, required=True)
    train_labels: str = _key("", only=_IDX, required=True)
    test_images: str = _key("", only=_IDX, required=True)
    test_labels: str = _key("", only=_IDX, required=True)


@dataclass(frozen=True)
class PartitionConfig:
    file: str = _key("")
    clients: int = _key(0, only=_DIRICHLET, required=True, minimum=1)
    alpha: float = _key(0.0, only=_DIRICHLET, required=True, exclusive_min=0.0)
    seed: int = _key(0, only=_DIRICHLET, derived=True, **_SEED)
    min_samples_per_client: int = _key(1, only=_DIRICHLET, minimum=0)
    gamma: float = _key(DEFAULT_GAMMA, exclusive_min=0.0)  # and < 1, checked in resolve


@dataclass(frozen=True)
class ModelConfig:
    preset: str = _key(required=True, choices=MODEL_PRESETS)
    hidden: tuple[int, ...] = _key((), only=_MLP, by_hand=True)
    conv_kernel: int = _key(5, minimum=1)


@dataclass(frozen=True)
class StrategyConfig:
    kind: str = _key(required=True, choices=STRATEGY_KINDS)
    mu: float = _key(0.0, only=_FEDPROX, required=True, minimum=0.0)
    beta: float = _key(0.1, only=_FEDKA, minimum=0.0)
    mu_anchor: int = _key(ANCHOR_CAP_DEFAULT, only=_FEDKA, minimum=1)
    selection: str = _key("random", only=_FEDKA, choices=SELECTIONS)
    variant: str = _key("full", only=_FEDKA, choices=VARIANTS)


@dataclass(frozen=True)
class TrainingConfig:
    rounds: int = _key(100, minimum=0)
    local_epochs: int = _key(10, minimum=0)
    batch_size: int = _key(128, minimum=1)
    lr: float = _key(0.01, exclusive_min=0.0)
    momentum: float = _key(0.9, minimum=0.0, maximum=1.0)
    weight_decay: float = _key(1e-5, minimum=0.0)
    participation_ratio: float = _key(1.0, exclusive_min=0.0, maximum=1.0)
    parallel_clients: int = _key(0, minimum=0)  # 0: nn.thread_count chooses


@dataclass(frozen=True)
class MetricsConfig:
    xi: float = _key(DEFAULT_XI, exclusive_min=0.0)
    checkpoint_interval: int = _key(0, minimum=0)  # 0: final checkpoint only
    epoch_forgetting: bool = _key(False)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    name: str = _key("run")
    master_seed: int = _key(required=True, **_SEED)
    dataset: DatasetConfig
    partition: PartitionConfig
    model: ModelConfig
    strategy: StrategyConfig
    training: TrainingConfig
    metrics: MetricsConfig
    reduction: tuple[tuple[int, int, int, int], ...]  # (client, round, class, keep)
    output_dir: str = _key("", derived=True)

    def to_dict(self) -> dict:
        """Fully resolved config; feeding this back reproduces the run."""
        d = _emit(self)
        for name in SECTIONS:
            d[name] = _emit(getattr(self, name))
        if not self.dataset.classes:  # idx: the labels give the class count
            del d["dataset"]["classes"]
        if not self.partition.file:
            del d["partition"]["file"]
        d["schedules"] = {"reduction": [list(entry) for entry in self.reduction]}
        return d


SECTIONS = {f.name: f.type for f in fields(ExperimentConfig) if is_dataclass(f.type)}
_TOP_KEYS = {f.name for f in fields(ExperimentConfig) if f.name != "reduction"} | {"schedules"}
_KNOWN = {cls: {f.name for f in fields(cls)} for cls in SECTIONS.values()}
# per class, each declared key as (name, type, default for `_Check.value`,
# only, derived, by_hand, checks); built once, as resolve runs in every setup
_SCHEMA = {
    cls: [(f.name, f.type, None if f.metadata["checks"].get("required") else f.default,
           *(f.metadata[m] for m in ("only", "derived", "by_hand", "checks")))
          for f in fields(cls) if f.metadata]
    for cls in (ExperimentConfig, *SECTIONS.values())
}
# a section with a required key must be given
_REQUIRED_SECTIONS = {name for name, cls in SECTIONS.items()
                      if any(default is None for _, _, default, *_ in _SCHEMA[cls])}


def _emit(section) -> dict:
    """The keys of a resolved section that apply to it."""
    out = {}
    for name, _, _, only, _, _, _ in _SCHEMA[type(section)]:
        if only is None or getattr(section, only[0]) == only[1]:
            value = getattr(section, name)
            out[name] = list(value) if isinstance(value, tuple) else value
    return out


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


class _Check:
    """Accumulates violations; reads typed values out of a raw mapping."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def keys(self, section: dict, path: str, known: set[str]):
        for key in section:
            if key not in known:
                self.fail(_join(path, key), f"unknown key (known: {', '.join(sorted(known))})")

    def section(self, raw: dict, name: str, known: set[str], required: bool = True) -> dict:
        value = raw.get(name)
        if value is None:
            if required:
                self.fail(name, "section is required")
            return {}
        if not isinstance(value, dict):
            self.fail(name, f"must be a mapping, got {type(value).__name__}")
            return {}
        self.keys(value, name, known)
        return value

    def value(self, section: dict, path: str, key: str, kind, default=None, required=False,
              minimum=None, maximum=None, choices=None, exclusive_min=None):
        v = section.get(key, default)
        full = _join(path, key)
        if v is None:
            if required:
                self.fail(full, "required field is missing")
            return default
        if kind is float and isinstance(v, (str, int)) and not isinstance(v, bool):
            try:
                v = float(v)  # YAML 1.1 reads "1e-8" as a string
            except (ValueError, OverflowError):
                pass
        if kind is int and isinstance(v, bool):
            self.fail(full, "expected an integer, got a boolean")
            return default
        if not isinstance(v, kind):
            self.fail(full, f"expected {kind.__name__}, got {type(v).__name__} ({v!r})")
            return default
        if kind is float and not math.isfinite(v):
            # NaN would pass every bound below: each comparison with it is false
            self.fail(full, f"must be finite, got {v}")
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

    def read(self, section: dict, path: str, cls) -> dict:
        """The keys of ``cls`` read out of ``section``, leaving out keys that
        do not apply (rejected when given), absent derived keys and keys read
        by hand. While the discriminating key is invalid, its keys go unread."""
        out = {}
        for name, kind, default, only, derived, by_hand, checks in _SCHEMA[cls]:
            if only is not None and out[only[0]] != only[1]:
                if name in section and out[only[0]] is not None:
                    self.fail(_join(path, name), f"only applies {only[2]}")
            elif by_hand or (derived and name not in section):
                continue
            elif name in section or default is None:
                out[name] = self.value(section, path, name, kind, default, **checks)
            else:
                out[name] = default
        return out


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
    chk.keys(raw, "", _TOP_KEYS)
    top = chk.read(raw, "", ExperimentConfig)
    given, values = {}, {}
    for name, cls in SECTIONS.items():
        given[name] = chk.section(raw, name, _KNOWN[cls], name in _REQUIRED_SECTIONS)
        values[name] = chk.read(given[name], name, cls)
    dataset, partition, model = values["dataset"], values["partition"], values["model"]

    if dataset["kind"] == "synth":
        dataset["classes"] = chk.value(given["dataset"], "dataset", "classes", int,
                                       required=True, minimum=1)
    elif dataset["kind"] == "idx":
        dataset["classes"] = chk.value(given["dataset"], "dataset", "classes", int,
                                       default=0, minimum=0)
    if partition["gamma"] >= 1.0:
        chk.fail("partition.gamma", f"must be < 1, got {partition['gamma']}")
    if model["preset"] == "mlp":
        hidden = given["model"].get("hidden", [])
        if isinstance(hidden, list) and all(type(h) is int and h >= 1 for h in hidden):
            model["hidden"] = tuple(hidden)
        else:
            chk.fail("model.hidden", f"must be a list of positive integers, got {hidden!r}")

    rows = chk.section(raw, "schedules", {"reduction"}, required=False).get("reduction", [])
    if not isinstance(rows, list):
        chk.fail("schedules.reduction", "must be a list of [client, round, class, keep] rows")
        rows = []
    for i, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and len(row) == 4
                and all(type(v) is int and v >= 0 for v in row)):
            chk.fail(f"schedules.reduction[{i}]",
                     f"must be [client, round, class, keep] of non-negative ints, got {row!r}")

    if chk.errors:
        raise ConfigError(chk.errors)
    # derived defaults, each computed only when its key is absent
    master_seed = top["master_seed"]
    if dataset["kind"] == "synth":
        dataset.setdefault("test_per_class", dataset["per_class"])
        if "seed" not in dataset:
            dataset["seed"] = derive_seed(master_seed, "dataset")
        if "test_seed" not in dataset:
            dataset["test_seed"] = derive_seed(dataset["seed"], "test")
    if not partition["file"] and "seed" not in partition:
        partition["seed"] = derive_seed(master_seed, "partition")
    if not top.get("output_dir"):
        top["output_dir"] = str(Path(output_root or "runs") / f"{top['name']}-seed{master_seed}")
    return ExperimentConfig(
        **top, **{name: cls(**values[name]) for name, cls in SECTIONS.items()},
        reduction=tuple(tuple(row) for row in rows),
    )
