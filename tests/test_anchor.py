"""Knowledge-anchor tests.

Expectations are case-split by hand from the role definitions or checked
against inline reference routes (central differences, frequency counts).
"""

import numpy as np
import pytest

from fedka import anchor, data, nn
from fedka.rng import stream


def blob_ds(k=3, per_class=100, seed=1):
    return data.synth_blobs(k, per_class, 2, 4.0, seed=seed)


def shard_with_roles(ds, spec_counts, gamma=0.05, client_id=0):
    """Build a shard holding spec_counts[k] samples of each class."""
    idx = np.concatenate([
        ds.class_indices[k][:count] for k, count in enumerate(spec_counts) if count
    ])
    return data.make_shard(client_id, idx, ds, gamma)


# ---------------------------------------------------------------------------
# shared dataset
# ---------------------------------------------------------------------------


def test_shared_dataset_one_sample_per_class():
    ds = blob_ds(k=10)
    shared = anchor.build_shared_dataset(ds, seed=5)
    assert len(shared.inputs) == 10
    for k in range(10):
        assert ds.labels[shared.sample_ids[k]] == k
        assert np.array_equal(shared.inputs[k], ds.inputs[shared.sample_ids[k]])


def test_shared_dataset_deterministic_per_seed():
    ds = blob_ds(k=6)
    a = anchor.build_shared_dataset(ds, seed=5)
    b = anchor.build_shared_dataset(ds, seed=5)
    assert np.array_equal(a.sample_ids, b.sample_ids)
    c = anchor.build_shared_dataset(ds, seed=6)
    assert not np.array_equal(a.sample_ids, c.sample_ids)


def test_shared_dataset_single_contributor_is_fine():
    # all classes present in a tiny dataset: still one pick per class
    ds = data.synth_blobs(3, 1, 2, 4.0, seed=2)
    shared = anchor.build_shared_dataset(ds, seed=0)
    assert sorted(shared.sample_ids.tolist()) == [0, 1, 2]


def test_shared_dataset_missing_class_errors():
    base = blob_ds(k=3)
    gap = data.LabeledDataset(base.inputs[:150], base.labels[:150], 4, "gap")
    with pytest.raises(ValueError, match=r"classes \[2, 3\]"):
        anchor.build_shared_dataset(gap, seed=0)


# ---------------------------------------------------------------------------
# anchor construction
# ---------------------------------------------------------------------------


def test_case_split_missing_from_shared_nondominant_from_local():
    ds = blob_ds()
    shard = shard_with_roles(ds, [0, 2, 60])
    assert (shard.missing, shard.non_dominant, shard.dominant) == ({0}, {1}, {2})
    shared = anchor.build_shared_dataset(ds, seed=3)
    built = anchor.build_anchor(shard, shared, ds, 7, stream(0, "anchor", 7, 0))
    assert len(built) == 2
    by_label = {e.label: e for e in built.entries}
    assert by_label[0].source == "shared"
    assert by_label[0].sample_id == shared.sample_ids[0]
    assert by_label[1].source == "local"
    assert by_label[1].sample_id in set(shard.class_members(1))
    assert np.array_equal(by_label[1].input, ds.inputs[by_label[1].sample_id])
    assert built.dominant == {2}
    assert built.round == 7 and built.owner == 0


def test_anchor_empty_when_no_vulnerable_classes():
    ds = blob_ds()
    shard = shard_with_roles(ds, [30, 30, 30])
    assert not shard.missing and not shard.non_dominant
    shared = anchor.build_shared_dataset(ds, seed=3)
    built = anchor.build_anchor(shard, shared, ds, 0, stream(0, "anchor", 0, 0))
    assert len(built) == 0


def test_anchor_size_and_purity_over_random_shards():
    ds = blob_ds(k=8, per_class=60)
    shared = anchor.build_shared_dataset(ds, seed=9)
    rng = stream(10, "shards")
    for trial in range(60):
        counts = rng.integers(0, 25, size=8)
        if counts.sum() == 0:
            counts[0] = 1
        shard = shard_with_roles(ds, counts, client_id=trial)
        built = anchor.build_anchor(shard, shared, ds, trial, stream(11, "anchor", trial))
        assert len(built) == len(shard.missing) + len(shard.non_dominant)
        for e in built.entries:
            assert e.label not in shard.dominant
            if e.label in shard.missing:
                assert e.source == "shared"
            else:
                assert e.source == "local"
                assert e.sample_id in set(shard.class_members(e.label))


def test_anchor_variants_select_role_subsets():
    ds = blob_ds()
    shard = shard_with_roles(ds, [0, 2, 60])
    assert anchor.anchor_variant(shard, "full") == {0, 1}
    assert anchor.anchor_variant(shard, "ka_n") == {1}
    assert anchor.anchor_variant(shard, "ka_m") == {0}
    assert anchor.anchor_variant(shard, "none") == frozenset()
    with pytest.raises(ValueError, match="variant"):
        anchor.anchor_variant(shard, "both")
    # no missing classes: ka_m degenerates to an empty anchor
    balanced = shard_with_roles(ds, [30, 30, 30])
    shared = anchor.build_shared_dataset(ds, seed=3)
    built = anchor.build_anchor(balanced, shared, ds, 0, stream(1, "a"), variant="ka_m")
    assert len(built) == 0


# ---------------------------------------------------------------------------
# down-sampling
# ---------------------------------------------------------------------------


def big_anchor(n):
    entries = tuple(
        anchor.AnchorEntry(np.array([float(i)]), i, "local", i) for i in range(n)
    )
    return anchor.KnowledgeAnchor(entries, owner=0, round=0, dominant=frozenset())


def test_downsample_caps_and_preserves_entries():
    built = big_anchor(12)
    capped = anchor.downsample_anchor(built, 10, stream(2, "down"))
    assert len(capped) == 10
    assert set(e.sample_id for e in capped.entries) <= set(range(12))
    small = big_anchor(3)
    assert anchor.downsample_anchor(small, 10, stream(2, "down")) is small
    with pytest.raises(ValueError):
        anchor.downsample_anchor(built, 0, stream(2, "down"))


def test_downsample_retention_is_roughly_uniform():
    built = big_anchor(4)
    kept = np.zeros(4, dtype=int)
    for seed in range(1000):
        capped = anchor.downsample_anchor(built, 2, stream(seed, "down"))
        for e in capped.entries:
            kept[e.sample_id] += 1
    assert kept.sum() == 2000
    assert np.all(np.abs(kept - 500) <= 50)


# ---------------------------------------------------------------------------
# logit discarding
# ---------------------------------------------------------------------------


def test_kept_classes_is_ascending_complement_of_dominant():
    assert anchor.kept_classes({1, 3}, 4).tolist() == [0, 2]
    assert anchor.kept_classes(frozenset(), 4).tolist() == [0, 1, 2, 3]
    rng = stream(3, "phi")
    for _ in range(20):
        dom = set(rng.choice(9, size=int(rng.integers(0, 8)), replace=False).tolist())
        assert anchor.kept_classes(dom, 9).tolist() == sorted(set(range(9)) - dom)
    with pytest.raises(ValueError, match="no logits left"):
        anchor.kept_classes({0, 1, 2, 3}, 4)


# ---------------------------------------------------------------------------
# anchor loss
# ---------------------------------------------------------------------------


def one_entry_anchor(x, label, dominant):
    return anchor.KnowledgeAnchor(
        (anchor.AnchorEntry(np.asarray(x, dtype=float), label, "local", 0),),
        owner=0, round=0, dominant=frozenset(dominant),
    )


def test_ka_loss_zero_for_identical_states():
    spec = nn.mlp_spec(2, (5,), 3)
    state = nn.init_state(spec, stream(4, "init"))
    a = one_entry_anchor([0.3, -0.7], 1, dominant={2})
    loss, grad = anchor.ka_loss_and_grad(a, state, state.copy(), spec)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(grad))


def test_ka_loss_hand_example():
    # teacher kept logits (1, 0), student kept logits (0, 0): loss = 1
    spec = nn.NetworkSpec((nn.Dense(1, 3),), (1,), 3)
    g_params = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # w maps x→(x,0,0); b=0
    g_state = nn.ModelState(g_params, np.zeros(6), spec.spec_hash)
    l_state = nn.ModelState(np.zeros(6), np.zeros(6), spec.spec_hash)
    a = one_entry_anchor([1.0], 0, dominant={2})
    loss, _ = anchor.ka_loss_and_grad(a, g_state, l_state, spec)
    assert loss == 1.0


def test_ka_loss_empty_anchor_contributes_nothing():
    spec = nn.mlp_spec(2, (4,), 3)
    state = nn.init_state(spec, stream(5, "init"))
    empty = anchor.KnowledgeAnchor((), 0, 0, frozenset())
    loss, grad = anchor.ka_loss_and_grad(empty, state, state, spec)
    assert loss == 0.0 and not grad.any()


def test_ka_grad_matches_central_differences():
    spec = nn.mlp_spec(3, (6,), 4)
    g_state = nn.init_state(spec, stream(6, "init"))
    l_state = nn.init_state(spec, stream(7, "init"))
    entries = tuple(
        anchor.AnchorEntry(stream(8, "x", i).normal(size=3), i % 4, "local", i)
        for i in range(3)
    )
    a = anchor.KnowledgeAnchor(entries, 0, 0, dominant=frozenset({2}))
    loss, grad = anchor.ka_loss_and_grad(a, g_state, l_state, spec)
    assert loss > 0
    step = 1e-6
    coords = stream(9, "coords").choice(spec.param_count, size=25, replace=False)
    params = l_state.params.copy()
    for c in coords:
        base = params[c]
        params[c] = base + step
        plus, _ = anchor.ka_loss_and_grad(a, g_state, nn.ModelState(params, l_state.momentum, spec.spec_hash), spec)
        params[c] = base - step
        minus, _ = anchor.ka_loss_and_grad(a, g_state, nn.ModelState(params, l_state.momentum, spec.spec_hash), spec)
        params[c] = base
        numeric = (plus - minus) / (2 * step)
        assert abs(grad[c] - numeric) / max(abs(grad[c]), abs(numeric), 1e-12) < 1e-4


def test_teacher_is_frozen_data():
    spec = nn.mlp_spec(2, (4,), 3)
    l_state = nn.init_state(spec, stream(10, "init"))
    g1 = nn.init_state(spec, stream(11, "init"))
    g2 = nn.init_state(spec, stream(12, "init"))
    a = one_entry_anchor([0.5, 0.5], 0, dominant=set())
    loss1, _ = anchor.ka_loss_and_grad(a, g1, l_state, spec)
    loss2, _ = anchor.ka_loss_and_grad(a, g2, l_state, spec)
    assert loss1 != loss2  # the teacher moves the loss...
    # ...but precomputed teacher logits give identical results: the teacher
    # enters only as data
    cached = nn.forward_logits(g1, spec, a.inputs())
    loss_cached, grad_cached = anchor.ka_loss_and_grad(a, g2, l_state, spec, teacher_logits=cached)
    loss_direct, grad_direct = anchor.ka_loss_and_grad(a, g1, l_state, spec)
    assert loss_cached == loss_direct
    assert np.array_equal(grad_cached, grad_direct)


def test_ka_loss_rejects_mismatched_specs():
    spec_a = nn.mlp_spec(2, (4,), 3)
    spec_b = nn.mlp_spec(2, (5,), 3)
    a_state = nn.init_state(spec_a, stream(13, "init"))
    b_state = nn.init_state(spec_b, stream(14, "init"))
    an = one_entry_anchor([0.1, 0.2], 0, dominant=set())
    with pytest.raises(nn.ShapeError):
        anchor.ka_loss_and_grad(an, b_state, a_state, spec_a)


FUSED_SPECS = {"mlp": nn.mlp_spec(5, (7,), 4), "t_cnn": nn.tcnn_spec((1, 12, 12), 4, 3)}


def fused_setup(name):
    """A spec, teacher and student states, a batch, and a round anchor with a
    shared entry (class 0 missing), a local one (class 1 non-dominant) and
    two dominant classes (2, 3)."""
    spec = FUSED_SPECS[name]
    flat = data.synth_blobs(4, 60, int(np.prod(spec.input_shape)), 4.0, seed=30)
    ds = data.LabeledDataset(flat.inputs.reshape(len(flat), *spec.input_shape),
                             flat.labels, 4, "fused")
    shard = shard_with_roles(ds, [0, 1, 60, 40])
    shared = anchor.build_shared_dataset(ds, seed=31)
    built = anchor.build_anchor(shard, shared, ds, 1, stream(32, "anchor"))
    assert [e.source for e in built.entries] == ["shared", "local"]
    assert built.dominant == {2, 3}
    teacher = nn.init_state(spec, stream(33, "init"))
    student = nn.init_state(spec, stream(34, "init"))
    inputs, labels = ds.take(shard.indices[::9])
    return spec, teacher, student, nn.Batch(inputs, labels), built


@pytest.mark.parametrize("name", sorted(FUSED_SPECS))
def test_fused_step_equals_ce_plus_beta_ka(name):
    spec, teacher, student, batch, built = fused_setup(name)
    beta = 0.3
    target = anchor.anchor_target(built, teacher, spec)
    loss, grad = anchor.anchored_loss_and_grad(student, spec, batch, target, beta)
    ce, ce_grad = nn.ce_loss_and_grad(student, spec, batch)
    ka, ka_grad = anchor.ka_loss_and_grad(built, teacher, student, spec)
    assert ka > 0
    ref_loss, ref_grad = ce + beta * ka, ce_grad + beta * ka_grad
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()


@pytest.mark.parametrize("name", sorted(FUSED_SPECS))
def test_fused_step_keeps_label_and_finiteness_checks(name):
    spec, teacher, student, batch, built = fused_setup(name)
    target = anchor.anchor_target(built, teacher, spec)
    bad = nn.Batch(batch.inputs, np.where(batch.labels == 3, spec.class_count, batch.labels))
    with pytest.raises(nn.ShapeError, match="labels must lie"):
        anchor.anchored_loss_and_grad(student, spec, bad, target, 0.3)
    huge = nn.ModelState(np.full_like(student.params, 1e308), student.momentum, spec.spec_hash)
    positive = nn.Batch(np.abs(batch.inputs) + 1.0, batch.labels)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(nn.NonFiniteError, match=r"layer 0 \("):
        anchor.anchored_loss_and_grad(huge, spec, positive, target, 0.3)


# ---------------------------------------------------------------------------
# selection strategies
# ---------------------------------------------------------------------------


def scored_setup():
    ds = blob_ds(k=3, per_class=50, seed=20)
    shard = shard_with_roles(ds, [0, 2, 60])
    spec = nn.mlp_spec(2, (6,), 3)
    state = nn.init_state(spec, stream(21, "init"))
    return ds, shard, spec, state


def test_singleton_class_all_strategies_agree():
    ds = blob_ds(k=3, per_class=50, seed=20)
    shard = shard_with_roles(ds, [0, 1, 60])
    spec = nn.mlp_spec(2, (6,), 3)
    state = nn.init_state(spec, stream(21, "init"))
    only = int(shard.class_members(1)[0])
    rng = stream(22, "pick")
    for strategy in ("random", "hard", "proficient"):
        choose = anchor.select_anchor_strategy(shard, strategy, ds, state, spec)
        assert choose(1, rng) == only


def test_hard_loss_at_least_proficient_loss():
    ds, shard, spec, state = scored_setup()
    hard = anchor.select_anchor_strategy(shard, "hard", ds, state, spec)
    prof = anchor.select_anchor_strategy(shard, "proficient", ds, state, spec)
    rng = stream(23, "pick")
    h = hard(1, rng)
    p = prof(1, rng)
    losses = {
        i: float(nn.per_sample_ce(state, spec, ds.inputs[[i]], ds.labels[[i]])[0])
        for i in shard.class_members(1)
    }
    assert losses[h] >= losses[p]
    assert losses[h] == max(losses.values())
    assert losses[p] == min(losses.values())


def test_loss_ties_break_to_lowest_index():
    # two identical samples of class 0 -> identical losses -> first wins
    inputs = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    ds = data.LabeledDataset(inputs, np.array([0, 0, 1]), 2, "dup")
    shard = data.make_shard(0, np.array([0, 1, 2]), ds, gamma=0.9)
    assert shard.non_dominant == {0, 1}
    spec = nn.mlp_spec(2, (), 2)
    state = nn.init_state(spec, stream(24, "init"))
    for strategy in ("hard", "proficient"):
        choose = anchor.select_anchor_strategy(shard, strategy, ds, state, spec)
        assert choose(0, stream(25, "pick")) == 0


def test_strategy_validation():
    ds, shard, spec, state = scored_setup()
    with pytest.raises(ValueError, match="strategy"):
        anchor.select_anchor_strategy(shard, "easiest", ds)
    with pytest.raises(ValueError, match="model"):
        anchor.select_anchor_strategy(shard, "hard", ds)


def test_random_selection_covers_the_class_members():
    ds, shard, spec, state = scored_setup()
    choose = anchor.select_anchor_strategy(shard, "random", ds)
    members = set(shard.class_members(1))
    picks = {choose(1, stream(26, "pick", t)) for t in range(40)}
    assert picks <= members
    assert len(picks) == len(members)  # both members hit across seeds
