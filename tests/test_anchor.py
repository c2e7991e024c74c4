"""Knowledge-anchor tests.

Expectations are case-split by hand from the role definitions or checked
against inline reference routes (central differences, frequency counts).
"""

import dataclasses

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
    assert shared.shape == (10,)
    for k in range(10):
        assert ds.labels[shared[k]] == k


def test_shared_dataset_deterministic_per_seed():
    ds = blob_ds(k=6)
    a = anchor.build_shared_dataset(ds, seed=5)
    b = anchor.build_shared_dataset(ds, seed=5)
    assert np.array_equal(a, b)
    c = anchor.build_shared_dataset(ds, seed=6)
    assert not np.array_equal(a, c)


def test_shared_dataset_single_contributor_is_fine():
    # all classes present in a tiny dataset: still one pick per class
    ds = data.synth_blobs(3, 1, 2, 4.0, seed=2)
    shared = anchor.build_shared_dataset(ds, seed=0)
    assert sorted(shared.tolist()) == [0, 1, 2]


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
    built = anchor.build_anchor(shard, shared, ds, stream(0, "anchor", 7, 0))
    assert len(built) == 2
    by_label = {e.label: e for e in built.entries}
    assert by_label[0].source == "shared"
    assert by_label[0].sample_id == shared[0]
    assert np.array_equal(by_label[0].input, ds.inputs[shared[0]])
    assert by_label[1].source == "local"
    assert by_label[1].sample_id in set(shard.class_members(1))
    assert np.array_equal(by_label[1].input, ds.inputs[by_label[1].sample_id])
    assert built.dominant == {2}


def test_anchor_empty_when_no_vulnerable_classes():
    ds = blob_ds()
    shard = shard_with_roles(ds, [30, 30, 30])
    assert not shard.missing and not shard.non_dominant
    shared = anchor.build_shared_dataset(ds, seed=3)
    built = anchor.build_anchor(shard, shared, ds, stream(0, "anchor", 0, 0))
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
        built = anchor.build_anchor(shard, shared, ds, stream(11, "anchor", trial))
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
    built = anchor.build_anchor(balanced, shared, ds, stream(1, "a"), variant="ka_m")
    assert len(built) == 0


# ---------------------------------------------------------------------------
# down-sampling
# ---------------------------------------------------------------------------


def big_anchor(n):
    entries = tuple(
        anchor.AnchorEntry(np.array([float(i)]), i, "local", i) for i in range(n)
    )
    return anchor.KnowledgeAnchor(entries, dominant=frozenset())


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
        dominant=frozenset(dominant),
    )


def test_ka_loss_zero_for_identical_states():
    spec = nn.mlp_spec(2, (5,), 3)
    state = nn.init_state(spec, stream(4, "init"))
    a = one_entry_anchor([0.3, -0.7], 1, dominant={2})
    loss, grad = anchor.ka_loss_and_grad(a, state, nn.ModelState(state.params.copy(), state.spec_hash), spec)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(grad))


def test_ka_loss_hand_example():
    # teacher kept logits (1, 0), student kept logits (0, 0): loss = 1
    spec = nn.NetworkSpec((nn.Dense(1, 3),), (1,), 3)
    g_params = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # w maps x→(x,0,0); b=0
    g_state = nn.ModelState(g_params, spec.spec_hash)
    l_state = nn.ModelState(np.zeros(6), spec.spec_hash)
    a = one_entry_anchor([1.0], 0, dominant={2})
    loss, _ = anchor.ka_loss_and_grad(a, g_state, l_state, spec)
    assert loss == 1.0


def test_ka_loss_empty_anchor_contributes_nothing():
    spec = nn.mlp_spec(2, (4,), 3)
    state = nn.init_state(spec, stream(5, "init"))
    empty = anchor.KnowledgeAnchor((), frozenset())
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
    a = anchor.KnowledgeAnchor(entries, dominant=frozenset({2}))
    loss, grad = anchor.ka_loss_and_grad(a, g_state, l_state, spec)
    assert loss > 0
    step = 1e-6
    coords = stream(9, "coords").choice(spec.param_count, size=25, replace=False)
    params = l_state.params.copy()
    for c in coords:
        base = params[c]
        params[c] = base + step
        plus, _ = anchor.ka_loss_and_grad(a, g_state, nn.ModelState(params, spec.spec_hash), spec)
        params[c] = base - step
        minus, _ = anchor.ka_loss_and_grad(a, g_state, nn.ModelState(params, spec.spec_hash), spec)
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


def test_teacher_logits_unchanged_by_workspace_evaluation():
    ds = blob_ds()
    spec = nn.mlp_spec(2, (16,), 3)
    g_state = nn.init_state(spec, stream(15, "init"))
    built = anchor.KnowledgeAnchor(
        tuple(anchor.AnchorEntry(ds.inputs[i], int(ds.labels[i]), "local", int(i)) for i in range(6)),
        dominant=frozenset({0}))
    before = anchor.anchor_rows([built], g_state, spec)
    teacher = before.teacher.copy()
    workspace = nn.Workspace()
    for seed in (16, 17):
        state = nn.init_state(spec, stream(seed, "init"))
        nn.forward(spec, state.params, before.inputs, workspace=workspace)
        nn.forward(spec, state.params, ds.inputs, workspace=workspace)
    assert before.teacher.tobytes() == teacher.tobytes()
    assert anchor.anchor_rows([built], g_state, spec).teacher.tobytes() == teacher.tobytes()


@pytest.mark.parametrize("name", ["mlp", "t_cnn"])
def test_one_teacher_pass_gives_each_anchor_the_logits_of_its_own_pass(name):
    """anchor_rows runs the teacher once over anchors of 2, 1 and 4 rows,
    stacked in another order than they were built in and between stack
    rows without an anchor; each anchor's teacher, kept and scale rows are
    the bytes of a pass over it alone. A NaN in an anchor's inputs is
    reported with its stack row, which counts the rows without one."""
    spec, teacher, _, _, _, built = fused_setup(name)
    anchors = [built, anchor.KnowledgeAnchor(built.entries[1:], frozenset({0, 2})),
               anchor.KnowledgeAnchor(built.entries * 2, frozenset())]
    stack = [None, anchors[2], None, anchors[0], anchors[1], None]
    blocks = anchor.anchor_rows(stack, teacher, spec)
    assert blocks.counts.tolist() == [0, 4, 0, 2, 1, 0]
    for p, a in enumerate(stack):
        if a is None:
            continue
        alone = anchor.anchor_rows([a], teacher, spec)
        mine = slice(blocks.starts[p], blocks.starts[p] + blocks.counts[p])
        assert blocks.teacher[mine].tobytes() == nn.forward_logits(teacher, spec, a.inputs()).tobytes()
        assert blocks.teacher[mine].tobytes() == alone.teacher.tobytes()
        assert blocks.kept[mine].tobytes() == alone.kept.tobytes()
        assert blocks.scale[mine].tobytes() == alone.scale.tobytes()
        assert np.flatnonzero(alone.kept[0]).tolist() == anchor.kept_classes(a.dominant, 4).tolist()
    bad = anchor.AnchorEntry(np.full_like(built.entries[0].input, np.nan), 1, "local", 0)
    with pytest.raises(nn.NonFiniteError, match="network inputs") as info:
        # the bad anchor is the third with rows, on stack row 3
        anchor.anchor_rows([anchors[0], None, anchors[1],
                            anchor.KnowledgeAnchor((bad,), frozenset())], teacher, spec)
    assert info.value.client == 3


def test_layout_without_clients_is_the_layout_of_the_first_clients():
    """layout(sizes) lays out the stack's first len(sizes) clients, as
    layout(sizes, arange(len(sizes))) does, field by field: over anchors of
    4, 2 and 1 rows between stack rows without one, over a prefix of the
    stack, and over a prefix without anchor rows."""
    spec, teacher, _, _, _, built = fused_setup("mlp")
    stack = [None, anchor.KnowledgeAnchor(built.entries * 2, frozenset()), None, built,
             anchor.KnowledgeAnchor(built.entries[1:], frozenset({0, 2})), None]
    blocks = anchor.anchor_rows(stack, teacher, spec)
    for sizes in ([3, 1, 2, 5, 4, 2], [3, 1, 2, 5], [3]):
        prefix, chosen = blocks.layout(sizes), blocks.layout(sizes, np.arange(len(sizes)))
        for field in dataclasses.fields(anchor.FusedRows):
            a, b = getattr(prefix, field.name), getattr(chosen, field.name)
            if a is None or b is None:
                assert a is None and b is None, field.name
            elif isinstance(a, tuple):
                assert a == b, field.name
            else:
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
    assert blocks.layout([3]).anchor is None


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
    """A spec, teacher and student states, a batch's inputs and labels, and a
    round anchor with a shared entry (class 0 missing), a local one (class 1
    non-dominant) and two dominant classes (2, 3)."""
    spec = FUSED_SPECS[name]
    flat = data.synth_blobs(4, 60, int(np.prod(spec.input_shape)), 4.0, seed=30)
    ds = data.LabeledDataset(flat.inputs.reshape(len(flat), *spec.input_shape),
                             flat.labels, 4, "fused")
    shard = shard_with_roles(ds, [0, 1, 60, 40])
    shared = anchor.build_shared_dataset(ds, seed=31)
    built = anchor.build_anchor(shard, shared, ds, stream(32, "anchor"))
    assert [e.source for e in built.entries] == ["shared", "local"]
    assert built.dominant == {2, 3}
    teacher = nn.init_state(spec, stream(33, "init"))
    student = nn.init_state(spec, stream(34, "init"))
    inputs, labels = ds.take(shard.indices[::9])
    return spec, teacher, student, inputs, labels, built


def fused_step(spec, state, inputs, labels, anchored, beta):
    """The training step's loss and gradient for one client alone: a stack
    of one, over the batch rows followed by the rows of ``anchored``, its
    AnchorRows."""
    rows = anchored.layout((len(labels),))
    grad = np.empty((1, spec.param_count))
    logits, _ = anchor.fused_gradient(spec, state.params[None],
                                      np.concatenate([inputs, anchored.inputs]),
                                      labels, rows, beta, grad)
    return float(anchor.fused_losses(logits, labels, rows, beta)[0]), grad[0]


@pytest.mark.parametrize("name", sorted(FUSED_SPECS))
def test_fused_step_equals_ce_plus_beta_ka(name):
    spec, teacher, student, inputs, labels, built = fused_setup(name)
    beta = 0.3
    anchored = anchor.anchor_rows([built], teacher, spec)
    loss, grad = fused_step(spec, student, inputs, labels, anchored, beta)
    ce, ce_grad = nn.ce_loss_and_grad(student, spec, inputs, labels)
    ka, ka_grad = anchor.ka_loss_and_grad(built, teacher, student, spec)
    assert ka > 0
    ref_loss, ref_grad = ce + beta * ka, ce_grad + beta * ka_grad
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()


@pytest.mark.parametrize("name", sorted(FUSED_SPECS))
def test_fused_step_keeps_label_and_finiteness_checks(name):
    # the step takes labels its callers checked once with nn.batch_labels
    # (local_train when it plans a client), and checks every layer's output
    spec, teacher, student, inputs, labels, built = fused_setup(name)
    anchored = anchor.anchor_rows([built], teacher, spec)
    with pytest.raises(nn.ShapeError, match="labels must lie"):
        nn.batch_labels(spec, np.where(labels == 3, spec.class_count, labels), len(inputs))
    huge = nn.ModelState(np.full_like(student.params, 1e308), spec.spec_hash)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(nn.NonFiniteError, match=r"layer 0 \(") as info:
        fused_step(spec, huge, np.abs(inputs) + 1.0, labels, anchored, 0.3)
    assert info.value.client == 0


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


@pytest.mark.parametrize("strategy", ["hard", "proficient"])
def test_scored_selection_makes_one_pass_per_anchor(strategy, monkeypatch):
    """One per_sample_ce pass scores every non-dominant class of the shard,
    and each pick is the one a pass over that class alone gives."""
    ds = data.synth_blobs(5, 40, 2, 4.0, seed=27)
    shard = shard_with_roles(ds, [0, 3, 4, 2, 40], gamma=0.2)
    assert shard.non_dominant == {1, 2, 3} and shard.missing == {0}
    spec = nn.mlp_spec(2, (6,), 5)
    state = nn.init_state(spec, stream(28, "init"))
    pick = np.argmax if strategy == "hard" else np.argmin
    expected = {}
    for k in (1, 2, 3, 4):
        members = shard.class_members(k)
        expected[k] = int(members[pick(nn.per_sample_ce(state, spec, *ds.take(members)))])
    calls = []
    original = nn.per_sample_ce
    monkeypatch.setattr(nn, "per_sample_ce", lambda *args: calls.append(len(args[2])) or original(*args))
    shared = anchor.build_shared_dataset(ds, seed=29)
    chooser = anchor.select_anchor_strategy(shard, strategy, ds, state, spec)
    built = anchor.build_anchor(shard, shared, ds, stream(30, "anchor"), chooser=chooser)
    assert {e.label: e.sample_id for e in built.entries if e.source == "local"} == {
        k: expected[k] for k in (1, 2, 3)}
    assert calls == [3 + 4 + 2]
    # a class outside the non-dominant ones is scored when asked for
    assert chooser(4, stream(31, "pick")) == expected[4] and calls == [9, 40]


@pytest.mark.parametrize("trial", range(12))
def test_scored_selection_picks_as_per_class_passes(trial, monkeypatch):
    """Random shards, class sizes and models: the one-pass scores of every
    non-dominant class equal a pass over that class alone byte for byte, so
    every hard and proficient pick does too. (A plain pass over all the
    classes' rows at once rounds some losses differently: a GEMM's rows
    round by the product's height.)"""
    rng = stream(32, "trial", trial)
    classes = int(rng.integers(4, 11))
    if trial % 4 == 3:
        flat = data.synth_blobs(classes, 40, 64, 3.0, seed=trial)
        ds = data.LabeledDataset(flat.inputs.reshape(-1, 1, 8, 8), flat.labels, classes, "images")
        spec = nn.NetworkSpec((nn.Conv2d(1, 4, 3), nn.Relu(), nn.MaxPool(2), nn.Flatten(),
                               nn.Dense(36, classes)), (1, 8, 8), classes)
    else:
        dims = int(rng.integers(2, 70))
        ds = data.synth_blobs(classes, 150, dims, 3.0, seed=trial)
        spec = nn.mlp_spec(dims, [int(w) for w in rng.integers(2, 130, size=trial % 3)], classes)
    # a full class and a class of a few samples, the others missing, small or large
    counts = [len(ds.class_indices[0]), int(rng.integers(1, 6))] + [
        int(rng.choice([0, rng.integers(1, 20), rng.integers(40, len(ds.class_indices[k]) + 1)]))
        for k in range(2, classes)]
    shard = shard_with_roles(ds, counts, gamma=float(rng.choice([0.05, 0.1, 0.2, 0.3])))
    assert 1 in shard.non_dominant
    state = nn.init_state(spec, stream(33, "init", trial))
    classes_nd = sorted(shard.non_dominant)
    members = [shard.class_members(k) for k in classes_nd]
    alone = [nn.per_sample_ce(state, spec, *ds.take(m)) for m in members]
    scored = []
    original = nn.per_sample_ce
    monkeypatch.setattr(nn, "per_sample_ce", lambda *args: scored.append(original(*args)) or scored[-1])
    shared = anchor.build_shared_dataset(ds, seed=34)
    for strategy, pick in (("hard", np.argmax), ("proficient", np.argmin)):
        chooser = anchor.select_anchor_strategy(shard, strategy, ds, state, spec)
        built = anchor.build_anchor(shard, shared, ds, stream(35, "anchor"), chooser=chooser)
        assert scored.pop().tobytes() == np.concatenate(alone).tobytes() and not scored
        assert {e.label: e.sample_id for e in built.entries if e.source == "local"} == {
            k: int(m[pick(losses)]) for k, m, losses in zip(classes_nd, members, alone)}


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
