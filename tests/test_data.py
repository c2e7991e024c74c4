"""Dataset, partitioning and role tests.

Role expectations come from direct substitution into the share rule or an
independent brute-force reimplementation; the IDX fixture below is written
byte-by-byte with struct.pack, not through the loader.
"""

import csv
import math
import re
import struct

import numpy as np
import pytest

from fedka import data, nn
from fedka.rng import stream


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------


def test_role_example_mixed():
    dom, non, mis = data.classify_roles([0, 5, 100], 0.05)
    # 5/105 ~ 0.0476 < 0.05, 100/105 above
    assert mis == {0} and non == {1} and dom == {2}


def test_role_boundary_share_is_dominant():
    dom, non, mis = data.classify_roles([50, 50], 0.5)
    assert dom == {0, 1} and not non and not mis


def test_uniform_counts_all_dominant_at_one_over_k():
    for k in (2, 3, 7, 10):
        dom, non, mis = data.classify_roles([13] * k, 1.0 / k)
        assert dom == set(range(k))


def test_roles_match_bruteforce_on_random_counts():
    rng = stream(100, "roles")
    for _ in range(100):
        k = int(rng.integers(2, 12))
        counts = rng.integers(0, 40, size=k)
        if counts.sum() == 0:
            counts[int(rng.integers(k))] = 1
        gamma = float(rng.uniform(0.01, 0.6))
        dom, non, mis = data.classify_roles(counts, gamma)
        total = counts.sum()
        for c in range(k):
            share = counts[c] / total
            if counts[c] == 0:
                assert c in mis
            elif share >= gamma:
                assert c in dom
            else:
                assert c in non
        assert dom | non | mis == set(range(k))
        assert not (dom & non) and not (dom & mis) and not (non & mis)


def test_raising_gamma_never_promotes_to_dominant():
    rng = stream(101, "mono")
    for _ in range(50):
        counts = rng.integers(0, 30, size=8)
        counts[0] += 1
        g1, g2 = sorted(rng.uniform(0.01, 0.9, size=2))
        if g1 == g2:
            continue
        dom_lo, _, _ = data.classify_roles(counts, g1)
        dom_hi, _, _ = data.classify_roles(counts, g2)
        assert dom_hi <= dom_lo


def test_role_input_validation():
    with pytest.raises(ValueError, match="empty client"):
        data.classify_roles([0, 0, 0], 0.05)
    with pytest.raises(ValueError, match="gamma"):
        data.classify_roles([1, 2], 1.5)
    with pytest.raises(ValueError, match="negative"):
        data.classify_roles([-1, 2], 0.05)


# ---------------------------------------------------------------------------
# synthetic blobs
# ---------------------------------------------------------------------------


def test_blobs_are_balanced_and_deterministic():
    ds = data.synth_blobs(4, 200, 3, 5.0, seed=1)
    assert len(ds) == 800
    assert np.array_equal(ds.class_counts, [200] * 4)
    again = data.synth_blobs(4, 200, 3, 5.0, seed=1)
    assert np.array_equal(ds.inputs, again.inputs)
    assert ds.content_hash() == again.content_hash()
    other = data.synth_blobs(4, 200, 3, 5.0, seed=2)
    assert ds.content_hash() != other.content_hash()


def test_blob_center_geometry():
    # K=2 on a line: class means ~ separation apart
    ds = data.synth_blobs(2, 4000, 1, 6.0, seed=3)
    m0 = ds.inputs[ds.labels == 0].mean()
    m1 = ds.inputs[ds.labels == 1].mean()
    assert abs((m1 - m0) - 6.0) < 0.1
    # K=3 polygon: adjacent centers `separation` apart in the plane
    ds = data.synth_blobs(3, 4000, 5, 4.0, seed=4)
    centers = np.array([ds.inputs[ds.labels == k].mean(axis=0) for k in range(3)])
    assert np.allclose(centers[:, 2:], 0.0, atol=0.1)
    for a, b in [(0, 1), (1, 2), (2, 0)]:
        gap = np.linalg.norm(centers[a, :2] - centers[b, :2])
        assert abs(gap - 4.0) < 0.15


def train_linear(train, steps=300, lr=0.5):
    spec = nn.mlp_spec(train.inputs.shape[1], (), train.class_count)
    state = nn.init_state(spec, stream(7, "init"))
    momentum = np.zeros(spec.param_count)
    for _ in range(steps):
        _, grad = nn.ce_loss_and_grad(state, spec, train.inputs, train.labels)
        state.params, momentum = nn.sgd_step(state.params, momentum, grad, lr=lr, momentum_coef=0.9)
    return spec, state


def accuracy(spec, state, ds):
    logits = nn.forward_logits(state, spec, ds.inputs)
    return float((logits.argmax(axis=1) == ds.labels).mean())


def test_separated_blobs_are_linearly_learnable():
    train = data.synth_blobs(4, 200, 2, 8.0, seed=10)
    test = data.synth_blobs(4, 200, 2, 8.0, seed=11)
    spec, state = train_linear(train)
    assert accuracy(spec, state, test) > 0.95


def test_zero_separation_blobs_are_chance_level():
    train = data.synth_blobs(4, 400, 2, 0.0, seed=12)
    test = data.synth_blobs(4, 400, 2, 0.0, seed=13)
    spec, state = train_linear(train)
    assert abs(accuracy(spec, state, test) - 0.25) < 0.08


def test_blob_argument_validation():
    with pytest.raises(ValueError):
        data.synth_blobs(0, 10, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        data.synth_blobs(2, 10, 2, -1.0, seed=0)


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def blob_ds(k=10, per_class=100, seed=20):
    return data.synth_blobs(k, per_class, 2, 4.0, seed=seed)


def test_single_client_gets_everything():
    ds = blob_ds()
    shards = data.dirichlet_partition(ds, 1, 0.5, seed=0)
    assert len(shards) == 1
    assert np.array_equal(shards[0].indices, np.arange(len(ds)))


def test_partition_is_exact_for_many_seeds():
    ds = blob_ds()
    for seed in range(8):
        shards = data.dirichlet_partition(ds, 7, 0.3, seed=seed)
        merged = np.concatenate([s.indices for s in shards])
        assert len(merged) == len(ds)
        assert len(np.unique(merged)) == len(ds)
        for s in shards:
            assert np.array_equal(s.counts, np.bincount(ds.labels[s.indices], minlength=10))


def test_partition_is_deterministic():
    ds = blob_ds()
    a = data.dirichlet_partition(ds, 5, 0.2, seed=42)
    b = data.dirichlet_partition(ds, 5, 0.2, seed=42)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.indices, sb.indices)
    c = data.dirichlet_partition(ds, 5, 0.2, seed=43)
    assert any(not np.array_equal(sa.indices, sc.indices) for sa, sc in zip(a, c))


def test_small_alpha_skews_and_large_alpha_balances():
    ds = blob_ds(per_class=10000)
    skewed = data.dirichlet_partition(ds, 10, 0.1, seed=5)
    matrix = np.stack([s.counts for s in skewed])
    assert np.any(matrix == 0)  # missing classes appear
    top_share = (matrix.max(axis=1) / matrix.sum(axis=1)).mean()
    assert top_share > 0.3

    global_share = ds.class_counts / len(ds)
    for seed in range(10):
        shards = data.dirichlet_partition(ds, 10, 1000.0, seed=seed)
        for s in shards:
            share = s.counts / len(s)
            rel = np.abs(share - global_share) / global_share
            assert rel.max() < 0.2


def test_impossible_minimum_raises_with_advice():
    ds = data.synth_blobs(2, 2, 2, 3.0, seed=1)  # 4 samples
    with pytest.raises(data.PartitionError, match="alpha"):
        data.dirichlet_partition(ds, 5, 0.5, seed=0, max_retries=5)


def test_partition_argument_validation():
    ds = blob_ds(k=4, per_class=50)
    for args, message in [((0, 0.5), "clients must be >= 1, got 0"), ((3, 0.0), "alpha must be > 0, got 0.0"),
                          ((3, -1.0), "alpha must be > 0"), ((3, float("nan")), "alpha must be > 0")]:
        with pytest.raises(ValueError, match=message):
            data.dirichlet_partition(ds, *args, seed=0)
    with pytest.raises(ValueError, match="min_samples_per_client must be >= 0, got -1"):
        data.dirichlet_partition(ds, 3, 0.5, seed=0, min_samples_per_client=-1)
    # no shard may be empty, so a minimum of 0 acts as 1: seed 0's first
    # draw over 6 samples leaves a client empty, and is retried
    tiny = data.synth_blobs(2, 3, 2, 3.0, seed=1)
    with pytest.raises(data.PartitionError):
        data.dirichlet_partition(tiny, 3, 0.3, seed=0, min_samples_per_client=0, max_retries=0)
    for a, b in zip(data.dirichlet_partition(tiny, 3, 0.3, seed=0, min_samples_per_client=0),
                    data.dirichlet_partition(tiny, 3, 0.3, seed=0), strict=True):
        assert len(a) >= 1 and np.array_equal(a.indices, b.indices)


def test_partition_skips_a_class_without_samples():
    """A class absent from the dataset draws nothing and is every shard's
    missing class: the shards are those of the dataset without it."""
    ds = blob_ds(k=3, per_class=40)
    wider = data.LabeledDataset(ds.inputs, ds.labels, 4, "class 3 absent")
    for a, b in zip(data.dirichlet_partition(wider, 3, 0.5, seed=4),
                    data.dirichlet_partition(ds, 3, 0.5, seed=4), strict=True):
        assert np.array_equal(a.indices, b.indices)
        assert a.counts.tolist() == b.counts.tolist() + [0]
        assert 3 in a.missing


def test_shards_expose_roles_with_requested_gamma():
    ds = blob_ds()
    shards = data.dirichlet_partition(ds, 4, 0.1, seed=9, gamma=0.2)
    for s in shards:
        assert s.gamma == 0.2
        dom, non, mis = data.classify_roles(s.counts, 0.2)
        assert (s.dominant, s.non_dominant, s.missing) == (dom, non, mis)
        for k in s.dominant:
            assert s.role_of(k) == "dominant"


# ---------------------------------------------------------------------------
# reduction schedules
# ---------------------------------------------------------------------------


def make_test_shard(ds, class1_count=40):
    idx = np.concatenate([ds.class_indices[0][:60], ds.class_indices[1][:class1_count]])
    return data.make_shard(0, idx, ds, gamma=0.05)


def test_empty_schedule_is_identity():
    ds = blob_ds(k=3)
    shard = make_test_shard(ds)
    assert data.apply_reduction_schedule(shard, [], ds) is shard


def test_stepwise_reduction_to_zero():
    ds = blob_ds(k=3)
    shard = make_test_shard(ds)
    # round by round, each round's rows applied to the shard the round before left
    mid = data.apply_reduction_schedule(shard, [(1, 10)], ds)
    assert mid.counts[1] == 10
    # kept samples are the lowest original indices of that class
    original = shard.class_members(1)
    assert np.array_equal(mid.class_members(1), original[:10])
    late = data.apply_reduction_schedule(mid, [(1, 5)], ds)
    assert late.counts[1] == 5
    assert np.array_equal(late.class_members(1), original[:5])
    gone = data.apply_reduction_schedule(late, [(1, 0)], ds)
    assert gone.counts[1] == 0
    assert 1 in gone.missing
    assert gone.counts[0] == shard.counts[0]
    # keeping a whole class drops nothing: the shard comes back as it was
    assert data.apply_reduction_schedule(gone, [(0, 60), (1, 0)], ds) is gone


def test_reduction_recomputes_roles():
    ds = blob_ds(k=3)
    shard = make_test_shard(ds, class1_count=40)
    assert 1 in shard.dominant
    reduced = data.apply_reduction_schedule(shard, [(1, 2)], ds)
    # 2 of 62 ~ 3.2% < 5%
    assert 1 in reduced.non_dominant


def test_reduction_validation():
    ds = blob_ds(k=3)
    shard = make_test_shard(ds)
    with pytest.raises(ValueError, match="cannot keep 1000 of 40 class-1 samples"):
        data.apply_reduction_schedule(shard, [(1, 1000)], ds)
    with pytest.raises(ValueError, match="cannot keep -1 of 60 class-0 samples"):
        data.apply_reduction_schedule(shard, [(0, -1)], ds)
    with pytest.raises(ValueError, match="class 1 named twice"):
        data.apply_reduction_schedule(shard, [(1, 30), (1, 20)], ds)
    # a class outside the dataset, even with nothing to keep
    for klass in (99, -1):
        with pytest.raises(ValueError, match=rf"^class {klass} outside \[0, 3\)$"):
            data.apply_reduction_schedule(shard, [(klass, 0)], ds)
    # rows are checked in class order, so the lowest bad class is named
    with pytest.raises(ValueError, match="cannot keep 1000 of 60 class-0"):
        data.apply_reduction_schedule(shard, [(1, 1000), (0, 1000)], ds)


# ---------------------------------------------------------------------------
# IDX loading (fixture bytes assembled independently with struct.pack)
# ---------------------------------------------------------------------------


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2):
    n = len(labels)
    img = struct.pack(">IIII", 0x00000803, n, rows, cols) + bytes(pixels)
    lbl = struct.pack(">II", 0x00000801, n) + bytes(labels)
    ip = tmp_path / "img.idx"
    lp = tmp_path / "lbl.idx"
    ip.write_bytes(img)
    lp.write_bytes(lbl)
    return ip, lp


def test_idx_fixture_round_trip(tmp_path):
    ip, lp = write_idx_pair(tmp_path, [0, 255, 128, 64, 10, 20, 30, 40], [1, 0])
    ds = data.load_idx(ip, lp)
    assert len(ds) == 2 and ds.class_count == 2
    assert ds.inputs.shape == (2, 1, 2, 2)
    assert np.array_equal(ds.labels, [1, 0])
    expected0 = np.array([[0 / 255, 255 / 255], [128 / 255, 64 / 255]])
    assert np.array_equal(ds.inputs[0, 0], expected0)
    assert ds.inputs.max() <= 1.0 and ds.inputs.min() >= 0.0


def test_idx_truncated_file_names_lengths(tmp_path):
    ip, lp = write_idx_pair(tmp_path, [1] * 8, [0, 1])
    whole = ip.read_bytes()
    ip.write_bytes(whole[:-3])
    with pytest.raises(data.IdxFormatError, match="expected 24 bytes.*got 21"):
        data.load_idx(ip, lp)
    # the magic and one of the three image dimensions
    ip.write_bytes(whole[:8])
    with pytest.raises(data.IdxFormatError,
                       match=re.escape(f"{ip}: byte 8: truncated header: 8 bytes, need 16")):
        data.load_idx(ip, lp)
    ip.write_bytes(whole[:3])
    with pytest.raises(data.IdxFormatError,
                       match=re.escape(f"{ip}: byte 0: file holds 3 bytes, no room for a magic number")):
        data.load_idx(ip, lp)
    ip.write_bytes(whole)
    lp.write_bytes(lp.read_bytes() + bytes([1]))
    with pytest.raises(data.IdxFormatError,
                       match=re.escape(f"{lp}: byte 11: expected 10 bytes for 2 labels, got 11")):
        data.load_idx(ip, lp)


@pytest.mark.parametrize("class_count", [None, 2])
def test_idx_without_samples_is_rejected(tmp_path, class_count):
    ip, lp = write_idx_pair(tmp_path, [], [])
    with pytest.raises(data.IdxFormatError, match="byte 4: the file holds no images") as err:
        data.load_idx(ip, lp, class_count=class_count)
    assert err.value.offset == 4 and str(ip) in str(err.value)


def test_idx_bad_magic_and_count_mismatch(tmp_path):
    ip, lp = write_idx_pair(tmp_path, [1] * 8, [0, 1])
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x00\x00\x08\x99" + ip.read_bytes()[4:])
    with pytest.raises(data.IdxFormatError, match="magic"):
        data.load_idx(bad, lp)
    short_lbl = tmp_path / "short.idx"
    short_lbl.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes([0]))
    with pytest.raises(data.IdxFormatError, match="labels for"):
        data.load_idx(ip, short_lbl)


def test_idx_label_outside_class_range(tmp_path):
    ip, lp = write_idx_pair(tmp_path, [1] * 8, [0, 5])
    with pytest.raises(data.IdxFormatError, match="outside"):
        data.load_idx(ip, lp, class_count=2)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def test_assignment_csv_round_trip(tmp_path):
    ds = blob_ds(k=4, per_class=50)
    shards = data.dirichlet_partition(ds, 3, 0.4, seed=2, gamma=0.1)
    path = tmp_path / "assign.csv"
    data.export_assignments(shards, path)
    back = data.load_assignments(path, ds, gamma=0.1)
    assert len(back) == len(shards)
    for a, b in zip(shards, back):
        assert a.client_id == b.client_id
        assert np.array_equal(a.indices, b.indices)
        assert (a.dominant, a.non_dominant, a.missing) == (b.dominant, b.non_dominant, b.missing)


def test_assignment_csv_rejects_label_tamper(tmp_path):
    ds = blob_ds(k=4, per_class=50)
    shards = data.dirichlet_partition(ds, 3, 0.4, seed=2)
    path = tmp_path / "assign.csv"
    data.export_assignments(shards, path)
    rows = path.read_text().splitlines()
    first = rows[1].split(",")
    first[2] = str((int(first[2]) + 1) % 4)
    rows[1] = ",".join(first)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="labeled"):
        data.load_assignments(path, ds, gamma=0.1)


def test_assignment_csv_rejects_unknown_samples_and_duplicates(tmp_path):
    ds = blob_ds(k=4, per_class=50)
    path = tmp_path / "assign.csv"
    header = "sample_id,client_id,label\n"
    for idx in (len(ds), -1):
        path.write_text(header + f"0,0,{ds.labels[0]}\n{idx},1,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: sample_id {idx} outside the dataset")):
            data.load_assignments(path, ds, gamma=0.1)
    # one sample given to two clients
    path.write_text(header + f"0,0,{ds.labels[0]}\n1,0,{ds.labels[1]}\n0,1,{ds.labels[0]}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: duplicate sample assignments")):
        data.load_assignments(path, ds, gamma=0.1)


def test_count_matrix_matches_shards(tmp_path):
    ds = blob_ds(k=4, per_class=50)
    shards = data.dirichlet_partition(ds, 3, 0.4, seed=2)
    path = tmp_path / "matrix.csv"
    data.export_count_matrix(shards, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["client", "class_0", "class_1", "class_2", "class_3"]
    for shard, row in zip(shards, rows[1:]):
        assert [int(v) for v in row] == [shard.client_id] + shard.counts.tolist()
    with pytest.raises(ValueError, match="no shards"):
        data.export_count_matrix([], tmp_path / "empty.csv")
    assert not (tmp_path / "empty.csv").exists()


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError, match="labels"):
        data.LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 5]), 3, "bad")
    with pytest.raises(ValueError, match="empty"):
        data.LabeledDataset(np.zeros((0, 2)), np.array([], dtype=int), 3, "empty")
    with pytest.raises(ValueError, match="3 inputs vs 2 labels"):
        data.LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), 3, "short")


def test_shard_rejects_broken_invariants():
    labels, counts, roles = [0, 1, 1], [1, 2], (frozenset({0, 1}), frozenset(), frozenset())
    data.ClientShard(0, [2, 5, 7], labels, counts, *roles, 0.05)
    for indices, labels_, counts_, message in [
        ([2, 5], labels, counts, "indices and labels misaligned"),
        ([2, 5, 7], labels, [1, 1], "counts do not add up to the shard size"),
        ([2, 7, 5], labels, counts, "strictly increasing"),
        ([2, 5, 5], labels, counts, "strictly increasing"),
    ]:
        with pytest.raises(ValueError, match=message):
            data.ClientShard(0, indices, labels_, counts_, *roles, 0.05)
