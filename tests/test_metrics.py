"""Forgetting-degree and accuracy tests with hand-checked expectations."""

import math
import os
import resource
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fedka import data, metrics, nn
from fedka.rng import stream


# ---------------------------------------------------------------------------
# forgetting degree
# ---------------------------------------------------------------------------


def test_forgetting_worked_examples():
    # (0.8 - 0.2) / (0.8 + 1e-8)
    assert metrics.forgetting_degree(0.8, 0.2, 1e-8) == pytest.approx(0.75, abs=1e-7)
    # no change, any accuracy
    for a in (0.0, 0.3, 1.0):
        assert metrics.forgetting_degree(a, a, 1e-8) == 0.0
    # zero global accuracy: pole guarded by xi, large negative value
    assert metrics.forgetting_degree(0.0, 0.4, 1e-8) == pytest.approx(-4e7, rel=1e-9)


def test_forgetting_sign_semantics_and_upper_bound():
    rng = stream(1, "tau")
    for _ in range(100_000):
        g, l = rng.uniform(0.0, 1.0, size=2)
        tau = metrics.forgetting_degree(g, l)
        assert tau <= 1.0
        if l > g:
            assert tau < 0.0
        elif l < g:
            assert tau > 0.0
        else:
            assert tau == 0.0


def test_forgetting_validation():
    with pytest.raises(ValueError):
        metrics.forgetting_degree(1.2, 0.5)
    with pytest.raises(ValueError):
        metrics.forgetting_degree(0.5, 0.5, xi=0.0)


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------


def constant_class0_model(input_dim, k):
    spec = nn.mlp_spec(input_dim, (), k)
    params = np.zeros(spec.param_count)
    params[-k] = 10.0  # bias of class 0
    return spec, nn.ModelState(params, spec.spec_hash)


def test_constant_predictor_class_accuracy():
    ds = data.synth_blobs(4, 50, 3, 2.0, seed=2)
    spec, state = constant_class0_model(3, 4)
    acc = metrics.classwise_accuracy(state, spec, ds)
    assert np.array_equal(acc, [1.0, 0.0, 0.0, 0.0])
    # balanced test set: global equals plain mean
    assert metrics.global_accuracy(acc, ds) == pytest.approx(0.25)
    three = data.synth_blobs(3, 10, 3, 2.0, seed=2)
    with pytest.raises(ValueError, match="model emits 4 classes, test set has 3"):
        metrics.classwise_accuracy(state, spec, three)


def test_random_logits_are_chance_level():
    k = 4
    # one center for every class, and an identity layer: the logits are
    # the inputs' noise, independent of the labels
    ds = data.synth_blobs(k, 1000, k, 0.0, seed=3)
    spec = nn.mlp_spec(k, (), k)
    state = nn.ModelState(np.concatenate([np.eye(k).ravel(), np.zeros(k)]), spec.spec_hash)
    assert nn.forward_logits(state, spec, ds.inputs).tobytes() == ds.inputs.tobytes()
    acc = metrics.classwise_accuracy(state, spec, ds)
    assert np.all(np.abs(acc - 1.0 / k) < 0.05)


def test_argmax_ties_go_to_lowest_class():
    spec = nn.mlp_spec(2, (), 3)
    state = nn.ModelState(np.zeros(spec.param_count), spec.spec_hash)
    ds = data.LabeledDataset(np.ones((3, 2)), np.array([0, 1, 2]), 3, "ties")
    acc = metrics.classwise_accuracy(state, spec, ds)
    # all logits equal -> everything predicted as class 0
    assert np.array_equal(acc, [1.0, 0.0, 0.0])


def test_absent_class_is_nan_and_excluded():
    ds = data.LabeledDataset(np.zeros((4, 2)), np.array([0, 0, 2, 2]), 3, "gap")
    spec, state = constant_class0_model(2, 3)
    acc = metrics.classwise_accuracy(state, spec, ds)
    assert acc[0] == 1.0 and math.isnan(acc[1]) and acc[2] == 0.0
    # weighted global over defined classes only
    assert metrics.global_accuracy(acc, ds) == pytest.approx(0.5)
    shard = data.make_shard(0, np.array([0, 1]), ds, gamma=0.05)
    records = metrics.measure_local_forgetting(shard, acc, acc, round_index=3)
    assert sorted(r.klass for r in records) == [0, 2]
    assert all(r.tau == 0.0 for r in records)  # local model == global column source
    assert {r.role for r in records} == {"dominant", "missing"}


def test_forgetting_records_satisfy_their_own_equation():
    ds = data.synth_blobs(3, 30, 2, 4.0, seed=5)
    spec = nn.mlp_spec(2, (8,), 3)
    g_state = nn.init_state(spec, stream(6, "init"))
    l_state = nn.init_state(spec, stream(7, "init"))
    shard = data.make_shard(1, np.arange(20), ds, gamma=0.05)
    g_acc = metrics.classwise_accuracy(g_state, spec, ds)
    l_acc = metrics.classwise_accuracy(l_state, spec, ds)
    records = metrics.measure_local_forgetting(shard, g_acc, l_acc, round_index=9)
    assert len(records) == 3
    for r in records:
        assert r.tau == metrics.forgetting_degree(r.acc_global, r.acc_local)
        assert r.round == 9 and r.client == 1


def per_class_means(logits, ds):
    """The mean of each class's argmax hits, NaN for a class the test set
    lacks: the reference every evaluation's bytes are checked against."""
    correct = logits.argmax(axis=1) == ds.labels
    return np.array([correct[ds.labels == k].mean() if (ds.labels == k).any() else np.nan
                     for k in range(ds.class_count)])


def test_classwise_accuracy_matches_per_class_means():
    # class 2 has no test samples
    labels = stream(8, "labels").choice([0, 1, 3], size=200)
    ds = data.LabeledDataset(stream(9, "inputs").normal(size=(200, 5)), labels, 4, "gap")
    spec = nn.mlp_spec(5, (), 4)
    state = nn.init_state(spec, stream(9, "init"))
    expected = per_class_means(nn.forward_logits(state, spec, ds.inputs), ds)
    assert math.isnan(expected[2]) and 0 < np.nanmin(expected) < np.nanmax(expected) < 1
    assert metrics.classwise_accuracy(state, spec, ds).tobytes() == expected.tobytes()


def eval_case(preset):
    """A spec and a test set with an absent class (class 2 of 4)."""
    if preset == "mlp":
        spec, shape = nn.mlp_spec(16, (128,), 4), (16,)
    else:
        spec, shape = nn.tcnn_spec((3, 12, 12), 4, conv_kernel=3), (3, 12, 12)
    rng = stream(10, "test", preset)
    labels = rng.choice([0, 1, 3], size=300 if preset == "mlp" else 12)
    inputs = rng.normal(size=(len(labels), *shape)) + labels.reshape(-1, *[1] * len(shape))
    return spec, data.LabeledDataset(inputs, labels, 4, "gap")


@pytest.mark.parametrize("preset", ["mlp", "t_cnn"])
def test_workspace_evaluation_matches_fresh_passes(preset):
    spec, ds = eval_case(preset)
    states = [nn.init_state(spec, stream(s, "init")) for s in (11, 12, 13)]
    workspace = nn.Workspace()
    # back to the first state last: each pass must overwrite what the one before left
    for state in states + states[:1]:
        logits = nn.forward(spec, state.params, ds.inputs, workspace=workspace)[0].tobytes()
        acc = metrics.classwise_accuracy(state, spec, ds, workspace)
        fresh = nn.forward_logits(state, spec, ds.inputs)
        assert logits == fresh.tobytes()
        assert acc.tobytes() == per_class_means(fresh, ds).tobytes()
        assert math.isnan(acc[2])
        records = metrics.measure_local_forgetting(
            data.make_shard(0, np.arange(10), ds, gamma=0.05), acc, acc, 1)
        assert sorted(r.klass for r in records) == [0, 1, 3]


def test_evaluation_rechecks_inputs_whose_base_changed():
    """A read-only view cannot be written, but its writeable base can: each
    evaluation checks the inputs anew."""
    spec = nn.mlp_spec(3, (4,), 2)
    base = stream(20, "x").normal(size=(10, 3))
    ds = data.LabeledDataset(base[:], np.arange(10) % 2, 2, "view")
    assert not ds.inputs.flags.writeable and base.flags.writeable
    state = nn.init_state(spec, stream(21, "init"))
    workspace = nn.Workspace()
    metrics.classwise_accuracies([state], spec, ds, workspace)
    base[3, 1] = np.nan
    with pytest.raises(nn.NonFiniteError, match="non-finite values in network inputs"):
        metrics.classwise_accuracies([state], spec, ds, workspace)


def test_workspace_evaluation_allocates_no_activations():
    ds = data.synth_blobs(10, 500, 64, 4.0, seed=14)  # 5000 test rows, 4 blocks of 1250
    spec = nn.mlp_spec(64, (128,), 10)
    states = [nn.init_state(spec, stream(s, "init")) for s in (15, 16, 17)]
    workspace = nn.Workspace()

    def peak(state, ws):
        # a workspace's memory is mapped outside the malloc heaps, where
        # tracemalloc does not see it: count the pages it faults in too
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        metrics.classwise_accuracy(state, spec, ds, ws)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return tracemalloc.get_traced_memory()[1] - base + faults * resource.getpagesize()

    metrics.classwise_accuracy(states[0], spec, ds, workspace)
    tracemalloc.start()
    try:
        reused = [peak(state, workspace) for state in states]
        fresh = peak(states[0], None)
    finally:
        tracemalloc.stop()
    # a fresh workspace holds one block's 1250x128 float64 activation (1.28 MB) at least
    assert fresh >= 1250 * 128 * 8
    assert max(reused) < 1 << 20


# ---------------------------------------------------------------------------
# evaluation in row blocks on several threads
# ---------------------------------------------------------------------------


def wide_case(states=(15, 16, 17)):
    """The wide benchmark's shape: 5000 test rows, 64 -> 128 -> 10."""
    ds = data.synth_blobs(10, 500, 64, 4.0, seed=14)
    spec = nn.mlp_spec(64, (128,), 10)
    return spec, ds, [nn.init_state(spec, stream(s, "init")) for s in states]


def cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def record_lanes(monkeypatch):
    """The workspace lanes that nn.forward runs through, the threads that
    run it, and (thread, params, inputs) of each failure."""
    lanes, threads, failures = set(), set(), []
    original = nn.forward

    def recorder(spec, params, inputs, *args, workspace=None, **kwargs):
        lanes.add(id(workspace))
        threads.add(threading.get_ident())
        try:
            return original(spec, params, inputs, *args, workspace=workspace, **kwargs)
        except nn.NonFiniteError:
            failures.append((threading.get_ident(), params, inputs))
            raise

    monkeypatch.setattr(nn, "forward", recorder)
    return lanes, threads, failures


def test_row_blocks_are_fixed_by_the_row_count():
    assert metrics.row_blocks(20) == [slice(0, 20)]
    assert metrics.row_blocks(1999) == [slice(0, 1999)]
    assert metrics.row_blocks(5000) == [slice(0, 1250), slice(1250, 2500),
                                        slice(2500, 3750), slice(3750, 5000)]
    for n in (2000, 3999, 4001, 9999, 16000):
        blocks = metrics.row_blocks(n)
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert min(sizes) >= metrics.MIN_BLOCK_ROWS and max(sizes) - min(sizes) <= 1
        assert len(blocks) & (len(blocks) - 1) == 0 and n < 2 * len(blocks) * metrics.MIN_BLOCK_ROWS


def test_blocked_logits_equal_the_whole_set_pass():
    spec, ds, states = wide_case()
    workspace = nn.Workspace()
    blocks = metrics.row_blocks(len(ds))
    assert len(blocks) == 4
    for state in states:
        whole = nn.forward_logits(state, spec, ds.inputs)
        # the last block first: each block's pass writes its own rows only
        for rows in blocks[::-1]:
            logits = nn.forward(spec, state.params, ds.inputs[rows], workspace=workspace)[0]
            assert logits.tobytes() == whole[rows].tobytes()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_accuracies_do_not_depend_on_the_thread_count(threads, monkeypatch):
    spec, ds, states = wide_case()
    expected = np.stack([per_class_means(nn.forward_logits(s, spec, ds.inputs), ds)
                         for s in states])
    cores(monkeypatch, threads)
    lanes, _, _ = record_lanes(monkeypatch)
    workspace = nn.Workspace()
    for _ in range(2):
        accs = metrics.classwise_accuracies(states, spec, ds, workspace)
        assert accs.tobytes() == expected.tobytes()
    assert len(lanes) == threads
    assert metrics.classwise_accuracy(states[1], spec, ds).tobytes() == expected[1].tobytes()


def count_threads(monkeypatch, spec, rows, affinity):
    """Evaluate one state on ``rows`` rows with ``affinity`` cores; returns
    the lanes and threads nn.forward ran on and the pools' sizes."""
    shape = spec.input_shape
    ds = data.LabeledDataset(stream(18, "x").normal(size=(rows, *shape)), np.arange(rows) % 2, 2, "x")
    cores(monkeypatch, affinity)
    lanes, threads, _ = record_lanes(monkeypatch)
    pools = []

    class Pool(nn.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(nn, "ThreadPoolExecutor", Pool)
    metrics.classwise_accuracy(nn.init_state(spec, stream(19, "init")), spec, ds)
    return lanes, threads, pools


@pytest.mark.parametrize("rows, affinity, expected", [
    (5000, 8, 4), (5000, 2, 2), (5000, 1, 1), (2000, 8, 2), (1999, 8, 1), (20, 8, 1)])
def test_thread_count_is_bounded_by_cores_and_blocks(rows, affinity, expected, monkeypatch):
    # 64 * 128 + 128 * 2 multiply-adds a row: a block of 1000 rows or more is
    # above nn.THREAD_MACS
    spec = nn.mlp_spec(64, (128,), 2)
    assert spec.macs_per_row * metrics.MIN_BLOCK_ROWS >= nn.THREAD_MACS
    lanes, threads, pools = count_threads(monkeypatch, spec, rows, affinity)
    # the calling thread is one of them; a pool may hand a finished worker another share
    assert len(lanes) == expected and threading.get_ident() in threads and len(threads) <= expected
    assert pools == ([] if expected == 1 else [expected - 1])


def test_blocks_below_the_work_threshold_run_on_the_calling_thread(monkeypatch):
    spec = nn.mlp_spec(3, (4,), 2)
    assert spec.macs_per_row * 1250 < nn.THREAD_MACS
    lanes, threads, pools = count_threads(monkeypatch, spec, 5000, 8)
    assert len(lanes) == 1 and threads == {threading.get_ident()} and pools == []


def test_more_threads_than_cores_lose_no_block(monkeypatch):
    """8 threads over 8 blocks of 16000 rows, switching every few µs: every
    block's hits must land, for every state."""
    spec = nn.mlp_spec(32, (64,), 2)       # 2176 multiply-adds a row
    assert spec.macs_per_row * 2000 >= nn.THREAD_MACS
    ds = data.LabeledDataset(stream(23, "x").normal(size=(16000, 32)), np.arange(16000) % 2, 2, "stress")
    states = [nn.init_state(spec, stream(s, "init")) for s in range(24, 30)]
    expected = np.stack([per_class_means(nn.forward_logits(s, spec, ds.inputs), ds)
                         for s in states])
    cores(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert metrics.classwise_accuracies(states, spec, ds).tobytes() == expected.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == 1


def test_conv_blocks_use_a_column_scratch_per_thread(monkeypatch):
    # 9 * 64 * 16 + 256 * 3 multiply-adds a row: a 1000-row block is above nn.THREAD_MACS
    spec = nn.NetworkSpec(
        (nn.Conv2d(1, 64, 3), nn.Relu(), nn.MaxPool(2), nn.Flatten(), nn.Dense(256, 3)), (1, 6, 6), 3)
    rng = stream(20, "conv")
    labels = rng.integers(0, 3, size=2000)
    ds = data.LabeledDataset(rng.normal(size=(2000, 1, 6, 6)) + labels[:, None, None, None], labels,
                             3, "conv")
    states = [nn.init_state(spec, stream(s, "init")) for s in (21, 22)]
    cores(monkeypatch, 1)
    serial = metrics.classwise_accuracies(states, spec, ds)
    cores(monkeypatch, 2)
    taken = []
    original = nn.Workspace.take
    monkeypatch.setattr(nn.Workspace, "take",
                        lambda self, size: taken.append((self, size)) or original(self, size))
    workspace = nn.Workspace()
    threaded = metrics.classwise_accuracies(states, spec, ds, workspace)
    assert threaded.tobytes() == serial.tobytes()
    lanes = workspace.lanes(2)
    # each lane takes one block's column matrix from a region of its own:
    # C*k*k rows by 1000 images of 4x4 outputs
    assert all((lane, 9 * 1000 * 16) in taken for lane in lanes)
    assert lanes[0]._memory is not lanes[1]._memory
    assert lanes == workspace.lanes(2)           # kept for the next call


def test_one_block_of_t_cnn_states_runs_on_every_core(monkeypatch):
    """20 rows make one block, but 3 states make 3 units of 85M
    multiply-adds each: 2 cores run them on 2 threads, with the bytes of 1."""
    spec = nn.tcnn_spec((1, 28, 28), 10, conv_kernel=5)
    assert spec.macs_per_row == 4_267_008
    labels = np.arange(20) % 10
    ds = data.LabeledDataset(stream(30, "images").normal(size=(20, 1, 28, 28)) + labels[:, None, None, None],
                             labels, 10, "images")
    assert len(metrics.row_blocks(len(ds))) == 1
    states = [nn.init_state(spec, stream(s, "init")) for s in (31, 32, 33)]
    cores(monkeypatch, 1)
    serial = metrics.classwise_accuracies(states, spec, ds)
    fresh = [nn.forward_logits(state, spec, ds.inputs) for state in states]
    cores(monkeypatch, 2)
    passes = {}
    original = nn.forward

    def recorder(spec, params, inputs, *args, workspace=None, **kwargs):
        logits, caches = original(spec, params, inputs, *args, workspace=workspace, **kwargs)
        passes[id(params)] = (threading.get_ident(), workspace, logits.copy())
        return logits, caches

    monkeypatch.setattr(nn, "forward", recorder)
    workspace = nn.Workspace()
    threaded = metrics.classwise_accuracies(states, spec, ds, workspace)
    assert threaded.tobytes() == serial.tobytes()
    # units 0 and 2 on the calling thread through lane 0, unit 1 on a worker through lane 1
    (t0, w0, _), (t1, w1, _), (t2, w2, _) = (passes[id(s.params)] for s in states)
    assert t0 == t2 == threading.get_ident() != t1
    assert [w0, w1] == workspace.lanes(2) and w2 is w0
    for state, logits in zip(states, fresh):
        assert passes[id(state.params)][2].tobytes() == logits.tobytes()


def test_work_rule_counts_multiply_adds():
    assert nn.mlp_spec(64, (128,), 10).macs_per_row == 9472
    assert nn.mlp_spec(8, (8,), 4).macs_per_row == 96
    assert nn.tcnn_spec((1, 28, 28), 10, conv_kernel=5).macs_per_row == (
        1 * 25 * 32 * 24 * 24 + 32 * 25 * 64 * 8 * 8 + 1024 * 512 + 512 * 10)
    assert nn.THREAD_MACS == 1 << 22


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")   # errstate is per thread
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_overflow_in_a_block_is_raised_with_its_layer(threads, monkeypatch):
    """State 0 overflows at layer 2 in block 1 alone, state 1 at layer 0 in
    every block: the failure of the earliest (state, block) is raised, with
    any thread count, after every thread has stopped."""
    spec, ds, _ = wide_case(())
    inputs = ds.inputs.copy()
    block = metrics.row_blocks(len(ds))[1]
    inputs[block] = 1e305     # 64 * 1e305 stays finite; 128 times that does not
    ds = data.LabeledDataset(inputs, ds.labels, ds.class_count, "planted")
    ones = np.ones(spec.param_count)
    states = [nn.ModelState(ones, spec.spec_hash), nn.ModelState(ones * 1e308, spec.spec_hash)]
    cores(monkeypatch, threads)
    _, _, failures = record_lanes(monkeypatch)
    with pytest.raises(nn.NonFiniteError, match=r"layer 2 \(dense\(128->10\)\)"):
        metrics.classwise_accuracies(states, spec, ds)
    # unit (state 0, block 1) is thread 1's, a worker, unless one thread
    # runs them all
    owner = [t for t, params, x in failures
             if params is states[0].params and np.shares_memory(x, ds.inputs[block])]
    assert len(owner) == 1 and (owner[0] == threading.get_ident()) == (threads == 1)
    assert threading.active_count() == 1


# ---------------------------------------------------------------------------
# rounds to target
# ---------------------------------------------------------------------------


def test_rounds_to_target_crossings():
    curve = [(1, 0.3), (2, 0.6), (3, 0.7)]
    assert metrics.rounds_to_target(curve, 0.5) == 2
    assert metrics.rounds_to_target(curve, 0.6) == 2  # boundary inclusive
    assert metrics.rounds_to_target(curve, 0.9) is None
    # curve against itself at its own final accuracy
    assert metrics.rounds_to_target(curve, curve[-1][1]) == 3


def test_rounds_to_target_validation():
    with pytest.raises(ValueError):
        metrics.rounds_to_target([], 0.5)
    with pytest.raises(ValueError):
        metrics.rounds_to_target([(2, 0.1), (1, 0.2)], 0.5)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    rec = metrics.RoundRecord(
        round=4, global_acc=1 / 3, class_acc=(1 / 3, 2 / 3), participants=(0, 2),
        client_losses={0: 0.123456789012, 2: 1.5},
    )
    forg = [
        metrics.ForgettingRecord(4, 0, 1, "non_dominant", 2 / 3, 1 / 3, 0.5 - 1e-11),
        metrics.ForgettingRecord(4, 2, 0, "missing", 0.25, 0.75, -2.0 + 1e-11),
    ]
    with metrics.MetricsWriter(tmp_path, class_count=2) as writer:
        writer.write_round(rec, [(0, 10), (1, 20), (2, 30)])
        writer.write_forgetting(forg)

    rounds = metrics.read_rounds(tmp_path / "metrics" / "rounds.csv")
    assert len(rounds) == 1
    assert rounds[0].round == 4
    assert rounds[0].global_acc == pytest.approx(1 / 3, abs=1e-10)
    assert rounds[0].class_acc == pytest.approx((1 / 3, 2 / 3), abs=1e-10)

    back = metrics.read_forgetting(tmp_path / "metrics" / "forgetting.csv")
    assert len(back) == 2
    for orig, parsed in zip(forg, back):
        assert (parsed.round, parsed.client, parsed.klass, parsed.role) == (
            orig.round, orig.client, orig.klass, orig.role)
        assert parsed.acc_global == pytest.approx(orig.acc_global, rel=1e-9)
        assert parsed.tau == pytest.approx(orig.tau, rel=1e-9)

    clients = (tmp_path / "metrics" / "clients.csv").read_text().splitlines()
    assert clients[0] == "round,client,participated,n_samples,mean_loss"
    assert clients[1].startswith("4,0,1,10,0.123456789")
    assert clients[2] == "4,1,0,20,"


def test_headers_match_pinned_layout(tmp_path):
    with metrics.MetricsWriter(tmp_path / "plain", class_count=3):
        pass
    plain = tmp_path / "plain"
    assert (plain / "metrics" / "rounds.csv").read_text() == (
        "round,global_acc,acc_class_0,acc_class_1,acc_class_2\n")
    assert (plain / "metrics" / "forgetting.csv").read_text() == (
        "round,client,class,role,acc_global,acc_local,tau\n")
    assert not (plain / "anchors.csv").exists()
    assert not (plain / "metrics" / "forgetting_epochs.csv").exists()

    rec = metrics.ForgettingRecord(2, 1, 0, "missing", 0.5, 0.25, 0.5)
    with metrics.MetricsWriter(tmp_path / "full", 3, anchor_selection="hard",
                               epoch_forgetting=True) as writer:
        writer.write_anchors(2, 1, [(0, "shared", 17)])
        writer.write_epoch_forgetting(3, [rec])
    full = tmp_path / "full"
    assert (full / "anchors.csv").read_text() == (
        "round,client,class,source,sample_id,strategy\n2,1,0,shared,17,hard\n")
    assert (full / "metrics" / "forgetting_epochs.csv").read_text() == (
        "round,epoch,client,class,role,acc_global,acc_local,tau\n2,3,1,0,missing,0.5,0.25,0.5\n")


def test_summary_contains_speedup_table(tmp_path):
    curve = [(1, 0.2), (2, 0.5), (3, 0.8)]
    rec = metrics.RoundRecord(3, 0.8, (0.8, 0.8), (0,), {})
    metrics.write_summary(tmp_path / "summary.json", rec, curve, targets=[0.5, 0.95])
    import json
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["final_global_acc"] == 0.8
    assert payload["rounds_to_target"]["0.5"] == 2
    assert payload["rounds_to_target"]["0.95"] is None
