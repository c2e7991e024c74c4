"""Golden SHA-256 digests of the metric files of tiny runs.

Besides the metric CSVs and anchors.csv, the final checkpoint is digested:
the CSVs print 10 significant digits, which can round a last-bit change in
the parameters away, and the checkpoint holds them in full.

A change that claims to keep results bit-identical must keep every digest
here. A change that alters the arithmetic, such as the order in which a sum
is taken, re-pins the digests it moves and says why next to them.

The digests hold for the numpy and BLAS this suite was pinned with; a
different BLAS may round a GEMM differently and move them all at once.
"""

import hashlib
import os
import struct

import numpy as np
import pytest

from fedka import federation, nn
from fedka.config import resolve
from fedka.federation import run_experiment
from fedka.metrics import global_accuracy

BLOB = {
    "dataset": {"kind": "synth", "classes": 4, "per_class": 30, "dims": 4,
                "separation": 5.0, "test_per_class": 15},
    "partition": {"clients": 3, "alpha": 0.2, "min_samples_per_client": 4},
    "model": {"preset": "mlp", "hidden": [6]},
    "training": {"rounds": 3, "local_epochs": 2, "batch_size": 8, "lr": 0.1},
}

CASES = {
    "mlp-fedavg": {**BLOB, "strategy": {"kind": "fedavg"}},
    "mlp-fedprox": {**BLOB, "strategy": {"kind": "fedprox", "mu": 0.5},
                    "metrics": {"epoch_forgetting": True, "checkpoint_interval": 1}},
    "mlp-fedka": {**BLOB, "strategy": {"kind": "fedka", "beta": 0.3}},
    "mlp-fedka-parallel": {**BLOB, "strategy": {"kind": "fedka", "beta": 0.3},
                           "training": {**BLOB["training"], "parallel_clients": 2}},
    # client 0's class 3 shrinks from 11 to 4 to 1 samples: it turns from
    # dominant to non-dominant and enters the anchor
    "mlp-fedka-reduction": {**BLOB, "strategy": {"kind": "fedka", "beta": 0.3},
                            "schedules": {"reduction": [[0, 2, 3, 4], [0, 3, 3, 1]]}},
    "tcnn-fedavg": {
        "partition": {"clients": 2, "alpha": 0.5},
        "model": {"preset": "t_cnn", "conv_kernel": 3},
        "strategy": {"kind": "fedavg"},
        "training": {"rounds": 2, "local_epochs": 1, "batch_size": 8, "lr": 0.05},
    },
}
# hard and proficient anchors pick a non-dominant class's sample by its CE
# loss under the round's global model. gamma 0.5 leaves classes of several
# samples non-dominant, so the two picks differ from each other, from
# random and from round to round
for _selection in ("hard", "proficient"):
    CASES[f"mlp-fedka-{_selection}"] = {
        **BLOB, "partition": {**BLOB["partition"], "gamma": 0.5},
        "strategy": {"kind": "fedka", "beta": 0.3, "selection": _selection}}
# the ablation variants anchor the non-dominant classes alone (ka_n, local
# rows only) or the missing ones alone (ka_m, shared rows only), and a cap of
# one entry samples every anchor of several entries down to one
for _name, _anchor in (("ka_n", {"variant": "ka_n"}), ("ka_m", {"variant": "ka_m"}),
                       ("cap", {"mu_anchor": 1})):
    CASES[f"mlp-fedka-{_name}"] = {
        **BLOB, "partition": {**BLOB["partition"], "gamma": 0.5},
        "strategy": {"kind": "fedka", "beta": 0.3, **_anchor}}
# shards of 82, 20 and 18 samples at batch 24 and one epoch: every round one
# stack holds a client of four steps and two of one step, which leave the
# stack after the first (test_mixed_steps_case_stacks_one_and_several_steps)
CASES["mlp-fedprox-mixed-steps"] = {
    **BLOB, "master_seed": 3, "strategy": {"kind": "fedprox", "mu": 0.5},
    "training": {**BLOB["training"], "local_epochs": 1, "batch_size": 24}}
# the fedka case sends the anchor rows through conv and pool backward too
CASES["tcnn-fedka"] = {**CASES["tcnn-fedavg"], "strategy": {"kind": "fedka", "beta": 0.3}}
CASES["tcnn-fedprox"] = {**CASES["tcnn-fedavg"], "strategy": {"kind": "fedprox", "mu": 0.5},
                         "metrics": {"epoch_forgetting": True}}
# two stacks of one client, in two threads: each needs buffers of its own
CASES["tcnn-fedavg-parallel"] = {**CASES["tcnn-fedavg"],
                                 "training": {**CASES["tcnn-fedavg"]["training"], "parallel_clients": 2}}
# three clients of 2, 14 and 2 samples at batch 3: client 1 (no anchor) takes
# five steps an epoch, the last of two rows, and outlasts the others, whose
# two batch rows are followed by two anchor rows
CASES["tcnn-fedka-steps"] = {**CASES["tcnn-fedka"], "partition": {"clients": 3, "alpha": 0.5},
                             "training": {"rounds": 2, "local_epochs": 2, "batch_size": 3,
                                          "lr": 0.05}}
# the one case whose anchors come from a forward-only pass of a conv stack:
# gamma 0.5 leaves classes of several samples non-dominant, and hard
# selection scores each of them under the round's global model
CASES["tcnn-fedka-hard"] = {**CASES["tcnn-fedka"],
                            "partition": {**CASES["tcnn-fedka"]["partition"], "gamma": 0.5},
                            "strategy": {"kind": "fedka", "beta": 0.3, "selection": "hard"}}

# every checkpoints/final.bin below re-pinned when a checkpoint stopped
# holding the momentum buffer, which every run saved as zeros: each digest
# is the SHA-256 of the file the same run wrote before, cut to its first
# 44 + 8n bytes (header and params), so no parameter moved.
# mlp fedavg and fedprox, and the t_cnn CSVs: pinned before the fused anchor step
# and unchanged by it.
# fedka: final.bin re-pinned with the fused anchor step. The anchor rows share
# the batch's forward and backward pass, so Dense.backward sums batch and
# anchor rows in one GEMM, and beta scales the anchor's logit gradient rather
# than its parameter gradient: the update differs from the two-pass sum in
# rounding only. At this size the CSVs kept their bytes. The parallel run
# must match the serial one byte for byte.
FEDKA = {
    "metrics/clients.csv":
        "bc7fd24c56af991d5523e38fa728e18134953545e4412550e404d01752973b5e",
    "metrics/forgetting.csv":
        "d15f5a774c644859f06e447bbc68c5c40c2fc70f836a1df2fc1fce88c4dec798",
    "metrics/rounds.csv":
        "b3738dbf918a7ea323f796aa53b5db3138df85230d5cd91d2aafbf7a652b84a2",
    "anchors.csv":
        "d216e72116859e237acd6d5e1dd99e49b2449587c369a97d45fdd9f6349992c8",
    "checkpoints/final.bin":
        "9d7563d2933a6db80f9bacc2e54b48e8d63a1e75a96f6b5865ac467b46f04aee",
}
# at this size the t_cnn fedka and fedprox runs print the fedavg run's
# rounds.csv and forgetting.csv; fedka prints its clients.csv too
TCNN_CSVS = {
    "metrics/clients.csv":
        "4f5d0890076149fcac96010320f15b05845affc07fc15f996e6681a60a1afd57",
    "metrics/forgetting.csv":
        "2dd39fa68fcdb9cc7944f37f073366812f095ad82a171903e3280116313b5002",
    "metrics/rounds.csv":
        "b3e1e0b7b13f709b3402640a2b545c496d549da9bb841beb96830e900474ea9e",
}
DIGESTS = {
    "mlp-fedavg": {
        "metrics/clients.csv":
            "bd4a57d12a1a8280de2dd64e67b1d7dd6b9b88c0a09f89844c99f7df8ef2ca77",
        "metrics/forgetting.csv":
            "1097d1a45827d1898fef6c55ef09e25cf2864b7b2d084baa8027e994ae32b5c7",
        "metrics/rounds.csv":
            "a8a53d238345f28332ea2b481ecd878640aa65b3afacc377db2772aaf80d22fa",
        "anchors.csv": "absent",
        "checkpoints/final.bin":
            "de21627fcadbb88fe4c1dd313046d0efe52816062ff3519d6e3430b56dbb855f",
    },
    "mlp-fedprox": {
        "metrics/clients.csv":
            "466bc43aaf02e638ac88ced91c34855c931c6b4c2c74cc03b4f83eb1c1b83ea3",
        "metrics/forgetting.csv":
            "95f3d2e4d40ca578194b9aeb4febf42bba19c7d4b9d130c059d793f4a54c5a7f",
        "metrics/forgetting_epochs.csv":
            "f2812114458a55f8517947860d05191558338cd082c000c0d381bbb15604b3bd",
        "metrics/rounds.csv":
            "b896f2aa1f85c59a2d5c18a1b4ca9707655c91bbfe1ecc822ae737d5a2e068f5",
        "anchors.csv": "absent",
        "checkpoints/final.bin":
            "c3082f3bd214df372a679f7fec59250aad2f2252c51e8286a98698380941bfee",
    },
    "mlp-fedka": FEDKA,
    "mlp-fedka-parallel": FEDKA,
    # pinned before the metric files moved into MetricsWriter
    "mlp-fedka-reduction": {
        "metrics/clients.csv":
            "49dafc64e427b33f9e3c1265a35ef0f881470f060eb6d3580db3afadb4c639d0",
        "metrics/forgetting.csv":
            "5e945681e6831ffc7afa3a3b4cb2fd2e969f5cbb7630cdd817b13363d81abbf5",
        "metrics/rounds.csv":
            "5211e5053ca7be975cc5f7c7d89986485d3ace71ad013d11a3825f85c66ae26f",
        "anchors.csv":
            "5984cb539efb484d38f5908d278639418fcd12de314e4dba0658c0699da3ea20",
        "checkpoints/final.bin":
            "6bf58fc9b2ff8b845d055334e1eb90d12ab4c0549d3384aa0a52226a017d4cb9",
    },
    # pinned before per_sample_ce scored its rows through ce_losses
    "mlp-fedka-hard": {
        "metrics/clients.csv":
            "84738f08b228312d399708aafaef1c4da3a7df698d81950e08c9aac051c1330f",
        "metrics/forgetting.csv":
            "3f4245eaa7af5f82cac630e81389847afd63eacdb838d267fae278a4085a8633",
        "metrics/rounds.csv":
            "d4c581fa97d4d6a743ba019dc42f1c32e494e90887266f29f8cca447d7253a63",
        "anchors.csv":
            "6a20a25a5d997b01aad07ebf09f129a897eb69353eb8778beaea58096e2d802c",
        "checkpoints/final.bin":
            "781611f7cff924fc32b10d44aaab922c25d28c0f7e10ab8e9cf5609ffc03e3ea",
    },
    "mlp-fedka-proficient": {
        "metrics/clients.csv":
            "8db774dd5b8fdb0945ad29514f1d2c02ff03132205bf9aa1e21582b271ef5752",
        "metrics/forgetting.csv":
            "6a25ab7e41c15d7f01a74721cc957f0dbec9822c2676de8125227821d2b1fba8",
        "metrics/rounds.csv":
            "dbb5f08de5ce844367a142a2cf3c6c29d03b4301f50018f9a1363d8196cb7bab",
        "anchors.csv":
            "07e230300a4e1f6b611c7a75474bfb4a66d3c497bd305319f4352f4bc6dac4e6",
        "checkpoints/final.bin":
            "7214fe4c029a0967dc29c661ef379bfc20e78e0c82d8b17ce329d2201d8fcc93",
    },
    "mlp-fedka-ka_n": {
        "metrics/clients.csv":
            "14ad20ea0380f42380e78a63492f1df46c1913096212575794e9c5c3176e6d49",
        "metrics/forgetting.csv":
            "815d930f072a1a76b6e79697a54d935ef937acdb9f6add8baf9e8ba4a2c507b4",
        "metrics/rounds.csv":
            "c55bca9a350a7f79d48ba097965ad5020b1305ee40a588a6a4ead4e7c8b219b0",
        "anchors.csv":
            "e746cc7f2919a396ddb98da73081663c2f68190254861fef5c0616b93a984671",
        "checkpoints/final.bin":
            "ae6508b095fb09ce7135fa64661857dbc1a430723370dd86c686ffd17769586b",
    },
    "mlp-fedka-ka_m": {
        "metrics/clients.csv":
            "64b89fcff8100d7ab9cbb5777819cc403ac9019d3f717e5c5476393c4ae7f47c",
        "metrics/forgetting.csv":
            "6ff052549c3285de054c4b3570efe6fc3a82d3193d89207aac0432f22b8c7453",
        "metrics/rounds.csv":
            "f258cd327cd676cd74e08d863eca162207a40e9613166c336c9285870d1a363b",
        "anchors.csv":
            "96b271933c0664df69c25cfdbc1ca8cd407dff0b69306d99dd3f3c1e78fdbea4",
        "checkpoints/final.bin":
            "7445b042c932173b648b0b2590697a53e536e6506b6f02180d68943ba8c72483",
    },
    "mlp-fedka-cap": {
        "metrics/clients.csv":
            "3819425f0ed7196f5085324e8338269e18280c9b231ec310b65a4417cb476775",
        "metrics/forgetting.csv":
            "f8af3679400b95ad91db649a5c731841d5fcf16e827d63c958d3f947496dac18",
        "metrics/rounds.csv":
            "5daf17131c105a1def6e1530aec43fde49910d21854fd970947dd3ad02aa4100",
        "anchors.csv":
            "5513c43ff1737b0b9bfc9577642c0a2a7e732894ab86bfc9765d61df204814cc",
        "checkpoints/final.bin":
            "aebb572d8dc80e38aa4a29713bf84cf8516afdd3ba02f2dcab4b763a0b4556d3",
    },
    # t_cnn: every final.bin re-pinned when Conv2d's input gradient became
    # col2im (W.T @ grad_out, then k*k shifted adds). It sums the input
    # gradient in another order than the full correlation it replaced, so
    # the parameters differ in rounding; the CSVs kept their bytes
    "tcnn-fedavg": {
        **TCNN_CSVS,
        "anchors.csv": "absent",
        "checkpoints/final.bin":
            "1e16356544a118ab035e33902c15bb79eb2c41625f5383ce765df88438fc0753",
    },
    # CSVs and anchors.csv pinned before layer 0 stopped computing its input
    # gradient and max-pool moved to strided views
    "tcnn-fedka": {
        **TCNN_CSVS,
        "anchors.csv":
            "ab35988fc594f61264f15b4eb91ee4ef75ad660c53101265eaa8883583ce93a2",
        "checkpoints/final.bin":
            "b946f98aa2c9d94f795eb5e0f37e88ee5366867e2f6e2dc09ed8b2c737b71eaa",
    },
    # CSVs and anchors.csv pinned before a round's clients trained in lockstep
    "tcnn-fedka-steps": {
        "metrics/clients.csv":
            "c6b42d58662469390c782ff2fb24202fc5a6f9a3b9f44130429338bc90e71a46",
        "metrics/forgetting.csv":
            "285a576adc19f449eb5f757d82afee9b0292579ce712c2cb230e270010c8dae1",
        "metrics/rounds.csv":
            "929f16a0aa8f855f15c0cfeca6d31c1acb9292ecb7748bd5be95c86f7cca85f5",
        "anchors.csv":
            "cb51b5514f7a3ff7ec542db178f27e4dae05941036703c8419fd7c2f08ea1a1e",
        "checkpoints/final.bin":
            "4ed69f85df099ca318f6238e799d93d4cf59ccf2bfdb0ec6a416cb88288833de",
    },
    # pinned before a stack's forward-only pass ran its conv stage in row
    # chunks, and unchanged by it
    "tcnn-fedka-hard": {
        "metrics/clients.csv":
            "94818e57d6ec4e9c5c3ae1c430c25e83080b120f9d9565f2cf656723038eb2d7",
        "metrics/forgetting.csv":
            "2404f88ee2aa9dc6e879281b8f8e395f84d6b9cf0b470078e56ae4cf26b5129a",
        "metrics/rounds.csv": TCNN_CSVS["metrics/rounds.csv"],
        "anchors.csv":
            "842e57fbe50ebd5d1ab58e7e8ceacfb409548904da40ca840da72fc9fcbe4c1a",
        "checkpoints/final.bin":
            "2bf13c7653b3ceee6f5e551315c84bc5d187e0d0e2497422297ed11bb7877f68",
    },
    # pinned before a first step stopped reading zeroed momentum
    "mlp-fedprox-mixed-steps": {
        "metrics/clients.csv":
            "990129bd70ed84e0fb7118614123efead5a8f3efcf3fe8465e1cf7b537cbfce0",
        "metrics/forgetting.csv":
            "2b5f5f313467f346e3646dd91c010ef75921834c7bc3750dad34a11a7792524f",
        "metrics/rounds.csv":
            "d22f0c24d7453018256179413d42fab2cfb5cee8148e16ae8f4da437467d7ece",
        "anchors.csv": "absent",
        "checkpoints/final.bin":
            "6c4dfe06c027019e824b72f69992c0f75e0159f58150d7c81b6263c40b02b779",
    },
    "tcnn-fedprox": {
        **TCNN_CSVS,
        "metrics/clients.csv":
            "e85e802eac31b6aa6dccf34c4f259468c79098aab3a85bc2b18b424164fcf6d0",
        "metrics/forgetting_epochs.csv":
            "395257d0c6f21e8a2e005ba0c454fc02d55fd1b8622283415a318849b3d5b7d8",
        "anchors.csv": "absent",
        "checkpoints/final.bin":
            "b4daf94e519b7aac59934a7d5e1d84b2a207c8b75f4e71b44f031b0917f7024c",
    },
}
# the parallel run must match the serial one byte for byte
DIGESTS["tcnn-fedavg-parallel"] = DIGESTS["tcnn-fedavg"]


def write_idx_images(directory, classes=3, per_class=6, test_per_class=4, side=10):
    """A bright square per class on a noisy background, written as IDX files."""
    rng = np.random.default_rng(20231204)
    paths = {}
    for split, count in (("train", per_class), ("test", test_per_class)):
        labels = np.repeat(np.arange(classes), count)
        pixels = rng.integers(0, 60, size=(len(labels), side, side))
        for i, k in enumerate(labels):
            pixels[i, 2 * k:2 * k + 4, 2 * k:2 * k + 4] += 180
        images = directory / f"{split}-images.idx"
        label_file = directory / f"{split}-labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, len(labels), side, side)
                           + pixels.astype(np.uint8).tobytes())
        label_file.write_bytes(struct.pack(">II", 0x801, len(labels))
                               + labels.astype(np.uint8).tobytes())
        paths[f"{split}_images"], paths[f"{split}_labels"] = str(images), str(label_file)
    return paths


def run_digests(case, tmp_path):
    raw = {"name": case, "master_seed": 11, "output_dir": str(tmp_path / "run"), **CASES[case]}
    if "dataset" not in raw:
        raw["dataset"] = {"kind": "idx", **write_idx_images(tmp_path)}
    out = run_experiment(resolve(raw))
    files = (sorted((out / "metrics").glob("*.csv"))
             + [out / "anchors.csv", out / "checkpoints" / "final.bin"])
    return {p.relative_to(out).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else "absent"
            for p in files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_metric_files_match_golden_digests(case, tmp_path):
    assert run_digests(case, tmp_path) == DIGESTS[case]


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("case", ["mlp-fedka", "mlp-fedprox-mixed-steps", "tcnn-fedavg", "tcnn-fedka",
                                  "tcnn-fedka-hard", "tcnn-fedka-steps", "tcnn-fedprox"])
def test_digests_hold_on_any_number_of_cores(case, cores, tmp_path, monkeypatch):
    """With the work threshold at 0, the thread counts follow the cores
    alone: on 2 cores every round trains in 2 stacks and every evaluation
    runs on 2 threads, and no digest moves."""
    monkeypatch.setattr(nn, "THREAD_MACS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    stacks = {}
    original = federation.local_train

    def recorder(cfg, r, *rest):
        stacks[r] = stacks.get(r, 0) + 1
        return original(cfg, r, *rest)

    monkeypatch.setattr(federation, "local_train", recorder)
    assert run_digests(case, tmp_path) == DIGESTS[case]
    assert set(stacks.values()) == {cores}


@pytest.mark.parametrize("case", ["mlp-fedka-reduction", "tcnn-fedavg-parallel"])
def test_round_steps_reach_the_runs_checkpoints_without_writing(case, tmp_path):
    """start and k round steps write no file; their global state holds the
    bytes of the run's round-k checkpoint, and its accuracies format to the
    run's rounds.csv row k."""
    raw = {"name": case, "master_seed": 11, "output_dir": str(tmp_path / "run"), **CASES[case],
           "metrics": {"checkpoint_interval": 1}}
    if "dataset" not in raw:
        raw["dataset"] = {"kind": "idx", **write_idx_images(tmp_path)}
    cfg = resolve(raw)
    run, state = federation.start(cfg)
    states, rows = [], []
    for k in range(1, cfg.training.rounds + 1):
        state, _, _ = federation.round_step(run, state)
        assert state.round == k
        acc = state.teacher_acc
        states.append(state.global_state)
        rows.append(",".join(f"{v:.10g}" for v in (k, global_accuracy(acc, run.test), *acc)))
    assert not (tmp_path / "run").exists()
    out = run_experiment(cfg)
    for k, want in enumerate(states, 1):
        got = nn.load_state(out / "checkpoints" / f"round_{k:05d}.bin")
        assert got.params.tobytes() == want.params.tobytes()
    assert (out / "metrics" / "rounds.csv").read_text().splitlines()[1:] == rows


def test_mixed_steps_case_stacks_one_and_several_steps(tmp_path, monkeypatch):
    """Every round of the mixed-steps case trains one stack in which one
    client takes several steps and the others one step each."""
    steps = {}
    original = federation.local_train

    def recorder(cfg, r, shards, *rest):
        t = cfg.training
        steps[r] = sorted(-(-len(s) // t.batch_size) * t.local_epochs for s in shards)
        return original(cfg, r, shards, *rest)

    monkeypatch.setattr(federation, "local_train", recorder)
    run_digests("mlp-fedprox-mixed-steps", tmp_path)
    assert steps == {r: [1, 1, 4] for r in (1, 2, 3)}
