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
import struct

import numpy as np
import pytest

from fedka.config import resolve
from fedka.federation import run_experiment

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
# the fedka case sends the anchor rows through conv and pool backward too
CASES["tcnn-fedka"] = {**CASES["tcnn-fedavg"], "strategy": {"kind": "fedka", "beta": 0.3}}
CASES["tcnn-fedprox"] = {**CASES["tcnn-fedavg"], "strategy": {"kind": "fedprox", "mu": 0.5},
                         "metrics": {"epoch_forgetting": True}}
# three clients of 2, 14 and 2 samples at batch 3: client 1 (no anchor) takes
# five steps an epoch, the last of two rows, and outlasts the others, whose
# two batch rows are followed by two anchor rows
CASES["tcnn-fedka-steps"] = {**CASES["tcnn-fedka"], "partition": {"clients": 3, "alpha": 0.5},
                             "training": {"rounds": 2, "local_epochs": 2, "batch_size": 3,
                                          "lr": 0.05}}

# fedavg, fedprox and t_cnn: pinned before the fused anchor step and unchanged by it.
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
        "92b45f3811a7d903385c90b4d674d0310c888d8b1ee26bd01a35333bbe6aac2b",
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
            "e54238db2390b2d6451f2e2f10a67ed6de2c2dfa9177f9b18d0260704155eb69",
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
            "04b13b6c89e4866aeb1da33e9b425a9184876ccdbfb1782981f60d67de116da3",
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
            "e06aa536ad836a997a6ec64d446aa0678ea4a7a7d3e13d4d9a11b282da01842c",
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
            "32e2fbac6b8a1a34ae457f872227987e2de3d58c539f8015670a9db4aec71656",
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
            "4cc88de1091a43c51e710e4ec1d64a5b5bee7dba71b4fd787ed9e967e4f595b2",
    },
    "tcnn-fedavg": {
        **TCNN_CSVS,
        "anchors.csv": "absent",
        "checkpoints/final.bin":
            "9df376671f66fed64be0168470ec392206d2fa8e3e2100828e668f3e9bf82c11",
    },
    # pinned before layer 0 stopped computing its input gradient and max-pool
    # moved to strided views
    "tcnn-fedka": {
        **TCNN_CSVS,
        "anchors.csv":
            "ab35988fc594f61264f15b4eb91ee4ef75ad660c53101265eaa8883583ce93a2",
        "checkpoints/final.bin":
            "af5aad3e7596cc0fcd3ef38ad167b81f7de8e58b33315e2160a26ebcd71d8ebe",
    },
    # pinned before a round's clients trained in lockstep
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
            "b8479c8ef4e7b5f74d4f3f22d37ef7046e41c8d7733f096c043ec7d432191803",
    },
    "tcnn-fedprox": {
        **TCNN_CSVS,
        "metrics/clients.csv":
            "e85e802eac31b6aa6dccf34c4f259468c79098aab3a85bc2b18b424164fcf6d0",
        "metrics/forgetting_epochs.csv":
            "395257d0c6f21e8a2e005ba0c454fc02d55fd1b8622283415a318849b3d5b7d8",
        "anchors.csv": "absent",
        "checkpoints/final.bin":
            "a5ae3e11f3c2dc102e0aeaf809090a908ea7131053b4a46be6d654511122eef0",
    },
}


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
