"""Pinned SHA-256 digests of CLI artifacts and stack outputs.

The digests were recorded from the implementation that predates the lean
stack loop; every refactor of the hot path must reproduce them byte for
byte. They hold for this float64 numpy build: a different BLAS may round
differently and needs its own recording.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dcag import GuidanceConfig, ToyStack, run_stack, seeded_batch
from dcag.cli import main

RECOMMENDED = "delta_k = 1.1\ndelta_v = 1.15\n"
# The benchmark's pins, one table for both: profile-long's 1,032-token bits depend
# on the BLAS thread count, so only the two workloads that do not are read here.
BENCHMARK_PINS = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "digests.json").read_text(encoding="utf-8"))

# name -> (argv after "dcag", config text for attend or None, {artifact: sha256})
CASES = {
    "profile-default": (["profile", "--heatmap"], None, {
        "manifest.json":
            "f8efa715b0a31e77f4cfa94950ef7f23063b7a5a2e29c4373ea334e40b62e2e1",
        "ratio_k.pgm":
            "61b0712a7f0bca791cfc67091197cee8bec678234a2290e99f3ea78fd00bcaee",
        "ratio_v.pgm":
            "a6f3d74069452ea54635101f6e7a5eaca259629758705fd0e4157bf7887cee6c",
        "ratios.csv":
            "9457fe3af0b3ffb8dadecbffacfd2e382d9a327152089b209119720b96605895",
    }),
    "sweep-default": (["sweep", "--contour", "ssim=0.5"], None, BENCHMARK_PINS["sweep-default"]),
    "attend-check": (["attend", "--check", "--img-tokens", "144"], RECOMMENDED,
                     BENCHMARK_PINS["attend-check"]),
    "attend-default": (["attend", "--check"], RECOMMENDED, {
        "attention.csv":
            "5214ba7b44e4c7e8e8a103312d96cc61a1267d13a1ead4fd80335632d6634186",
        "k_img_post.csv":
            "ac9ab5301af0f983a8c29a1d021a705692afb2b24e3c10c9591d27bf05982287",
        "k_img_pre.csv":
            "3945cd27e4a36c73dcd0311622b2689855b880b3e47ed8479f77464c04d5bb14",
        "manifest.json":
            "68f60e381ad1b00105a3670152b60160a9cd88d5513ae5c9ee0688cd0c8b9424",
        "output.csv":
            "dfec6119aea94019d97270740743802fe5d6c3f7e569bcdda73d649cec7456dc",
        "v_img_post.csv":
            "86cbabce9dcb7991132930330aef0b0270b309634f016dc5c3a5003b4ea25366",
        "v_img_pre.csv":
            "f257184a9080b1468610e3b0a4a5822ccd37453ed34f3917591d96ba0489fcdf",
    }),
    "profile-heads-1": (["profile", "--heads", "1"], None, {
        "manifest.json":
            "c10f5a131fa9d5f499c9107497db979bce531926602a896e2c9a8038ed37f63e",
        "ratios.csv":
            "b411bbc92913eb2440475da05ead4bc885e0b1d7aaeb7164330f67cf9a9234d3",
    }),
    "attend-heads-1": (["attend", "--check", "--heads", "1"], RECOMMENDED, {
        "attention.csv":
            "6b8fe5d2a02e751be5c6f5c881e99912984d4938e4fad92fa3738575f6aff105",
        "k_img_post.csv":
            "16b4a7fd793c8c9aa11e671769e50407a0c0857c474f6609e3c1e0d8d185559f",
        "k_img_pre.csv":
            "bf7dfe8b792e3f2429e89c522539f7e45b0029a7ca79bb555893602c8be4ce50",
        "manifest.json":
            "9ead1f03a6413c0b4f7ef1a7de0f301b23123e9dbbbc0e9c68886f66f572706f",
        "output.csv":
            "1a40d9bc5c98945fde2db9020e59f1be3f236b633606b70016ff787d23c730ef",
        "v_img_post.csv":
            "86cbabce9dcb7991132930330aef0b0270b309634f016dc5c3a5003b4ea25366",
        "v_img_pre.csv":
            "f257184a9080b1468610e3b0a4a5822ccd37453ed34f3917591d96ba0489fcdf",
    }),
    "profile-txt-1": (["profile", "--txt-tokens", "1"], None, {
        "manifest.json":
            "630028972090b7db45e326c60f625b8a89b7c862e853d6e36996ac33ddc99040",
        "ratios.csv":
            "86c9c640abcc8db04d9c5078beb621868c9676fef3db4f092636fdf4500538b7",
    }),
    "attend-txt-1": (["attend", "--check", "--txt-tokens", "1"], RECOMMENDED, {
        "attention.csv":
            "da898e8425199bafda7b90e941a857d2f2e10042dd1e94085d610614eee65785",
        "k_img_post.csv":
            "bdf40adb3692bf56dc491fbdb296ed74b7e7cae244152242247e6369e90f223c",
        "k_img_pre.csv":
            "4a9df19ca72f2525c68b7969cb6c2e5bf0fdb374194c6bb116b6d05057f423cc",
        "manifest.json":
            "d55c89a93d8db63e5503237031e6f30ef2708077ded80ceea7bc7f7853b48a1b",
        "output.csv":
            "ba9abb6c649e0cae60f45fa69a5b2cdd7cf22820c4f7d53374bf8853c485f9ac",
        "v_img_post.csv":
            "7d2287d2895778d0aaadfe75fc34bcf11031ff909c2bca7c5dd3acca1e434efa",
        "v_img_pre.csv":
            "bcb2390164b6905d4421eec7a5ec8c7f9aba1e715e7e4d132a1ee099a6c07c7f",
    }),
    "profile-img-121": (["profile", "--img-tokens", "121"], None, {
        "manifest.json":
            "57b6ef9ed3fae43e3d3de5a24e761e871642a2c2454834351ffd7da0c945233b",
        "ratios.csv":
            "644cc8b85597f9f5ec425b3e62b5b7903c7fa1f416c5160c91807afa5065e990",
    }),
    "sweep-img-121": (["sweep", "--img-tokens", "121", "--dk", "1.0:1.2:3",
                       "--dv", "0.8:1.2:3", "--contour", "mse=0.05"], None, {
        "contour_mse_0.05.txt":
            "e55a9bc3a18f5e070b5ec8b9f3967b2028b352027a787dfa3ac11f1ff3f6acf4",
        "manifest.json":
            "49fd4ed16b5c289479231664f1e7fd21670c10599e0b4c94bcc7a171e8f85fec",
        "sweep.csv":
            "51dfe58fb596e76ead482edcf365ed384bf79821e05a599ff93d69901765c2fa",
    }),
}


def digests(outdir):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_artifacts_match_pinned_digests(name, tmp_path, capsys):
    argv, config, expected = CASES[name]
    argv = list(argv)
    if config is not None:
        path = tmp_path / "guidance.cfg"
        path.write_text(config)
        argv += ["--config", str(path)]
    outdir = tmp_path / "out"
    assert main([*argv, "--out", str(outdir)]) == 0
    assert digests(outdir) == expected


# (delta_k, delta_v) -> sha256 of the final image block's bytes
STACK_CASES = {
    (1.1, 1.15):
        "cd71808daaf77359185a3dde546587b6486edeadddff3e3dd215620d8b847d36",
    (1.2, 0.9):
        "30673f621c247c4f38e6492740be74c0fd8711d13094d783b356b0a2f5f7dbd2",
    (1.0, 1.0):
        "9d5ef54ccf0aba47877c2708d849188fc0c4968c151e34a0dca9cad4c718e238",
}


@pytest.mark.parametrize("dk_dv", sorted(STACK_CASES))
def test_run_stack_output_matches_pinned_digest(dk_dv):
    stack = ToyStack.seeded(3, layers=4, steps=3, dim=32, heads=8)
    batch = seeded_batch(3, txt_tokens=5, img_tokens=100, dim=32)
    cfg = GuidanceConfig(*dk_dv)
    out = np.ascontiguousarray(run_stack(stack, batch, cfg), dtype="<f8")
    assert hashlib.sha256(out.tobytes()).hexdigest() == STACK_CASES[dk_dv]
