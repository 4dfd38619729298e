import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from dcag import (GuidanceConfig, JointQKV, ToyStack, apply_dcag, joint_attention, project_qkv,
                  seeded_batch)
from dcag.cli import _check_closed_forms, main
from conftest import child_env

FAST_PROFILE = ["--layers", "2", "--steps", "2", "--dim", "16", "--heads", "2",
                "--txt-tokens", "4", "--img-tokens", "16"]
FAST_SWEEP = ["--layers", "2", "--steps", "2", "--dim", "16", "--heads", "2",
              "--txt-tokens", "4", "--img-tokens", "121"]
FAST_ATTEND = ["--dim", "16", "--heads", "2", "--txt-tokens", "4", "--img-tokens", "12"]


def read(path):
    return path.read_bytes()


class TestProfileCommand:
    def test_writes_expected_rows(self, tmp_path, capsys):
        code = main(["profile", *FAST_PROFILE, "--seed", "42", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "ratios.csv").read_text().splitlines()
        assert lines[0] == "layer,step,ratio_k,ratio_v"
        assert len(lines) == 1 + 2 * 2
        out = capsys.readouterr().out
        assert "mean K-ratio" in out and "pearson r" in out

    def test_default_scale_grid_has_48_rows(self, tmp_path):
        code = main(["profile", "--layers", "8", "--steps", "6", "--seed", "42",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "ratios.csv").read_text().splitlines()
        assert len(lines) == 1 + 48

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["profile", *FAST_PROFILE, "--seed", "7", "--heatmap"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        for name in ("ratios.csv", "ratio_k.pgm", "ratio_v.pgm", "manifest.json"):
            assert read(a / name) == read(b / name)

    def test_manifest_contents(self, tmp_path):
        main(["profile", *FAST_PROFILE, "--seed", "5", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "profile"
        assert manifest["parameters"]["seed"] == 5
        assert manifest["parameters"]["layers"] == 2
        assert "ratios.csv" in manifest["artifacts"]
        assert set(manifest["summary"]) == {"mean_ratio_k", "mean_ratio_v", "pearson_r"}

    def test_single_point_profile_has_undefined_pearson(self, tmp_path, capsys):
        argv = ["profile", *FAST_PROFILE, "--layers", "1", "--steps", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "pearson r:    undefined" in capsys.readouterr().out.splitlines()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["summary"]["pearson_r"] is None

    def test_zero_layers_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--layers", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_heatmap_dimensions(self, tmp_path):
        main(["profile", *FAST_PROFILE, "--heatmap", "--out", str(tmp_path)])
        header = (tmp_path / "ratio_k.pgm").read_text().splitlines()[:3]
        assert header == ["P2", "2 2", "255"]


class TestSweepCommand:
    def test_default_style_grid(self, tmp_path):
        code = main(["sweep", *FAST_SWEEP, "--seed", "42",
                     "--dk", "1.0:1.2:3", "--dv", "1.0:1.2:3", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "delta_k,delta_v,mse,psnr,ssim"
        assert len(lines) == 1 + 9
        origin = lines[1].split(",")
        assert origin[:2] == ["1", "1"]
        assert float(origin[2]) == 0.0
        assert float(origin[3]) == 100.0
        assert float(origin[4]) == 1.0

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["sweep", *FAST_SWEEP, "--dk", "1.0:1.1:2", "--dv", "1.0:1.1:2"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert read(a / "sweep.csv") == read(b / "sweep.csv")
        assert read(a / "manifest.json") == read(b / "manifest.json")

    def test_single_point_ranges(self, tmp_path):
        code = main(["sweep", *FAST_SWEEP, "--dk", "1.1:1.1:1", "--dv", "1.0:1.2:3",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_malformed_range_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dk", "1.0-1.2-5", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("dk", ["1:1:3", "1:1.0000000000000002:5"])
    def test_collapsed_range_rejected(self, tmp_path, capsys, monkeypatch, dk):
        monkeypatch.setattr("dcag.cli.sweep", lambda *args: pytest.fail("the sweep ran"))
        code = main(["sweep", *FAST_SWEEP, "--dk", dk, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --dk") and "repeats" in err[0]
        assert not any(tmp_path.iterdir())

    def test_contour_level_outside_range_writes_empty_file(self, tmp_path):
        code = main(["sweep", *FAST_SWEEP, "--dk", "1.0:1.1:2", "--dv", "1.0:1.1:2",
                     "--contour", "ssim=-5.0", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "contour_ssim_-5.txt").read_text() == ""

    def test_contour_vertices_on_surface(self, tmp_path):
        code = main(["sweep", *FAST_SWEEP, "--dk", "1.0:1.2:4", "--dv", "1.0:1.2:4",
                     "--contour", "mse=0.05", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "contour_mse_0.05.txt").read_text()
        for line in filter(None, text.splitlines()):
            x, y = map(float, line.split(","))
            assert 1.0 <= x <= 1.2 and 1.0 <= y <= 1.2

    @pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
    def test_non_finite_contour_level_rejected(self, tmp_path, capsys, level):
        code = main(["sweep", *FAST_SWEEP, "--contour", f"ssim={level}",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
        assert not any(tmp_path.iterdir())

    def test_contour_file_name_collision_rejected(self, tmp_path, capsys):
        code = main(["sweep", *FAST_SWEEP, "--contour", "ssim=0.999999",
                     "--contour", "ssim=0.9999991", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "contour_ssim_0.999999.txt" in err[0]
        assert not any(tmp_path.iterdir())

    def test_manifest_without_contour_records_empty_list(self, tmp_path):
        assert main([*fast_argv("sweep", tmp_path), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["contour"] == []

    @pytest.mark.parametrize("flag", ["--dk", "--dv"])
    def test_negative_grid_value_rejected_before_the_stack_runs(self, tmp_path, capsys,
                                                                 monkeypatch, flag):
        monkeypatch.setattr("dcag.harness.run_stack", lambda *a, **k: pytest.fail("stack ran"))
        out = tmp_path / "out"
        code = main(["sweep", *FAST_SWEEP, flag, "1:-0.1:3", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: delta_{flag[-1]} must be finite and non-negative, got -0.1"]
        assert not out.exists()

    def test_non_square_img_tokens_rejected(self, tmp_path, capsys):
        code = main(["sweep", *FAST_SWEEP[:-1], "120", "--out", str(tmp_path)])
        assert code == 2
        assert "perfect square" in capsys.readouterr().err

    def test_too_small_rendering_rejected(self, tmp_path, capsys):
        code = main(["sweep", *FAST_SWEEP[:-1], "64", "--out", str(tmp_path)])
        assert code == 2
        assert "ssim" in capsys.readouterr().err


class TestAttendCommand:
    def write_config(self, tmp_path, text=""):
        path = tmp_path / "guidance.cfg"
        path.write_text(text)
        return str(path)

    def test_identity_config_with_checks(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "delta_k = 1\ndelta_v = 1\n")
        code = main(["attend", *FAST_ATTEND, "--config", config, "--check",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("identity", "logit_scaling", "value_affinity"):
            assert f"check {name}: PASS" in out

    def test_recommended_config_writes_artifacts(self, tmp_path):
        config = self.write_config(tmp_path, "delta_k = 1.10\ndelta_v = 1.15\n")
        code = main(["attend", *FAST_ATTEND, "--config", config, "--out", str(tmp_path)])
        assert code == 0
        for name in ("k_img_pre.csv", "k_img_post.csv", "v_img_pre.csv",
                     "v_img_post.csv", "attention.csv", "output.csv", "manifest.json"):
            assert (tmp_path / name).exists()
        pre = np.loadtxt(tmp_path / "v_img_pre.csv", delimiter=",")
        post = np.loadtxt(tmp_path / "v_img_post.csv", delimiter=",")
        assert pre.shape == (12, 16)
        assert not np.array_equal(pre, post)

    def test_identity_dump_roundtrips_blocks(self, tmp_path):
        config = self.write_config(tmp_path, "delta_k = 1\ndelta_v = 1\n")
        main(["attend", *FAST_ATTEND, "--config", config, "--out", str(tmp_path)])
        pre = (tmp_path / "k_img_pre.csv").read_bytes()
        post = (tmp_path / "k_img_post.csv").read_bytes()
        assert pre == post

    def test_attention_rows_are_stochastic(self, tmp_path):
        config = self.write_config(tmp_path)
        main(["attend", *FAST_ATTEND, "--config", config, "--out", str(tmp_path)])
        weights = np.loadtxt(tmp_path / "attention.csv", delimiter=",")
        assert weights.shape == (2 * 16, 16)
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-12

    def test_missing_config_names_path(self, tmp_path, capsys):
        code = main(["attend", *FAST_ATTEND, "--config", "/nowhere/missing.cfg",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "/nowhere/missing.cfg" in capsys.readouterr().err

    def assert_key_refused(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        code = main(["attend", *FAST_ATTEND, "--config", str(path), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"unknown key '{key}'" in err[0]
        assert captured.out == "" and not out.exists()

    def test_mismatched_token_range_is_config_error(self, tmp_path, capsys):
        # the guided rows come from the dims, so a config may not name them at all
        self.assert_key_refused(tmp_path, capsys, "token_range = 2:9\n", "token_range")

    @pytest.mark.parametrize("key", ["lambda_k", "lambda_v"])
    def test_bias_scale_is_config_error(self, tmp_path, capsys, key):
        # guidance scales only the deviations, so a config may not name a bias scale
        self.assert_key_refused(tmp_path, capsys, f"delta_k = 1.1\n{key} = 1\n", key)

    def test_layer_subset_is_config_error(self, tmp_path, capsys):
        # guidance applies to every layer, so a config may not name a subset of them
        self.assert_key_refused(tmp_path, capsys, "delta_k = 1.2\nguided_layers = 1,3\n",
                                "guided_layers")

    def test_config_without_range_uses_derived_range(self, tmp_path):
        # the manifest records the image rows the pass guided, [S_t, S_t + S_i)
        path = tmp_path / "scales-only.cfg"
        path.write_text("delta_k = 1.2\ndelta_v = 1.0\n")
        for txt, img in ((4, 12), (1, 9), (8, 5)):
            out = tmp_path / f"{txt}-{img}"
            code = main(["attend", "--dim", "16", "--heads", "2", "--txt-tokens", str(txt),
                         "--img-tokens", str(img), "--config", str(path), "--out", str(out)])
            assert code == 0
            config = json.loads((out / "manifest.json").read_text())["parameters"]["config"]
            assert config["token_range"] == [txt, txt + img]
            assert (config["lambda_k"], config["lambda_v"]) == (1.0, 1.0)  # the bias is unscaled


    def test_logit_scaling_probe_passes_and_fails(self):
        # the laws hold on the pass that ran; a guided K row or V entry off by far
        # more than rounding breaks its own law and leaves the other one holding
        weights = ToyStack.seeded(42, layers=1, steps=1, dim=64, heads=4).layers[0]
        cfg = GuidanceConfig(delta_k=1.1, delta_v=1.15)
        for img_tokens in (64, 144):
            qkv = project_qkv(seeded_batch(42, txt_tokens=8, img_tokens=img_tokens, dim=64),
                              weights)
            guided = apply_dcag(qkv, cfg)
            i_s = qkv.img_range[0]

            def laws(k=guided.k, v=guided.v):
                run = JointQKV(q=guided.q, k=k, v=v, img_range=guided.img_range)
                return _check_closed_forms(qkv, run, joint_attention(run), cfg)

            assert laws() == {"logit_scaling": True, "value_affinity": True}
            k = np.array(guided.k)
            k[i_s + 3] += 1e-7
            assert not laws(k=k)["logit_scaling"]
            v = np.array(guided.v)
            v[i_s + 3, 0, 0] += 1e-7
            assert laws(v=v) == {"logit_scaling": True, "value_affinity": False}

    def test_value_affinity_probe_fails_on_a_nonlinear_value(self, tmp_path, capsys,
                                                              monkeypatch):
        def perturbed(qkv, cfg):
            guided = apply_dcag(qkv, cfg)
            v = np.array(guided.v)
            v[qkv.img_range[0] + 3, 0, 0] += 1e-7 * cfg.delta_v ** 2
            return JointQKV(q=guided.q, k=guided.k, v=v, img_range=guided.img_range)

        monkeypatch.setattr("dcag.cli.apply_dcag", perturbed)
        config = self.write_config(tmp_path, "delta_k = 1\ndelta_v = 1\n")
        code = main(["attend", *FAST_ATTEND, "--config", config, "--check",
                     "--out", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "check identity: PASS" in out  # the probe rescales the unguided K and V
        assert "check value_affinity: FAIL" in out
        assert "check logit_scaling: PASS" in out  # K is untouched

    def test_logit_scaling_probe_fails_on_a_nonlinear_key(self, tmp_path, capsys,
                                                          monkeypatch):
        def perturbed(qkv, cfg):
            guided = apply_dcag(qkv, cfg)
            k = np.array(guided.k)
            k[qkv.img_range[0] + 3, 0, 0] += 1e-7 * cfg.delta_k ** 2
            return JointQKV(q=guided.q, k=k, v=guided.v, img_range=guided.img_range)

        monkeypatch.setattr("dcag.cli.apply_dcag", perturbed)
        config = self.write_config(tmp_path, "delta_k = 1\ndelta_v = 1\n")
        code = main(["attend", *FAST_ATTEND, "--config", config, "--check",
                     "--out", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "check identity: PASS" in out  # the probe rescales the unguided K and V
        assert "check logit_scaling: FAIL" in out
        assert "check value_affinity: PASS" in out  # V is untouched

    def test_checks_run_one_guided_pass(self, tmp_path, capsys, monkeypatch):
        # _guide skips a channel at delta = 1, so guiding again at (1, 1) would only copy
        # K and V: the identity probe rescales the unguided blocks itself
        calls = []

        def counted(qkv, cfg):
            calls.append(cfg)
            return apply_dcag(qkv, cfg)

        monkeypatch.setattr("dcag.cli.apply_dcag", counted)
        config = self.write_config(tmp_path, "delta_k = 1.1\ndelta_v = 1.15\n")
        code = main(["attend", *FAST_ATTEND, "--config", config, "--check",
                     "--out", str(tmp_path)])
        assert code == 0
        assert calls == [GuidanceConfig(delta_k=1.1, delta_v=1.15)]
        assert "check identity: PASS" in capsys.readouterr().out

    def test_identity_probe_fails_on_an_uncompensated_rescale(self, tmp_path, capsys,
                                                              monkeypatch):
        # _guide leaves a delta = 1 channel alone, so the probe rescales at 1 itself; with
        # the compensation's error term gone, some image entries come back one rounding off
        monkeypatch.setattr("dcag.guidance._sum_error", lambda a, b, s: np.zeros_like(s))
        config = self.write_config(tmp_path, "delta_k = 1\ndelta_v = 1\n")
        code = main(["attend", *FAST_ATTEND, "--config", config, "--check",
                     "--out", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "check identity: FAIL" in out
        assert "check logit_scaling: PASS" in out and "check value_affinity: PASS" in out

    def test_checks_complete_at_576_image_tokens(self, attend_576):
        # the logit-scaling probe once built an (H, S, S_i, S_i) tensor: 6 GB here
        _, code, out, peak = attend_576
        assert code == 0
        for name in ("identity", "logit_scaling", "value_affinity"):
            assert f"check {name}: PASS" in out
        # the run stays within what _check_memory budgets, max(H, 2) (S, S) float64
        # buffers plus sixteen (S, D) float64 blocks; the artifacts are streamed to
        # disk, so formatting holds no whole CSV in memory
        s, h, d = 8 + 576, 4, 64
        assert peak < max(h, 2) * s * s * 8 + 16 * s * d * 8

    @pytest.mark.parametrize("scale, failed", [
        ("delta_k = 0", ()), ("delta_k = 1e307", ()), ("delta_v = 0", ()),
        ("delta_v = 1e300", ()), ("delta_k = 1.1e307", ("attention logits",))])
    def test_checks_at_extreme_scales(self, tmp_path, capsys, scale, failed):
        # the laws are evaluated so that they overflow only where the guided pass does;
        # at delta_k = 1.1e307 some guided logits overflow to -inf, and the pass itself
        # is refused on its logits before any check
        config = self.write_config(tmp_path, scale + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["attend", "--check", "--config", config, "--out", str(out)])
        captured = capsys.readouterr()
        if failed:
            assert code == 2 and captured.out == "" and not out.exists()
            assert captured.err == f"error: {failed[0]} contains non-finite values\n"
            return
        assert code == 0 and captured.err == ""
        for name in ("identity", "logit_scaling", "value_affinity"):
            assert f"check {name}: PASS" in captured.out

    def test_overflowing_guided_logits_are_one_line(self, tmp_path, capsys):
        # test_checks_at_extreme_scales runs this case with --check: at 8 + 64 tokens
        # the guided logits reach -inf while their max is 4.2e307, and the first
        # attention pass, joint_attention's, refuses them
        config = self.write_config(tmp_path, "delta_k = 1.1e307\n")
        out = tmp_path / "out"
        code = main(["attend", "--config", config, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: attention logits contains non-finite values\n"
        assert captured.out == "" and not out.exists()

    def test_overflowing_key_scale_with_checks_is_one_line(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "delta_k = 3e307\n")
        out = tmp_path / "out"
        code = main(["attend", "--check", "--config", config, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0]
        assert captured.out == "" and not out.exists()


def fast_argv(command, tmp_path):
    """A quick invocation of `command` without --out; attend gets a config file."""
    if command == "attend":
        config = tmp_path / "guidance.cfg"
        config.write_text("delta_k = 1.1\n")
        return ["attend", *FAST_ATTEND, "--config", str(config)]
    if command == "sweep":
        return ["sweep", *FAST_SWEEP, "--dk", "1.0:1.1:2", "--dv", "1.0:1.1:2"]
    return ["profile", *FAST_PROFILE]


DIM_FLAGS = {"--seed", "--heads", "--dim", "--txt-tokens", "--img-tokens"}


@pytest.mark.parametrize("command, flags", [
    ("profile", DIM_FLAGS | {"--layers", "--steps", "--heatmap"}),
    ("sweep", DIM_FLAGS | {"--layers", "--steps", "--dk", "--dv", "--contour"}),
    ("attend", DIM_FLAGS | {"--config", "--check"}),
])
def test_manifest_records_every_flag_but_out(tmp_path, command, flags):
    assert main([*fast_argv(command, tmp_path), "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert {"--" + key.replace("_", "-") for key in manifest["parameters"]} == flags


def run_main(capsys, *argv):
    """(exit code, stdout, stderr) of main(argv) in this process, with warnings as errors;
    a usage error ends in argparse's SystemExit, whose code is the exit code."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestErrors:
    def test_overflowing_key_scale_in_sweep_is_one_line(self, tmp_path, capsys):
        code, _, err = run_main(capsys, "sweep", *FAST_SWEEP, "--dk", "1e308:1e308:1",
                                "--dv", "1:1:1", "--out", str(tmp_path))
        assert code == 2
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0]

    def test_overflowing_range_span_is_one_line(self, tmp_path, capsys):
        # linspace would overflow computing 1e308 - (-1e308) and print numpy warnings
        out = tmp_path / "out"
        code, stdout, err = run_main(capsys, "sweep", *FAST_SWEEP, "--dk", "1e308:-1e308:3",
                                     "--out", str(out))
        assert code == 2
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
        assert stdout == "" and not out.exists()

    def test_overflowing_key_scale_in_attend_is_one_line(self, tmp_path, capsys):
        config = tmp_path / "guidance.cfg"
        config.write_text("delta_k = 1e308\n")
        code, _, err = run_main(capsys, "attend", *FAST_ATTEND, "--config", str(config),
                                "--out", str(tmp_path / "out"))
        assert code == 2
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0]

    @pytest.mark.parametrize("argv", [["sweep", "--dk", "1:2"],
                                      ["profile", "--dim", "10", "--heads", "4"],
                                      [],
                                      ["profile", "--layers", "x"],
                                      ["sweep", "--dk", "1:2:0"],
                                      ["sweep", "--dk", "nan:1:3"],
                                      ["sweep", "--contour", "ssim"],
                                      ["sweep", "--contour", "sharp=1"],
                                      ["sweep", "--contour", "ssim=abc"],
                                      ["profile", "--dim", "2", "--heads", "4"]])
    def test_usage_error_is_one_line(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the default --out, should a run get that far
        code, stdout, err = run_main(capsys, *argv)
        assert code == 2
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert stdout == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["profile", "sweep", "attend"])
    def test_negative_seed_is_one_line(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code, stdout, err = run_main(capsys, *fast_argv(command, tmp_path), "--seed", "-1",
                                     "--out", str(out))
        assert code == 2
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "seed" in err[0]
        assert stdout == "" and not out.exists()

    def test_odd_head_dimension_is_one_line(self, tmp_path, capsys):
        code = main(["profile", "--dim", "12", "--heads", "4", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "head dimension" in err[0]

    @pytest.mark.parametrize("command", ["profile", "sweep", "attend"])
    def test_attention_weights_beyond_physical_memory_is_one_line(self, command, tmp_path,
                                                                   capsys):
        # attend's H·S²·8 bytes, or for profile and sweep (whose weights are at
        # most 4 MiB bands) the seven (S, D) float64 blocks at the default --dim
        # 64, at least twice this machine's memory: the command must refuse
        # before allocating, not raise, get OOM-killed or run for hours
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if command == "attend":
            side = math.isqrt(math.isqrt(physical // 4)) + 1
        else:
            side = math.isqrt(2 * physical // (7 * 64 * 8)) + 1  # sweep needs a square count
        config = tmp_path / "guidance.cfg"
        config.write_text("delta_k = 1.1\n")
        argv = [command, "--img-tokens", str(side * side), "--out", str(tmp_path / "out")]
        if command == "attend":
            argv += ["--config", str(config)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "physical memory" in err[0]
        assert captured.out == "" and not (tmp_path / "out").exists()
        assert peak < 1024 * 1024

    @pytest.mark.parametrize("command, flag", [("profile", "--dim"), ("sweep", "--dim"),
                                               ("attend", "--dim"), ("profile", "--steps"),
                                               ("sweep", "--steps")])
    def test_stack_beyond_physical_memory_is_one_line(self, command, flag, tmp_path, capsys):
        # one layer keeps 6·D² float64 weights and draws a (6, D, D) block while
        # building, and the stack keeps a D-vector per step: at a --dim where that
        # one draw, or a --steps where the embeddings, need twice this machine's
        # memory, the command must refuse before drawing, not raise or get OOM-killed
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if flag == "--dim":
            value, named = 4 * (math.isqrt(2 * physical // (6 * 8)) // 4 + 1), "dimension"
        else:
            value, named = 2 * physical // (64 * 8) + 1, "steps"  # at the default --dim 64
        argv = [command, flag, str(value), "--heads", "2", "--out", str(tmp_path / "out")]
        # 2 heads: any --dim that is a multiple of 4 has an even head dimension
        if command == "attend":
            config = tmp_path / "guidance.cfg"
            config.write_text("delta_k = 1.1\n")
            argv += ["--config", str(config)]
        else:
            argv += ["--layers", "1"] + (["--steps", "1"] if flag == "--dim" else [])
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "physical memory" in err[0]
        assert f"{named} {value}" in err[0]
        assert captured.out == "" and not (tmp_path / "out").exists()
        assert peak < 1024 * 1024

    @pytest.mark.parametrize("flag", ["--dk", "--dv"])
    def test_grid_beyond_physical_memory_is_one_line(self, flag, tmp_path, capsys):
        # 10^15 grid values alone are 8 PB, beyond any address space: the sweep
        # must refuse before linspace allocates them, not raise MemoryError
        argv = ["sweep", *FAST_SWEEP, flag, "1:2:1000000000000000", "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "physical memory" in err[0]
        grid = "1000000000000000x5" if flag == "--dk" else "5x1000000000000000"
        assert f"grid {grid}" in err[0]
        assert captured.out == "" and not (tmp_path / "out").exists()
        assert peak < 1024 * 1024

    @pytest.mark.parametrize("flag, start", [("--help", "usage: dcag"), ("--version", "dcag ")])
    def test_help_and_version_still_print_and_exit_0(self, flag, start, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(start) and captured.err == ""

    @pytest.mark.parametrize("where", ["existing file", "below a file"])
    def test_unusable_out_path_is_exit_2(self, tmp_path, capsys, where):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker if where == "existing file" else blocker / "sub"
        code = main(["profile", *FAST_PROFILE, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "taken" in err[0]
        assert captured.out == ""

    @pytest.mark.parametrize("command, computation", [("profile", "profile_stack"),
                                                      ("sweep", "sweep"),
                                                      ("attend", "joint_attention")])
    def test_error_inside_a_computation_is_one_line(self, tmp_path, capsys, monkeypatch,
                                                    command, computation):
        # main alone writes and prints, after the command has computed everything
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(f"dcag.cli.{computation}", boom)
        out = tmp_path / "out"
        assert main([*fast_argv(command, tmp_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: boom\n" and captured.out == ""
        assert not out.exists()


ATTEND_576 = "attend --check --img-tokens 576"
MEMORY_RUNS = [
    "sweep",
    "sweep --img-tokens 576 --dk 1:1.2:2 --dv 1:1.2:2",
    "sweep --img-tokens 1024 --dk 1:1.2:2 --dv 1:1:1",
    "profile --img-tokens 1024",
    "attend --check",
    "profile",
    ATTEND_576,
]


def traced_run(run, root):
    """(argv without --out, exit code, stdout, tracemalloc peak) of `run`, out in root.

    A warm-up run first makes the one-time allocations (numpy.random is imported
    lazily), which belong to no run. An attend run reads a config file in root.
    """
    config = root / "guidance.cfg"
    config.write_text("delta_k = 1.1\ndelta_v = 1.15\n")
    argv = run.split() + (["--config", str(config)] if run.startswith("attend") else [])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["profile", *FAST_PROFILE, "--out", str(root / "warm")]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        tracemalloc.start()
        try:
            code = main([*argv, "--out", str(root / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return argv, code, stdout.getvalue(), peak


@pytest.fixture(scope="session")
def attend_576(tmp_path_factory):
    """The one traced run of the slowest invocation two tests hold to their bounds."""
    return traced_run(ATTEND_576, tmp_path_factory.mktemp("attend-576"))


@pytest.mark.parametrize("run", MEMORY_RUNS)
def test_peak_is_within_the_memory_budget(run, tmp_path, capsys, monkeypatch, request):
    """A run's tracemalloc peak is at most what _check_memory budgets for it.

    The budget's one fixed allowance is 64 KiB for a softmax row block's mask.
    An `attend --check` run also passes its checks.
    """
    if run == ATTEND_576:
        argv, code, out, peak = request.getfixturevalue("attend_576")
    else:
        argv, code, out, peak = traced_run(run, tmp_path)
    assert code == 0
    if "--check" in argv:
        for name in ("identity", "logit_scaling", "value_affinity"):
            assert f"check {name}: PASS" in out
    # with one byte less memory than the peak, the check must refuse the run
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": peak - 1, "SC_PAGE_SIZE": 1}.get)
    assert main([*argv, "--out", str(tmp_path / "refused")]) == 2
    assert "physical memory" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "dcag.cli", "profile", *FAST_PROFILE, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert "mean K-ratio" in result.stdout

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
