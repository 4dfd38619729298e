"""Command-line surface: ratio profiling, 2D sweeps, single guided passes.

Every command is a pure function of its flags: the same invocation writes
byte-identical artifacts and returns the same exit code. A manifest.json
recording the resolved parameters and artifact names accompanies every run.
Exit codes: 0 on success (and all checks passing), 1 for failed --check
invariants, 2 for usage, configuration, validation or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .attention import _logits, attention_weights, joint_attention, project_qkv
from .contours import contour_text, iso_contour
from .errors import ConfigError, DegenerateInputError
from .guidance import GuidanceConfig, apply_dcag, load_config
from .harness import _METRICS, ToyStack, run_stack, seeded_batch, sweep, sweep_csv
from .metrics import SSIM_WINDOW
from .profiling import heatmap_pgm, pearson, profile_stack, ratios_csv


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _value_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"range count must be at least 1, got {count}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"range endpoints must be finite, got {text!r}")
    return start, stop, count


def _contour_arg(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected metric=level, got {text!r}")
    metric, level = text.split("=", 1)
    metric = metric.strip()
    if metric not in _METRICS:
        raise argparse.ArgumentTypeError(f"unknown metric {metric!r}, "
                                         f"expected one of {tuple(_METRICS)}")
    try:
        return metric, float(level)
    except ValueError:
        raise argparse.ArgumentTypeError(f"contour level must be a number, got {level!r}") from None


def _add_dim_flags(parser, *, img_tokens_default: int, with_stack: bool = True):
    if with_stack:
        parser.add_argument("--layers", type=_positive_int, default=8,
                            help="attention layers in the toy stack (default 8)")
        parser.add_argument("--steps", type=_positive_int, default=6,
                            help="denoising steps (default 6)")
    parser.add_argument("--seed", type=int, default=42,
                        help="master seed for weights, step embeddings, and inputs (default 42)")
    parser.add_argument("--heads", type=_positive_int, default=4,
                        help="attention heads (default 4)")
    parser.add_argument("--dim", type=_positive_int, default=64,
                        help="hidden dimension (default 64)")
    parser.add_argument("--txt-tokens", type=_positive_int, default=8,
                        help="text tokens (default 8)")
    parser.add_argument("--img-tokens", type=_positive_int, default=img_tokens_default,
                        help=f"image tokens (default {img_tokens_default})")
    parser.add_argument("--out", default=".", help="output directory (default .)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one `error:` line, exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcag",
        description="Dual-channel K/V attention guidance: profiling, sweeps, and guided passes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    profile = sub.add_parser("profile", help="delta-to-bias ratio heatmaps over layers x steps")
    _add_dim_flags(profile, img_tokens_default=64)
    profile.add_argument("--heatmap", action="store_true",
                         help="also write ratio_k.pgm / ratio_v.pgm graymaps")
    profile.set_defaults(func=_cmd_profile)

    swp = sub.add_parser("sweep", help="fidelity metrics over a (delta_k, delta_v) grid")
    _add_dim_flags(swp, img_tokens_default=144)
    swp.add_argument("--dk", type=_value_range, default=(1.0, 1.2, 5), metavar="START:STOP:COUNT",
                     help="delta_k range (default 1.0:1.2:5)")
    swp.add_argument("--dv", type=_value_range, default=(1.0, 1.2, 5), metavar="START:STOP:COUNT",
                     help="delta_v range (default 1.0:1.2:5)")
    swp.add_argument("--contour", action="append", type=_contour_arg, default=[],
                     metavar="METRIC=LEVEL",
                     help="also extract iso-level polylines (repeatable)")
    swp.set_defaults(func=_cmd_sweep)

    attend = sub.add_parser("attend", help="one guided forward pass, dumping blocks and weights")
    _add_dim_flags(attend, img_tokens_default=64, with_stack=False)
    attend.add_argument("--config", required=True, help="guidance config file")
    attend.add_argument("--check", action="store_true",
                        help="run the invariant checks (identity, affinity, logit scaling)")
    attend.set_defaults(func=_cmd_attend)
    return parser


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_artifacts(outdir: Path, artifacts: dict) -> None:
    """Write each artifact; a 2D array is streamed row by row as 17-digit CSV."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        with open(outdir / name, "w", encoding="utf-8", newline="") as handle:
            if isinstance(content, np.ndarray):
                # a row of Python floats formats faster than np.savetxt's numpy
                # scalars; converting the whole matrix would hold every float at once
                fmt = ",".join(["%.17g"] * content.shape[1]) + "\n"
                for row in content:
                    handle.write(fmt % tuple(row.tolist()))
            else:
                handle.write(content)


def _write_manifest(outdir: Path, args, artifacts, summary=None, **resolved) -> None:
    """The manifest records every flag except --out; `resolved` overrides a flag's raw value."""
    parameters = {key: value for key, value in vars(args).items()
                  if key not in ("command", "func", "out")}
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "parameters": {**parameters, **resolved},
        "artifacts": sorted(artifacts),
    }
    if summary is not None:
        manifest["summary"] = summary
    with open(outdir / "manifest.json", "w", encoding="utf-8", newline="") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _check_memory(args, heads: int = 1) -> None:
    """Refuse a run whose float64 stack, (heads, S, S) buffers and grid exceed physical memory.

    The stack keeps 6·D² weights per layer and D per step (attend builds one of
    each) and draws one more (6, D, D) while building; heads counts the most
    (S, S) buffers held at once, and a sweep adds its n_dk + n_dv grid values
    and five floats per grid point. Checking first turns an impossible run into one line.
    """
    s = args.txt_tokens + args.img_tokens
    layers, steps = getattr(args, "layers", 1), getattr(args, "steps", 1)
    n_dk, n_dv = (getattr(args, flag, (0, 0, 0))[2] for flag in ("dk", "dv"))
    grid = f", grid {n_dk}x{n_dv}" if n_dk else ""
    need = (heads * s * s + (layers + 1) * 6 * args.dim ** 2 + steps * args.dim
            + n_dk + n_dv + 5 * n_dk * n_dv) * 8
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > physical:
        raise ConfigError(f"the run needs {need / 2**30:.1f} GiB (tokens {s}, dimension "
                          f"{args.dim}, layers {layers}, steps {steps}{grid}), more than the "
                          f"{physical / 2**30:.1f} GiB of physical memory")


def _cmd_profile(args) -> int:
    _check_memory(args)
    stack = ToyStack.seeded(args.seed, layers=args.layers, steps=args.steps,
                            dim=args.dim, heads=args.heads)
    batch = seeded_batch(args.seed, txt_tokens=args.txt_tokens,
                         img_tokens=args.img_tokens, dim=args.dim)
    ratios_k, ratios_v = profile_stack(stack, batch)
    artifacts = {"ratios.csv": ratios_csv(ratios_k, ratios_v)}
    if args.heatmap:
        artifacts["ratio_k.pgm"] = heatmap_pgm(ratios_k)
        artifacts["ratio_v.pgm"] = heatmap_pgm(ratios_v)
    try:
        correlation = pearson(ratios_k, ratios_v)
    except DegenerateInputError:
        correlation = None
    summary = {
        "mean_ratio_k": float(ratios_k.mean()),
        "mean_ratio_v": float(ratios_v.mean()),
        "pearson_r": correlation,
    }
    outdir = Path(args.out)
    _write_artifacts(outdir, artifacts)
    _write_manifest(outdir, args, artifacts, summary)
    print(f"mean K-ratio: {_fmt(summary['mean_ratio_k'])}")
    print(f"mean V-ratio: {_fmt(summary['mean_ratio_v'])}")
    print("pearson r:    " + ("undefined" if correlation is None else _fmt(correlation)))
    return 0


def _contour_files(contours) -> dict:
    """Artifact name -> (metric, level) per --contour; levels finite, names distinct."""
    files = {}
    for metric, level in contours:
        name = f"contour_{metric}_{level:g}.txt"
        if not math.isfinite(level):
            raise ConfigError(f"--contour {metric}={level!r}: the level must be finite")
        if name in files:
            raise ConfigError(f"--contour {metric}={level!r} would overwrite {name}")
        files[name] = (metric, level)
    return files


def _grid_values(flag: str, value_range) -> np.ndarray:
    """The swept values of a start:stop:count range; a value may not repeat."""
    values = np.linspace(*value_range)
    if np.any(values[1:] == values[:-1]):  # linspace is monotone: repeats are adjacent
        start, stop, count = value_range
        raise ConfigError(f"{flag} {start!r}:{stop!r}:{count} repeats grid values; "
                          "start and stop must differ when count > 1")
    return values


def _cmd_sweep(args) -> int:
    _check_memory(args)
    side = math.isqrt(args.img_tokens)
    if side * side != args.img_tokens:
        raise ConfigError(f"--img-tokens {args.img_tokens} is not a perfect square")
    if side < SSIM_WINDOW:
        raise ConfigError(
            f"--img-tokens {args.img_tokens} renders a {side}x{side} image; ssim needs "
            f"at least {SSIM_WINDOW} pixels per side ({SSIM_WINDOW ** 2} tokens)"
        )
    stack = ToyStack.seeded(args.seed, layers=args.layers, steps=args.steps,
                            dim=args.dim, heads=args.heads)
    batch = seeded_batch(args.seed, txt_tokens=args.txt_tokens,
                         img_tokens=args.img_tokens, dim=args.dim)
    contours = _contour_files(args.contour)
    dk_values = _grid_values("--dk", args.dk)
    dv_values = _grid_values("--dv", args.dv)
    result = sweep(stack, batch, dk_values, dv_values)
    artifacts = {"sweep.csv": sweep_csv(result)}
    for name, (metric, level) in contours.items():
        artifacts[name] = contour_text(iso_contour(result, metric, level))
    outdir = Path(args.out)
    _write_artifacts(outdir, artifacts)
    points = dk_values.size * dv_values.size
    _write_manifest(outdir, args, artifacts, summary={"grid_points": points})
    print(f"{points} grid points written to sweep.csv")
    return 0


def _check_identity(qkv) -> bool:
    guided = joint_attention(apply_dcag(qkv, GuidanceConfig.identity()))
    return np.array_equal(joint_attention(qkv), guided)


def _check_logit_scaling(qkv, guided, delta_k: float) -> bool:
    """Whether guiding K by delta_k scaled every image-key logit difference by delta_k.

    Per query row, (post_a - post_b) - delta_k * (pre_a - pre_b) over image
    keys a, b is D_a - D_b for D = post - delta_k * pre, so its largest value
    is the row range of D: no (S_i, S_i) pair tensor is needed. Heads are
    checked one at a time, on one (S, S) buffer per logit set.
    """
    i_s, i_e = qkv.img_range
    s, h, _ = qkv.q.shape
    pre_buf, post_buf = np.empty((1, s, s)), np.empty((1, s, s))
    spreads, drifts = [], []
    for head in range(h):
        one = slice(head, head + 1)
        pre = _logits(qkv.q[:, one], qkv.k[:, one], pre_buf)[0, :, i_s:i_e]
        post = _logits(guided.q[:, one], guided.k[:, one], post_buf)[0, :, i_s:i_e]
        spreads.append(np.max(pre.max(axis=1) - pre.min(axis=1)))
        pre *= delta_k  # in place: post - delta_k * pre needs no third buffer
        post -= pre
        drifts.append(np.max(post.max(axis=1) - post.min(axis=1)))
    tolerance = 1e-10 * max(1.0, delta_k * float(np.max(spreads)))
    return float(np.max(drifts)) <= tolerance


def _check_value_affinity(qkv) -> bool:
    def output(delta_v):
        return joint_attention(apply_dcag(qkv, GuidanceConfig(delta_k=1.0, delta_v=delta_v)))

    o0, o1 = output(0.0), output(1.0)
    step = o1 - o0
    scale = max(1.0, float(np.max(np.abs(o1))))
    return all(
        float(np.max(np.abs(output(dv) - (o0 + dv * step)))) <= 1e-10 * scale
        for dv in (0.5, 2.0, 3.0)
    )


def _cmd_attend(args) -> int:
    # the checks hold two (S, S) logit buffers, then the artifacts H weights
    _check_memory(args, max(args.heads, 2))
    cfg = load_config(args.config)
    weights = ToyStack.seeded(args.seed, layers=1, steps=1,
                              dim=args.dim, heads=args.heads).layers[0]
    batch = seeded_batch(args.seed, txt_tokens=args.txt_tokens,
                         img_tokens=args.img_tokens, dim=args.dim)
    qkv = project_qkv(batch, weights)
    # the pass is layer 0 of a stack, so guided_layers gates it like run_stack does
    guided = apply_dcag(qkv, cfg) if cfg.applies_to(0) else qkv
    out = joint_attention(guided)
    i_s, i_e = qkv.img_range
    s, h, dh = qkv.q.shape

    def flat(block):
        return block.reshape(block.shape[0], h * dh)

    checks = None
    if args.check:  # before the (H, S, S) weights exist, so the two never coexist
        probe = GuidanceConfig(delta_k=1.1, delta_v=1.0)
        checks = {
            "identity": _check_identity(qkv),
            "logit_scaling": _check_logit_scaling(qkv, apply_dcag(qkv, probe), probe.delta_k),
            "value_affinity": _check_value_affinity(qkv),
        }
    artifacts = {
        "k_img_pre.csv": flat(qkv.k[i_s:i_e]),
        "k_img_post.csv": flat(guided.k[i_s:i_e]),
        "v_img_pre.csv": flat(qkv.v[i_s:i_e]),
        "v_img_post.csv": flat(guided.v[i_s:i_e]),
        "attention.csv": attention_weights(guided).reshape(h * s, s),
        "output.csv": out,
    }
    outdir = Path(args.out)
    _write_artifacts(outdir, artifacts)
    summary = {"checks": checks} if checks is not None else None
    # lambda_k and lambda_v record the bias scale the pass used, which is always 1
    _write_manifest(outdir, args, artifacts, summary,
                    config={**asdict(cfg), "lambda_k": 1.0, "lambda_v": 1.0,
                            "token_range": qkv.img_range,
                            "guided_layers": sorted(cfg.guided_layers)})
    print(f"guided pass complete: {len(artifacts)} artifacts in {outdir}")
    if checks is not None:
        for name, passed in checks.items():
            print(f"check {name}: {'PASS' if passed else 'FAIL'}")
        if not all(checks.values()):
            return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
