"""Command-line surface: ratio profiling, 2D sweeps, single guided passes.

Every command is a pure function of its flags: the same invocation writes
byte-identical artifacts and returns the same exit code. A command only
computes, from its flags and the seeded stack and batch main builds for it;
main checks memory first, writes the artifacts and a manifest.json of the
resolved parameters and artifact names, prints and picks the exit code.
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
from .attention import _band_shape, _logits, attention_weights, joint_attention, project_qkv
from .contours import contour_text, marching_squares
from .errors import ConfigError, DegenerateInputError
from .guidance import _decompose, _rescale, apply_dcag, load_config
from .harness import _METRICS, ToyStack, seeded_batch, sweep, sweep_csv
from .profiling import heatmap_pgm, pearson, profile_stack, ratios_csv
from .tensors import _SOFTMAX_BLOCK_BYTES, _csv_lines, _softmax_rows


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
    if not math.isfinite(stop - start):  # also false for a non-finite endpoint
        raise argparse.ArgumentTypeError(f"range start, stop and span must be finite, got {text!r}")
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
    return next(_csv_lines([[value]]))


def _write_artifacts(outdir: Path, artifacts: dict) -> None:
    """Write each artifact; a 2D array is written one 17-digit CSV line at a time."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        with open(outdir / name, "w", encoding="utf-8", newline="") as handle:
            if isinstance(content, np.ndarray):
                handle.writelines(line + "\n" for line in _csv_lines(content))
            else:
                handle.write(content)


def _manifest(args, artifacts, summary, resolved) -> str:
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
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _check_memory(args) -> None:
    """Refuse a run whose float64 buffers, stack and grid exceed physical memory.

    profile and sweep hold one _band_shape weights buffer of d_h = D // H (0 when H > D,
    which the stack refuses after this check); attend's checks hold two (S, S) logit
    buffers, then its artifacts H weights; sweep's and attend's 4·S_i·D of guidance are
    freed before those exist, so the larger counts. Each holds 8·S·D: the batch, state, (S, 3D)
    projection, RoPE tables, RoPE's two temporaries, and attend's attention output, the ratio's
    deviations or the sweep's reference output (the stack attends into its Q columns).
    The stack keeps 6·D² weights per layer and D per step (attend builds one of each)
    and draws one more (6, D, D) while building; a sweep adds n_dk + n_dv grid values
    and five floats per grid point. A fixed _SOFTMAX_BLOCK_BYTES // 8 (64 KiB) counts
    one softmax row block's boolean mask.
    """
    s = args.txt_tokens + args.img_tokens
    layers, steps = getattr(args, "layers", 1), getattr(args, "steps", 1)
    n_dk, n_dv = (getattr(args, flag, (0, 0, 0))[2] for flag in ("dk", "dv"))
    grid = f", grid {n_dk}x{n_dv}" if n_dk else ""
    held = (max(args.heads, 2) * s * s if args.command == "attend"
            else math.prod(_band_shape(s, args.dim // args.heads)))
    guide = 0 if args.command == "profile" else 4 * args.img_tokens * args.dim
    need = (max(held, guide) + 8 * s * args.dim
            + (layers + 1) * 6 * args.dim ** 2 + steps * args.dim
            + n_dk + n_dv + 5 * n_dk * n_dv) * 8 + _SOFTMAX_BLOCK_BYTES // 8
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > physical:
        raise ConfigError(f"the run needs {need / 2**30:.1f} GiB (tokens {s}, dimension "
                          f"{args.dim}, layers {layers}, steps {steps}{grid}), more than the "
                          f"{physical / 2**30:.1f} GiB of physical memory")


def _cmd_profile(args, stack, batch):
    ratios_k, ratios_v = profile_stack(stack, batch)
    artifacts = {"ratios.csv": ratios_csv(ratios_k, ratios_v)}
    if args.heatmap:
        artifacts["ratio_k.pgm"] = heatmap_pgm(ratios_k)
        artifacts["ratio_v.pgm"] = heatmap_pgm(ratios_v)
    try:
        correlation = pearson(ratios_k, ratios_v)
    except DegenerateInputError:
        correlation = None
    summary = {"mean_ratio_k": float(ratios_k.mean()), "mean_ratio_v": float(ratios_v.mean()),
               "pearson_r": correlation}
    return artifacts, summary, {}, [
        f"mean K-ratio: {_fmt(summary['mean_ratio_k'])}",
        f"mean V-ratio: {_fmt(summary['mean_ratio_v'])}",
        "pearson r:    " + ("undefined" if correlation is None else _fmt(correlation))]


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


def _cmd_sweep(args, stack, batch):
    contours = _contour_files(args.contour)
    dk_values = _grid_values("--dk", args.dk)
    dv_values = _grid_values("--dv", args.dv)
    surfaces = sweep(stack, batch, dk_values, dv_values)
    artifacts = {"sweep.csv": sweep_csv(dk_values, dv_values, surfaces)}
    for name, (metric, level) in contours.items():
        polylines = marching_squares(dk_values, dv_values, surfaces[metric], level)
        artifacts[name] = contour_text(polylines)
    points = dk_values.size * dv_values.size
    return artifacts, {"grid_points": points}, {}, [f"{points} grid points written to sweep.csv"]


def _check_identity(qkv) -> bool:
    """Whether the compensated rescale at 1, which _guide skips, gives the image rows of K and
    V back (np.array_equal: a -0.0 may come back as +0.0)."""
    i_s = qkv.img_range[0]
    return all(np.array_equal(_rescale(*_decompose(x), 1.0), x) for x in (qkv.k[i_s:], qkv.v[i_s:]))


@np.errstate(over="ignore", invalid="ignore")  # an overflow reads as a failed law
def _check_closed_forms(qkv, guided, out, cfg) -> dict:
    """Whether the guided pass obeys the paper's K law (logit_scaling) and V law
    (value_affinity), head by head.

    With L = q kᵀ/√d_h the unguided logits and b_k, b_v the image-row means of the
    head's post-RoPE K and of its V, the guided logits L′ are L on text keys and
    L + (δk − 1)(L − c) on image keys, c = q·b_k/√d_h; with W′ = softmax(L′), out is
    W′V + (δv − 1)·W′[:, img]·(V_img − b_v). Each law holds to 1e-10 of max(1, its
    finite largest magnitude). The heads share two (S, S) buffers, updated in place.
    """
    i_s = qkv.img_range[0]
    s, h, dh = qkv.q.shape
    pre, post = np.empty((s, s)), np.empty((s, s))
    drift, size = np.empty((2, h)), np.empty((2, h))  # per law (K, V) and head
    for head in range(h):
        q, k, v, k_guided = qkv.q[:, head], qkv.k[:, head], qkv.v[:, head], guided.k[:, head]
        _logits(q, k_guided, post)
        size[0, head] = max(post.max(), -post.min())
        post -= _logits(q, k, pre)
        image = pre[:, i_s:]
        image -= _logits(q, k[i_s:].mean(axis=0, keepdims=True), np.empty((s, 1)))
        image *= cfg.delta_k - 1.0
        post[:, i_s:] -= image
        drift[0, head] = max(post.max(), -post.min())
        w = _softmax_rows(_logits(q, k_guided, pre))
        law = w @ v + (cfg.delta_v - 1.0) * (w[:, i_s:] @ (v[i_s:] - v[i_s:].mean(axis=0)))
        got = out.reshape(s, h, dh)[:, head]
        drift[1, head], size[1, head] = np.max(np.abs(got - law)), np.max(np.abs(got))
    largest = size.max(axis=1)  # a NaN drift or an infinite size fails its law
    holds = (drift.max(axis=1) <= 1e-10 * np.maximum(1.0, largest)) & np.isfinite(largest)
    return dict(zip(("logit_scaling", "value_affinity"), holds.tolist()))


def _cmd_attend(args, stack, batch):
    cfg = load_config(args.config)
    qkv = project_qkv(batch, stack.layers[0])
    guided = apply_dcag(qkv, cfg)
    out = joint_attention(guided)
    i_s, i_e = qkv.img_range
    s, h, dh = qkv.q.shape

    def flat(block):
        return block.reshape(block.shape[0], h * dh)

    checks = {}
    if args.check:  # before the (H, S, S) weights exist, so the two never coexist
        checks = {"identity": _check_identity(qkv), **_check_closed_forms(qkv, guided, out, cfg)}
    artifacts = {
        "k_img_pre.csv": flat(qkv.k[i_s:i_e]),
        "k_img_post.csv": flat(guided.k[i_s:i_e]),
        "v_img_pre.csv": flat(qkv.v[i_s:i_e]),
        "v_img_post.csv": flat(guided.v[i_s:i_e]),
        "attention.csv": attention_weights(guided).reshape(h * s, s),
        "output.csv": out,
    }
    # lambda_k and lambda_v record the bias scale the pass used, which is always 1;
    # guided_layers records that no layer is left out, which is always []
    resolved = {"config": {**asdict(cfg), "lambda_k": 1.0, "lambda_v": 1.0,
                           "token_range": qkv.img_range, "guided_layers": []}}
    lines = [f"guided pass complete: {len(artifacts)} artifacts in {Path(args.out)}",
             *(f"check {name}: {'PASS' if passed else 'FAIL'}" for name, passed in checks.items())]
    return artifacts, {"checks": checks} if args.check else None, resolved, lines


def main(argv=None) -> int:
    """Parse, check memory, seed the stack and batch, compute, write (manifest last), print.

    A command maps (args, stack, batch) to its artifacts, summary, resolved manifest
    parameters and printed lines. A ValueError or OSError at any step prints one
    `error:` line and nothing on stdout and returns 2; else main returns 1 when the
    summary holds a failed check, and 0 otherwise.
    """
    args = build_parser().parse_args(argv)
    try:
        _check_memory(args)
        stack = ToyStack.seeded(args.seed, layers=getattr(args, "layers", 1),
                                steps=getattr(args, "steps", 1), dim=args.dim, heads=args.heads)
        batch = seeded_batch(args.seed, txt_tokens=args.txt_tokens,
                             img_tokens=args.img_tokens, dim=args.dim)
        artifacts, summary, resolved, lines = args.func(args, stack, batch)
        artifacts["manifest.json"] = _manifest(args, artifacts, summary, resolved)
        _write_artifacts(Path(args.out), artifacts)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0 if all((summary or {}).get("checks", {}).values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
