"""Outside-in per-layer tracing of the dcag package.

`Tracer.install()` replaces each traced function with a timing wrapper at
every name it is reachable under: its defining module and every dcag module
that imported it by name (`dcag.harness.project_qkv`, `dcag.guidance.project_qkv`
and `dcag.cli.project_qkv` are three sites of one function). The package
source is never edited. A wrapper's self time is its duration minus the
durations of the wrapped calls nested inside it, so the self times of one
invocation add up to the duration of the outermost call, `cli.main`.

Only loop.py imports this module, and only for a traced run, so an untraced
run executes in a process where no wrapper was ever installed.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

# "<module>.<function>" for every traced function of the dcag package.
TRACED = (
    "tensors.softmax_rows",
    "tensors.matmul",
    "attention.project_qkv",
    "attention.rope",
    "attention.joint_attention",
    "guidance.apply_dcag",
    "guidance.decompose",
    "guidance.rescale",
    "guidance.guided_attention",
    "harness.run_stack",
    "harness.render_tokens",
    "harness.sweep",
    "metrics.ssim",
    "metrics.mse",
    "metrics.psnr",
    "profiling.ratio",
    "profiling.profile_stack",
    "profiling.ratios_csv",
    "profiling.heatmap_pgm",
    "contours.marching_squares",
    "contours.contour_text",
    "cli.main",
)

# Kernel counts computed from the (S, H, d_h) shape of each joint_attention call.
COMPUTED = ("attention.flops", "attention.logits_bytes")


class Tracer:
    """Per-label call counts and self times, plus computed attention counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.computed: Counter = Counter()
        self._child_ns = [0]  # one running sum of nested wrapped time per open call

    def reset(self) -> None:
        """Start a new invocation; the installed wrappers keep these same objects."""
        self.calls.clear()
        self.self_ns.clear()
        self.computed.clear()
        self._child_ns[:] = [0]

    def _count_attention(self, qkv) -> None:
        s, h, dh = qkv.q.shape
        self.computed["attention.flops"] += 4 * h * s * s * dh  # QK^T and weights @ V
        self.computed["attention.logits_bytes"] += 8 * h * s * s  # one float64 (H, S, S)

    def wrap(self, label: str, fn, count=None):
        calls, self_ns, child_ns = self.calls, self.self_ns, self._child_ns

        def traced(*args, **kwargs):
            if count is not None:
                count(args[0])
            child_ns.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                total = perf_counter_ns() - start
                nested = child_ns.pop()
                child_ns[-1] += total
                calls[label] += 1
                self_ns[label] += total - nested

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every site of every TRACED function."""
        import dcag.cli  # noqa: F401  (loads every dcag module)

        wrappers = {}
        for label in TRACED:
            module, name = label.split(".")
            original = getattr(sys.modules[f"dcag.{module}"], name)
            count = self._count_attention if label == "attention.joint_attention" else None
            wrappers[id(original)] = self.wrap(label, original, count)
        for module_name, module in list(sys.modules.items()):
            if module_name != "dcag" and not module_name.startswith("dcag."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:  # each original stays alive, so ids are unique
                    setattr(module, attr, wrappers[id(value)])

    def snapshot(self) -> dict:
        """This invocation's counts and self times, keyed by metric name."""
        out = {}
        for label in TRACED:
            out[f"{label}.calls"] = self.calls[label]
            out[f"{label}.self_s"] = self.self_ns[label] / 1e9
        for name in COMPUTED:
            out[name] = self.computed[name]
        return out
