"""In-memory span tracer that times hsifusion's public functions from outside.

The package's modules import each other's functions by name (``sampler`` and
``trainer`` call ``predict_noise``, ``denoiser`` calls ``conv2d``, ``ops``
and ``autodiff`` both bind ``from_op``), so patching one module would miss
most calls. ``Tracer.install`` therefore replaces every binding of a traced
function in every loaded ``hsifusion`` module, and ``remove`` restores them.

A span is ``[name, start, end, parent, request, quantities]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``request`` the id the
benchmark set before the call, and ``quantities`` a dict of counts attached
to the call (computed flops and bytes, file sizes, tape nodes) or None.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function) pairs traced as "<module>.<function>"
TRACED = (
    ("denoiser", "predict_noise"),
    ("denoiser", "assemble_condition"),
    ("ops", "conv2d"),
    ("ops", "silu"),
    ("ops", "group_norm"),
    ("ops", "self_attention"),
    ("ops", "add_channel_bias"),
    ("ops", "concat_channels"),
    ("ops", "upsample_nearest"),
    ("ops", "bicubic_upsample"),
    ("ops", "dense"),
    ("autodiff", "backward"),
    ("sampler", "fuse"),
    ("sampler", "ddim_step"),
    ("diffusion", "q_sample"),
    ("diffusion", "simple_loss"),
    ("schedule", "linear_schedule"),
    ("trainer", "train"),
    ("trainer", "train_step"),
    ("trainer", "adam_step"),
    ("trainer", "sample_patch"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("datacube", "read_cube"),
    ("datacube", "write_cube"),
)
REPORT_ADD = "metrics.FusionReport.add"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED) + (REPORT_ADD,)
FILE_SPANS = (
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
    "datacube.read_cube",
    "datacube.write_cube",
)


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _conv2d_cost(args, kwargs, result) -> dict:
    # forward pass only; bytes count the input read, the im2col matrix that
    # tensordot materialises (written, then read by the GEMM), the kernel read
    # and the output written. Computed from shapes, not measured.
    c_in, h, w = _arg(args, kwargs, 0, "x").shape
    c_out, _, k, _ = _arg(args, kwargs, 1, "kernel").shape
    _, h_out, w_out = result.shape
    item = result.data.itemsize
    cols = c_in * k * k * h_out * w_out
    return {
        "flop": 2.0 * c_out * cols,
        "bytes": item * (c_in * h * w + 2 * cols + c_out * c_in * k * k + c_out * h_out * w_out),
    }


def _attention_cost(args, kwargs, result) -> dict:
    # q, k, v and output projections (4 * 2*N*C^2) plus logits and the
    # attention-weighted sum (2 * 2*N^2*C), for N tokens of width C
    c, h, w = _arg(args, kwargs, 0, "x").shape
    n = h * w
    return {"flop": 8.0 * n * c * c + 4.0 * n * n * c}


def _file_size(args, kwargs, result) -> dict:
    return {"bytes": float(os.path.getsize(_arg(args, kwargs, 0, "path")))}


COSTS = {
    "ops.conv2d": _conv2d_cost,
    "ops.self_attention": _attention_cost,
    **{name: _file_size for name in FILE_SPANS},
}


def _owned_bytes(arr, seen: set) -> int:
    """Bytes of the buffer behind ``arr``, counted once per buffer in ``seen``."""
    root = arr
    # ndarray views and numpy's stride-trick wrappers both expose ``.base``
    while getattr(root, "base", None) is not None:
        root = root.base
    if not isinstance(root, np.ndarray):
        root = arr
    if id(root) in seen:
        return 0
    seen.add(id(root))
    return int(root.nbytes)


class Tracer:
    """Records spans for the selected traced functions while installed.

    ``names`` restricts tracing to those span names; None traces every name in
    ``SPAN_NAMES`` and also counts the tape nodes that ``from_op`` records
    during each network evaluation.
    """

    def __init__(self, names=None):
        self.names = set(SPAN_NAMES if names is None else names)
        self.count_tape = names is None
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._tape: dict | None = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import hsifusion

        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == "hsifusion" or n.startswith("hsifusion."))
        ]
        for mod, func in TRACED:
            name = f"{mod}.{func}"
            if name in self.names:
                fn = getattr(sys.modules[f"hsifusion.{mod}"], func)
                self._patch_everywhere(modules, fn, self._wrap(name, fn))
        if REPORT_ADD in self.names:
            owner = hsifusion.metrics.FusionReport
            original = owner.__dict__["add"]
            self._patches.append((owner, "add", original))
            setattr(owner, "add", self._wrap(REPORT_ADD, original))
        if self.count_tape:
            fn = hsifusion.autodiff.from_op
            self._patch_everywhere(modules, fn, self._count_tape(fn))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_everywhere(self, modules, fn, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        cost = COSTS.get(name)
        network = name == "denoiser.predict_noise" and self.count_tape

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            spans.append(rec)
            stack.append(idx)
            if network:
                self._tape = {"tape_nodes": 0, "tape_bytes": 0, "seen": set()}
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[1] = t0
                stack.pop()
                if network:
                    tape, self._tape = self._tape, None
                    del tape["seen"]
                    rec[5] = tape
            if cost is not None:
                rec[5] = cost(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_tape(self, fn):
        def from_op(data, parents, backward_fn):
            out = fn(data, parents, backward_fn)
            tape = self._tape
            if tape is not None and out.requires_grad:
                seen = tape["seen"]
                held = _owned_bytes(out.data, seen)
                for cell in backward_fn.__closure__ or ():
                    try:
                        value = cell.cell_contents
                    except ValueError:  # cell not yet bound
                        continue
                    if isinstance(value, np.ndarray):
                        held += _owned_bytes(value, seen)
                tape["tape_nodes"] += 1
                tape["tape_bytes"] += held
            return out

        from_op.__wrapped__ = fn
        return from_op

    # -- output --------------------------------------------------------------

    def durations(self, name: str, request) -> list[float]:
        """Durations of the spans called ``name`` made under ``request``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[4] == request]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, request, qty in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                     "request": request, **(qty or {})}) + "\n")


def summarize(spans, requests, units: float) -> dict[str, float]:
    """Per-layer metrics from ``spans``.

    Counts, self times, flops and bytes moved are totals over the spans of
    ``requests`` divided by ``units`` (scenes or optimizer steps). ``.s`` and
    ``.mb`` are medians per call over every span, set-up included. Tape
    figures are per network evaluation. A layer never called reads 0.
    """
    requests = set(requests)
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0

    calls = defaultdict(int)
    self_s = defaultdict(float)
    qty = defaultdict(float)
    durations = defaultdict(list)
    file_bytes = defaultdict(list)
    for i, (name, t0, t1, _, request, q) in enumerate(spans):
        durations[name].append(t1 - t0)
        if name in FILE_SPANS:
            file_bytes[name].append(q["bytes"])
        if request not in requests:
            continue
        calls[name] += 1
        self_s[name] += t1 - t0 - child[i]
        for key, value in (q or {}).items():
            qty[name, key] += value

    def median(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / units
        out[f"{name}.self_s"] = self_s[name] / units
        out[f"{name}.s"] = median(durations[name])
    for name in FILE_SPANS:
        out[f"{name}.mb"] = median(file_bytes[name]) / 1e6
    conv_flop = qty["ops.conv2d", "flop"]
    out["ops.conv2d.gflop"] = conv_flop / units / 1e9
    out["ops.conv2d.mb_moved"] = qty["ops.conv2d", "bytes"] / units / 1e6
    conv_self = self_s["ops.conv2d"]
    out["ops.conv2d.gflop_per_s"] = conv_flop / conv_self / 1e9 if conv_self else 0.0
    out["ops.self_attention.gflop"] = qty["ops.self_attention", "flop"] / units / 1e9
    evals = calls["denoiser.predict_noise"]
    out["autodiff.tape_nodes"] = qty["denoiser.predict_noise", "tape_nodes"] / evals if evals else 0.0
    out["autodiff.tape_mb"] = (
        qty["denoiser.predict_noise", "tape_bytes"] / evals / 1e6 if evals else 0.0
    )
    return out
