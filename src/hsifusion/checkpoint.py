"""Named-tensor checkpoints: network config, weights, optimizer moments, step.

Layout (all little-endian):

    8 bytes   magic  b"HSIFCKPT"
    u32       format version (currently 1)
    u64       header length in bytes
    header    UTF-8 JSON: config, schedule hyperparameters, step,
              tensor manifest, optimizer manifest
    payload   raw tensor bytes in manifest order; for the optimizer, the
              first and second moment of each parameter in manifest order

Round-trips are bit-exact. A checkpoint saved without optimizer state loads
fine for inference but refuses to resume training.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .datacube import _atomic_open
from .denoiser import DenoiserConfig

MAGIC = b"HSIFCKPT"
FORMAT_VERSION = 1

_DTYPE_TAGS = {"f4": "<f4", "f8": "<f8"}


class CheckpointFormatError(ValueError):
    """Raised for unreadable or version-incompatible checkpoint files."""


@dataclass
class Checkpoint:
    config: DenoiserConfig
    params: dict[str, Tensor]
    opt_state: dict | None
    step: int
    schedule: dict | None  # {"T": int, "beta_end": float} when saved by train()


def _dtype_tag(arr: np.ndarray) -> str:
    if arr.dtype == np.float32:
        return "f4"
    if arr.dtype == np.float64:
        return "f8"
    raise CheckpointFormatError(f"unsupported tensor dtype {arr.dtype}")


def save_checkpoint(
    path,
    config: DenoiserConfig,
    params: dict[str, Tensor],
    opt_state: dict | None = None,
    step: int = 0,
    schedule: dict | None = None,
) -> None:
    names = sorted(params)
    tensors = [
        {"name": n, "shape": list(params[n].shape), "dtype": _dtype_tag(params[n].data)}
        for n in names
    ]
    header: dict = {
        "config": config.to_dict(),
        "schedule": schedule,
        "step": int(step),
        "tensors": tensors,
        "optimizer": None,
    }
    blobs = [np.ascontiguousarray(params[n].data).tobytes() for n in names]
    if opt_state is not None:
        header["optimizer"] = {
            "beta1": opt_state["beta1"],
            "beta2": opt_state["beta2"],
            "eps": opt_state["eps"],
            "step": int(opt_state["step"]),
        }
        for n in names:
            for key in ("m", "v"):
                mom = np.asarray(opt_state[key][n])
                if mom.shape != params[n].shape:
                    raise ValueError(f"optimizer moment '{key}' of '{n}' has wrong shape")
                blobs.append(np.ascontiguousarray(mom).tobytes())

    head = json.dumps(header).encode("utf-8")
    with _atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        prefix = fh.read(20)
        if prefix[:8] != MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic {prefix[:8]!r}")
        if len(prefix) < 20:
            raise CheckpointFormatError(f"{path}: file ends inside the 20-byte prefix")
        version, head_len = struct.unpack("<IQ", prefix[8:])
        if version != FORMAT_VERSION:
            raise CheckpointFormatError(
                f"{path}: format version {version}, this build reads {FORMAT_VERSION}"
            )
        # a corrupt length must not size the read
        if head_len > os.fstat(fh.fileno()).st_size - 20:
            raise CheckpointFormatError(f"{path}: file ends inside the {head_len}-byte header")
        try:
            header = json.loads(fh.read(head_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointFormatError(f"{path}: unreadable header: {exc}") from None
        payload = fh.read()
    if not isinstance(header, dict):
        raise CheckpointFormatError(f"{path}: header is not a JSON object")
    missing = [k for k in ("config", "step", "tensors", "optimizer") if k not in header]
    if missing:
        raise CheckpointFormatError(f"{path}: header has no {', '.join(map(repr, missing))}")

    config = DenoiserConfig.from_dict(header["config"])
    specs = _tensor_specs(path, header["tensors"])
    params: dict[str, Tensor] = {}
    offset = 0

    def take(shape, dt) -> np.ndarray:
        nonlocal offset
        count = math.prod(shape)  # exact: a corrupt shape must not wrap around
        n_bytes = count * np.dtype(dt).itemsize
        if offset + n_bytes > len(payload):
            raise CheckpointFormatError(
                f"{path}: payload truncated at byte {offset} (+{n_bytes} needed)"
            )
        arr = np.frombuffer(payload, dtype=dt, count=count, offset=offset).reshape(shape).copy()
        offset += n_bytes
        return arr

    for name, shape, dt in specs:
        params[name] = Tensor(take(shape, dt), requires_grad=True, dtype=np.dtype(dt).type)

    opt_state = None
    if header["optimizer"] is not None:
        opt = header["optimizer"]
        m, v = {}, {}
        for name, shape, dt in specs:
            m[name] = take(shape, dt)
            v[name] = take(shape, dt)
        opt_state = {
            "beta1": opt["beta1"], "beta2": opt["beta2"], "eps": opt["eps"],
            "step": opt["step"], "m": m, "v": v,
        }
    if offset != len(payload):
        raise CheckpointFormatError(
            f"{path}: {len(payload) - offset} unexplained trailing payload bytes"
        )
    return Checkpoint(
        config=config, params=params, opt_state=opt_state,
        step=int(header["step"]), schedule=header.get("schedule"),
    )


def _tensor_specs(path, entries) -> list[tuple[str, tuple[int, ...], str]]:
    """Check the header's tensor manifest: (name, shape, numpy dtype) per entry."""
    if not isinstance(entries, list):
        raise CheckpointFormatError(f"{path}: header 'tensors' is not a list")
    specs, seen = [], set()
    for i, spec in enumerate(entries):
        where = f"{path}: tensor entry {i}"
        if not isinstance(spec, dict):
            raise CheckpointFormatError(f"{where} is not a JSON object")
        missing = [k for k in ("name", "shape", "dtype") if k not in spec]
        if missing:
            raise CheckpointFormatError(f"{where} has no {', '.join(map(repr, missing))}")
        name, shape, tag = spec["name"], spec["shape"], spec["dtype"]
        if not isinstance(name, str):
            raise CheckpointFormatError(f"{where} has name {name!r}, not a string")
        where = f"{where} ({name!r})"
        if name in seen:
            raise CheckpointFormatError(f"{where} repeats an earlier entry's name")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise CheckpointFormatError(
                f"{where} has shape {shape!r}, not a list of non-negative integers"
            )
        if tag not in _DTYPE_TAGS:
            raise CheckpointFormatError(f"{where} has unknown dtype tag {tag!r}")
        seen.add(name)
        specs.append((name, tuple(shape), _DTYPE_TAGS[tag]))
    return specs
