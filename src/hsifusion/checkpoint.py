"""Named-tensor checkpoints: network config, weights, optimizer moments, step.

Layout (all little-endian):

    8 bytes   magic  b"HSIFCKPT"
    u32       format version (currently 1)
    u64       header length in bytes
    header    UTF-8 JSON: config, schedule hyperparameters, step,
              tensor manifest, optimizer manifest
    payload   raw tensor bytes in manifest order; for the optimizer, the
              first and second moment of each parameter in manifest order

Every tensor and moment is stored in the little-endian dtype its manifest
entry declares (f4 or f8); a moment is converted to its parameter's byte order
on write, and one of another float width is refused. On load the payload is
sized against the manifest before anything is allocated, then read straight
into the returned arrays with the payload helpers ``datacube`` shares.

Round-trips are bit-exact. A checkpoint saved without optimizer state loads
fine for inference but refuses to resume training.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .datacube import (_atomic_open, _check_fields, _is_int, _read_header, _read_payload,
                       _write_payload)
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
    tag = arr.dtype.str[1:]  # "f4" for float32 in either byte order
    if tag not in _DTYPE_TAGS:
        raise CheckpointFormatError(f"unsupported tensor dtype {arr.dtype}")
    return tag


def save_checkpoint(
    path,
    config: DenoiserConfig,
    params: dict[str, Tensor],
    opt_state: dict | None = None,
    step: int = 0,
    schedule: dict | None = None,
) -> None:
    names = sorted(params)
    tags = [_dtype_tag(params[n].data) for n in names]
    header: dict = {
        "config": config.to_dict(),
        "schedule": schedule,
        "step": int(step),
        "tensors": [{"name": n, "shape": list(params[n].shape), "dtype": t}
                    for n, t in zip(names, tags)],
        "optimizer": None,
    }
    payload = [(params[n].data, _DTYPE_TAGS[t]) for n, t in zip(names, tags)]
    if opt_state is not None:
        header["optimizer"] = {k: opt_state[k] for k in ("beta1", "beta2", "eps")}
        header["optimizer"]["step"] = int(opt_state["step"])
        for n, tag in zip(names, tags):
            for key in ("m", "v"):
                mom = np.asarray(opt_state[key][n])
                if mom.shape != params[n].shape or mom.dtype.str[1:] != tag:
                    raise ValueError(f"optimizer moment '{key}' of '{n}' is {mom.dtype.str} "
                                     f"{mom.shape}, its parameter {tag} {params[n].shape}")
                payload.append((mom, _DTYPE_TAGS[tag]))

    head = json.dumps(header).encode("utf-8")
    with _atomic_open(path) as fh:
        fh.write(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(head)) + head)
        _write_payload(fh, payload)


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
        header = _read_header(fh.read(head_len), path, CheckpointFormatError,
                              ("config", "tensors", "optimizer"), counts=("step",))
        _check_fields(header["config"], f"{path}: header 'config'", CheckpointFormatError)
        try:
            config = DenoiserConfig.from_dict(header["config"])
        except ValueError as exc:
            raise CheckpointFormatError(f"{path}: header 'config': {exc}") from None
        schedule = header.get("schedule")
        if schedule is not None:  # train() writes both keys, and fuse reads both
            _check_fields(schedule, f"{path}: header 'schedule'", CheckpointFormatError,
                          counts=("T",), numbers=("beta_end",))
        specs = _tensor_specs(path, header["tensors"])
        opt = header["optimizer"]
        layout = [(shape, dt) for _, shape, dt in specs]
        if opt is not None:  # the first and second moment of each parameter
            _check_fields(opt, f"{path}: header 'optimizer'", CheckpointFormatError,
                          counts=("step",), numbers=("beta1", "beta2", "eps"))
            layout += [spec for spec in layout for _ in "mv"]
        arrays = _read_payload(fh, layout, path, CheckpointFormatError)

    names = [name for name, _, _ in specs]
    params = {n: Tensor(a, requires_grad=True, dtype=a.dtype.type) for n, a in zip(names, arrays)}
    opt_state = None
    if opt is not None:
        moments = arrays[len(names):]
        opt_state = {
            "beta1": opt["beta1"], "beta2": opt["beta2"], "eps": opt["eps"], "step": opt["step"],
            "m": dict(zip(names, moments[0::2])), "v": dict(zip(names, moments[1::2])),
        }
    return Checkpoint(
        config=config, params=params, opt_state=opt_state,
        step=header["step"], schedule=schedule,
    )


def _tensor_specs(path, entries) -> list[tuple[str, tuple[int, ...], str]]:
    """Check the header's tensor manifest: (name, shape, numpy dtype) per entry."""
    if not isinstance(entries, list):
        raise CheckpointFormatError(f"{path}: header 'tensors' is not a list")
    specs, seen = [], set()
    for i, spec in enumerate(entries):
        where = f"{path}: tensor entry {i}"
        _check_fields(spec, where, CheckpointFormatError, ("name", "shape", "dtype"))
        name, shape, tag = spec["name"], spec["shape"], spec["dtype"]
        if not isinstance(name, str):
            raise CheckpointFormatError(f"{where} has name {name!r}, not a string")
        where = f"{where} ({name!r})"
        if name in seen:
            raise CheckpointFormatError(f"{where} repeats an earlier entry's name")
        if not isinstance(shape, list) or not all(_is_int(d) and d >= 0 for d in shape):
            raise CheckpointFormatError(
                f"{where} has shape {shape!r}, not a list of non-negative integers"
            )
        if tag not in _DTYPE_TAGS:
            raise CheckpointFormatError(f"{where} has unknown dtype tag {tag!r}")
        seen.add(name)
        specs.append((name, tuple(shape), _DTYPE_TAGS[tag]))
    return specs
