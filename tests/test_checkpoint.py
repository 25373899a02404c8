import hashlib
import json
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from hsifusion.autodiff import Tensor
from hsifusion.checkpoint import (
    FORMAT_VERSION,
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
)
from hsifusion.denoiser import DenoiserConfig, init_params
from hsifusion.trainer import AdamState


@pytest.fixture
def setup(rng, tmp_path):
    cfg = DenoiserConfig(bands=2, msi_bands=1, scale=2, base_channels=8,
                         channel_multipliers=(1,), attention_levels=(),
                         time_embed_dim=8, groups=4)
    params = init_params(cfg, rng)
    opt = AdamState.for_params(params)
    for name in params:
        opt.m[name] += rng.normal(size=opt.m[name].shape).astype(np.float32)
        opt.v[name] += rng.random(opt.v[name].shape).astype(np.float32)
    opt.step = 17
    return cfg, params, opt, tmp_path / "model.ckpt"


class TestRoundTrip:
    def test_params_bit_exact_name_by_name(self, setup):
        cfg, params, opt, path = setup
        save_checkpoint(path, cfg, params, opt.to_dict(), step=42,
                        schedule={"T": 50, "beta_end": 0.1})
        ckpt = load_checkpoint(path)
        assert ckpt.config == cfg
        assert ckpt.step == 42
        assert ckpt.schedule == {"T": 50, "beta_end": 0.1}
        assert sorted(ckpt.params) == sorted(params)
        for name in params:
            assert np.array_equal(ckpt.params[name].data, params[name].data)
            assert ckpt.params[name].data.dtype == params[name].data.dtype

    def test_failed_save_keeps_old_checkpoint(self, setup, full_disk):
        # a crash mid-write must not destroy the checkpoint being replaced
        cfg, params, opt, path = setup
        with open(path, "wb") as fh:
            fh.write(b"previous checkpoint bytes")
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, cfg, params, opt.to_dict(), step=3)
        assert path.read_bytes() == b"previous checkpoint bytes"
        assert [f.name for f in path.parent.iterdir()] == [path.name]

    def test_optimizer_moments_bit_exact(self, setup):
        cfg, params, opt, path = setup
        save_checkpoint(path, cfg, params, opt.to_dict(), step=17)
        back = AdamState.from_dict(load_checkpoint(path).opt_state)
        assert back.step == 17
        assert back.beta1 == opt.beta1 and back.beta2 == opt.beta2 and back.eps == opt.eps
        for name in params:
            assert np.array_equal(back.m[name], opt.m[name])
            assert np.array_equal(back.v[name], opt.v[name])

    def test_inference_only_checkpoint(self, setup):
        cfg, params, _, path = setup
        save_checkpoint(path, cfg, params, opt_state=None, step=5)
        ckpt = load_checkpoint(path)
        assert ckpt.opt_state is None
        assert sorted(ckpt.params) == sorted(params)

    def test_zero_size_tensor(self, setup):
        cfg, params, opt, path = setup
        empty = np.zeros((4, 0, 3), dtype=np.float32)
        params = dict(params, empty=Tensor(empty, requires_grad=True))
        state = dict(opt.to_dict(), m=dict(opt.m, empty=empty), v=dict(opt.v, empty=empty))
        save_checkpoint(path, cfg, params, state, step=1)
        ckpt = load_checkpoint(path)
        assert ckpt.params["empty"].shape == ckpt.opt_state["v"]["empty"].shape == (4, 0, 3)
        for name in params:
            assert np.array_equal(ckpt.params[name].data, params[name].data)
            assert np.array_equal(ckpt.opt_state["m"][name], state["m"][name])


class TestMomentDtypes:
    # the manifest records each parameter's dtype, which its moments share
    def test_big_endian_moments_round_trip(self, setup):
        cfg, params, opt, path = setup
        state = dict(opt.to_dict(), m={n: a.astype(">f4") for n, a in opt.m.items()})
        save_checkpoint(path, cfg, params, state, step=2)
        back = load_checkpoint(path).opt_state
        for name in params:
            assert back["m"][name].dtype == params[name].data.dtype
            assert np.array_equal(back["m"][name], opt.m[name])

    def test_wider_moment_refused_without_a_file(self, setup):
        cfg, params, opt, path = setup
        name = sorted(params)[1]
        state = dict(opt.to_dict(), v=dict(opt.v, **{name: opt.v[name].astype(np.float64)}))
        with pytest.raises(ValueError, match=f"moment 'v' of '{re.escape(name)}' is <f8"):
            save_checkpoint(path, cfg, params, state, step=2)
        assert list(path.parent.iterdir()) == []


class TestMemory:
    @pytest.fixture
    def adam_setup(self, rng, tmp_path):
        cfg = DenoiserConfig(bands=4, msi_bands=2, scale=2, base_channels=32,
                             channel_multipliers=(1, 2), attention_levels=(),
                             time_embed_dim=32, groups=8)
        params = init_params(cfg, rng)
        payload = 3 * sum(p.data.nbytes for p in params.values())  # weights, m and v
        return cfg, params, AdamState.for_params(params).to_dict(), tmp_path / "a.ckpt", payload

    def test_save_writes_the_arrays_without_copying(self, adam_setup, peak_alloc):
        # 1.0 payloads when every tensor was copied to bytes first
        cfg, params, state, path, payload = adam_setup
        with peak_alloc() as mem:
            save_checkpoint(path, cfg, params, state, step=1)
        assert mem.peak <= 0.1 * payload, f"{mem.peak / payload:.2f} payloads"

    def test_load_reads_the_payload_into_place(self, adam_setup, peak_alloc):
        # 2.0 payloads when the payload was read whole and each tensor copied out
        cfg, params, state, path, payload = adam_setup
        save_checkpoint(path, cfg, params, state, step=1)
        with peak_alloc() as mem:
            ckpt = load_checkpoint(path)
        assert mem.peak <= 1.2 * payload, f"{mem.peak / payload:.2f} payloads"
        assert ckpt.opt_state is not None


# a corruption of the header's tensor manifest, and the error it must raise
_MANIFEST_EDITS = {
    "not-a-list": (lambda h: h.update(tensors={t["name"]: t for t in h["tensors"]}),
                   "'tensors' is not a list"),
    "entry-not-object": (lambda h: h["tensors"].__setitem__(0, "w"),
                         "tensor entry 0 is not a JSON object"),
    "no-name": (lambda h: h["tensors"][0].pop("name"), "tensor entry 0 has no 'name'"),
    "no-shape": (lambda h: h["tensors"][1].pop("shape"), "tensor entry 1 has no 'shape'"),
    "no-dtype": (lambda h: h["tensors"][2].pop("dtype"), "tensor entry 2 has no 'dtype'"),
    "name-not-string": (lambda h: h["tensors"][0].update(name=7),
                        "entry 0 has name 7, not a string"),
    "negative-dim": (lambda h: h["tensors"][0].update(shape=[-1, 8]),
                     r"entry 0 \('.+'\) has shape \[-1, 8\]"),
    "fractional-dim": (lambda h: h["tensors"][1].update(shape=[2.5]),
                       r"entry 1 \('.+'\) has shape \[2.5\]"),
    "shape-not-list": (lambda h: h["tensors"][1].update(shape=8),
                       r"entry 1 \('.+'\) has shape 8,"),
    "unknown-dtype": (lambda h: h["tensors"][0].update(dtype="i4"), "unknown dtype tag 'i4'"),
    "duplicate-name": (lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"]),
                       r"entry 1 \('.+'\) repeats an earlier entry's name"),
}

# a corruption of the optimizer section or the step count, and its error
_OPTIMIZER_EDITS = {
    "optimizer-not-object": (lambda h: h.update(optimizer=[0.9, 0.999]),
                             "header 'optimizer' is not a JSON object"),
    "no-beta1": (lambda h: h["optimizer"].pop("beta1"), "'optimizer' has no 'beta1'"),
    "no-beta2-or-eps": (lambda h: [h["optimizer"].pop(k) for k in ("beta2", "eps")],
                        "'optimizer' has no 'beta2', 'eps'"),
    "no-step": (lambda h: h["optimizer"].pop("step"), "'optimizer' has no 'step'"),
    "eps-null": (lambda h: h["optimizer"].update(eps=None),
                 "'optimizer' has 'eps' None, not a number"),
    "beta1-bool": (lambda h: h["optimizer"].update(beta1=True),
                   "'optimizer' has 'beta1' True, not a number"),
    "beta2-string": (lambda h: h["optimizer"].update(beta2="0.999"),
                     "'optimizer' has 'beta2' '0.999', not a number"),
    "beta1-nan": (lambda h: h["optimizer"].update(beta1=float("nan")),
                  "'optimizer' has 'beta1' nan, not a number"),
    "optimizer-step-fractional": (lambda h: h["optimizer"].update(step=2.5),
                                  "'optimizer' has 'step' 2.5, not a non-negative integer"),
    "optimizer-step-negative": (lambda h: h["optimizer"].update(step=-1),
                                "'optimizer' has 'step' -1, not a non-negative integer"),
    "step-null": (lambda h: h.update(step=None),
                  "header has 'step' None, not a non-negative integer"),
    "step-string": (lambda h: h.update(step="42"),
                    "header has 'step' '42', not a non-negative integer"),
}

# a corruption of the config or schedule section, and its error
_CONFIG_SCHEDULE_EDITS = {
    "config-null": (lambda h: h.update(config=None), "header 'config' is not a JSON object"),
    "config-list": (lambda h: h.update(config=[2, 1]), "header 'config' is not a JSON object"),
    "schedule-empty": (lambda h: h.update(schedule={}),
                       "header 'schedule' has no 'T', 'beta_end'"),
    "schedule-string": (lambda h: h.update(schedule="x"),
                        "header 'schedule' is not a JSON object"),
    "schedule-no-beta-end": (lambda h: h["schedule"].pop("beta_end"),
                             "header 'schedule' has no 'beta_end'"),
    "schedule-T-fractional": (lambda h: h["schedule"].update(T=2.5),
                              "'schedule' has 'T' 2.5, not a non-negative integer"),
    "schedule-T-negative": (lambda h: h["schedule"].update(T=-1),
                            "'schedule' has 'T' -1, not a non-negative integer"),
    "schedule-beta-end-string": (lambda h: h["schedule"].update(beta_end="0.02"),
                                 "'schedule' has 'beta_end' '0.02', not a number"),
}


class TestValidation:
    def test_tampered_magic(self, setup):
        cfg, params, _, path = setup
        save_checkpoint(path, cfg, params)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_reports_both(self, setup):
        cfg, params, _, path = setup
        save_checkpoint(path, cfg, params)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match=r"99.*1|version 99"):
            load_checkpoint(path)

    def test_truncated_payload(self, setup):
        cfg, params, _, path = setup
        save_checkpoint(path, cfg, params)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    # inside the version, the header length and the header
    @pytest.mark.parametrize("cut", [8, 10, 14, 19, 30])
    def test_truncated_before_payload(self, setup, cut):
        cfg, params, _, path = setup
        save_checkpoint(path, cfg, params)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CheckpointFormatError, match="file ends inside"):
            load_checkpoint(path)

    def test_header_length_beyond_file(self, setup):
        cfg, params, _, path = setup
        save_checkpoint(path, cfg, params)
        raw = bytearray(path.read_bytes())
        raw[12:20] = struct.pack("<Q", 2**62)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="ends inside the 4611686018427387904-byte"):
            load_checkpoint(path)

    def test_header_not_an_object(self, setup):
        cfg, params, _, path = setup
        save_checkpoint(path, cfg, params)
        _with_header(path, [])
        with pytest.raises(CheckpointFormatError, match="not a JSON object"):
            load_checkpoint(path)

    def test_header_without_tensors(self, setup):
        cfg, params, _, path = setup
        save_checkpoint(path, cfg, params)
        header = _header(path)
        del header["tensors"]
        _with_header(path, header)
        with pytest.raises(CheckpointFormatError, match="'tensors'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(_MANIFEST_EDITS))
    def test_malformed_tensor_manifest_named(self, setup, case):
        cfg, params, opt, path = setup
        save_checkpoint(path, cfg, params, opt.to_dict())
        header = _header(path)
        edit, message = _MANIFEST_EDITS[case]
        edit(header)
        _with_header(path, header)
        with pytest.raises(CheckpointFormatError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(_OPTIMIZER_EDITS))
    def test_malformed_optimizer_or_step_named(self, setup, case):
        cfg, params, opt, path = setup
        save_checkpoint(path, cfg, params, opt.to_dict(), step=42)
        header = _header(path)
        edit, message = _OPTIMIZER_EDITS[case]
        edit(header)
        _with_header(path, header)
        with pytest.raises(CheckpointFormatError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(_CONFIG_SCHEDULE_EDITS))
    def test_malformed_config_or_schedule_named(self, setup, case):
        cfg, params, opt, path = setup
        save_checkpoint(path, cfg, params, opt.to_dict(), schedule={"T": 50, "beta_end": 0.02})
        header = _header(path)
        edit, message = _CONFIG_SCHEDULE_EDITS[case]
        edit(header)
        _with_header(path, header)
        with pytest.raises(CheckpointFormatError, match=re.escape(message)):
            load_checkpoint(path)

    def test_invalid_config_value_names_the_file(self, setup):
        cfg, params, _, path = setup
        save_checkpoint(path, cfg, params)
        header = _header(path)
        header["config"]["bands"] = 0
        _with_header(path, header)
        message = f"{path}: header 'config': model config 'bands' must be an integer >= 1, got 0"
        with pytest.raises(CheckpointFormatError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("schedule", [None, {"T": 50, "beta_end": 0}])
    def test_null_schedule_and_integral_beta_end_load(self, setup, schedule):
        cfg, params, _, path = setup
        save_checkpoint(path, cfg, params, schedule=schedule)
        assert load_checkpoint(path).schedule == schedule

    def test_integral_optimizer_numbers_load(self, setup):
        # JSON writes 0 for a zero eps; an int is a number as much as a float
        cfg, params, opt, path = setup
        save_checkpoint(path, cfg, params, opt.to_dict(), step=0)
        header = _header(path)
        header["optimizer"].update(eps=0, beta1=1)
        _with_header(path, header)
        ckpt = load_checkpoint(path)
        assert (ckpt.step, ckpt.opt_state["eps"], ckpt.opt_state["beta1"]) == (0, 0, 1)

    def test_trailing_bytes_rejected(self, setup):
        cfg, params, _, path = setup
        save_checkpoint(path, cfg, params)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(path)


def _header(path) -> dict:
    raw = path.read_bytes()
    (n,) = struct.unpack("<Q", raw[12:20])
    return json.loads(raw[20:20 + n])


def _with_header(path, header: dict) -> None:
    raw = path.read_bytes()
    (n,) = struct.unpack("<Q", raw[12:20])
    head = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<Q", len(head)) + head + raw[20 + n:])


class TestEstimatorField:
    # sha256 of the file this fixed eps model was written to before
    # DenoiserConfig had a prediction field
    EPS_SHA256 = "08c2f687635d6b730174663bf785bdb8b754c834d45def0609194b31926f9838"

    def test_eps_checkpoint_bytes_unchanged(self, tmp_path):
        cfg = DenoiserConfig(bands=2, msi_bands=1, scale=2, base_channels=8,
                             channel_multipliers=(1,), attention_levels=(),
                             time_embed_dim=8, groups=4)
        params = init_params(cfg, np.random.default_rng(0))
        for i, name in enumerate(sorted(params)):
            p = params[name]
            p.data[...] = np.linspace(-1.0, 1.0, p.size).reshape(p.shape) * (i + 1)
        opt = AdamState.for_params(params)
        for name in params:
            opt.m[name] += 0.5
            opt.v[name] += 0.25
        opt.step = 3
        path = tmp_path / "eps.ckpt"
        save_checkpoint(path, cfg, params, opt.to_dict(), step=3,
                        schedule={"T": 20, "beta_end": 0.1})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.EPS_SHA256

    def test_header_without_key_loads_as_eps(self, setup):
        cfg, params, _, path = setup
        save_checkpoint(path, replace(cfg, prediction="x0"), params)
        header = _header(path)
        del header["config"]["prediction"]
        _with_header(path, header)
        assert load_checkpoint(path).config.prediction == "eps"

    def test_x0_estimator_round_trips(self, setup):
        cfg, params, opt, path = setup
        x0 = replace(cfg, prediction="x0")
        save_checkpoint(path, x0, params, opt.to_dict(), step=4)
        assert _header(path)["config"]["prediction"] == "x0"
        assert load_checkpoint(path).config == x0

    def test_unknown_estimator_rejected(self, setup):
        cfg, params, _, path = setup
        save_checkpoint(path, cfg, params)
        header = _header(path)
        header["config"]["prediction"] = "v"
        _with_header(path, header)
        with pytest.raises(ValueError, match="prediction 'v'"):
            load_checkpoint(path)
