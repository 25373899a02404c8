import json
import struct

import numpy as np
import pytest

from hsifusion.autodiff import Tensor
from hsifusion.checkpoint import load_checkpoint, save_checkpoint
from hsifusion.cli import _write_manifest, load_run_config, main
from hsifusion.datacube import HsiCube, read_cube, write_cube
from hsifusion.degrade import ObservationModel, spatial_degrade, uniform_band_groups
from hsifusion.denoiser import DenoiserConfig, init_params
from hsifusion.synthetic import make_toy_dataset, observed_triples
from hsifusion.trainer import AdamState


BANDS, SIZE, SCALE = 4, 32, 4


@pytest.fixture
def workspace(tmp_path, rng):
    """Ground-truth cube file plus an SRF table on disk."""
    cube = HsiCube(rng.random((BANDS, SIZE, SIZE)).astype(np.float32),
                   value_range=(0.0, 1.0), wavelengths_nm=[400, 500, 600, 700])
    gt = tmp_path / "gt.hsic"
    write_cube(gt, cube)
    srf = tmp_path / "srf.csv"
    srf.write_text("400,500,600,700\n1,1,0,0\n0,0,1,1\n")
    return tmp_path, gt, srf, cube


def make_checkpoint(tmp_path, rng, T=20, beta_end=0.1, with_optimizer=False):
    cfg = DenoiserConfig(bands=BANDS, msi_bands=2, scale=SCALE, base_channels=8,
                         channel_multipliers=(1, 2), attention_levels=(),
                         time_embed_dim=16, groups=4)
    params = init_params(cfg, rng)
    path = tmp_path / "model.ckpt"
    opt = AdamState.for_params(params).to_dict() if with_optimizer else None
    save_checkpoint(path, cfg, params, opt, step=0, schedule={"T": T, "beta_end": beta_end})
    return path, cfg


class TestSimulate:
    def test_outputs_and_manifest(self, workspace):
        tmp, gt, srf, cube = workspace
        rc = main(["simulate", "--in", str(gt), "--block", str(SCALE), "--srf", str(srf),
                   "--out-lr", str(tmp / "lr.hsic"), "--out-msi", str(tmp / "msi.hsic")])
        assert rc == 0
        lr = read_cube(tmp / "lr.hsic")
        msi = read_cube(tmp / "msi.hsic")
        assert lr.data.shape == (BANDS, SIZE // SCALE, SIZE // SCALE)
        assert msi.data.shape == (2, SIZE, SIZE)
        manifest = json.loads((tmp / "lr.hsic.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["tool"] == "hsifusion"

    def test_failed_manifest_write_keeps_previous(self, tmp_path, full_disk):
        manifest = tmp_path / "lr.hsic.manifest.json"
        manifest.write_text("previous manifest")
        with pytest.raises(OSError, match="No space"):
            _write_manifest(tmp_path / "lr.hsic", "simulate", {"block": SCALE})
        assert manifest.read_text() == "previous manifest"
        assert [f.name for f in tmp_path.iterdir()] == [manifest.name]

    def test_self_consistency_against_direct_block_average(self, workspace):
        # recomputing the block average in-process and writing it must match
        # the simulated output exactly
        tmp, gt, srf, cube = workspace
        main(["simulate", "--in", str(gt), "--block", str(SCALE), "--srf", str(srf),
              "--out-lr", str(tmp / "lr.hsic"), "--out-msi", str(tmp / "msi.hsic")])
        model = ObservationModel(block=SCALE, srf=np.eye(BANDS))
        recomputed = spatial_degrade(cube, model)
        write_cube(tmp / "lr2.hsic", HsiCube(recomputed))
        rc = main(["eval", "--ref", str(tmp / "lr2.hsic"), "--est", str(tmp / "lr.hsic"),
                   "--scale", str(SCALE), "--report", str(tmp / "rep.json")])
        assert rc == 0
        rep = json.loads((tmp / "rep.json").read_text())
        row = rep["per_image"][0]
        assert row["psnr_db"] == float("inf")
        assert row["sam_rad"] == 0.0
        assert row["ergas"] == 0.0
        assert row["ssim"] == 1.0

    def test_unreadable_input_fails(self, workspace):
        tmp, gt, srf, cube = workspace
        rc = main(["simulate", "--in", str(tmp / "missing.hsic"), "--srf", str(srf),
                   "--out-lr", str(tmp / "a"), "--out-msi", str(tmp / "b")])
        assert rc != 0


class TestEval:
    def test_identical_cubes_ideal_values(self, workspace):
        tmp, gt, srf, cube = workspace
        rc = main(["eval", "--ref", str(gt), "--est", str(gt), "--scale", "4",
                   "--report", str(tmp / "ideal.json")])
        assert rc == 0
        rep = json.loads((tmp / "ideal.json").read_text())
        row = rep["per_image"][0]
        assert row["psnr_db"] == float("inf")
        assert row["sam_rad"] == 0.0
        assert row["ergas"] == 0.0
        assert row["ssim"] == 1.0
        assert (tmp / "ideal.json.bands.tsv").exists()

    def test_header_not_an_object_reported(self, workspace, capsys):
        tmp, gt, srf, cube = workspace
        bad = tmp / "bad.hsic"
        bad.write_bytes(b"HSICUBE 1\n5\n")
        capsys.readouterr()
        rc = main(["eval", "--ref", str(gt), "--est", str(bad), "--scale", "4",
                   "--report", str(tmp / "bad.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "header is not a JSON object" in err
        assert not (tmp / "bad.json").exists()

    @pytest.mark.parametrize("value", [None, "x", True, 2.0, -1])
    def test_bad_header_size_reported(self, workspace, capsys, value):
        tmp, gt, srf, cube = workspace
        bad = tmp / "bad.hsic"
        header = {"bands": value, "height": SIZE, "width": SIZE, "dtype": "f32",
                  "interleave": "band-sequential", "value_range": [0.0, 1.0]}
        bad.write_bytes(b"HSICUBE 1\n" + json.dumps(header).encode() + b"\n"
                        + cube.data.astype("<f4").tobytes())
        capsys.readouterr()
        rc = main(["eval", "--ref", str(gt), "--est", str(bad), "--scale", "4",
                   "--report", str(tmp / "bad.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"header has 'bands' {value!r}, not a non-negative integer" in err
        assert not (tmp / "bad.json").exists()

    @pytest.mark.parametrize("field,value,message", [
        ("value_range", None, "header has 'value_range' None, not a list of two numbers"),
        ("value_range", [0, 1, 2], "'value_range' [0, 1, 2], not a list of two numbers"),
        ("wavelengths_nm", "x", "header has 'wavelengths_nm' 'x', not a list of numbers"),
        ("value_range", [0, float("inf")], "'value_range' [0, inf], not a list of two numbers"),
    ])
    def test_bad_header_metadata_reported(self, workspace, capsys, field, value, message):
        tmp, gt, srf, cube = workspace
        bad = tmp / "bad.hsic"
        header = {"bands": BANDS, "height": SIZE, "width": SIZE, "dtype": "f32",
                  "interleave": "band-sequential", "value_range": [0.0, 1.0], field: value}
        bad.write_bytes(b"HSICUBE 1\n" + json.dumps(header).encode() + b"\n"
                        + cube.data.astype("<f4").tobytes())
        capsys.readouterr()
        rc = main(["eval", "--ref", str(gt), "--est", str(bad), "--scale", "4",
                   "--report", str(tmp / "bad.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp / "bad.json").exists()


class TestFuse:
    def test_fuse_writes_cube_and_is_deterministic(self, workspace, rng):
        tmp, gt, srf, cube = workspace
        main(["simulate", "--in", str(gt), "--block", str(SCALE), "--srf", str(srf),
              "--out-lr", str(tmp / "lr.hsic"), "--out-msi", str(tmp / "msi.hsic")])
        ckpt, cfg = make_checkpoint(tmp, rng)
        args = ["fuse", "--checkpoint", str(ckpt), "--lr", str(tmp / "lr.hsic"),
                "--msi", str(tmp / "msi.hsic"), "--steps", "2", "--sigma", "zero",
                "--seed", "7", "--out", str(tmp / "fused.hsic")]
        assert main(args) == 0
        first = (tmp / "fused.hsic").read_bytes()
        assert main(args) == 0
        assert (tmp / "fused.hsic").read_bytes() == first
        fused = read_cube(tmp / "fused.hsic")
        assert fused.data.shape == (BANDS, SIZE, SIZE)
        assert (tmp / "fused.hsic.manifest.json").exists()

    def test_band_mismatch_diagnosed(self, workspace, rng):
        tmp, gt, srf, cube = workspace
        main(["simulate", "--in", str(gt), "--block", str(SCALE), "--srf", str(srf),
              "--out-lr", str(tmp / "lr.hsic"), "--out-msi", str(tmp / "msi.hsic")])
        ckpt, _ = make_checkpoint(tmp, rng)
        rc = main(["fuse", "--checkpoint", str(ckpt), "--lr", str(tmp / "msi.hsic"),
                   "--msi", str(tmp / "lr.hsic"), "--out", str(tmp / "x.hsic")])
        assert rc != 0

    def test_default_tile_stride_beyond_tile_rejected(self, workspace, rng, capsys):
        # --tile 16 with the default --tile-stride 48 used to leave zero stripes
        tmp, gt, srf, cube = workspace
        main(["simulate", "--in", str(gt), "--block", str(SCALE), "--srf", str(srf),
              "--out-lr", str(tmp / "lr.hsic"), "--out-msi", str(tmp / "msi.hsic")])
        ckpt, _ = make_checkpoint(tmp, rng)
        capsys.readouterr()
        rc = main(["fuse", "--checkpoint", str(ckpt), "--lr", str(tmp / "lr.hsic"),
                   "--msi", str(tmp / "msi.hsic"), "--tile", "16",
                   "--out", str(tmp / "x.hsic")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tile=16, tile_stride=48" in err
        assert not (tmp / "x.hsic").exists()

    def test_mis_shaped_checkpoint_named(self, workspace, rng, capsys):
        # the parameter is named, and no output is written
        tmp, gt, srf, cube = workspace
        main(["simulate", "--in", str(gt), "--block", str(SCALE), "--srf", str(srf),
              "--out-lr", str(tmp / "lr.hsic"), "--out-msi", str(tmp / "msi.hsic")])
        ckpt_path, cfg = make_checkpoint(tmp, rng)
        ckpt = load_checkpoint(ckpt_path)
        ckpt.params["down0.pool.w"] = Tensor(np.zeros((8, 8, 1, 1), dtype=np.float32))
        save_checkpoint(ckpt_path, cfg, ckpt.params, schedule=ckpt.schedule)
        capsys.readouterr()
        rc = main(["fuse", "--checkpoint", str(ckpt_path), "--lr", str(tmp / "lr.hsic"),
                   "--msi", str(tmp / "msi.hsic"), "--steps", "2",
                   "--out", str(tmp / "x.hsic")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'down0.pool.w'" in err
        assert not (tmp / "x.hsic").exists()

    def test_truncated_checkpoint_reported(self, workspace, rng, capsys):
        tmp, gt, srf, cube = workspace
        main(["simulate", "--in", str(gt), "--block", str(SCALE), "--srf", str(srf),
              "--out-lr", str(tmp / "lr.hsic"), "--out-msi", str(tmp / "msi.hsic")])
        ckpt_path, _ = make_checkpoint(tmp, rng)
        ckpt_path.write_bytes(ckpt_path.read_bytes()[:14])
        capsys.readouterr()
        rc = main(["fuse", "--checkpoint", str(ckpt_path), "--lr", str(tmp / "lr.hsic"),
                   "--msi", str(tmp / "msi.hsic"), "--steps", "2",
                   "--out", str(tmp / "x.hsic")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ends inside" in err
        assert not (tmp / "x.hsic").exists()


    @staticmethod
    def _fuse_with_edited_header(workspace, rng, capsys, edit) -> str:
        """Run ``hsifusion fuse`` on an Adam checkpoint whose header ``edit``
        changed in place; return its stderr after checking it failed."""
        tmp, gt, srf, cube = workspace
        main(["simulate", "--in", str(gt), "--block", str(SCALE), "--srf", str(srf),
              "--out-lr", str(tmp / "lr.hsic"), "--out-msi", str(tmp / "msi.hsic")])
        ckpt_path, _ = make_checkpoint(tmp, rng, with_optimizer=True)
        raw = ckpt_path.read_bytes()
        (n,) = struct.unpack("<Q", raw[12:20])
        header = json.loads(raw[20:20 + n])
        edit(header)
        head = json.dumps(header).encode("utf-8")
        ckpt_path.write_bytes(raw[:12] + struct.pack("<Q", len(head)) + head + raw[20 + n:])
        capsys.readouterr()
        rc = main(["fuse", "--checkpoint", str(ckpt_path), "--lr", str(tmp / "lr.hsic"),
                   "--msi", str(tmp / "msi.hsic"), "--steps", "2",
                   "--out", str(tmp / "x.hsic")])
        assert rc == 1
        assert not (tmp / "x.hsic").exists()
        return capsys.readouterr().err

    def test_malformed_checkpoint_manifest_reported(self, workspace, rng, capsys):
        err = self._fuse_with_edited_header(workspace, rng, capsys,
                                            lambda h: h["tensors"][0].pop("shape"))
        assert err.startswith("error:") and "tensor entry 0 has no 'shape'" in err

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h["optimizer"].pop("beta1"), "header 'optimizer' has no 'beta1'"),
        (lambda h: h.update(optimizer=[0.9]), "header 'optimizer' is not a JSON object"),
        (lambda h: h["optimizer"].update(step=None), "'optimizer' has 'step' None"),
        (lambda h: h.update(step=None), "header has 'step' None"),
    ])
    def test_malformed_checkpoint_optimizer_or_step_reported(self, workspace, rng, capsys,
                                                             edit, message):
        err = self._fuse_with_edited_header(workspace, rng, capsys, edit)
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("key,value", [
        ("groups", 0), ("bands", "x"), ("scale", None), ("channel_multipliers", 5),
        ("attention_levels", "ab"),
    ])
    def test_mistyped_checkpoint_config_field_reported(self, workspace, rng, capsys, key, value):
        err = self._fuse_with_edited_header(workspace, rng, capsys,
                                            lambda h: h["config"].update({key: value}))
        assert err.startswith("error:") and f"model config '{key}' must be" in err

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h.update(config=None), "header 'config' is not a JSON object"),
        (lambda h: h.update(schedule={}), "header 'schedule' has no 'T', 'beta_end'"),
        (lambda h: h.update(schedule="x"), "header 'schedule' is not a JSON object"),
    ])
    def test_malformed_checkpoint_config_or_schedule_reported(self, workspace, rng, capsys,
                                                              edit, message):
        err = self._fuse_with_edited_header(workspace, rng, capsys, edit)
        assert err.startswith("error:") and message in err


def write_run_config(tmp_path, entries_train, entries_test, iterations=2):
    cfg = {
        "model": {"bands": BANDS, "msi_bands": 2, "scale": SCALE, "base_channels": 8,
                  "channel_multipliers": [1, 2], "attention_levels": [],
                  "time_embed_dim": 16, "groups": 4},
        "train": {"iterations": iterations, "batch_size": 2, "patch": 8,
                  "lr_max": 1e-3, "cycle": 100, "loss_p": 1, "T": 20,
                  "beta_end": 0.1, "seed": 1, "checkpoint_every": 0},
        "data": {"train": entries_train, "test": entries_test},
        "out_dir": str(tmp_path / "run"),
        "sampler": {"seed": 3},
    }
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.fixture
def dataset_on_disk(tmp_path):
    cubes = make_toy_dataset(3, seed=9, bands=BANDS, size=SIZE, coarse=4)
    obs = ObservationModel(block=SCALE, srf=uniform_band_groups(BANDS, 2))
    triples = observed_triples(cubes, obs)
    entries = []
    for i, (x0, y, z) in enumerate(triples):
        e = {}
        for key, arr in (("hrhsi", x0), ("lrhsi", y), ("hrmsi", z)):
            p = tmp_path / f"{key}{i}.hsic"
            write_cube(p, HsiCube(arr))
            e[key] = str(p)
        entries.append(e)
    return tmp_path, entries


# (path into the run config, value put there): each value breaks the shape
# that a valid config has at that path
BAD_RUN_CONFIGS = {
    "top-list": ((), []),
    "model-list": (("model",), []),
    "train-list": (("train",), []),
    "train-int": (("train",), 5),
    "data-list": (("data",), []),
    "data-train-int": (("data", "train"), 5),
    "data-entry-int": (("data", "train", 0), 5),
    "data-entry-key": (("data", "train", 0), {"hrhsi": "x"}),
    "data-path-int": (("data", "train", 0, "hrhsi"), 5),
    "sampler-list": (("sampler",), []),
}


class TestTrainCommand:
    def test_train_runs_and_checkpoints(self, dataset_on_disk):
        tmp, entries = dataset_on_disk
        cfg_path = write_run_config(tmp, entries[:2], entries[2:])
        assert main(["train", "--config", str(cfg_path)]) == 0
        final = tmp / "run" / "checkpoint_final.ckpt"
        assert final.exists()
        manifest = json.loads((tmp / "run" / "checkpoint_final.ckpt.manifest.json").read_text())
        assert "config_sha256" in manifest

    def test_missing_path_in_config_rejected(self, dataset_on_disk):
        tmp, entries = dataset_on_disk
        broken = [dict(entries[0], hrhsi=str(tmp / "nope.hsic"))]
        cfg_path = write_run_config(tmp, broken, [])
        assert main(["train", "--config", str(cfg_path)]) != 0

    def test_divisibility_validated(self, dataset_on_disk):
        tmp, entries = dataset_on_disk
        cfg_path = write_run_config(tmp, entries[:1], [])
        doc = json.loads(cfg_path.read_text())
        doc["train"]["patch"] = 6  # not divisible by scale 4
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="divisible"):
            load_run_config(cfg_path)

    @pytest.mark.parametrize("section,key", [("model", "base_chanels"), ("train", "grad_clip"),
                                             (None, "out_dri"), ("sampler", "sigma"),
                                             ("data", "tests")])
    def test_unknown_config_key_named(self, dataset_on_disk, capsys, section, key):
        tmp, entries = dataset_on_disk
        cfg_path = write_run_config(tmp, entries[:1], [])
        doc = json.loads(cfg_path.read_text())
        (doc[section] if section else doc)[key] = 1.0
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("key,value", [("batch_size", "4"), ("iterations", None),
                                           ("beta_end", 2.0)])
    def test_mistyped_train_config_field_reported(self, dataset_on_disk, capsys, key, value):
        tmp, entries = dataset_on_disk
        cfg_path = write_run_config(tmp, entries[:1], [])
        doc = json.loads(cfg_path.read_text())
        doc["train"][key] = value
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"train config '{key}' must be" in err

    def test_resume_with_bad_adam_hyperparameter_reported(self, dataset_on_disk, capsys):
        tmp, entries = dataset_on_disk
        cfg_path = write_run_config(tmp, entries[:1], [])
        assert main(["train", "--config", str(cfg_path)]) == 0
        final = tmp / "run" / "checkpoint_final.ckpt"
        ckpt = load_checkpoint(final)
        save_checkpoint(final, ckpt.config, ckpt.params, {**ckpt.opt_state, "beta1": -1.0},
                        ckpt.step, schedule=ckpt.schedule)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--resume", str(final)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "optimizer 'beta1' must be" in err

    def test_missing_model_config_key_named(self, dataset_on_disk, capsys):
        tmp, entries = dataset_on_disk
        cfg_path = write_run_config(tmp, entries[:1], [])
        doc = json.loads(cfg_path.read_text())
        del doc["model"]["bands"]
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bands" in err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("where,value", list(BAD_RUN_CONFIGS.values()),
                             ids=list(BAD_RUN_CONFIGS))
    def test_malformed_run_config_reported(self, dataset_on_disk, capsys, command, where,
                                           value):
        tmp, entries = dataset_on_disk
        cfg_path = write_run_config(tmp, entries[:2], entries[2:])
        doc = json.loads(cfg_path.read_text())
        if where:
            *parents, key = where
            node = doc
            for k in parents:
                node = node[k]
            node[key] = value
        else:
            doc = value
        cfg_path.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg_path)]
        if command == "ablate":
            argv += ["--steps", "1", "--losses", "l1", "--report", str(tmp / "g.tsv")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("key,value", [
        (("out_dir",), 5), (("out_dir",), None), (("out_dir",), ["run"]),
        (("sampler", "seed"), None), (("sampler", "seed"), "3"), (("sampler", "seed"), 2.7),
        (("sampler", "seed"), True), (("sampler", "seed"), -1),
    ])
    def test_mistyped_out_dir_or_sampler_seed_named(self, dataset_on_disk, capsys, command,
                                                    key, value):
        # no int() coercion of the seed and no TypeError traceback: the
        # error line names the field
        tmp, entries = dataset_on_disk
        cfg_path = write_run_config(tmp, entries[:2], entries[2:])
        doc = json.loads(cfg_path.read_text())
        *parents, field = key
        node = doc
        for k in parents:
            node = node[k]
        node[field] = value
        cfg_path.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg_path)]
        if command == "ablate":
            argv += ["--steps", "1", "--losses", "l1", "--report", str(tmp / "g.tsv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"has {field!r} {value!r}, not a" in err
        assert not (tmp / "run").exists()

    def test_run_config_defaults_out_dir_and_sampler_seed(self, dataset_on_disk):
        tmp, entries = dataset_on_disk
        cfg_path = write_run_config(tmp, entries[:1], [])
        doc = json.loads(cfg_path.read_text())
        del doc["out_dir"], doc["sampler"]
        cfg_path.write_text(json.dumps(doc))
        cfg = load_run_config(cfg_path)
        assert cfg.out_dir == "runs/default" and cfg.sampler == {"seed": 0}


class TestAblateCommand:
    def test_grid_table_shape(self, dataset_on_disk):
        tmp, entries = dataset_on_disk
        cfg_path = write_run_config(tmp, entries[:2], entries[2:])
        report = tmp / "grid.tsv"
        rc = main(["ablate", "--config", str(cfg_path), "--steps", "4,2,1",
                   "--losses", "l1,l2", "--report", str(report)])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0].split("\t") == ["steps", "4", "2", "1"]
        assert [l.split("\t")[0] for l in lines] == ["steps", "l1", "l2", "time_s"]
        for line in lines[1:]:
            assert len(line.split("\t")) == 4
        doc = json.loads((tmp / "grid.tsv.json").read_text())
        assert set(doc["psnr"]) == {"l1", "l2"}

    def test_bad_step_count_rejected_before_training(self, dataset_on_disk, capsys):
        tmp, entries = dataset_on_disk
        cfg_path = write_run_config(tmp, entries[:2], entries[2:])
        rc = main(["ablate", "--config", str(cfg_path), "--steps", "2,0", "--losses", "l1",
                   "--report", str(tmp / "g.tsv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp / "run" / "ablate_l1").exists()

    def test_bad_loss_name_rejected(self, dataset_on_disk):
        tmp, entries = dataset_on_disk
        cfg_path = write_run_config(tmp, entries[:2], entries[2:])
        rc = main(["ablate", "--config", str(cfg_path), "--losses", "l3",
                   "--report", str(tmp / "g.tsv")])
        assert rc != 0


class TestParser:
    def test_unknown_flag_nonzero_exit(self):
        assert main(["eval", "--nonsense"]) != 0

    def test_missing_subcommand_nonzero_exit(self):
        assert main([]) != 0

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "hsifusion" in capsys.readouterr().out
