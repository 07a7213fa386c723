"""End-to-end command-line pipeline on a tiny synthetic scene."""

import json

import numpy as np
import pytest

from hsiseg.cli import dispatch
from hsiseg.config import DEFAULTS, Config, parse_config
from hsiseg.errors import ConfigError
from hsiseg.formats import load_class_map, load_labels, read_ppm
from hsiseg.trispec import TriSpectralSet, load_set, write_set

TINY_CONFIG = """
# desk-tiny settings for CI
backbone.widths = 4,6,8,8
backbone.convs = 1,1,1,1
dcm.C = 8
dcm.Z = 4
dcm.T = 2
dcm.heads = 2
train.epochs = 1
train.batch = 4
train.val_fraction = 0
"""


def tiny_config(override):
    """TINY_CONFIG with the ``key = value`` line ``override`` in place of its
    key's line, since a config may set a key only once."""
    key = override.split("=")[0].strip()
    kept = [line for line in TINY_CONFIG.splitlines() if line.split("=")[0].strip() != key]
    return "\n".join(kept + [override]) + "\n"


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """synth -> generate, shared by the command tests below."""
    root = tmp_path_factory.mktemp("scene")
    assert dispatch(["synth", "--seed", "3", "--height", "16", "--width", "16",
                     "--bands", "10", "--classes", "3", "--labels-per-class", "10",
                     "--out", str(root)]) == 0
    set_dir = root / "set"
    assert dispatch(["generate", "--cube", str(root / "scene.hsc"),
                     "--groups", "5", "--out", str(set_dir)]) == 0
    return root


@pytest.fixture(scope="module")
def trained(scene, tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
    cfg = run / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    ckpt = run / "model.ckpt"
    assert dispatch(["train", "--set", str(scene / "set"),
                     "--labels", str(scene / "train.lbl"),
                     "--config", str(cfg), "--out", str(ckpt), "--seed", "1"]) == 0
    return ckpt


class TestUsage:
    def test_no_arguments_usage_exit_2(self, capsys):
        assert dispatch([]) == 2

    def test_unknown_flag_exit_2(self):
        assert dispatch(["generate", "--frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["generate", "--cube", "c", "--groups", "5", "--out", "o"],
        ["predict", "--ckpt", "c", "--set", "s", "--out", "o"],
        ["vote", "--mode", "soft", "--in", "i", "--out", "o"],
        ["eval", "--pred", "p", "--truth", "t", "--report", "r"],
        ["areas", "--image", "i", "--out", "o"],
    ])
    def test_seed_flag_only_where_a_seed_is_used(self, argv):
        from hsiseg.cli import build_parser

        build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--seed", "0"])

    def test_unknown_subcommand_exit_2(self):
        assert dispatch(["explode"]) == 2

    def test_help_lists_every_config_key(self, capsys):
        with pytest.raises(SystemExit):
            dispatch_args = ["train", "--help"]
            from hsiseg.cli import build_parser

            build_parser().parse_args(dispatch_args)
        help_text = capsys.readouterr().out
        for key in DEFAULTS:
            assert key in help_text, f"config key {key} missing from train --help"


class TestConfigFile:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("no.such.key = 5")

    def test_defaults_and_overrides(self):
        cfg = parse_config("dcm.Z = 64\n# comment\n")
        assert cfg.get("dcm.Z") == 64
        assert cfg.get("dcm.T") == 5
        assert cfg.get("dcm.use_GAC") is True

    @pytest.mark.parametrize("key", ["trispec.G", "trispec.wavelength_descending",
                                     "dcm.activation"])
    def test_keys_no_code_reads_are_rejected(self, key):
        with pytest.raises(ConfigError):
            parse_config(f"{key} = 15")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("dcm.Z 64")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="line 3: dcm.Z is already set on line 1"):
            parse_config("dcm.Z = 4\ndcm.T = 2\ndcm.Z = 8\n")

    @pytest.mark.parametrize("streams", [(False, False, True), (True, True, False)])
    def test_every_model_key_reaches_the_net(self, streams):
        """Every backbone, model and dcm key set away from its default reaches
        the net. One stream must stay on, so two runs turn each flag off."""
        from hsiseg.cli import model_from_config

        flags = dict(zip(("dcm.use_F", "dcm.use_RAC", "dcm.use_GAC"), streams))
        cfg = parse_config("""
backbone.widths = 4,6,8,10
backbone.convs = 1,2,1,1
model.classes = 7
model.input_mean = 0.4
model.input_std = 0.3
dcm.C = 12
dcm.Z = 9
dcm.T = 3
dcm.heads = 3
dcm.mlp_ratio = 3
""" + "".join(f"{key} = false\n" for key, on in flags.items() if not on))
        changed = {key for key in DEFAULTS if cfg.text[key] != Config().text[key]}
        assert changed == {key for key in DEFAULTS
                           if not key.startswith("train.") and flags.get(key) is not True}
        net = model_from_config(cfg, cfg.get("model.classes"))
        ctx = net.context
        assert net.backbone.cfg.widths == (4, 6, 8, 10)
        assert net.backbone.cfg.convs_per_stage == (1, 2, 1, 1)
        assert net.num_classes == 7 and net.head.weight.shape[0] == 7
        assert (net.input_mean, net.input_std) == (0.4, 0.3)
        assert (ctx.channels, ctx.num_areas, ctx.iterations) == (12, 9, 3)
        assert (ctx.attn_cfg.heads, ctx.attn_cfg.mlp_ratio) == (3, 3)
        assert (ctx.use_input, ctx.use_regional, ctx.use_global) == streams

    @pytest.mark.parametrize("key,value", [
        ("dcm.Z", "four"), ("train.lr", "fast"), ("dcm.use_F", "maybe"),
        ("backbone.widths", "4;6"),
    ])
    def test_malformed_value_names_key_and_value(self, scene, tmp_path, key, value):
        from hsiseg.cli import build_parser

        cfg = tmp_path / "bad.cfg"
        cfg.write_text(tiny_config(f"{key} = {value}"))
        args = build_parser().parse_args([
            "train", "--set", str(scene / "set"), "--labels", str(scene / "train.lbl"),
            "--config", str(cfg), "--out", str(tmp_path / "model.ckpt")])
        with pytest.raises(ConfigError) as info:
            args.func(args)
        assert key in str(info.value) and value in str(info.value)
        assert not (tmp_path / "model.ckpt").exists()


class TestDefaults:
    """The constructor signatures hold the only defaults and the key table
    reads them from there, so a default config builds the default objects."""

    def test_net_from_default_config_matches_default_net(self):
        from hsiseg.cli import model_from_config
        from hsiseg.model import DualContextNet

        def architecture(net):
            ctx = net.context
            return ([(n, p.data.shape) for n, p in net.named_parameters()], ctx.attn_cfg,
                    ctx.num_areas, ctx.iterations, ctx.use_input, ctx.use_regional,
                    ctx.use_global, net.input_mean, net.input_std)

        assert architecture(model_from_config(Config(), 5)) == architecture(DualContextNet(5))

    def test_train_config_from_default_config_matches_default(self):
        from dataclasses import fields

        from hsiseg.pipeline import TrainConfig

        cfg = Config()
        built = TrainConfig(**{f.name: cfg.get(f"train.{f.name}") for f in fields(TrainConfig)})
        assert built == TrainConfig()


class TestGenerate:
    def test_outputs_present(self, scene):
        set_dir = scene / "set"
        assert (set_dir / "manifest.txt").exists()
        ppms = sorted(set_dir.glob("img_*.ppm"))
        assert len(ppms) == 10  # C(5,3)
        lines = (set_dir / "manifest.txt").read_text().strip().splitlines()
        assert len(lines) == 10
        assert lines[0].split() == ["0", "5", "4", "3"]

    def test_deterministic_across_runs(self, scene, tmp_path):
        other = tmp_path / "again"
        assert dispatch(["generate", "--cube", str(scene / "scene.hsc"),
                         "--groups", "5", "--out", str(other)]) == 0
        for name in ["manifest.txt"] + [f"img_{i}.ppm" for i in range(10)]:
            assert (other / name).read_bytes() == (scene / "set" / name).read_bytes()


class TestTrainPredictVoteEval:
    def test_checkpoint_and_sidecar(self, trained):
        assert trained.exists()
        sidecar = trained.parent / (trained.name + ".cfg")
        assert "dcm.Z = 4" in sidecar.read_text()
        log = trained.parent / "train_log.csv"
        assert log.read_text().startswith("iter,lr,loss")

    def test_sidecar_round_trip(self, scene, tmp_path):
        """Settings that change no parameter shape survive the sidecar, which
        the strict checkpoint load alone would not catch."""
        from hsiseg.cli import _load_model

        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG + "dcm.use_GAC = false\nmodel.input_mean = 0.4\n")
        ckpt = tmp_path / "model.ckpt"
        assert dispatch(["train", "--set", str(scene / "set"),
                         "--labels", str(scene / "train.lbl"),
                         "--config", str(cfg), "--out", str(ckpt)]) == 0
        lines = (tmp_path / "model.ckpt.cfg").read_text().splitlines()
        assert sorted(line.split(" = ")[0] for line in lines) \
            == sorted(key for key in DEFAULTS if not key.startswith("train."))
        assert "model.classes = 3" in lines
        model, _ = _load_model(str(ckpt))
        assert model.context.iterations == 2
        assert model.context.use_global is False
        assert model.input_mean == 0.4

    def test_predict_vote_eval(self, scene, trained, tmp_path):
        pred_dir = tmp_path / "pred"
        assert dispatch(["predict", "--ckpt", str(trained),
                         "--set", str(scene / "set"),
                         "--out", str(pred_dir), "--jobs", "2"]) == 0
        assert (pred_dir / "prob_9.prb").exists()
        assert (pred_dir / "cls_9.lbl").exists()

        hard_out = tmp_path / "hard.lbl"
        soft_out = tmp_path / "soft.lbl"
        assert dispatch(["vote", "--mode", "hard", "--in", str(pred_dir),
                         "--out", str(hard_out)]) == 0
        assert dispatch(["vote", "--mode", "soft", "--in", str(pred_dir),
                         "--out", str(soft_out)]) == 0
        assert load_class_map(hard_out).labels.shape == (16, 16)
        assert (tmp_path / "soft.lbl.ppm").exists()

        report = tmp_path / "report.json"
        assert dispatch(["eval", "--pred", str(soft_out),
                         "--truth", str(scene / "truth.lbl"),
                         "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert set(data) == {"oa", "aa", "kappa", "per_class", "n_labeled"}
        assert 0.0 <= data["oa"] <= 1.0
        assert data["n_labeled"] == 256

    def test_vote_fuses_only_the_maps_of_the_last_predict(self, scene, trained, tmp_path,
                                                          capsys):
        """A 4-image predict over a 10-image one leaves stale maps 4..9 behind;
        vote reads the report's count and fuses maps 0..3 alone."""
        small = tmp_path / "small"
        full = load_set(scene / "set")
        write_set(TriSpectralSet(full.images[:4], full.manifest[:4], full.degenerate[:4]), small)
        pred_dir = tmp_path / "pred"
        for set_dir in (scene / "set", small):
            assert dispatch(["predict", "--ckpt", str(trained), "--set", str(set_dir),
                             "--out", str(pred_dir)]) == 0
        assert (pred_dir / "cls_9.lbl").exists()
        capsys.readouterr()
        for mode in ("hard", "soft"):
            out = tmp_path / f"{mode}.lbl"
            assert dispatch(["vote", "--mode", mode, "--in", str(pred_dir),
                             "--out", str(out)]) == 0
            assert capsys.readouterr().out == f"{mode} vote over 4 maps written to {out}\n"
            np.testing.assert_array_equal(load_class_map(out).labels,
                                          load_class_map(pred_dir / f"vote_{mode}.lbl").labels)

    @pytest.mark.parametrize("missing", ["report.json", "cls_1.lbl", "prob_1.prb"])
    def test_vote_without_its_report_or_a_map_is_an_error(self, scene, trained, tmp_path,
                                                        capsys, missing):
        pred_dir = tmp_path / "pred"
        assert dispatch(["predict", "--ckpt", str(trained), "--set", str(scene / "set"),
                         "--out", str(pred_dir)]) == 0
        (pred_dir / missing).unlink()
        capsys.readouterr()
        mode = "soft" if missing.endswith(".prb") else "hard"
        assert dispatch(["vote", "--mode", mode, "--in", str(pred_dir),
                         "--out", str(tmp_path / "fused.lbl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err

    @pytest.mark.parametrize("report", ["[]", '{"images": true}'])
    def test_vote_on_a_report_without_an_image_count_is_an_error(self, scene, trained, tmp_path,
                                                                capsys, report):
        pred_dir = tmp_path / "pred"
        assert dispatch(["predict", "--ckpt", str(trained), "--set", str(scene / "set"),
                         "--out", str(pred_dir)]) == 0
        (pred_dir / "report.json").write_text(report)
        capsys.readouterr()
        assert dispatch(["vote", "--mode", "hard", "--in", str(pred_dir),
                         "--out", str(tmp_path / "fused.lbl")]) == 1
        assert capsys.readouterr().err.startswith("error: report.json under ")

    @pytest.mark.parametrize("override", [
        "train.epochs = 0", "train.batch = 0", "dcm.heads = 0", "dcm.mlp_ratio = 0", "dcm.C = 0",
        "train.val_fraction = 2", "train.val_fraction = 1", "train.val_fraction = -0.1",
        "train.lr = nan", "train.lr = inf", "train.lr = 0", "train.lr = -0.001",
        "train.momentum = 1", "train.momentum = -0.5",
        "train.poly_power = -1", "train.poly_power = nan",
        "train.weight_decay = nan", "train.weight_decay = -1",
        "train.head_lr_multiplier = nan", "train.head_lr_multiplier = 0",
        "train.head_lr_multiplier = -5",
        "model.input_std = 0", "model.input_std = -0.25", "model.input_std = inf",
        "model.input_mean = nan", "model.input_mean = inf", "dcm.Z = 3", "dcm.T = 0",
    ])
    def test_out_of_range_config_fails_cleanly(self, scene, tmp_path, capsys, override):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(tiny_config(override))
        assert dispatch(["train", "--set", str(scene / "set"),
                         "--labels", str(scene / "train.lbl"),
                         "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_predict_jobs_below_one_rejected(self, scene, trained, tmp_path, capsys, jobs):
        out = tmp_path / "pred"
        assert dispatch(["predict", "--ckpt", str(trained), "--set", str(scene / "set"),
                         "--out", str(out), "--jobs", jobs]) == 1
        assert f"error: jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_sidecar_fails_cleanly(self, scene, tmp_path):
        ghost = tmp_path / "ghost.ckpt"
        ghost.write_bytes(b"CKPT" + b"\x00" * 4)
        assert dispatch(["predict", "--ckpt", str(ghost),
                         "--set", str(scene / "set"), "--out", str(tmp_path / "x")]) == 1


class TestAreas:
    def test_on_raw_image(self, scene, tmp_path):
        out = tmp_path / "areas"
        img = scene / "set" / "img_0.ppm"
        assert dispatch(["areas", "--image", str(img), "--areas", "4",
                         "--iters", "2", "--out", str(out)]) == 0
        labels = load_labels(out / "areas.lbl")
        assert labels.labels.shape == (16, 16)
        assert labels.labels.min() >= 1
        overlay = read_ppm(out / "areas.ppm")
        assert overlay.shape == (3, 16, 16)

    @pytest.mark.parametrize("zeros", [["--areas", "0"], ["--iters", "0"],
                                       ["--areas", "0", "--iters", "0"]])
    def test_zero_counts_rejected(self, scene, tmp_path, capsys, zeros):
        out = tmp_path / "areas"
        assert dispatch(["areas", "--image", str(scene / "set" / "img_0.ppm"),
                         *zeros, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_on_model_features(self, scene, trained, tmp_path):
        out = tmp_path / "areas_feat"
        img = scene / "set" / "img_0.ppm"
        assert dispatch(["areas", "--image", str(img),
                         "--checkpoint", str(trained), "--out", str(out)]) == 0
        labels = load_labels(out / "areas.lbl")
        assert labels.labels.shape == (16, 16)


class TestSeededReproducibility:
    def test_synth_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for target in (a, b):
            assert dispatch(["synth", "--seed", "9", "--height", "16", "--width", "16",
                             "--bands", "8", "--classes", "2", "--labels-per-class", "8",
                             "--out", str(target)]) == 0
        for name in ("scene.hsc", "truth.lbl", "train.lbl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestGradcheck:
    @pytest.mark.parametrize("worst, status", [(9e-5, 0), (1e-4, 1)])
    def test_report_aligned_and_gated(self, monkeypatch, capsys, worst, status):
        """The name column fits the longest name, the seed is passed on, and
        the exit status gates the worst error at 1e-4."""
        import hsiseg.cli as cli

        rows = [("short", 1e-9), ("primitive.a_name_longer_than_thirty_two", worst)]
        seeds = []
        monkeypatch.setattr(cli, "full_report", lambda seed: seeds.append(seed) or rows)
        assert dispatch(["gradcheck", "--seed", "7"]) == status
        lines = capsys.readouterr().out.splitlines()
        assert seeds == [7]
        assert len({line.rindex(" ") for line in lines}) == 1
        assert lines[-1].split() == ["worst", f"{worst:.3e}"]

    def test_unfinished_check_reported_as_error(self, monkeypatch, capsys):
        """A row that cannot leave a kink ends the command with exit 1 and a
        one-line error, not a traceback."""
        import hsiseg.cli as cli
        from hsiseg.errors import GradCheckError

        def stuck(seed):
            raise GradCheckError("model_loss: 20 draws all lie within 0.001 of a kink")

        monkeypatch.setattr(cli, "full_report", stuck)
        assert dispatch(["gradcheck"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model_loss: 20 draws") and "Traceback" not in err
