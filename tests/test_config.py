"""Experiment configuration: round trips, coercion, and the derived
sub-configurations handed to each component."""

import dataclasses

import numpy as np
import pytest

from fusedet import config
from fusedet import tensor as T
from fusedet.config import ExperimentConfig
from fusedet.mllm import MiniMllm
from fusedet.scenes import CANVAS
from fusedet.training import build_adapter
from fusedet.tensor import ConfigurationError, UsageError


class TestRoundTrips:
    def test_dict_round_trip(self):
        cfg = ExperimentConfig(seed=3, pretrain_lr=1e-2, arch="II")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_text_round_trip(self):
        cfg = ExperimentConfig(run_seed=9, s3_adapter_lr=5e-4, l_lm=1)
        assert config.loads(config.dumps(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(n_train=64, grad_clip=0.0)
        path = tmp_path / "run.cfg"
        config.save_file(cfg, path)
        assert config.load_file(path) == cfg

    def test_partial_dict_keeps_defaults(self):
        cfg = ExperimentConfig.from_dict({"seed": "5"})
        assert cfg.seed == 5
        assert cfg.n_train == ExperimentConfig().n_train


class TestParsing:
    def test_comments_and_blank_lines(self):
        text = "# header\n\nseed = 4   # trailing\n\narch = III\n"
        cfg = config.loads(text)
        assert cfg.seed == 4 and cfg.arch == "III"

    def test_string_values_are_coerced(self):
        cfg = ExperimentConfig.from_dict(
            {"pretrain_lr": "2.5e-3", "s1_steps": "700"})
        assert cfg.pretrain_lr == 2.5e-3
        assert cfg.s1_steps == 700 and isinstance(cfg.s1_steps, int)

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="unknown config key"):
            ExperimentConfig.from_dict({"learning_rate": "0.1"})

    def test_bad_value_rejected(self):
        with pytest.raises(UsageError, match="pretrain_lr"):
            ExperimentConfig.from_dict({"pretrain_lr": "fast"})

    def test_missing_separator_rejected(self):
        with pytest.raises(UsageError, match="line 2"):
            config.loads("seed = 1\nnonsense\n")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            config.load_file(tmp_path / "absent.cfg")


class TestDerivedConfigs:
    def test_mllm_wiring(self):
        cfg = ExperimentConfig()
        m = cfg.mllm_config()
        assert m.d_lm == cfg.d_lm and m.n == cfg.lm_layers
        assert m.canvas == CANVAS and m.shuffle_r == cfg.shuffle_r

    def test_projector_reads_the_whole_regrouped_token(self):
        """The projector's input width follows ``patch`` and ``shuffle_r``:
        at patch 8 a regrouped token is 3 * 8^2 * 2^2 = 768 wide, and the
        projector's first layer takes all 768 channels."""
        mllm = MiniMllm(ExperimentConfig(patch=8).mllm_config(),
                        np.random.default_rng(0))
        images = np.random.default_rng(1).uniform(0, 1, (1, 3, CANVAS, CANVAS))
        groups = mllm.regroup_patches(mllm.encode_image(T.constant(images)))
        assert groups.shape[-1] == mllm.cfg.proj_in == 768
        assert mllm.projector.mlp.fc1.weight.shape == (768, 128)

    def test_detector_wiring(self):
        cfg = ExperimentConfig(det_d=32, det_heads=2)
        d = cfg.detector_config()
        assert d.d == 32 and d.heads == 2

    def test_adapter_grid_follows_lm_alignment(self):
        cfg = ExperimentConfig()
        assert build_adapter(cfg).grid == cfg.mllm_config().aligned_grid

    def test_adapter_overrides(self):
        cfg = ExperimentConfig()
        a = cfg.adapter_config(arch="III", l_d=1, l_lm=0)
        assert (a.arch, a.l_d, a.l_lm) == ("III", 1, 0)
        assert cfg.arch == "IV"              # base config untouched

    def test_first_layer_preset_resolves_its_layer(self):
        """The experiment-level l_d places Arch II/IV; Arch III always
        injects before decoder layer 1."""
        cfg = ExperimentConfig(l_d=4)
        assert cfg.adapter_config(arch="III").l_d == 1
        assert cfg.adapter_config(arch="II").l_d == 4
        assert build_adapter(ExperimentConfig(), arch="III").cfg.l_d == 1

    def test_vision_preset_resolves_layer_one(self):
        """The experiment-level l_d does not reach Arch I, which fuses
        before decoder layer 1; naming another layer is rejected."""
        cfg = ExperimentConfig(l_d=4)
        assert cfg.adapter_config(arch="I").l_d == 1
        assert build_adapter(cfg, arch="I").cfg.l_d == 1
        with pytest.raises(ConfigurationError, match="arch I "):
            cfg.adapter_config(arch="I", l_d=4)

    def test_seed_fields_are_independent(self):
        cfg = ExperimentConfig(seed=1, run_seed=2, data_seed=3)
        rerun = dataclasses.replace(cfg, run_seed=7)
        assert rerun.seed == 1 and rerun.data_seed == 3 and rerun.run_seed == 7
