"""Experiment configuration: round trips, coercion, and the derived
sub-configurations handed to each component."""

import dataclasses
import re

import numpy as np
import pytest

from fusedet import config
from fusedet import tensor as T
from fusedet.adapter import AdapterConfig
from fusedet.config import ExperimentConfig
from fusedet.detector import DetectorConfig
from fusedet.mllm import MiniMllm, MllmConfig
from fusedet.scenes import CANVAS
from fusedet.training import build_adapter
from fusedet.tensor import ConfigurationError, UsageError


class TestRoundTrips:
    def test_dict_round_trip(self):
        cfg = ExperimentConfig(seed=3, pretrain_lr=1e-2,
                               adapter=AdapterConfig(arch="II"))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_text_round_trip(self):
        cfg = ExperimentConfig(run_seed=9, s3_adapter_lr=5e-4,
                               adapter=AdapterConfig(l_lm=1))
        assert config.loads(config.dumps(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(n_train=64, eval_chunk=32)
        path = tmp_path / "run.cfg"
        config.save_file(cfg, path)
        assert config.load_file(path) == cfg

    def test_unset_l_d_round_trips(self):
        """The default ``adapter.l_d`` is ``None`` and stays ``None`` through
        the file format and the dict; a set layer comes back an int."""
        cfg = ExperimentConfig()
        assert cfg.to_dict()["adapter.l_d"] is None
        assert "adapter.l_d = None\n" in config.dumps(cfg)
        assert config.loads(config.dumps(cfg)).adapter.l_d is None
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        set_ = config.loads("adapter.l_d = 3\n")
        assert set_.adapter.l_d == 3 and isinstance(set_.adapter.l_d, int)

    def test_partial_dict_keeps_defaults(self):
        cfg = ExperimentConfig.from_dict({"seed": "5"})
        assert cfg.seed == 5
        assert cfg.n_train == ExperimentConfig().n_train


class TestParsing:
    def test_comments_and_blank_lines(self):
        text = "# header\n\nseed = 4   # trailing\n\nadapter.arch = III\n"
        cfg = config.loads(text)
        assert cfg.seed == 4 and cfg.adapter.arch == "III"

    def test_section_keys(self):
        """``section.field`` sets that field of the section; the section's
        other fields keep the defaults declared with them."""
        cfg = config.loads("detector.depth = 2\nmllm.n = 2\nadapter.l_d = 1\n")
        assert cfg.detector == DetectorConfig(depth=2)
        assert cfg.mllm == MllmConfig(n=2)
        assert cfg.adapter == AdapterConfig(l_d=1)

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
        with pytest.raises(UsageError, match="mllm.n"):
            ExperimentConfig.from_dict({"mllm.n": "None"})

    def test_repeated_key_rejected(self):
        """A key set on two lines is refused with both line numbers; the
        last line used to win silently."""
        with pytest.raises(UsageError, match=re.escape(
                "config line 3: n_val already set on line 1")):
            config.loads("n_val = 10\nseed = 1\nn_val = 20\n")
        with pytest.raises(UsageError, match="adapter.arch already set"):
            config.loads("adapter.arch = II\nadapter.arch = IV\n")

    def test_missing_separator_rejected(self):
        with pytest.raises(UsageError, match="line 2"):
            config.loads("seed = 1\nnonsense\n")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            config.load_file(tmp_path / "absent.cfg")


class TestDerivedConfigs:
    def test_mllm_wiring(self):
        cfg = ExperimentConfig()
        assert cfg.mllm_config() is cfg.mllm
        assert cfg.mllm.canvas == CANVAS

    def test_projector_reads_the_whole_regrouped_token(self):
        """The projector's input width follows ``patch`` and ``shuffle_r``:
        at patch 8 a regrouped token is 3 * 8^2 * 2^2 = 768 wide, and the
        projector's first layer takes all 768 channels."""
        mllm = MiniMllm(MllmConfig(patch=8), np.random.default_rng(0))
        images = np.random.default_rng(1).uniform(0, 1, (1, 3, CANVAS, CANVAS))
        groups = mllm.regroup_patches(mllm.encode_image(T.constant(images)))
        assert groups.shape[-1] == mllm.cfg.proj_in == 768
        assert mllm.projector.mlp.fc1.weight.shape == (768, 128)

    def test_detector_wiring(self):
        cfg = ExperimentConfig(detector=DetectorConfig(d=32, heads=2))
        assert cfg.detector_config() is cfg.detector
        assert cfg.detector.d == 32 and cfg.detector.heads == 2

    def test_adapter_grid_follows_lm_alignment(self):
        cfg = ExperimentConfig()
        assert build_adapter(cfg).grid == cfg.mllm.aligned_grid

    def test_adapter_overrides(self):
        """``adapter_config()`` is the section itself, and ``build_adapter``'s
        one override, ``arch``, replaces that field alone."""
        cfg = ExperimentConfig(adapter=AdapterConfig(l_lm=0))
        assert cfg.adapter_config() is cfg.adapter
        a = build_adapter(cfg, arch="III").cfg
        assert (a.arch, a.l_d, a.l_lm) == ("III", 1, 0)
        assert cfg.adapter.arch == "IV"      # base config untouched

    def test_sections_are_frozen(self):
        """A copy made by ``replace`` shares its sections, so none can be
        changed in place."""
        cfg = ExperimentConfig()
        assert dataclasses.replace(cfg, seed=1).adapter is cfg.adapter
        for section in (cfg.mllm, cfg.detector, cfg.adapter):
            with pytest.raises(dataclasses.FrozenInstanceError):
                section.heads = 2

    def test_unset_l_d_follows_the_detector(self):
        """An unset ``adapter.l_d`` places Arch II and IV before the
        detector's last layer, whatever its depth."""
        cfg = config.loads("detector.depth = 2\n")
        assert cfg.adapter.l_d is None
        assert build_adapter(cfg).cfg.l_d == 2
        assert build_adapter(cfg, arch="II").cfg.l_d == 2

    def test_first_layer_preset_resolves_its_layer(self):
        """A set ``adapter.l_d`` places Arch II/IV; Arch III on an unset
        ``l_d`` injects before decoder layer 1, and naming Arch III on a
        section with another layer is refused, by the loader and by
        ``build_adapter`` alike."""
        cfg = ExperimentConfig(adapter=AdapterConfig(l_d=4))
        assert build_adapter(cfg, arch="II").cfg.l_d == 4
        assert build_adapter(ExperimentConfig(), arch="III").cfg.l_d == 1
        message = re.escape("arch III acts before decoder layer 1, got l_d=4")
        with pytest.raises(ConfigurationError, match=message):
            config.loads("adapter.arch = III\nadapter.l_d = 4\n")
        with pytest.raises(ConfigurationError, match=message):
            build_adapter(cfg, arch="III")

    def test_vision_preset_resolves_layer_one(self):
        """Arch I fuses before decoder layer 1; naming it on a section
        with another layer is rejected, not reset."""
        assert build_adapter(ExperimentConfig(), arch="I").cfg.l_d == 1
        cfg = ExperimentConfig(adapter=AdapterConfig(l_d=4))
        with pytest.raises(ConfigurationError, match="arch I "):
            build_adapter(cfg, arch="I")

    @pytest.mark.parametrize("text, message", [
        ("detector.depth = 2\nadapter.l_d = 4\n", "l_d 4 outside [1, 2]"),
        ("mllm.n = 1\n", "l_lm 2 outside [0, 1]"),
        ("detector.d = 66\n", "d 66 not divisible by heads 4"),
        ("adapter.arch = II\nmllm.d_lm = 66\n",
         "d_lm 66 not divisible by heads 4")],
        ids=["l_d", "l_lm", "detector-width", "lm-width"])
    def test_adapter_that_cannot_attach_is_refused_at_load(self, text,
                                                           message):
        """``AdapterConfig.resolve`` runs when the config is built, so an
        adapter that cannot attach to the LM and detector is refused before
        any model exists.  Its heads split the two models' widths, so each
        model's config refuses a width its own heads do not divide."""
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            config.loads(text)

    def test_seed_fields_are_independent(self):
        cfg = ExperimentConfig(seed=1, run_seed=2, data_seed=3)
        rerun = dataclasses.replace(cfg, run_seed=7)
        assert rerun.seed == 1 and rerun.data_seed == 3 and rerun.run_seed == 7
