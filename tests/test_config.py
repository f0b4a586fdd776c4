"""Config validation and the JSON schema gate."""

import dataclasses
import json

import numpy as np
import pytest

from tfps.config import TrainConfig, config_from_dict


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.d_ff_eff == 2 * cfg.d_model
        assert cfg.expert_hidden_eff == cfg.d_model
        assert cfg.n_patches == 12  # (96-16)//8 + 2

    def test_top_k_clamped_to_expert_count(self):
        cfg = TrainConfig(d_model=8, n_heads=2, k_time=1, k_freq=4, top_k=2)
        assert cfg.top_k_eff(cfg.k_time) == 1
        assert cfg.top_k_eff(cfg.k_freq) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seq_len": 0},
            {"dropout": 1.0},
            {"patch_len": 200},
            {"stride": 32},
            {"d_model": 30},  # not divisible by 8 heads
            {"d_model": 24, "n_heads": 4, "k_time": 5},  # bases indivisible
            {"pi_mode": "fancy"},
            {"branches": "sideways"},
            {"time_norm": "instance"},
            {"split_ratios": (0.5, 0.2, 0.2)},
            {"alpha": -1.0},
            {"seed": -1},
            {"d_ff": -4},
            {"expert_hidden": 0},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            TrainConfig(**overrides)

    def test_linear_pi_mode_skips_basis_divisibility(self):
        cfg = TrainConfig(d_model=24, n_heads=4, k_time=5, pi_mode="linear")
        assert cfg.k_time == 5

    def test_roundtrip_through_dict(self):
        cfg = TrainConfig(seq_len=48, d_model=32, n_heads=4, seed=9)
        again = config_from_dict(cfg.to_dict())
        assert again == cfg


class TestAnnotationTypes:
    @pytest.mark.parametrize("field,value", [
        ("d_model", "128"),
        ("seed", np.int64(3)),  # would train, then fail to serialize the checkpoint header
        ("top_k", True),
        ("lr", "fast"),
        ("instance_norm", 1),
        ("d_ff", 64.0),
        ("split_ratios", (0.5, 0.5)),
        ("split_ratios", (0.6, "0.2", 0.2)),
        ("lr", float("nan")),  # would fail only once training starts
        ("alpha", float("inf")),
        ("lr", 10**400),  # an int too large for a float
        ("split_ratios", (0.6, float("nan"), 0.2)),
    ])
    def test_wrong_type_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"'{field}': expected"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value,allowed", [
        ("pi_mode", "fancy", "'subspace' or 'linear'"),
        ("branches", "sideways", "'both' or 'time' or 'frequency'"),
        ("time_norm", 1, "'layer' or 'batch'"),
    ])
    def test_enum_field_names_its_values(self, field, value, allowed):
        with pytest.raises(ValueError, match=f"'{field}': expected {allowed}, got"):
            TrainConfig(**{field: value})

    def test_replace_is_checked(self):
        cfg = TrainConfig()
        with pytest.raises(ValueError, match="'seed'"):
            dataclasses.replace(cfg, seed="1")

    def test_accepted_forms(self):
        cfg = TrainConfig(lr=1, alpha=0, d_ff=None, expert_hidden=64, split_ratios=[0.7, 0.1, 0.2])
        assert cfg.split_ratios == (0.7, 0.1, 0.2) and isinstance(cfg.split_ratios, tuple)
        assert TrainConfig(d_ff=256).d_ff == 256


class TestJsonSchema:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"seq_len": 96, "bogus": 1})

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            config_from_dict({"seq_len": "ninety-six"})
        with pytest.raises(ValueError, match="bool"):
            config_from_dict({"seq_len": True})

    def test_file_loader_reports_path(self, tmp_path):
        from tfps.cli import UsageError, _load_config

        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(UsageError, match="invalid JSON") as e:
            _load_config(p, None)
        assert str(p) in str(e.value)
        p.write_text(json.dumps({"lr": "fast"}))
        with pytest.raises(UsageError, match="lr") as e:
            _load_config(p, None)
        assert str(e.value).startswith(f"{p}: ")

    def test_split_ratios_list_coerced(self):
        cfg = config_from_dict({"split_ratios": [0.7, 0.1, 0.2]})
        assert cfg.split_ratios == (0.7, 0.1, 0.2)
