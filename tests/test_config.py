"""Strict JSON configuration: round trips, unknown-key rejection, type
checks, and digest stability."""
import json
import os
import re

import pytest

from elkpp.config import ConfigError, TrainConfig, config_digest, from_dict, \
    load_config, save_config, to_dict

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_defaults_construct():
    cfg = TrainConfig()
    assert cfg.num_classes == 4
    assert cfg.model.num_classes == 4
    assert cfg.loss.lambda_edge == 0.5
    assert cfg.loss.lambda_reg == 5e-4
    assert cfg.base_lr == 2.5e-4
    assert cfg.total_iterations == 2000


def test_round_trip(tmp_path):
    cfg = from_dict({"num_classes": 3, "seed": 7,
                     "loss": {"lambda_edge": 0.25},
                     "model": {"backbone": {"stem_channels": 8}}})
    p = tmp_path / "run.json"
    save_config(p, cfg)
    again = load_config(p)
    assert again == cfg
    assert to_dict(again) == to_dict(cfg)


def test_empty_dict_gives_defaults():
    assert from_dict({}) == TrainConfig()


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown key.*config"):
        from_dict({"learning_rate": 0.1})
    with pytest.raises(ConfigError, match="unknown key.*loss"):
        from_dict({"loss": {"lambda3": 1}})
    with pytest.raises(ConfigError, match="unknown key.*model"):
        from_dict({"model": {"width": 4}})
    with pytest.raises(ConfigError, match="unknown key.*backbone"):
        from_dict({"model": {"backbone": {"depth": 4}}})
    with pytest.raises(ConfigError, match="unknown key.*decoder"):
        from_dict({"model": {"decoder": {"blocks": 2}}})
    with pytest.raises(ConfigError, match="unknown key.*lkpp"):
        from_dict({"model": {"lkpp": {"rates": [1, 2, 3]}}})


def test_type_errors():
    with pytest.raises(ConfigError, match="seed must be an integer"):
        from_dict({"seed": "zero"})
    with pytest.raises(ConfigError, match="base_lr must be a number"):
        from_dict({"base_lr": "fast"})
    with pytest.raises(ConfigError, match="normalize must be a boolean"):
        from_dict({"loss": {"normalize": 1}})
    with pytest.raises(ConfigError, match="must be a boolean"):
        from_dict({"loss": {"normalize": "yes"}})
    with pytest.raises(ConfigError, match="list of 4 integers"):
        from_dict({"model": {"backbone": {"stage_channels": [8, 8]}}})
    with pytest.raises(ConfigError, match="must be a JSON object"):
        from_dict({"loss": []})
    # bool is not an int
    with pytest.raises(ConfigError, match="must be an integer"):
        from_dict({"num_classes": True})


def test_value_errors_are_config_errors():
    with pytest.raises(ConfigError):
        from_dict({"precision": "f16"})
    with pytest.raises(ConfigError):
        from_dict({"batch_size": 0})
    with pytest.raises(ConfigError):
        from_dict({"base_lr": -1.0})
    with pytest.raises(ConfigError):
        from_dict({"loss": {"alpha": -2.0}})
    with pytest.raises(ConfigError):
        from_dict({"model": {"lkpp": {"kernel_pairs": [[1, 5], [3, 5],
                                                       [3, 7]]}}})
    with pytest.raises(ConfigError):
        from_dict({"model": {"lkpp": {"mode": "serial"}}})


def test_model_num_classes_must_agree():
    from elkpp.segnet import ModelConfig
    with pytest.raises(ConfigError, match="disagree"):
        TrainConfig(num_classes=3, model=ModelConfig(num_classes=4))


def test_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(p)


def test_lkpp_widths_resolved_from_backbone():
    cfg = from_dict({"model": {"backbone": {"stage_channels":
                                            [16, 32, 64, 128]}}})
    assert cfg.model.lkpp.skip_channels == 32  # 128 // 4
    explicit = from_dict({"model": {"lkpp": {"branch_channels": 6,
                                             "skip_channels": 5,
                                             "global_channels": 4}}})
    assert explicit.model.lkpp.blocks[0].channels == 6
    assert explicit.model.lkpp.skip_channels == 5
    assert explicit.model.lkpp.global_channels == 4


def test_digest_stable_and_sensitive():
    a = config_digest(TrainConfig())
    b = config_digest(TrainConfig())
    assert isinstance(a, bytes) and len(a) == 32
    assert a == b
    c = config_digest(from_dict({"seed": 1}))
    assert a != c
    # digest covers the resolved model, not just the top level
    d = config_digest(from_dict({"model": {"head_channels": 16}}))
    assert a != d


def test_to_dict_is_json_safe_and_resolved():
    doc = to_dict(TrainConfig())
    json.dumps(doc)  # must not raise
    assert doc["model"]["lkpp"]["kernel_pairs"] == [[3, 3], [3, 5], [3, 7]]
    assert doc["model"]["lkpp"]["mode"] == "cascade"
    assert doc["loss"]["lambda_edge"] == 0.5


def test_readme_config_block_states_the_defaults():
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    block = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    assert to_dict(from_dict(doc)) == to_dict(
        TrainConfig(data_root=doc["data_root"]))


def test_reference_run_configs_are_the_documented_commands():
    # reference_run/README.md: every field other than data_root (and the
    # ce run's lambda_edge) is at its default
    for run, extra in (("ece", {}), ("ce", {"loss": {"lambda_edge": 0.0}})):
        cfg = load_config(os.path.join(ROOT, "reference_run", run,
                                       "config.json"))
        assert cfg == from_dict(dict(extra, data_root=cfg.data_root)), run
