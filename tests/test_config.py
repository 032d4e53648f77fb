"""RunConfig validation and file loading."""

import json

import pytest

from dataclasses import replace

from signscribe.config import RunConfig, config_from_dict, load_config
from signscribe.errors import ConfigError


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.protocol == "sign2gloss+text"
        assert cfg.d % cfg.n_heads == 0

    def test_round_trip_through_dict(self):
        cfg = RunConfig(d=64, n_heads=4, seed=9)
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match="momentum, width"):
            config_from_dict({"width": 3, "momentum": 0.9})

    def test_decode_settings_are_not_config_keys(self):
        # training always evaluates dev greedily; width and alpha are flags of
        # the decoding commands only
        with pytest.raises(ConfigError, match="unknown config keys: beam_width"):
            config_from_dict({"beam_width": 4})
        # the log-domain losses are the only objective; the key is retired
        with pytest.raises(ConfigError, match="unknown config keys: loss_mode"):
            config_from_dict({"loss_mode": "log-domain"})

    @pytest.mark.parametrize(
        "protocol,lambda_r,lambda_t",
        [
            ("sign2gloss", 1.0, 1.0),
            ("sign2gloss", 0.0, 0.0),
            ("sign2text", 1.0, 1.0),
            ("sign2text", 0.0, 0.0),
            ("gloss2text", 5.0, 1.0),
            ("sign2gloss+text", 0.0, 1.0),
            ("sign2gloss+text", 5.0, 0.0),
        ],
    )
    def test_weights_must_match_protocol(self, protocol, lambda_r, lambda_t):
        with pytest.raises(ConfigError, match="lambda"):
            RunConfig(protocol=protocol, lambda_r=lambda_r, lambda_t=lambda_t)

    @pytest.mark.parametrize(
        "protocol,lambda_r,lambda_t",
        [
            ("sign2gloss", 1.0, 0.0),
            ("sign2text", 0.0, 1.0),
            ("gloss2text", 0.0, 2.5),
            ("sign2gloss+text", 5.0, 1.0),
        ],
    )
    def test_consistent_weights_accepted(self, protocol, lambda_r, lambda_t):
        cfg = RunConfig(protocol=protocol, lambda_r=lambda_r, lambda_t=lambda_t)
        assert cfg.lambda_r == lambda_r

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError, match="protocol"):
            RunConfig(protocol="sign2speech")

    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError, match="heads"):
            RunConfig(d=100, n_heads=8)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dropout", 1.0),
            ("lr", 0.0),
            ("beta1", 1.0),
            ("beta2", 0.0),
            ("eps", 0.0),
            ("weight_decay", -0.1),
            ("lr_factor", 1.0),
            ("lr_floor", 0.0),
            ("batch_size", 0),
            ("eval_every", 0),
            ("patience", 0),
            ("max_len_cap", 0),
            # wrong types, as a --config file can give them
            ("max_iterations", 2.5),
            ("d", 16.0),
            ("seed", "x"),
            ("seed", True),
            ("corpus", 5),
            ("protocol", None),
            ("lambda_t", "1"),
            ("dropout", False),
            ("lr", float("nan")),
            ("lr", float("inf")),
            ("eps", float("nan")),
            ("weight_decay", float("inf")),
            ("weight_decay", float("nan")),
        ],
    )
    def test_out_of_range_fields(self, field, value):
        with pytest.raises(ConfigError, match=field.split("_")[0]):
            RunConfig(**{field: value})

    def test_override_revalidates(self):
        cfg = RunConfig()
        assert replace(cfg, seed=3).seed == 3
        with pytest.raises(ConfigError):
            replace(cfg, lr=-1.0)


class TestFileLoading:
    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"d": 64, "n_heads": 4, "corpus": "data"}))
        cfg = load_config(path)
        assert cfg.d == 64
        assert cfg.corpus == "data"

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)

    def test_non_object_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="single object"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")
