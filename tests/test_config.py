"""Config grammar: defaults, overrides, and hard errors on bad keys."""

import argparse
import re
from pathlib import Path

import pytest

from fflab.cli import _overrides
from fflab.config import SCHEMA, echo_config, parse_config, thetas
from fflab.errors import ConfigError

# every key whose value is a float or a list of floats
_FLOAT_KEYS = sorted(
    key for key, (_, default) in SCHEMA.items()
    if isinstance(default, float) or isinstance(default, list) and isinstance(default[0], float)
)


def write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestParsing:
    def test_empty_file_plus_required_flags_gives_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""), {"seed": "7"})
        assert cfg["arch"] == [2000, 2000, 2000, 2000]
        assert cfg["lr"] == 0.01
        assert cfg["epochs"] == 100
        assert cfg["dataset"] == "synthetic"
        assert cfg.seed == 7

    def test_type_error_names_key_and_line(self, tmp_path):
        path = write(tmp_path, "# comment\nthreshold.k = banana\n")
        with pytest.raises(ConfigError, match="line 2") as exc:
            parse_config(path, {"seed": "1"})
        assert "threshold.k" in str(exc.value)

    def test_line_that_is_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\narch = 8\xff\n")
        with pytest.raises(ConfigError, match="line 2: not UTF-8"):
            parse_config(str(path))

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = write(tmp_path, "threshold.kay = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path, {"seed": "1"})

    def test_flag_overrides_file(self, tmp_path):
        path = write(tmp_path, "lr = 0.01\n")
        cfg = parse_config(path, {"lr": "0.02", "seed": "1"})
        assert cfg["lr"] == 0.02

    def test_seed_required(self, tmp_path):
        with pytest.raises(ConfigError, match="seed is required"):
            parse_config(write(tmp_path, "epochs = 5\n"), {})

    def test_comments_and_blank_lines(self, tmp_path):
        path = write(tmp_path, "\n# full line comment\nepochs = 3  # trailing\n\n")
        assert parse_config(path, {"seed": "1"})["epochs"] == 3

    def test_arch_list_parsing(self, tmp_path):
        cfg = parse_config(None, {"seed": "1", "arch": "500,500"})
        assert cfg["arch"] == [500, 500]

    def test_invalid_dataset(self):
        with pytest.raises(ConfigError, match="dataset"):
            parse_config(None, {"seed": "1", "dataset": "cifar"})

    @pytest.mark.parametrize("arch", ["8,0", "-1", ""])
    def test_arch_widths_checked(self, arch):
        with pytest.raises(ConfigError, match="^arch widths must all be >= 1"):
            parse_config(None, {"seed": "1", "arch": arch})

    def test_invalid_mode(self):
        with pytest.raises(ConfigError, match="inference.mode"):
            parse_config(None, {"seed": "1", "inference.mode": "vote"})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lr", "0"),
            ("lr", "nan"),
            ("batch_size", "0"),
            ("batch_size", "1"),
            ("batch_size", "129"),
            ("head.epochs", "0"),
            ("head.batch_size", "0"),
            ("head.lr", "-1e-3"),
            ("baseline.epochs", "-2"),
            ("baseline.lr", "0"),
            ("sgns.dim", "0"),
            ("sgns.window", "-2"),
            ("sgns.neg_k", "-1"),
            ("sgns.epochs", "-1"),
            ("sgns.lr", "-1"),
            ("synthetic.classes", "1"),
            ("synthetic.classes", "0"),
            ("synthetic.classes", "-3"),
            ("synthetic.dim", "0"),
            ("synthetic.train_per_class", "0"),
            ("synthetic.test_per_class", "0"),
            ("synthetic.test_per_class", "-3"),
            ("data.test_subset", "-2"),
            ("data.train_subset", "-7"),
        ],
    )
    def test_out_of_range_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            parse_config(None, {"seed": "1", key: value})

    @pytest.mark.parametrize(
        "key, value",
        [("baseline.epochs", "0"), ("sgns.neg_k", "0"), ("sgns.epochs", "0"),
         ("head.epochs", "1"), ("sgns.window", "1"), ("synthetic.classes", "2"),
         ("synthetic.dim", "1"),
         ("synthetic.train_per_class", "1"), ("synthetic.test_per_class", "1"),
         ("data.test_subset", "0"), ("batch_size", "2")],
    )
    def test_lowest_allowed_value_parses(self, key, value):
        assert parse_config(None, {"seed": "1", key: value})[key] == int(value)

    def test_full_clears_subset_cap(self):
        """``--full`` is ``data.train_subset = 0``: no subset cap."""
        desk = parse_config(None, {"seed": "1", "dataset": "mnist"})
        assert desk["data.train_subset"] == 10000
        args = argparse.Namespace(set=["data.train_subset=500"], full=True, seed="1",
                                  dataset="mnist")
        assert parse_config(None, _overrides(args))["data.train_subset"] == 0

    def test_echo_roundtrip(self, tmp_path):
        cfg = parse_config(None, {"seed": "5", "arch": "32,32"})
        echoed = echo_config(cfg)
        path = tmp_path / "echo.cfg"
        path.write_text(echoed, encoding="utf-8")
        cfg2 = parse_config(str(path), {})
        assert cfg2.values == cfg.values


    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"threshold.k": "0"}, "threshold.k"),
            ({"threshold.k": "nan"}, "threshold.k"),
            ({"arch": "8,8", "threshold.k": "0.3,0.5,0.7"}, "threshold.k"),
            ({"arch": "8,8", "threshold.k": "0.3,0"}, "threshold.k"),
            ({"arch": "8", "threshold.k": "0.3,0.5"}, "threshold.k"),
            ({"threshold.k_start": "0"}, "threshold.k_start"),
            ({"threshold.k_end": "-1"}, "threshold.k_end"),
            ({"threshold.ramp_epochs": "0"}, "threshold.ramp_epochs"),
        ],
    )
    def test_threshold_setting_the_strategy_reads_is_checked(self, overrides, key):
        """Every threshold key is read, so every one is checked."""
        with pytest.raises(ConfigError, match=f"^{key} "):
            parse_config(None, dict(overrides, seed="1"))

    @pytest.mark.parametrize("key", ["threshold.strategy", "threshold.base",
                                     "threshold.k_per_layer", "full"])
    def test_removed_threshold_and_full_keys_are_unknown(self, tmp_path, key):
        path = write(tmp_path, f"seed = 1\n{key} = 1\n")
        with pytest.raises(ConfigError, match=f"line 2: unknown config key '{key}'"):
            parse_config(path)

    @pytest.mark.parametrize("key", _FLOAT_KEYS)
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_float_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            parse_config(None, {"seed": "1", key: value})


class TestThresholdStrategy:
    def test_constant(self):
        cfg = parse_config(None, {"seed": "1", "threshold.k": "0.5"})
        assert list(thetas(cfg, [10] * 4, 0)) == [5.0] * 4
        # one k broadcasts to any depth, such as a checkpoint's
        assert list(thetas(cfg, [10] * 2, 0)) == [5.0] * 2

    def test_pyramidal_depth_checked(self):
        cfg = parse_config(None, {"seed": "1", "arch": "8,8", "threshold.k": "0.3,0.5"})
        assert list(thetas(cfg, [10, 10], 0)) == [0.3 * 10, 0.5 * 10]
        with pytest.raises(ConfigError, match="depth-3"):
            thetas(cfg, [10] * 3, 0)

    def test_scheduled_reproduces_worked_example(self):
        cfg = parse_config(
            None,
            {"seed": "1", "threshold.k": "1",
             "threshold.k_start": "0.1", "threshold.k_end": "0.5",
             "threshold.ramp_epochs": "10"},
        )
        assert thetas(cfg, [100, 100], 0)[0] == pytest.approx(10.0)
        assert thetas(cfg, [100, 100], 5)[0] == pytest.approx(30.0)
        assert thetas(cfg, [100, 100], 12)[0] == pytest.approx(50.0)


def test_every_readme_ini_block_parses(tmp_path):
    """The README's config examples use only keys the parser knows."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    for block in blocks:
        parse_config(write(tmp_path, block + "seed = 1\n"))
