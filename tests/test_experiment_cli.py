"""End-to-end runs on the synthetic task, exercised through the CLI."""

import csv
import os

import numpy as np
import pytest

from fflab.checkpoint import load_network
from fflab.cli import main
from fflab import experiment
from fflab.config import parse_config
from fflab.errors import FFLabError
from fflab.experiment import build_bundle, run_experiment

FAST = {
    "seed": "11",
    "dataset": "synthetic",
    "arch": "16,16",
    "epochs": "2",
    "batch_size": "32",
    "threshold.k": "0.3",
    "synthetic.train_per_class": "30",
    "synthetic.test_per_class": "10",
    "head.epochs": "2",
}


def fast_overrides(out_dir, **extra):
    d = dict(FAST)
    d["output_dir"] = str(out_dir)
    d.update({k: str(v) for k, v in extra.items()})
    return d


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def drop_seconds(rows):
    header, *body = rows
    i = header.index("seconds")
    return [header[:i] + header[i + 1 :]] + [r[:i] + r[i + 1 :] for r in body]


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        for name in (
            "metrics.csv",
            "eval_modes.csv",
            "config_echo.txt",
            "checkpoint.ffn1",
            "weight_stats.csv",
            "layer0_weights.pgm",
            "goodness_hist.csv",
            "final_report.txt",
        ):
            assert os.path.exists(os.path.join(result.out_dir, name)), name

    def test_metrics_schema(self, tmp_path):
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        rows = read_rows(os.path.join(result.out_dir, "metrics.csv"))
        assert rows[0] == [
            "epoch", "layer", "mean_loss", "mean_G_pos", "mean_G_neg",
            "theta", "train_err", "test_err", "seconds",
        ]
        # one row per (epoch, layer)
        assert len(rows) == 1 + 2 * 2

    def test_rerun_reproduces_everything_but_wall_time(self, tmp_path):
        cfg1 = parse_config(None, fast_overrides(tmp_path / "a"))
        cfg2 = parse_config(None, fast_overrides(tmp_path / "b"))
        r1 = run_experiment(cfg1)
        r2 = run_experiment(cfg2)
        m1 = drop_seconds(read_rows(os.path.join(r1.out_dir, "metrics.csv")))
        m2 = drop_seconds(read_rows(os.path.join(r2.out_dir, "metrics.csv")))
        assert m1 == m2
        with open(r1.checkpoint, "rb") as f1, open(r2.checkpoint, "rb") as f2:
            assert f1.read() == f2.read()
        for name in ("eval_modes.csv", "goodness_hist.csv", "weight_stats.csv"):
            assert (
                open(os.path.join(r1.out_dir, name)).read()
                == open(os.path.join(r2.out_dir, name)).read()
            ), name

    def test_baseline_artifacts(self, tmp_path):
        cfg = parse_config(
            None,
            fast_overrides(tmp_path / "run", **{"baseline.enabled": "true",
                                                "baseline.epochs": "2"}),
        )
        result = run_experiment(cfg)
        assert os.path.exists(result.bp_checkpoint)
        assert os.path.exists(os.path.join(result.out_dir, "bp_metrics.csv"))
        assert os.path.exists(os.path.join(result.out_dir, "bp_weight_stats.csv"))
        net, _ = load_network(result.bp_checkpoint)
        assert net.hidden_widths == [16, 16]

    def test_sweep_mode_fills_metrics_error_columns(self, tmp_path):
        cfg = parse_config(
            None, fast_overrides(tmp_path / "run", **{"inference.mode": "sweep"})
        )
        result = run_experiment(cfg)
        metrics = read_rows(os.path.join(result.out_dir, "metrics.csv"))
        modes = read_rows(os.path.join(result.out_dir, "eval_modes.csv"))
        # the last epoch's metrics rows carry the sweep errors
        assert metrics[-1][7] == modes[-1][4]

    def test_skip_first_layer_false_scores_all_layers(self, tmp_path):
        cfg = parse_config(
            None,
            fast_overrides(tmp_path / "run",
                           **{"inference.skip_first_layer": "false"}),
        )
        result = run_experiment(cfg)
        _, head = load_network(result.checkpoint)
        assert head.included_layers == (0, 1)

    def test_eval_modes_columns(self, tmp_path):
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        rows = read_rows(os.path.join(result.out_dir, "eval_modes.csv"))
        assert rows[0] == [
            "epoch", "head_train_err", "head_test_err",
            "sweep_train_err", "sweep_test_err",
        ]
        assert len(rows) == 3


class TestCli:
    def test_train_exit_zero(self, tmp_path, capsys):
        args = ["train"]
        for k, v in fast_overrides(tmp_path / "run").items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "final head test error" in out

    def test_bad_config_key_exit_one(self, tmp_path, capsys):
        assert main(["train", "--set", "no.such.key=1", "--seed", "1"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_seed_exit_one(self, capsys):
        assert main(["train", "--dataset", "synthetic"]) == 1

    def test_missing_data_exit_two(self, tmp_path, capsys):
        code = main(
            ["train", "--dataset", "mnist", "--seed", "1",
             "--set", f"data.mnist_dir={tmp_path / 'nowhere'}",
             "--output", str(tmp_path / "run")]
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_three(self, tmp_path, capsys):
        args = ["train"]
        for k, v in fast_overrides(tmp_path / "run", lr="1e308").items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "training diverged: epoch 0, layer 0:" in err

    def test_eval_on_data_of_another_width_exit_two(self, tmp_path, capsys):
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        args = []
        for k, v in fast_overrides(tmp_path / "run", **{"synthetic.dim": 9}).items():
            args += ["--set", f"{k}={v}"]
        for mode in ("head", "sweep"):
            assert main(["eval", "--checkpoint", result.checkpoint, "--mode", mode] + args) == 2
            assert "data error" in capsys.readouterr().err

    def test_other_package_error_exit_one(self, tmp_path, monkeypatch, capsys):
        def fail(cfg):
            raise FFLabError("no handler of its own")

        monkeypatch.setattr(experiment, "run_experiment", fail)
        args = ["train"]
        for k, v in fast_overrides(tmp_path / "run").items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 1
        assert "error: no handler of its own" in capsys.readouterr().err

    def test_sweep_writes_summary_and_subruns(self, tmp_path, capsys):
        args = ["sweep", "--sweep", "k=0.3,0.6"]
        for k, v in fast_overrides(tmp_path / "sweepout").items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 0
        assert os.path.exists(tmp_path / "sweepout" / "sweep_summary.csv")
        assert os.path.exists(tmp_path / "sweepout" / "k_0.3" / "metrics.csv")
        assert os.path.exists(tmp_path / "sweepout" / "k_0.6" / "metrics.csv")
        rows = read_rows(tmp_path / "sweepout" / "sweep_summary.csv")
        assert rows[0] == ["k", "final_test_err", "best_test_err", "best_epoch"]
        assert len(rows) == 3

    def test_analyze_checkpoint(self, tmp_path, capsys):
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        out = tmp_path / "analysis"
        assert main(["analyze", "--checkpoint", result.checkpoint, "--out", str(out)]) == 0
        assert os.path.exists(out / "weight_stats.csv")
        assert os.path.exists(out / "layer0_weights.pgm")
        assert os.path.exists(out / "layer1_weights.pgm")

    def test_analyze_with_config_adds_goodness_report(self, tmp_path, capsys):
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        echo = os.path.join(result.out_dir, "config_echo.txt")
        out = tmp_path / "analysis"
        assert main(
            ["analyze", "--checkpoint", result.checkpoint, "--out", str(out),
             "--config", echo]
        ) == 0
        assert os.path.exists(out / "goodness_hist.csv")
        assert "pos>theta" in capsys.readouterr().out

    def test_eval_checkpoint_both_modes(self, tmp_path, capsys):
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        base_args = []
        for k, v in fast_overrides(tmp_path / "run").items():
            base_args += ["--set", f"{k}={v}"]
        assert main(["eval", "--checkpoint", result.checkpoint, "--mode", "head"] + base_args) == 0
        head_out = capsys.readouterr().out
        assert "head test error" in head_out
        assert main(["eval", "--checkpoint", result.checkpoint, "--mode", "sweep"] + base_args) == 0
        assert "sweep test error" in capsys.readouterr().out

    def test_eval_matches_run_final_error(self, tmp_path, capsys):
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        capsys.readouterr()
        args = []
        for k, v in fast_overrides(tmp_path / "run").items():
            args += ["--set", f"{k}={v}"]
        main(["eval", "--checkpoint", result.checkpoint, "--mode", "head"] + args)
        printed = capsys.readouterr().out.strip()
        reported = float(printed.rsplit(" ", 1)[1])
        assert reported == pytest.approx(result.final_err["head"][1], abs=5e-5)


def test_config_echo_reproduces_the_run(tmp_path):
    """Rerunning from the echoed config reproduces metrics byte-for-byte."""
    cfg = parse_config(None, fast_overrides(tmp_path / "a"))
    r1 = run_experiment(cfg)
    echo_path = os.path.join(r1.out_dir, "config_echo.txt")
    cfg2 = parse_config(echo_path, {"output_dir": str(tmp_path / "b")})
    r2 = run_experiment(cfg2)
    m1 = drop_seconds(read_rows(os.path.join(r1.out_dir, "metrics.csv")))
    m2 = drop_seconds(read_rows(os.path.join(r2.out_dir, "metrics.csv")))
    assert m1 == m2
