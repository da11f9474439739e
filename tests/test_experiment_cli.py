"""End-to-end runs on the synthetic task, exercised through the CLI."""

import os
import re
import shlex
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import fflab
from fflab.checkpoint import load_network, network_bytes, save_network
from fflab.cli import _parser, main
from fflab import experiment, inference, numerics
from fflab.config import parse_config
from fflab.errors import ConfigError, DivergenceError, FFLabError
from fflab.experiment import build_bundle, run_experiment, run_sweep
from fflab.ffnet import FFLayer, FFNetwork, LabelSlots
from fflab.rng import Rng

from conftest import drop_seconds, masked_artifacts, read_rows
from oracles import hidden_widths

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


class FailingEmpty:
    """numpy as one module sees it, except that ``empty`` raises
    MemoryError, as a failed allocation does, wherever ``fails()`` holds."""

    def __init__(self, fails):
        self.fails = fails

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        if self.fails():
            raise MemoryError
        return np.empty(*args, **kwargs)


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
            a, b = (Path(r.out_dir, name).read_text() for r in (r1, r2))
            assert a == b, name

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
        assert hidden_widths(net) == [16, 16]

    def test_metrics_error_columns_are_the_head_route(self, tmp_path):
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        metrics = read_rows(os.path.join(result.out_dir, "metrics.csv"))
        modes = read_rows(os.path.join(result.out_dir, "eval_modes.csv"))
        assert metrics[0][6:8] == ["train_err", "test_err"]
        # every layer's row of an epoch carries that epoch's head errors
        assert len(metrics) == 1 + 2 * (len(modes) - 1)
        for row in metrics[1:]:
            assert row[6:8] == modes[1 + int(row[0])][1:3], row

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


    def test_one_feature_pass_per_split_and_epoch(self, tmp_path, monkeypatch):
        """The train split's features fit the head and score its train error;
        the test split's score its test error."""
        seen = []
        real = inference.features_batch

        def counted(net, X, slots, included):
            seen.append(X.shape[0])
            return real(net, X, slots, included)

        monkeypatch.setattr(inference, "features_batch", counted)
        monkeypatch.setattr(experiment, "features_batch", counted)
        run_experiment(parse_config(None, fast_overrides(tmp_path / "run")))
        assert seen == [300, 100] * 2  # 10 classes x 30 train, 10 test rows; 2 epochs


    def test_no_forward_after_the_last_sweep(self, tmp_path, monkeypatch):
        """goodness_hist.csv reads the last train-split sweep's goodness:
        the finish phase forwards no row (the baseline is off here). A
        training forward and each layer step of eval's walker count."""
        events = []
        forward = FFLayer.forward_batch
        walk = inference._forward_stages
        sweep = experiment.predict_sweep_batch

        def counted_forward(layer, X):
            events.append("forward")
            return forward(layer, X)

        def counted_walk(layers, X, sq=None):
            for stage in walk(layers, X, sq):
                events.append("forward")
                yield stage

        def counted_sweep(*args, **kwargs):
            out = sweep(*args, **kwargs)
            events.append("sweep")
            return out

        monkeypatch.setattr(FFLayer, "forward_batch", counted_forward)
        monkeypatch.setattr(inference, "_forward_stages", counted_walk)
        monkeypatch.setattr(experiment, "predict_sweep_batch", counted_sweep)
        run_experiment(parse_config(None, fast_overrides(tmp_path / "run")))
        assert events.count("sweep") == 4
        assert events[-1] == "sweep"
        assert "forward" in events

    @pytest.mark.parametrize("skip_first, included", [("true", (1,)), ("false", (0, 1))])
    def test_each_epoch_trains_then_scores_train_then_test(
        self, tmp_path, monkeypatch, skip_first, included
    ):
        """The phase contract the benchmark reads (``bench/child.py``'s
        ``PhaseHooks``): each epoch is one ``train_epoch`` call, then
        exactly two ``predict_sweep_batch`` calls, the train split's G and
        then the test split's, whose end closes the epoch. Each G holds
        every layer, whatever the run scores."""
        calls = []
        train, score = experiment.train_epoch, experiment.predict_sweep_batch

        def hooked_train(*args, **kwargs):
            calls.append(("train_epoch",))
            return train(*args, **kwargs)

        def hooked_score(layers, G):
            calls.append(("predict_sweep_batch", layers, G.shape))
            return score(layers, G)

        monkeypatch.setattr(experiment, "train_epoch", hooked_train)
        monkeypatch.setattr(experiment, "predict_sweep_batch", hooked_score)
        run_experiment(parse_config(None, fast_overrides(
            tmp_path / "run", **{"inference.skip_first_layer": skip_first})))
        epoch = [
            ("train_epoch",),
            ("predict_sweep_batch", included, (300, 10, 2)),
            ("predict_sweep_batch", included, (100, 10, 2)),
        ]
        assert calls == epoch * 2

    def test_quick_start_layer_one_learns_the_label_backwards(self, tmp_path, monkeypatch):
        """The README quick-start ends at sweep error 1.0: under the
        threshold loss its layer 1, the one layer the sweep scores, ranks
        the true label last on every test row, while layer 0 alone, which
        sees the label slots directly, reads it off."""
        seen = []
        score = experiment.predict_sweep_batch

        def kept(layers, G):
            seen.append(G)
            return score(layers, G)

        monkeypatch.setattr(experiment, "predict_sweep_batch", kept)
        cfg = parse_config(None, {
            "seed": "7", "dataset": "synthetic", "epochs": "5", "arch": "64,64",
            "threshold.k": "0.5", "output_dir": str(tmp_path / "run"),
        })
        result = run_experiment(cfg)
        y_test = build_bundle(cfg).y_test
        G = seen[-1]  # the last epoch's test split
        err = {layers: float(np.mean(score(layers, G) != y_test))
               for layers in [(0,), (1,), (0, 1)]}
        assert err[(1,)] >= 0.9 and err[(0,)] <= 0.05, err
        assert result.final_err["sweep"][1] == err[(1,)]

    def test_neutral_rows_are_chunk_sized(self, tmp_path, monkeypatch):
        """With the baseline off, the head route neutralizes one chunk at a
        time: no whole-split label-neutral copy. 300 train rows, chunks of
        32, and training embeds batches of 32."""
        monkeypatch.setattr(numerics, "CHUNK_ROWS", 32)
        seen = []
        neutral = LabelSlots.neutral

        def counted(slots, X_raw):
            seen.append(np.shape(X_raw)[0])
            return neutral(slots, X_raw)

        monkeypatch.setattr(LabelSlots, "neutral", counted)
        run_experiment(parse_config(None, fast_overrides(
            tmp_path / "run", **{"baseline.enabled": "false"})))
        assert seen and max(seen) <= numerics.CHUNK_ROWS


class TestCli:
    def test_train_exit_zero(self, tmp_path, capsys):
        args = ["train"]
        for k, v in fast_overrides(tmp_path / "run").items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 0
        # the final report, which gives both routes, and nothing after it
        report = (tmp_path / "run" / "final_report.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == report
        assert "final head error" in report and "final sweep error" in report

    def test_bad_config_key_exit_one(self, tmp_path, capsys):
        assert main(["train", "--set", "no.such.key=1", "--seed", "1"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_out_of_range_value_exit_one_without_traceback(self, tmp_path, capsys):
        args = ["train", "--set", "head.batch_size=0"]
        for k, v in fast_overrides(tmp_path / "run").items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: head.batch_size must be >= 1, got 0"]

    @pytest.mark.parametrize(
        "key", ["synthetic.dim", "synthetic.train_per_class", "synthetic.test_per_class"]
    )
    def test_empty_synthetic_task_exit_one_before_output(self, tmp_path, capsys, key):
        args = ["train"]
        for k, v in fast_overrides(tmp_path / "run", **{key: 0}).items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {key} must be >= 1, got 0"
        ]
        assert not os.path.exists(tmp_path / "run")

    def test_config_that_is_not_utf8_exit_one_before_output(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"seed = 1\narch = 8\xff\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: line 2: ")
        assert not os.path.exists(out)

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

    def test_bad_threshold_exit_one_before_data_and_output(self, tmp_path, capsys):
        code = main(
            ["train", "--dataset", "imdb", "--seed", "1",
             "--set", f"data.imdb_dir={tmp_path / 'nonexistent'}",
             "--set", "threshold.k=0", "--output", str(tmp_path / "run")]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: threshold.k must be > 0, got 0.0"
        ]
        assert not os.path.exists(tmp_path / "run")

    def test_sweep_checks_every_k_before_the_first_run(self, tmp_path, capsys):
        args = ["sweep", "--sweep", "k=0.3,0"]
        for k, v in fast_overrides(tmp_path / "sweepout").items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 1
        assert "threshold.k must be > 0, got 0.0" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "sweepout")

    @pytest.mark.parametrize("command", [["train"], ["sweep", "--sweep", "k=0.3,0.6"]])
    def test_misspelled_activation_exit_one_before_any_work(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        args = command + ["--dataset", "synthetic", "--seed", "1", "--arch", "16,16",
                          "--set", "activation=relux", "--output", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: activation must be one of (")
        assert not os.path.exists(out)

    def test_sweep_refuses_a_k_listed_twice_before_the_first_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "run_experiment", lambda *a: pytest.fail("ran"))
        cfg = parse_config(None, fast_overrides(tmp_path / "sweepout"))
        with pytest.raises(ConfigError, match="lists one k twice: '0.1' and '1e-1'"):
            run_sweep(cfg, "k", ["0.1", "0.3", "1e-1"])
        assert not os.path.exists(tmp_path / "sweepout")

    def test_divergence_exit_three(self, tmp_path, capsys):
        args = ["train"]
        for k, v in fast_overrides(tmp_path / "run", lr="1e308").items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "training diverged: epoch 0, layer 0:" in err

    def test_baseline_divergence_exit_three_before_its_checkpoint(self, tmp_path, capsys):
        args = ["train"]
        over = fast_overrides(tmp_path / "run", **{"baseline.enabled": "true",
                                                    "baseline.lr": "1e300"})
        for k, v in over.items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["training diverged: epoch 0, layer baseline 0: "
                       "weights left the finite range after an update"]
        assert not os.path.exists(tmp_path / "run" / "checkpoint.bpn1")

    def test_baseline_logits_overflow_exit_three(self, tmp_path, capsys, monkeypatch):
        """Finite baseline weights whose logits overflow (the output layer's
        W set to 1e308 after its epoch) end in exit 3 naming the output
        layer, as the head's do, not in class 0 for every row."""
        bp_train_epoch = experiment.bp_train_epoch

        def scaled(net, *args):
            metrics = bp_train_epoch(net, *args)
            net.layers[-1].W[...] = 1e308
            return metrics

        monkeypatch.setattr(experiment, "bp_train_epoch", scaled)
        args = ["train"]
        for k, v in fast_overrides(tmp_path / "run", **{"baseline.enabled": "true"}).items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 3
        assert capsys.readouterr().err.splitlines() == [
            "training diverged: epoch 0, layer baseline 2: logits left the finite range"
        ]
        assert not os.path.exists(tmp_path / "run" / "checkpoint.bpn1")

    WEIGHTS = "weights left the finite range after an update"

    @pytest.mark.parametrize("overrides, message", [
        (["lr=1e308"], WEIGHTS),
        (["baseline.enabled=true", "baseline.lr=1e300"], WEIGHTS),
        (["head.lr=1e307", "head.batch_size=32"], WEIGHTS),
        (["head.lr=1e307"], "logits left the finite range"),
        (["lr=1e20"], "goodness left the float32 range of the label sweep"),
    ], ids=[f"overrides{i}" for i in range(5)])
    def test_divergence_prints_one_stderr_line(self, tmp_path, overrides, message):
        """Run as a command, a diverging FF net, baseline or head ends in
        exit 3 and one stderr line, before the diverged net's checkpoint is
        written: numpy's overflow warnings stay silent. At the default head
        batch size the head's weights stay finite but its logits overflow;
        at lr 1e20 the net's do, but its goodness overflows float32."""
        baseline = "baseline.enabled=true" in overrides
        layer = "head" if overrides[0].startswith("head.") else "baseline 0" if baseline else "0"
        checkpoint = "checkpoint.bpn1" if baseline else "checkpoint.ffn1"
        args = [sys.executable, "-m", "fflab.cli", "train", "--dataset", "synthetic",
                "--seed", "1", "--arch", "16,16", "--epochs", "2"]
        for setting in overrides + [f"output_dir={tmp_path / 'run'}"]:
            args += ["--set", setting]
        src = os.path.dirname(os.path.dirname(os.path.abspath(fflab.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = src
        done = subprocess.run(args, capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 3
        assert done.stderr.splitlines() == [
            f"training diverged: epoch 0, layer {layer}: {message}"
        ]
        assert not os.path.exists(tmp_path / "run" / checkpoint)

    def test_divergence_after_epoch_zero_names_its_epoch(self, tmp_path, monkeypatch):
        """run_experiment stamps the epoch it is in: layer 1 poisoned on the
        second train_epoch call diverges in epoch 1, before any checkpoint."""
        train_epoch = experiment.train_epoch
        calls = []

        def poisoned(net, *args):
            calls.append(net)
            if len(calls) == 2:
                net.layers[1].W[0, 0] = np.nan
            return train_epoch(net, *args)

        monkeypatch.setattr(experiment, "train_epoch", poisoned)
        cfg = parse_config(None, fast_overrides(tmp_path / "run", epochs=3))
        with pytest.raises(DivergenceError) as info:
            run_experiment(cfg)
        assert (info.value.epoch, info.value.layer) == (1, 1)
        assert str(info.value) == (
            "epoch 1, layer 1: weights left the finite range after an update"
        )
        assert len(calls) == 2
        assert not os.path.exists(tmp_path / "run" / "checkpoint.ffn1")

    def test_out_of_memory_exit_four_names_the_phase(self, tmp_path, capsys, monkeypatch):
        """An allocation that fails ends in exit 4 and one stderr line that
        names the phase, here the head features, and no traceback."""
        monkeypatch.setattr(inference, "np", FailingEmpty(lambda: True))
        args = ["train"]
        for k, v in fast_overrides(tmp_path / "run").items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 4
        assert capsys.readouterr().err.splitlines() == [
            "out of memory in inference.features_batch"
        ]

    def test_out_of_memory_in_an_adam_worker_exit_four(
        self, tmp_path, capsys, monkeypatch, split_workers
    ):
        """A work array that a pooled share of an Adam step cannot allocate
        reaches the command as the same one line, naming the training phase
        and the function that allocates it. The pool thread's work array
        is first made at set-up's draws, so allocations fail from the first
        train_epoch on, where Adam's run scratch (two 16-wide rows) outgrows
        that array (one split block, 16 values)."""
        monkeypatch.setattr(numerics, "_SPLIT_BLOCK", 16)
        split_workers(2)
        training = []
        train_epoch = experiment.train_epoch

        def flagged(*args):
            training.append(True)
            return train_epoch(*args)

        monkeypatch.setattr(experiment, "train_epoch", flagged)
        monkeypatch.setattr(numerics, "np", FailingEmpty(
            lambda: training and threading.current_thread() is not threading.main_thread()))
        args = ["train"]
        for k, v in fast_overrides(tmp_path / "run").items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 4
        assert capsys.readouterr().err.splitlines() == [
            "out of memory in ffnet.train_epoch, at numerics._work"
        ]

    def test_out_of_memory_in_a_draw_share_exit_four(
        self, tmp_path, capsys, monkeypatch, split_workers
    ):
        """A work array that a pooled share of a bulk draw cannot allocate,
        at the first draw that splits (the synthetic data, during set-up),
        reaches the command as the same one line, naming the set-up call
        and the function that allocates it."""
        monkeypatch.setattr(numerics, "_SPLIT_BLOCK", 16)
        split_workers(2)
        monkeypatch.setattr(numerics, "np", FailingEmpty(
            lambda: threading.current_thread() is not threading.main_thread()))
        args = ["train"]
        for k, v in fast_overrides(tmp_path / "run").items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 4
        assert capsys.readouterr().err.splitlines() == [
            "out of memory in synthetic.make_blobs, at numerics._work"
        ]
        assert not os.path.exists(tmp_path / "run" / "checkpoint.ffn1")

    def test_too_few_synthetic_classes_exit_one_before_output(self, tmp_path, capsys):
        args = ["train"]
        for k, v in fast_overrides(tmp_path / "run", **{"synthetic.classes": 1}).items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: synthetic.classes must be >= 2, got 1"
        ]
        assert not os.path.exists(tmp_path / "run")

    def test_eval_on_data_of_another_width_exit_two(self, tmp_path, capsys):
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        args = []
        for k, v in fast_overrides(tmp_path / "run", **{"synthetic.dim": 9}).items():
            args += ["--set", f"{k}={v}"]
        assert main(["eval", "--checkpoint", result.checkpoint] + args) == 2
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
        assert rows[0] == [
            "k",
            "head_final_test_err", "head_best_test_err", "head_best_epoch",
            "sweep_final_test_err", "sweep_best_test_err", "sweep_best_epoch",
        ]
        assert len(rows) == 3
        # per route, the last epoch's test error and the first epoch at the
        # lowest, as the k's eval_modes.csv has them
        for row in rows[1:]:
            modes = read_rows(tmp_path / "sweepout" / f"k_{row[0]}" / "eval_modes.csv")[1:]
            expected = [row[0]]
            for col in (2, 4):
                errs = [float(r[col]) for r in modes]
                best = errs.index(min(errs))
                expected += [modes[-1][col], modes[best][col], str(best)]
            assert row == expected
        # ff-lab sweep prints the summary's header and rows last
        printed = capsys.readouterr().out.splitlines()[-3:]
        assert printed == [",".join(row) for row in rows]

    def test_sweep_builds_the_bundle_once(self, tmp_path, monkeypatch):
        """Three k values, one build_bundle call; each k's artifacts, seconds
        masked, equal those of a standalone run of the same config."""
        calls = []
        build = experiment.build_bundle

        def counted(cfg):
            calls.append(1)
            return build(cfg)

        monkeypatch.setattr(experiment, "build_bundle", counted)
        ks = ["0.3", "0.6", "1.2"]
        run_sweep(parse_config(None, fast_overrides(tmp_path / "sweepout")), "k", ks)
        assert len(calls) == 1
        for k in ks:
            out = tmp_path / "sweepout" / f"k_{k}"
            swept = masked_artifacts(out)
            run_experiment(parse_config(None, fast_overrides(out, **{"threshold.k": k})))
            assert masked_artifacts(out) == swept, k
        assert len(calls) == 1 + len(ks)

    def test_best_epoch_is_the_first_at_the_lowest_test_error(self, tmp_path, monkeypatch):
        """A test error that returns to its minimum keeps the first epoch
        at it, in the result, the final report and the sweep summary."""
        overrides = fast_overrides(tmp_path / "sweepout", epochs=4)
        y_test = build_bundle(parse_config(None, overrides)).y_test
        wrong = [len(y_test) * f // 20 for f in (10, 5, 5, 8)]  # test errors per epoch
        sweep = experiment.predict_sweep_batch
        calls = []

        def scripted(net, X, *args, **kwargs):
            pred = sweep(net, X, *args, **kwargs)
            calls.append(1)
            if len(calls) % 2:  # each epoch's first sweep is the train split's
                return pred
            pred = y_test.copy()
            pred[: wrong[len(calls) // 2 - 1]] += 1
            return pred

        results = []
        run = experiment.run_experiment

        def kept(*args):
            results.append(run(*args))
            return results[-1]

        monkeypatch.setattr(experiment, "predict_sweep_batch", scripted)
        monkeypatch.setattr(experiment, "run_experiment", kept)
        run_sweep(parse_config(None, overrides), "k", ["0.3"])
        assert results[0].best_err["sweep"] == (0.25, 1)
        assert results[0].final_err["sweep"][1] == 0.4
        with open(tmp_path / "sweepout" / "k_0.3" / "final_report.txt", encoding="utf-8") as f:
            assert "best sweep test error: 0.2500 (epoch 1)\n" in f.read()
        head_final = results[0].final_err["head"][1]
        head_best, head_epoch = results[0].best_err["head"]
        assert read_rows(tmp_path / "sweepout" / "sweep_summary.csv")[1:] == [
            ["0.3", repr(head_final), repr(head_best), str(head_epoch), "0.4", "0.25", "1"]
        ]

    def test_analyze_checkpoint(self, tmp_path, capsys):
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        out = tmp_path / "analysis"
        assert main(["analyze", "--checkpoint", result.checkpoint, "--out", str(out)]) == 0
        assert os.path.exists(out / "weight_stats.csv")
        assert os.path.exists(out / "layer0_weights.pgm")
        assert os.path.exists(out / "layer1_weights.pgm")

    def test_analyze_baseline_checkpoint_keeps_the_ff_artifacts(self, tmp_path, capsys):
        """Next to its run, a baseline checkpoint's analysis writes the ``bp_``
        names and leaves the FF run's weight statistics and heatmap alone."""
        result = run_experiment(parse_config(
            None, fast_overrides(tmp_path / "run", **{"baseline.enabled": "true"})
        ))
        run = tmp_path / "run"
        before = {name: (run / name).read_bytes()
                  for name in ("weight_stats.csv", "layer0_weights.pgm", "bp_weight_stats.csv")}
        assert main(["analyze", "--checkpoint", result.bp_checkpoint]) == 0
        for name, data in before.items():
            assert (run / name).read_bytes() == data, name
        assert (run / "bp_layer0_weights.pgm").exists()
        assert not (run / "layer1_weights.pgm").exists()

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

    def test_analyze_goodness_report_equals_the_runs(self, tmp_path, capsys):
        """analyze --config redraws the run's own analysis stream: same bytes."""
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        echo = os.path.join(result.out_dir, "config_echo.txt")
        out = tmp_path / "analysis"
        assert main(
            ["analyze", "--checkpoint", result.checkpoint, "--out", str(out),
             "--config", echo]
        ) == 0
        with open(os.path.join(result.out_dir, "goodness_hist.csv"), "rb") as f:
            assert (out / "goodness_hist.csv").read_bytes() == f.read()

    def test_analyze_config_k_broadcasts_to_the_checkpoint_depth(self, tmp_path, capsys):
        """A single threshold.k fits a checkpoint of any depth."""
        result = run_experiment(parse_config(None, fast_overrides(tmp_path / "run")))
        echo = os.path.join(result.out_dir, "config_echo.txt")
        out = tmp_path / "analysis"
        assert main(["analyze", "--checkpoint", result.checkpoint, "--out", str(out),
                     "--config", echo, "--arch", "16,16,16"]) == 0
        assert os.path.exists(out / "goodness_hist.csv")

    def test_analyze_on_data_of_another_width_exit_two(self, tmp_path, capsys):
        result = run_experiment(parse_config(None, fast_overrides(tmp_path / "run")))
        args = []
        for k, v in fast_overrides(tmp_path / "run", **{"synthetic.dim": 9}).items():
            args += ["--set", f"{k}={v}"]
        echo = os.path.join(result.out_dir, "config_echo.txt")
        out = tmp_path / "analysis"
        code = main(["analyze", "--checkpoint", result.checkpoint, "--out", str(out),
                     "--config", echo] + args)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ")
        assert not os.path.exists(out / "goodness_hist.csv")

    def test_eval_checkpoint_both_modes(self, tmp_path, capsys):
        """One eval prints the head's line, then the sweep's, each the
        run's last eval_modes.csv test error to 4 decimals."""
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        last = read_rows(os.path.join(result.out_dir, "eval_modes.csv"))[-1]
        capsys.readouterr()
        args = []
        for k, v in fast_overrides(tmp_path / "run").items():
            args += ["--set", f"{k}={v}"]
        assert main(["eval", "--checkpoint", result.checkpoint] + args) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"head test error: {float(last[2]):.4f}",
            f"sweep test error: {float(last[4]):.4f}",
        ]

    def test_eval_matches_run_final_error(self, tmp_path, capsys):
        cfg = parse_config(None, fast_overrides(tmp_path / "run"))
        result = run_experiment(cfg)
        capsys.readouterr()
        args = []
        for k, v in fast_overrides(tmp_path / "run").items():
            args += ["--set", f"{k}={v}"]
        main(["eval", "--checkpoint", result.checkpoint] + args)
        printed = capsys.readouterr().out.splitlines()
        reported = {line.split(" ", 1)[0]: float(line.rsplit(" ", 1)[1]) for line in printed}
        assert list(reported) == list(experiment.ROUTES)
        for route, err in reported.items():
            assert err == pytest.approx(result.final_err[route][1], abs=5e-5), route

    def test_headless_sweep_eval_reads_skip_first_layer(self, tmp_path, capsys):
        """A checkpoint without a head prints only the sweep's line, swept
        over the layers that inference.skip_first_layer names: with false,
        every layer."""
        overrides = fast_overrides(tmp_path / "run", **{"inference.skip_first_layer": "false"})
        cfg = parse_config(None, overrides)
        net, _ = load_network(run_experiment(cfg).checkpoint)
        headless = str(tmp_path / "headless.ffn1")
        save_network(headless, net)
        bundle = build_bundle(cfg)
        G = inference.sweep_scores_batch(net, bundle.X_test, bundle.num_classes, bundle.slots)
        every, above = (
            float(np.mean(inference.predict_sweep_batch(layers, G) != bundle.y_test))
            for layers in ((0, 1), (1,))
        )
        assert every != above  # the run tells the two layer sets apart
        args = []
        for k, v in overrides.items():
            args += ["--set", f"{k}={v}"]
        capsys.readouterr()
        assert main(["eval", "--checkpoint", headless] + args) == 0
        assert capsys.readouterr().out.splitlines() == [f"sweep test error: {every:.4f}"]


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


def _write(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return str(path)


def _truncated_checkpoint(tmp_path):
    data = network_bytes(FFNetwork(4, [3, 2], "relu", 0.01, Rng(5)))
    return _write(tmp_path / "cut.ffn1", data[: len(data) // 2])


def _non_utf8_review_tree(tmp_path):
    root = tmp_path / "aclImdb"
    for split in ("train", "test"):
        for label in ("neg", "pos"):
            _write(root / split / label / "0_1.txt", b"a fine film \xff\n")
    return str(root)


def _idx_dir_with_empty(tmp_path, split):
    """IDX files of 8 blank images per split, but none in ``split``."""
    root = tmp_path / "mnist"
    for prefix in ("train", "t10k"):
        n = 0 if prefix == split else 8
        _write(root / f"{prefix}-images-idx3-ubyte",
               struct.pack(">IIII", 0x803, n, 28, 28) + bytes(n * 784))
        _write(root / f"{prefix}-labels-idx1-ubyte", struct.pack(">II", 0x801, n) + bytes(n))
    return str(root)


def _train_on_idx(tmp_path, split):
    return ["train", "--dataset", "mnist", "--seed", "1", "--arch", "4", "--epochs", "1",
            "--output", str(tmp_path / "run"),
            "--set", f"data.mnist_dir={_idx_dir_with_empty(tmp_path, split)}"]


# case -> (argv built in tmp_path, exit code, stderr prefix; {t} is tmp_path)
MALFORMED = {
    "directory-as-config": (
        lambda t: ["train", "--config", str(t)], 1, "config error: no config file at "),
    "directory-as-checkpoint": (
        lambda t: ["eval", "--checkpoint", str(t), "--seed", "1"], 2, "data error: "),
    "truncated-checkpoint": (
        lambda t: ["eval", "--checkpoint", _truncated_checkpoint(t), "--seed", "1"],
        2, "data error: "),
    "non-utf8-review": (
        lambda t: ["train", "--dataset", "imdb", "--seed", "1", "--output", str(t / "run"),
                   "--set", f"data.imdb_dir={_non_utf8_review_tree(t)}"],
        2, "data error: review "),
    "empty-train-split": (
        lambda t: _train_on_idx(t, "train"), 2,
        "data error: {t}/mnist/train-images-idx3-ubyte: holds no images"),
    "empty-test-split": (
        lambda t: _train_on_idx(t, "t10k"), 2,
        "data error: {t}/mnist/t10k-images-idx3-ubyte: holds no images"),
    "removed-key": (
        lambda t: ["train", "--output", str(t / "run"), "--config", _write(
            t / "old.cfg", b"seed = 1\narch = 4\nepochs = 1\nthreshold.strategy = pyramidal\n")],
        1, "config error: line 4: unknown config key 'threshold.strategy'"),
    "removed-mode-key": (
        lambda t: ["train", "--seed", "1", "--arch", "4", "--epochs", "1",
                   "--output", str(t / "run"), "--set", "inference.mode=head"],
        1, "config error: unknown config key 'inference.mode'"),
    "non-finite-lr": (
        lambda t: ["train", "--seed", "1", "--arch", "4", "--epochs", "1",
                   "--output", str(t / "run"), "--set", "head.lr=inf"],
        1, "config error: head.lr must be finite"),
    "odd-batch-size": (
        lambda t: ["train", "--seed", "1", "--arch", "4", "--epochs", "1",
                   "--output", str(t / "run"), "--batch-size", "33"],
        1, "config error: batch_size must be even"),
    # usage errors exit 1 with one line, not argparse's exit 2 and usage text
    "missing-required-flag": (
        lambda t: ["eval", "--seed", "1"], 1, "config error: "),
    "unknown-flag": (
        lambda t: ["train", "--bogus"], 1, "config error: "),
    "removed-mode-flag": (
        lambda t: ["eval", "--checkpoint", str(t / "x.ffn1"), "--mode", "head"],
        1, "config error: ff-lab: unrecognized arguments: --mode head"),
}


def test_every_readme_command_parses():
    """Every ``ff-lab`` command of the README's bash blocks parses, so a
    flag the CLI no longer takes cannot stay in the docs."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = [line for block in re.findall(r"```bash\n(.*?)```", readme, flags=re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("ff-lab ")]
    assert commands
    for command in commands:
        _parser().parse_args(shlex.split(command)[1:])


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_exits_with_one_line(tmp_path, capsys, case):
    """Each malformed input gets its documented exit code and a one-line
    message on stderr, never a traceback."""
    argv, code, prefix = MALFORMED[case]
    assert main(argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(prefix.format(t=tmp_path))


# Artifacts whose bytes may change with the BLAS thread count: a forward
# GEMM rounds differently at 1 and 2 OpenBLAS threads (README, "Artifacts").
BLAS_THREAD_DEPENDENT = {"checkpoint.ffn1", "weight_stats.csv", "goodness_hist.csv", "metrics.csv"}


def _artifacts_at(out, threads):
    """Every artifact of one synthetic 784->[512,512] run made as a command
    under ``threads`` BLAS threads, as :func:`masked_artifacts` reads them."""
    args = [sys.executable, "-m", "fflab.cli", "train", "--dataset", "synthetic",
            "--seed", "7", "--arch", "512,512", "--epochs", "2"]
    for setting in ("synthetic.dim=774", "threshold.k=0.5", f"output_dir={out}"):
        args += ["--set", setting]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(fflab.__file__)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run(args, capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return masked_artifacts(out)


def test_bytes_depend_on_the_blas_thread_count_only_where_stated(tmp_path):
    """Two runs at one thread count match byte for byte; a run at another
    changes only the stated artifacts, and no error rate."""
    one = _artifacts_at(tmp_path / "a", 1)
    assert _artifacts_at(tmp_path / "b", 1) == one
    two = _artifacts_at(tmp_path / "c", 2)
    assert set(two) == set(one)
    assert {name for name in one if one[name] != two[name]} <= BLAS_THREAD_DEPENDENT
    assert one["eval_modes.csv"] == two["eval_modes.csv"]
    header = one["metrics.csv"][0]
    errors = [header.index("train_err"), header.index("test_err")]
    assert [[r[i] for i in errors] for r in one["metrics.csv"]] == [
        [r[i] for i in errors] for r in two["metrics.csv"]
    ]
