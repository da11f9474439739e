"""The names the benchmark harness hooks by must keep existing.

``bench/tracer.py`` wraps functions and methods by module and name, and
reads some arguments by position; ``bench/child.py`` patches three names
in ``fflab.experiment``. A renamed hook does not fail there: the metric
it feeds silently reads 0. These tests make such a rename fail here.
"""

import importlib
import inspect
import os

import pytest

from fflab import experiment
from fflab.config import parse_config

# (module, qualified name) of every hooked function or method
TRACED = [
    ("ffnet", "train_epoch"),
    ("ffnet", "FFLayer.forward_batch"),
    ("ffnet", "FFLayer.grads_batch"),
    ("ffnet", "FFLayer.apply_grads"),
    ("ffnet", "FFNetwork.forward_batch"),
    ("numerics", "row_directions"),
    ("numerics", "adam_step"),
    ("inference", "fit_head"),
    ("inference", "features_batch"),
    ("inference", "predict_head_batch"),
    ("inference", "sweep_scores_batch"),
    ("analysis", "goodness_report"),
    ("analysis", "weight_stats"),
    ("analysis", "export_heatmap"),
    ("checkpoint", "save_network"),
    ("rng", "Rng.shuffle"),
    ("bp_baseline", "bp_train_epoch"),
    ("bp_baseline", "bp_predict_batch"),
    ("kernels", "sgns_epoch"),
    ("experiment", "run_experiment"),
]

# names bench/child.py replaces on fflab.experiment
PATCHED_IN_EXPERIMENT = ["train_epoch", "predict_sweep_batch", "save_network"]

# (module, function, position, parameter) read by position
POSITIONAL = [
    ("ffnet", "train_epoch", 0, "net"),
    ("inference", "sweep_scores_batch", 2, "num_classes"),
    ("kernels", "sgns_epoch", 9, "pairs_done"),
    ("numerics", "adam_step", 1, "params"),
    ("checkpoint", "save_network", 0, "path"),
]


def _resolve(module, qualname):
    obj = importlib.import_module(f"fflab.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, qualname", TRACED)
def test_traced_name_is_defined_in_its_module(module, qualname):
    """The tracer wraps only functions whose home module is the traced one."""
    fn = _resolve(module, qualname)
    assert inspect.isfunction(fn)
    assert fn.__module__ == f"fflab.{module}"


@pytest.mark.parametrize("name", PATCHED_IN_EXPERIMENT)
def test_phase_hook_is_an_experiment_global(name):
    assert inspect.isfunction(_resolve("experiment", name))


@pytest.mark.parametrize("module, name, position, parameter", POSITIONAL)
def test_positional_parameter_stays_put(module, name, position, parameter):
    params = list(inspect.signature(_resolve(module, name)).parameters)
    assert params[position] == parameter


def test_run_experiment_calls_the_phase_hooks_in_order(tmp_path, monkeypatch):
    """``bench/child.py`` reads each epoch as train_epoch, the train-split
    sweep and the test-split sweep, and reloads what save_network wrote
    after the last sweep; a run that breaks this fails there as a failed
    benchmark run."""
    calls = []

    def record(name, real):
        def hooked(*args, **kwargs):
            if name == "predict_sweep_batch":
                calls.append((name, args[1].shape[0]))
            elif name == "save_network":
                calls.append((name, os.path.basename(args[0])))
            else:
                calls.append((name,))
            return real(*args, **kwargs)

        return hooked

    for name in PATCHED_IN_EXPERIMENT:
        monkeypatch.setattr(experiment, name, record(name, getattr(experiment, name)))
    cfg = parse_config(None, {
        "seed": "11", "dataset": "synthetic", "arch": "16,16", "epochs": "2",
        "batch_size": "32", "threshold.k": "0.3", "synthetic.train_per_class": "30",
        "synthetic.test_per_class": "10", "head.epochs": "1",
        "baseline.enabled": "true", "baseline.epochs": "1",
        "output_dir": str(tmp_path / "run"),
    })
    experiment.run_experiment(cfg)
    epoch = [("train_epoch",), ("predict_sweep_batch", 300), ("predict_sweep_batch", 100)]
    assert calls == epoch * 2 + [
        ("save_network", "checkpoint.ffn1"),
        ("save_network", "checkpoint.bpn1"),
    ]
