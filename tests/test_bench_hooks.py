"""The names the benchmark harness hooks by must keep existing.

``bench/tracer.py`` wraps functions and methods by module and name, and
reads some arguments by position; ``bench/child.py`` patches three names
in ``fflab.experiment``. A renamed hook does not fail there: the metric
it feeds silently reads 0. These tests make such a rename fail here.
"""

import importlib
import inspect

import pytest

# (module, qualified name) of every hooked function or method
TRACED = [
    ("ffnet", "train_epoch"),
    ("ffnet", "FFLayer.forward_batch"),
    ("ffnet", "FFLayer.grads_batch"),
    ("ffnet", "FFLayer.apply_grads"),
    ("ffnet", "FFNetwork.forward_batch"),
    ("numerics", "row_directions"),
    ("numerics", "adam_step"),
    ("inference", "train_head"),
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
