"""One ``run_experiment`` call in a fresh process, timed and checked.

    python3 bench/child.py SPEC.json RESULT.json

SPEC holds the checkout root, the config overrides (exactly what
``ff-lab train --set`` would pass), and whether to trace. The child
calls ``parse_config`` and ``run_experiment`` as ``ff-lab train`` does,
times the run's phases, checks its artifacts, and writes RESULT.json.
A fresh process per run makes ``peak_rss_mb`` the peak of that run.

Phase boundaries come from three names ``run_experiment`` resolves in
``fflab.experiment``: ``train_epoch``, ``predict_sweep_batch`` (the
test-split sweep ends each epoch) and ``save_network``. Epoch lengths
are the program's own ``seconds`` column; the hooks cross-check it.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402

# artifacts whose wall-clock column is exempt from byte identity
_TIMED_COLUMN = "seconds"


def artifact_digest(out_dir):
    """sha256 over every artifact, with any ``seconds`` CSV column masked."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            data = f.read()
        if name.endswith(".csv"):
            rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
            if rows and _TIMED_COLUMN in rows[0]:
                col = rows[0].index(_TIMED_COLUMN)
                for row in rows[1:]:
                    row[col] = "*"
            data = "\n".join(",".join(r) for r in rows).encode("utf-8")
        h.update(name.encode("utf-8") + b"\0" + data + b"\0")
    return h.hexdigest()


def _weights_digest(net, head=None):
    h = hashlib.sha256()
    layers = list(net.layers) + ([net.out_layer] if hasattr(net, "out_layer") else [])
    for layer in layers:
        h.update(layer.W.tobytes() + layer.b.tobytes())
    if head is not None:
        h.update(head.W.tobytes() + head.b.tobytes())
    return h.hexdigest()


class PhaseHooks:
    """Timestamps at the epoch boundaries, plus what each checkpoint held."""

    def __init__(self, experiment):
        self.train_starts = []
        self.sweep_ends = []
        self.saved = {}  # checkpoint path -> (net, head) it was written from
        clock = time.perf_counter
        train_epoch = experiment.train_epoch
        sweep = experiment.predict_sweep_batch
        save = experiment.save_network

        def hooked_train_epoch(*a, **kw):
            self.train_starts.append(clock())
            return train_epoch(*a, **kw)

        def hooked_sweep(*a, **kw):
            out = sweep(*a, **kw)
            self.sweep_ends.append(clock())
            return out

        def hooked_save(path, net, head=None):
            self.saved[path] = (net, head)  # weights are final once saved
            return save(path, net, head)

        experiment.train_epoch = hooked_train_epoch
        experiment.predict_sweep_batch = hooked_sweep
        experiment.save_network = hooked_save


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ValueError(f"{os.path.basename(path)} has no rows")
    return rows


def check_run(out_dir, epochs, hooks, t0, t1, errors):
    """Phase times from the hooks and the seconds column, plus output checks."""
    res = {}
    seconds = {}  # one row per layer, all with their epoch's seconds
    for row in _read_csv(os.path.join(out_dir, "metrics.csv")):
        seconds[int(row["epoch"])] = float(row["seconds"])
        for key in ("mean_loss", "mean_G_pos", "mean_G_neg", "theta"):
            if not math.isfinite(float(row[key])):
                errors.append(f"metrics.csv epoch {row['epoch']}: {key} = {row[key]}")
        for key in ("train_err", "test_err"):
            if not 0.0 <= float(row[key]) <= 1.0:
                errors.append(f"metrics.csv epoch {row['epoch']}: {key} = {row[key]}")
    c = [seconds[e] for e in sorted(seconds)]

    modes = _read_csv(os.path.join(out_dir, "eval_modes.csv"))
    for row in modes:
        for key, v in row.items():
            if key != "epoch" and not 0.0 <= float(v) <= 1.0:
                errors.append(f"eval_modes.csv epoch {row['epoch']}: {key} = {v}")
    res["head_test_err"] = float(modes[-1]["head_test_err"])
    res["sweep_test_err"] = float(modes[-1]["sweep_test_err"])

    bp_path = os.path.join(out_dir, "bp_metrics.csv")
    if os.path.exists(bp_path):
        for row in _read_csv(bp_path):
            if not math.isfinite(float(row["mean_loss"])):
                errors.append(f"bp_metrics.csv epoch {row['epoch']}: mean_loss not finite")
            for key in ("train_err", "test_err"):
                if not 0.0 <= float(row[key]) <= 1.0:
                    errors.append(f"bp_metrics.csv epoch {row['epoch']}: {key} = {row[key]}")

    if len(c) != epochs or len(hooks.train_starts) != epochs or len(hooks.sweep_ends) != 2 * epochs:
        errors.append(
            f"phase hooks saw {len(hooks.train_starts)} train_epoch calls and "
            f"{len(hooks.sweep_ends)} sweeps, metrics.csv {len(c)} epochs; expected "
            f"{epochs}, {2 * epochs} and {epochs}"
        )
        return res
    ends = hooks.sweep_ends[1::2]  # the test-split sweep closes each epoch
    starts = [e - ci for e, ci in zip(ends, c)]
    res["run_s"] = t1 - t0
    res["setup_s"] = starts[0] - t0
    res["epoch_s"] = c
    res["finish_s"] = t1 - ends[-1]
    # the seconds column must cover each epoch's training and sit between epochs
    slack = 0.002
    for i, (s, e, ts) in enumerate(zip(starts, ends, hooks.train_starts)):
        if not s - slack <= ts <= e:
            errors.append(f"epoch {i}: train_epoch began outside the epoch's seconds")
        if i and not -slack <= s - ends[i - 1] <= 0.01:
            errors.append(f"epoch {i}: {s - ends[i - 1]:.4f} s between epochs not accounted")
    gap = res["run_s"] - (res["setup_s"] + sum(c) + res["finish_s"])
    if abs(gap) > 0.01 + slack * epochs:
        errors.append(f"setup + epochs + finish misses run_s by {gap:.4f} s")
    if res["setup_s"] < -slack:
        errors.append(f"negative setup time {res['setup_s']:.4f} s")
    return res


def check_checkpoints(hooks, errors):
    from fflab.checkpoint import load_network, network_bytes

    if not any(p.endswith(".ffn1") for p in hooks.saved):
        errors.append("no FFN1 checkpoint was saved")
    for path, (saved_net, saved_head) in hooks.saved.items():
        net, head = load_network(path)
        if _weights_digest(net, head) != _weights_digest(saved_net, saved_head):
            errors.append(f"{os.path.basename(path)} does not reload bit-equal")
        with open(path, "rb") as f:
            if f.read() != network_bytes(net, head):
                errors.append(f"{os.path.basename(path)} does not re-serialize to its bytes")


def run(spec):
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import fflab

    if not os.path.abspath(fflab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported fflab from {fflab.__file__}, not from {src}")
    from fflab import config, experiment

    tr = None
    if spec["trace"]:
        tr = tracing.Tracer()
        tracing.install(tr)
    hooks = PhaseHooks(experiment)
    cfg = config.parse_config(None, spec["config"])

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        experiment.run_experiment(cfg)
    t1 = time.perf_counter()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced = {}
    if tr is not None:  # before the checks below add spans of their own
        traced["layers"] = tracing.layer_metrics(tr.spans, spec["untraced_run_s"])
        traced["profile"] = tracing.span_profile(tr.spans)

    errors = []
    res = check_run(cfg["output_dir"], cfg["epochs"], hooks, t0, t1, errors)
    res["peak_rss_mb"] = peak_kib / 1024.0
    check_checkpoints(hooks, errors)
    res["digest"] = artifact_digest(cfg["output_dir"])
    res.update(traced)
    res["errors"] = errors
    return res


def main(argv):
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    try:
        res = run(spec)
    except Exception:  # a run that raises is reported, not fatal to the benchmark
        res = {"errors": ["run raised:\n" + traceback.format_exc()]}
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(res, f)
    return 0 if not res["errors"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
