"""Span tracing of the package's modules, installed from outside ``src/``.

:func:`install` wraps every public function, every public method and
constructor of the public classes, of each traced module, and rebinds
each wrapper wherever a package module imported the original by name.
A span is ``[name, start, end, parent, info]``, held in memory; nothing
is written while the run lasts. :func:`layer_metrics` reduces the spans
of one run to the per-layer metrics of :mod:`metrics`, and
:func:`span_profile` to calls, inclusive and self time per span name.

A module's value is its self time: its spans' durations less the time
their child spans cover. Function metrics such as ``inference.sweep_s``
are the inclusive time of that call, children and all, so they nest
(``inference.features_s`` lies inside ``inference.head_fit_s``).
"""

import dataclasses
import enum
import functools
import importlib
import inspect
import os
import statistics
import sys
import time

from metrics import MAX_FF_LAYERS, PER_LAYER, PER_LAYER_EXTRA

LAYERS = (
    "ffnet", "numerics", "inference", "mnist_data", "text_data", "porter",
    "kernels", "bp_baseline", "analysis", "checkpoint", "rng", "experiment",
)


def _sweep_info(args, out):
    net, X, classes = args[0], args[1], args[2]
    per_row = sum(layer.in_dim + 2 * layer.out_dim for layer in net.layers)
    return X.shape[0] * classes, X.shape[0] * per_row * 8


# extra facts recorded on a span when its call returns
_INFO = {
    "ffnet.train_epoch": lambda a, out: [id(layer) for layer in a[0].layers],
    "ffnet.FFLayer.forward_batch": lambda a, out: id(a[0]),
    "ffnet.FFLayer.grads_batch": lambda a, out: id(a[0]),
    "ffnet.FFLayer.apply_grads": lambda a, out: id(a[0]),
    # adam reads grads, m, v, params and writes m, v, params
    "numerics.adam_step": lambda a, out: 7 * a[1].nbytes,
    "inference.sweep_scores_batch": _sweep_info,
    "kernels.sgns_epoch": lambda a, out: out[1] - a[9],
    "checkpoint.save_network": lambda a, out: os.path.getsize(a[0]),
    "porter.stem": lambda a, out: a[0],
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, out)
            return out

        return traced


def _rebind(modules, original, wrapper):
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, attr, wrapper)


def _wrap_class(tracer, prefix, cls):
    wrap_init = not dataclasses.is_dataclass(cls)  # generated inits are trivial
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and not (attr == "__init__" and wrap_init):
            continue
        name = prefix if attr == "__init__" else f"{prefix}.{attr}"
        if inspect.isfunction(obj):
            setattr(cls, attr, tracer.wrap(name, obj))
        elif isinstance(obj, (classmethod, staticmethod)):
            setattr(cls, attr, type(obj)(tracer.wrap(name, obj.__func__)))


def install(tracer):
    """Wrap the public surface of every traced module of ``fflab``."""
    for layer in LAYERS:
        importlib.import_module(f"fflab.{layer}")
    loaded = [m for n, m in sys.modules.items() if n == "fflab" or n.startswith("fflab.")]
    for layer in LAYERS:
        mod = sys.modules[f"fflab.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                _rebind(loaded, obj, tracer.wrap(f"{layer}.{attr}", obj))
            elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                _wrap_class(tracer, f"{layer}.{attr}", obj)


def _pct(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _times(spans):
    """(duration, self time) of every span."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def span_profile(spans):
    """The spans in compact form: name -> [calls, inclusive s, self s]."""
    dur, self_t = _times(spans)
    out = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += self_t[i]
    return out


def layer_metrics(spans, untraced_run_s):
    """Per-layer metrics of one traced run: every name in PER_LAYER and PER_LAYER_EXTRA."""
    n = len(spans)
    dur, self_t = _times(spans)
    under_train = [False] * n
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            under_train[i] = under_train[p] or spans[p][0] == "ffnet.train_epoch"

    prof = span_profile(spans)
    mod_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in prof.items():
        mod_self[name.split(".", 1)[0]] += self_s

    def tot(*names):
        return sum(prof[x][1] for x in names if x in prof)

    def info(name):
        return [s[4] for s in spans if s[0] == name]

    m = dict.fromkeys((name for name, *_ in PER_LAYER + PER_LAYER_EXTRA), 0.0)

    # ffnet: per-layer work under train_epoch, and per-batch steps
    train_ids = info("ffnet.train_epoch")
    layer_of = {lid: i for i, lid in enumerate(train_ids[0])} if train_ids else {}
    kinds = {"forward_batch": "forward", "grads_batch": "grads", "apply_grads": "update"}
    finite = 0.0
    for i, s in enumerate(spans):
        cls, _, meth = s[0].rpartition(".")
        if cls != "ffnet.FFLayer" or meth not in kinds or not under_train[i]:
            continue
        li = layer_of.get(s[4])
        if li is not None and li < MAX_FF_LAYERS:
            m[f"ffnet.{kinds[meth]}_s.L{li}"] += dur[i]
        if meth == "apply_grads":
            finite += self_t[i]
    steps = []
    for t, s in enumerate(spans):
        if s[0] != "ffnet.train_epoch":
            continue
        kids = [j for j in range(t + 1, n) if spans[j][3] == t]
        begin = None
        for j in kids:
            if spans[j][0] == "ffnet.FFNetwork.forward_batch":
                if begin is not None:
                    steps.append(last_end - begin)
                begin = spans[j][1]
            if begin is not None:
                last_end = spans[j][2]
        if begin is not None:
            steps.append(last_end - begin)
    m["ffnet.train_epoch_s"] = tot("ffnet.train_epoch")
    m["ffnet.finite_check_s"] = finite
    if steps:
        ms = [x * 1e3 for x in steps]
        m["ffnet.step_ms.p50"] = statistics.median(ms)
        m["ffnet.step_ms.p90"] = _pct(ms, 90)
    m["ffnet.batches"] = len(steps)
    m["ffnet.train_other_s"] = prof.get("ffnet.train_epoch", [0, 0.0, 0.0])[2]

    m["numerics.adam_s"] = tot("numerics.adam_step")
    m["numerics.adam_calls"] = prof.get("numerics.adam_step", [0])[0]
    m["numerics.adam_mb_computed"] = sum(info("numerics.adam_step")) / 1e6
    m["numerics.row_directions_s"] = tot("numerics.row_directions")

    m["inference.head_fit_s"] = tot("inference.train_head")
    m["inference.features_s"] = tot("inference.features_batch")
    m["inference.head_predict_s"] = tot("inference.predict_head_batch")
    m["inference.sweep_s"] = tot("inference.sweep_scores_batch")
    sweeps = info("inference.sweep_scores_batch")
    m["inference.sweep_rows"] = sum(r for r, _ in sweeps)
    m["inference.sweep_live_mb_computed"] = max((b for _, b in sweeps), default=0) / 1e6

    m["mnist_data.load_s"] = tot("mnist_data.load_mnist")
    m["mnist_data.stream_s"] = tot("mnist_data.build_training_stream")
    m["mnist_data.embed_s"] = tot("mnist_data.embed_label_batch", "mnist_data.neutral_batch")

    m["text_data.load_s"] = tot("text_data.load_imdb_split")
    m["text_data.preprocess_s"] = tot("text_data.preprocess")
    words = info("porter.stem")
    m["porter.stem_calls"] = len(words)
    m["porter.stem_distinct_ratio"] = len(set(words)) / len(words) if words else 0.0
    m["text_data.vocab_s"] = tot("text_data.build_vocab")
    m["text_data.sgns_s"] = tot("text_data.train_sgns")
    pairs = sum(info("kernels.sgns_epoch"))
    m["kernels.sgns_pairs"] = pairs
    sgns_time = tot("kernels.sgns_epoch")
    m["kernels.sgns_pairs_per_s"] = pairs / sgns_time if sgns_time > 0 else 0.0
    m["text_data.vectorize_s"] = tot("text_data.vectorize_review")
    m["text_data.stream_s"] = tot("text_data.build_sentiment_stream")

    m["bp_baseline.train_epoch_s"] = tot("bp_baseline.bp_train_epoch")
    m["bp_baseline.predict_s"] = tot("bp_baseline.bp_predict_batch")
    m["analysis.goodness_report_s"] = tot("analysis.goodness_report")
    m["analysis.weight_stats_s"] = tot("analysis.weight_stats")
    m["analysis.heatmap_s"] = tot("analysis.export_heatmap")
    m["checkpoint.save_s"] = tot("checkpoint.save_network")
    m["checkpoint.mb"] = sum(info("checkpoint.save_network")) / 1e6
    m["rng.shuffle_s"] = tot("rng.Rng.shuffle")

    for layer, value in mod_self.items():
        m[f"{layer}.self_s"] = value
    run_s = tot("experiment.run_experiment")
    m["trace.run_s"] = run_s
    m["trace.overhead_s"] = run_s - untraced_run_s
    m["trace.coverage"] = 1.0 - mod_self["experiment"] / run_s if run_s > 0 else 0.0
    return m
