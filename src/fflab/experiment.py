"""Experiment runner: datasets, training loops, per-epoch evaluation,
metrics CSVs, checkpoints, and analysis artifacts.

Each trainer loop (the FF run in ``run_experiment``, the backprop
baseline in ``_run_baseline``) appends one :class:`Epoch` record per
epoch and nothing else. Once its loop ends, the records become the
metrics CSVs (through ``analysis.write_csv``), and :class:`RunResult`
derives the final and best errors from them for ``final_report.txt`` and
``sweep_summary.csv``. A trained network's checkpoint, weight statistics
and heatmaps take the names of its kind (``analysis.artifact_names``).

Every FF epoch evaluates both inference routes (``ROUTES``) on each
split (:func:`score_split`): the softmax head and the label sweep,
whose per-layer goodness (``inference.sweep_scores_batch``)
``predict_sweep_batch`` scores; the last epoch's train-split goodness
also feeds ``goodness_hist.csv``. ``eval_modes.csv``,
``final_report.txt`` and ``sweep_summary.csv`` give both routes;
``metrics.csv``'s error columns give the head's.

Reproducibility contract: everything an artifact contains is a pure
function of (config, seed, code version, BLAS build, BLAS thread count),
since a GEMM may round differently at another thread count — with the
single exception of the wall-clock ``seconds`` column in the metrics
CSVs, which is real measured time and therefore exempt from
byte-identity. The label sweep scores in float32
(``inference.SWEEP_DTYPE``), so ``goodness_hist.csv`` and the sweep
error columns carry float32 rounding; weights, checkpoints and the
head's features and errors are float64.
"""

import os
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import mnist_data, synthetic, text_data
from .bp_baseline import BPNetwork, bp_predict_batch, bp_train_epoch
from .checkpoint import save_network
from .config import echo_config, parse_config, thetas
from .errors import ConfigError, DataError, DivergenceError, UsageError
from .ffnet import FFNetwork, LabelSlots, train_epoch
from .analysis import (
    artifact_names,
    goodness_report,
    write_csv,
    write_goodness_csv,
    write_weight_artifacts,
)
from .inference import (
    default_included_layers,
    features_batch,
    fit_head,
    predict_head_batch,
    predict_head_features,
    predict_sweep_batch,
    sweep_scores_batch,
)
from .rng import Rng, derive_seed

# independent streams derived from the config seed
_STREAM_NET = 0
_STREAM_DATA = 1
_STREAM_HEAD = 2
_STREAM_BASELINE = 3
_STREAM_EMBED = 4
_STREAM_ANALYSIS = 5

# the two inference routes every epoch evaluates, in artifact column order
ROUTES = ("head", "sweep")
# sweep_summary.csv's header, which ``ff-lab sweep`` prints too
SWEEP_SUMMARY_HEADER = ["k"] + [f"{m}_{c}" for m in ROUTES
                                for c in ("final_test_err", "best_test_err", "best_epoch")]


@dataclass
class DatasetBundle:
    """A task adapter: raw features plus where the label slots go."""

    slots: LabelSlots
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray

    @property
    def num_classes(self):
        return self.slots.num_classes

    @property
    def input_dim(self):
        return self.slots.width(self.X_train.shape[1])


def build_bundle(cfg):
    """Load and adapt the configured dataset (``parse_config`` allows three)."""
    name = cfg["dataset"]
    seed = cfg["seed"]
    if name == "synthetic":
        return _blob_bundle(cfg, seed)
    if name == "mnist":
        splits = mnist_data.load_mnist(
            cfg["data.mnist_dir"], cfg["data.train_subset"], cfg["data.test_subset"]
        )
        return DatasetBundle(mnist_data.LABEL_SLOTS, *splits)
    return _imdb_bundle(cfg)


def _blob_bundle(cfg, seed):
    C = cfg["synthetic.classes"]
    dim = cfg["synthetic.dim"]
    rng = Rng(derive_seed(seed, _STREAM_DATA))
    n_train = cfg["synthetic.train_per_class"]
    n_test = cfg["synthetic.test_per_class"]
    # one mean set for both splits: draw train+test per class together
    X, y = synthetic.make_blobs(
        C, dim, n_train + n_test, cfg["synthetic.separation"], rng
    )
    X = X.reshape(C, n_train + n_test, dim)
    y = y.reshape(C, n_train + n_test)
    return DatasetBundle(
        synthetic.label_slots(C),
        X[:, :n_train].reshape(-1, dim),
        y[:, :n_train].reshape(-1),
        X[:, n_train:].reshape(-1, dim),
        y[:, n_train:].reshape(-1),
    )


def _imdb_bundle(cfg):
    root = cfg["data.imdb_dir"]
    if not os.path.isdir(root):
        raise DataError(f"IMDb directory not found: {root!r}")
    limit = cfg["data.train_subset"]
    texts_tr, y_tr = text_data.load_imdb_split(root, "train", limit=limit)
    texts_te, y_te = text_data.load_imdb_split(root, "test", limit=cfg["data.test_subset"])

    corpus_tr = [text_data.preprocess(t) for t in texts_tr]
    corpus_te = [text_data.preprocess(t) for t in texts_te]
    min_count = cfg["sgns.min_count"]
    vocab = text_data.build_vocab(corpus_tr, min_count=min_count)
    if len(vocab) == 0:
        raise DataError("IMDb vocabulary is empty at this min_count")

    # train_sgns's keywords; with min_count and the seed, the cache's key
    sgns = {k: cfg[f"sgns.{k}"] for k in ("dim", "window", "neg_k", "epochs", "lr")}
    cache = cfg["data.embedding_cache"]
    table = None
    if cache:
        # the whole training corpus is hashed, so only for the cache
        fingerprint = text_data.corpus_fingerprint(
            corpus_tr, dict(sgns, min_count=min_count, seed=cfg["seed"])
        )
        hit = text_data.load_cached_embeddings(cache, fingerprint)
        if hit is not None and hit[0] == vocab.tokens:
            table = hit[1]
    if table is None:
        rng = Rng(derive_seed(cfg["seed"], _STREAM_EMBED))
        table = text_data.train_sgns(corpus_tr, vocab, rng=rng, **sgns)
        if cache:
            text_data.save_embeddings(cache, vocab, table, fingerprint)

    X_tr = np.stack([text_data.vectorize_review(t, vocab, table) for t in corpus_tr])
    X_te = np.stack([text_data.vectorize_review(t, vocab, table) for t in corpus_te])
    slots = text_data.label_slots(X_tr.shape[1])
    return DatasetBundle(slots, X_tr, y_tr, X_te, y_te)


def _error_rate(pred, truth):
    return float(np.mean(pred != truth))


class Epoch(NamedTuple):
    """One epoch of a trainer loop, as its CSVs, report and summary read it."""

    metrics: object      # the trainer's epoch metrics (``mean_loss``, ...)
    errs: object         # FF: route -> (train_err, test_err); baseline: the pair
    seconds: float       # wall clock of the epoch, training to last error
    theta: object = None  # FF: every layer's threshold


@dataclass
class RunResult:
    out_dir: str
    checkpoint: str
    epochs: list                # the FF loop's Epoch records
    bp_checkpoint: str = ""
    bp_epochs: list = ()        # the baseline loop's, if it ran

    @property
    def final_err(self):
        """route -> (train_err, test_err) at the last epoch"""
        return self.epochs[-1].errs

    @property
    def best_err(self):
        """route -> (test_err, epoch) of the first epoch at the lowest test error"""
        return {m: min((r.errs[m][1], i) for i, r in enumerate(self.epochs))
                for m in self.final_err}


def score_split(net, head, included, bundle, X_raw, y):
    """(route -> error on rows ``X_raw`` of labels ``y``, their per-layer sweep goodness
    G): the head's error if ``head`` is given, then the sweep's over ``included``."""
    errs = {}
    if head is not None:
        errs["head"] = _error_rate(predict_head_batch(net, head, X_raw, bundle.slots), y)
    G = sweep_scores_batch(net, X_raw, bundle.num_classes, bundle.slots)
    errs["sweep"] = _error_rate(predict_sweep_batch(included, G), y)
    return errs, G


def _fmt(x):
    return repr(float(x))


def run_experiment(cfg, bundle=None):
    """Train, evaluate both inference routes each epoch, write artifacts.

    ``bundle``, if given, is ``build_bundle(cfg)``'s result, which runs
    that differ only in keys ``build_bundle`` does not read may share
    (``run_sweep``); nothing here writes to it.
    """
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config_echo.txt"), "w", encoding="utf-8") as f:
        f.write(echo_config(cfg))

    if bundle is None:
        bundle = build_bundle(cfg)
    seed = cfg["seed"]
    rng_net = Rng(derive_seed(seed, _STREAM_NET))
    rng_data = Rng(derive_seed(seed, _STREAM_DATA) ^ 0x5EED)
    rng_head = Rng(derive_seed(seed, _STREAM_HEAD))

    net = FFNetwork(bundle.input_dim, cfg["arch"], cfg["activation"], cfg["lr"], rng_net)
    included = default_included_layers(
        len(net.layers), skip_first=cfg["inference.skip_first_layer"]
    )

    slots = bundle.slots
    epochs = []
    # a layer, head or sweep leaving the finite range ends the run at its epoch
    try:
        for epoch in range(cfg["epochs"]):
            t0 = time.perf_counter()
            theta = thetas(cfg, net.widths, epoch)
            em = train_epoch(
                net, bundle.X_train, bundle.y_train, slots, theta,
                cfg["batch_size"], rng_data,
            )

            F = features_batch(net, bundle.X_train, slots, included)
            head = fit_head(
                F,
                bundle.y_train,
                bundle.num_classes,
                included,
                epochs=cfg["head.epochs"],
                batch_size=cfg["head.batch_size"],
                lr=cfg["head.lr"],
                rng=rng_head,
            )
            head_train_err = _error_rate(predict_head_features(head, F), bundle.y_train)
            del F  # not held through the test split, the finish phase and the baseline
            # the last epoch's train-split G feeds goodness_hist.csv: no forward after training
            train, G = score_split(net, None, included, bundle, bundle.X_train, bundle.y_train)
            test, _ = score_split(net, head, included, bundle, bundle.X_test, bundle.y_test)
            errs = {"head": (head_train_err, test["head"]),
                    "sweep": (train["sweep"], test["sweep"])}
            epochs.append(Epoch(em, errs, time.perf_counter() - t0, theta))
    except DivergenceError as e:
        e.epoch = epoch
        raise

    write_csv(
        os.path.join(out_dir, "metrics.csv"),
        ["epoch", "layer", "mean_loss", "mean_G_pos", "mean_G_neg", "theta",
         "train_err", "test_err", "seconds"],
        (
            [i, li, *map(_fmt, (r.metrics.mean_loss[li], r.metrics.mean_g_pos[li],
                                r.metrics.mean_g_neg[li], r.theta[li], *r.errs["head"])),
             f"{r.seconds:.3f}"]
            for i, r in enumerate(epochs)
            for li in range(len(net.layers))
        ),
    )
    write_csv(
        os.path.join(out_dir, "eval_modes.csv"),
        ["epoch", "head_train_err", "head_test_err", "sweep_train_err", "sweep_test_err"],
        ([i, *map(_fmt, r.errs["head"] + r.errs["sweep"])] for i, r in enumerate(epochs)),
    )
    result = RunResult(out_dir, _save_trained(out_dir, net, head, heatmap_layers=[0]), epochs)
    write_goodness_report(cfg, bundle, net, G, out_dir)

    if cfg["baseline.enabled"]:
        result.bp_checkpoint, result.bp_epochs = _run_baseline(cfg, bundle, out_dir)

    _write_report(cfg, out_dir, result, included)
    return result


def _save_trained(out_dir, net, head=None, heatmap_layers=()):
    """Checkpoint, weight statistics and heatmaps of a trained network under
    its kind's names (``analysis.artifact_names``); returns the checkpoint path."""
    path = os.path.join(out_dir, artifact_names(net)[0])
    save_network(path, net, head)
    write_weight_artifacts(out_dir, net, heatmap_layers)
    return path


def write_goodness_report(cfg, bundle, net, G, out_dir):
    """``goodness_hist.csv``: the goodness report at the last epoch's theta
    over ``G``, the train split's per-layer sweep goodness. Each row's
    negative label is drawn from its own seed stream, so a run and
    ``ff-lab analyze`` on its checkpoint write the same bytes."""
    rng = Rng(derive_seed(cfg["seed"], _STREAM_ANALYSIS))
    wrong = bundle.slots.wrong_labels(bundle.y_train, rng)
    report = goodness_report(G, bundle.y_train, wrong, thetas(cfg, net.widths, cfg["epochs"] - 1))
    write_goodness_csv(os.path.join(out_dir, "goodness_hist.csv"), report)
    return report


def _run_baseline(cfg, bundle, out_dir):
    """Matched-architecture backprop baseline on the label-neutral inputs,
    built here for both whole splits and freed when it returns. Returns
    its checkpoint path and its Epoch records."""
    X_tr = bundle.slots.neutral(bundle.X_train)
    X_te = bundle.slots.neutral(bundle.X_test)
    rng = Rng(derive_seed(cfg["seed"], _STREAM_BASELINE))
    net = BPNetwork(
        bundle.input_dim,
        cfg["arch"],
        bundle.num_classes,
        cfg["activation"],
        cfg["baseline.lr"],
        rng,
    )
    epochs = []
    try:
        for epoch in range(cfg["baseline.epochs"] or cfg["epochs"]):
            t0 = time.perf_counter()
            em = bp_train_epoch(net, X_tr, bundle.y_train, cfg["batch_size"], rng)
            errs = (_error_rate(bp_predict_batch(net, X_tr), bundle.y_train),
                    _error_rate(bp_predict_batch(net, X_te), bundle.y_test))
            epochs.append(Epoch(em, errs, time.perf_counter() - t0))
    except DivergenceError as e:
        e.epoch, e.layer = epoch, f"baseline {e.layer}"
        raise
    write_csv(
        os.path.join(out_dir, "bp_metrics.csv"),
        ["epoch", "mean_loss", "train_err", "test_err", "seconds"],
        ([i, *map(_fmt, (r.metrics.mean_loss, *r.errs)), f"{r.seconds:.3f}"]
         for i, r in enumerate(epochs)),
    )
    return _save_trained(out_dir, net), epochs


def _write_report(cfg, out_dir, result, included):
    lines = [
        f"dataset: {cfg['dataset']}",
        f"arch: {cfg['arch']}",
        f"threshold: k = {','.join(map(str, cfg['threshold.k']))}, ramp "
        f"{cfg['threshold.k_start']} -> {cfg['threshold.k_end']} over "
        f"{cfg['threshold.ramp_epochs']} epochs",
        f"layers scored at inference (0-based): {list(included)}",
    ]
    final, best = result.final_err, result.best_err
    for m in ROUTES:
        lines.append(f"final {m} error: train {final[m][0]:.4f}, test {final[m][1]:.4f}")
    for m in ROUTES:
        lines.append(f"best {m} test error: {best[m][0]:.4f} (epoch {best[m][1]})")
    if result.bp_epochs:
        tr, te = result.bp_epochs[-1].errs
        lines.append(
            f"baseline (lr={cfg['baseline.lr']}) final error: train {tr:.4f}, test {te:.4f}"
        )
    text = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, "final_report.txt"), "w", encoding="utf-8") as f:
        f.write(text)
    print(text, end="")


def run_sweep(cfg, key, raw_values):
    """One run per value of ``key``; returns rows for the summary table.

    Every value is checked, as ``parse_config`` checks ``threshold.k``,
    before the first run starts; a k listed twice (compared as parsed, so
    ``0.1`` and ``1e-1`` are one k) is a config error. The dataset bundle
    is built once, before the first run, and shared by every run:
    ``build_bundle`` reads no threshold key, so each run writes what a run
    of its own config alone writes.
    """
    if key not in ("threshold.k", "k"):
        raise UsageError(f"sweep supports threshold.k, got {key!r}")
    root = cfg["output_dir"]
    runs = []
    for raw in raw_values:
        sub = dict(cfg)
        sub["threshold.k"] = raw
        sub["output_dir"] = os.path.join(root, f"k_{raw}")
        sub_cfg = parse_config(None, sub)
        twin = next((r for r, c in runs if c["threshold.k"] == sub_cfg["threshold.k"]), None)
        if twin is not None:
            raise ConfigError(f"--sweep lists one k twice: {twin!r} and {raw!r}")
        runs.append((raw, sub_cfg))
    os.makedirs(root, exist_ok=True)
    bundle = build_bundle(cfg)
    rows = []
    for raw, sub_cfg in runs:
        result = run_experiment(sub_cfg, bundle)
        final, best = result.final_err, result.best_err
        row = [raw]
        for m in ROUTES:
            row += [_fmt(final[m][1]), _fmt(best[m][0]), best[m][1]]
        rows.append(row)
    write_csv(os.path.join(root, "sweep_summary.csv"), SWEEP_SUMMARY_HEADER, rows)
    return rows
