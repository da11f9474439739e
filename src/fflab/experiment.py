"""Experiment runner: datasets, training loops, per-epoch evaluation,
metrics CSVs, checkpoints, and analysis artifacts.

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

import csv
import os
import time
from dataclasses import dataclass

import numpy as np

from . import mnist_data, synthetic, text_data
from .bp_baseline import BPNetwork, bp_predict_batch, bp_train_epoch
from .checkpoint import save_network
from .config import parse_config, thetas
from .errors import DataError, DivergenceError, UsageError
from .ffnet import FFNetwork, LabelSlots, train_epoch
from .analysis import (
    export_heatmap,
    goodness_report,
    weight_stats,
    write_goodness_csv,
    write_weight_stats_csv,
)
from .inference import (
    default_included_layers,
    features_batch,
    fit_head,
    predict_head_batch,
    predict_head_features,
    predict_sweep_batch,
)
from .rng import Rng, derive_seed

# independent streams derived from the config seed
_STREAM_NET = 0
_STREAM_DATA = 1
_STREAM_HEAD = 2
_STREAM_BASELINE = 3
_STREAM_EMBED = 4
_STREAM_ANALYSIS = 5


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
    """Load and adapt the configured dataset."""
    name = cfg["dataset"]
    seed = cfg.seed
    if name == "synthetic":
        return _blob_bundle(cfg, seed)
    if name == "mnist":
        splits = mnist_data.load_mnist(
            cfg["data.mnist_dir"], cfg["data.train_subset"], cfg["data.test_subset"]
        )
        return DatasetBundle(mnist_data.LABEL_SLOTS, *splits)
    if name == "imdb":
        return _imdb_bundle(cfg)
    raise DataError(f"unknown dataset {name!r}")


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
    vocab = text_data.build_vocab(corpus_tr, min_count=cfg["sgns.min_count"])
    if len(vocab) == 0:
        raise DataError("IMDb vocabulary is empty at this min_count")

    cache = cfg["data.embedding_cache"]
    table = None
    if cache:
        params = {
            "dim": cfg["sgns.dim"],
            "window": cfg["sgns.window"],
            "neg_k": cfg["sgns.neg_k"],
            "epochs": cfg["sgns.epochs"],
            "min_count": cfg["sgns.min_count"],
            "lr": cfg["sgns.lr"],
            "seed": cfg.seed,
        }
        # the whole training corpus is hashed, so only for the cache
        fingerprint = text_data.corpus_fingerprint(corpus_tr, params)
        hit = text_data.load_cached_embeddings(cache, fingerprint)
        if hit is not None and hit[0] == vocab.tokens:
            table = hit[1]
    if table is None:
        rng = Rng(derive_seed(cfg.seed, _STREAM_EMBED))
        table = text_data.train_sgns(
            corpus_tr,
            vocab,
            dim=cfg["sgns.dim"],
            window=cfg["sgns.window"],
            neg_k=cfg["sgns.neg_k"],
            epochs=cfg["sgns.epochs"],
            rng=rng,
            lr0=cfg["sgns.lr"],
        )
        if cache:
            text_data.save_embeddings(cache, vocab, table, fingerprint)

    X_tr = np.stack([text_data.vectorize_review(t, vocab, table) for t in corpus_tr])
    X_te = np.stack([text_data.vectorize_review(t, vocab, table) for t in corpus_te])
    slots = text_data.label_slots(X_tr.shape[1])
    return DatasetBundle(slots, X_tr, y_tr, X_te, y_te)


def _error_rate(pred, truth):
    return float(np.mean(pred != truth))


@dataclass
class RunResult:
    out_dir: str
    final_err: dict            # mode -> (train_err, test_err)
    best_err: dict             # mode -> (test_err, epoch)
    checkpoint: str
    bp_checkpoint: str = ""
    bp_final_err: tuple = ()


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
        from .config import echo_config

        f.write(echo_config(cfg))

    if bundle is None:
        bundle = build_bundle(cfg)
    seed = cfg.seed
    rng_net = Rng(derive_seed(seed, _STREAM_NET))
    rng_data = Rng(derive_seed(seed, _STREAM_DATA) ^ 0x5EED)
    rng_head = Rng(derive_seed(seed, _STREAM_HEAD))

    net = FFNetwork(bundle.input_dim, cfg["arch"], cfg["activation"], cfg["lr"], rng_net)
    included = default_included_layers(
        len(net.layers), skip_first=cfg["inference.skip_first_layer"]
    )

    slots = bundle.slots
    mode = cfg["inference.mode"]
    metrics_rows = []
    mode_rows = []
    best = {"head": (np.inf, -1), "sweep": (np.inf, -1)}
    final = {}
    head = None
    G = None

    for epoch in range(cfg["epochs"]):
        t0 = time.perf_counter()
        theta = thetas(cfg, net.widths, epoch)
        em = train_epoch(
            net, bundle.X_train, bundle.y_train, slots, theta, epoch,
            cfg["batch_size"], rng_data,
        )

        F = features_batch(net, bundle.X_train, slots, included)
        # a head whose weights or logits leave the finite range ends the run
        try:
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
            # not held through the test split's features, the sweeps, the
            # finish phase and the baseline
            del F
            head_test_err = _error_rate(
                predict_head_batch(net, head, bundle.X_test, slots), bundle.y_test
            )
        except DivergenceError as e:
            e.epoch, e.layer = epoch, "head"
            raise
        errs = {"head": (head_train_err, head_test_err)}
        # the last train-split sweep also keeps every layer's goodness for
        # goodness_hist.csv, so the finish phase forwards nothing
        if epoch == cfg["epochs"] - 1:
            G = np.empty((len(bundle.y_train), bundle.num_classes, len(net.layers)))
        try:
            errs["sweep"] = (
                _error_rate(
                    predict_sweep_batch(
                        net, bundle.X_train, bundle.num_classes, slots, included,
                        layer_goodness=G,
                    ),
                    bundle.y_train,
                ),
                _error_rate(
                    predict_sweep_batch(
                        net, bundle.X_test, bundle.num_classes, slots, included
                    ),
                    bundle.y_test,
                ),
            )
        except DivergenceError as e:
            e.epoch = epoch
            raise
        seconds = time.perf_counter() - t0

        for m in ("head", "sweep"):
            if errs[m][1] < best[m][0]:
                best[m] = (errs[m][1], epoch)
        final = errs

        for li in range(len(net.layers)):
            metrics_rows.append(
                [
                    epoch,
                    li,
                    _fmt(em.mean_loss[li]),
                    _fmt(em.mean_g_pos[li]),
                    _fmt(em.mean_g_neg[li]),
                    _fmt(theta[li]),
                    _fmt(errs[mode][0]),
                    _fmt(errs[mode][1]),
                    f"{seconds:.3f}",
                ]
            )
        mode_rows.append(
            [
                epoch,
                _fmt(errs["head"][0]),
                _fmt(errs["head"][1]),
                _fmt(errs["sweep"][0]),
                _fmt(errs["sweep"][1]),
            ]
        )

    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            [
                "epoch",
                "layer",
                "mean_loss",
                "mean_G_pos",
                "mean_G_neg",
                "theta",
                "train_err",
                "test_err",
                "seconds",
            ]
        )
        w.writerows(metrics_rows)
    with open(os.path.join(out_dir, "eval_modes.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            ["epoch", "head_train_err", "head_test_err", "sweep_train_err", "sweep_test_err"]
        )
        w.writerows(mode_rows)

    ckpt = os.path.join(out_dir, "checkpoint.ffn1")
    save_network(ckpt, net, head)

    write_weight_stats_csv(os.path.join(out_dir, "weight_stats.csv"), weight_stats(net))
    export_heatmap(net.layers[0].W, os.path.join(out_dir, "layer0_weights.pgm"))
    write_goodness_report(cfg, bundle, net, G, out_dir)

    result = RunResult(
        out_dir=out_dir,
        final_err=final,
        best_err={m: best[m] for m in best},
        checkpoint=ckpt,
    )

    if cfg["baseline.enabled"]:
        result.bp_checkpoint, result.bp_final_err = _run_baseline(cfg, bundle, out_dir)

    _write_report(cfg, out_dir, result, included)
    return result


def write_goodness_report(cfg, bundle, net, G, out_dir):
    """``goodness_hist.csv``: the goodness report at the last epoch's theta
    over ``G``, the train split's per-layer sweep goodness. Each row's
    negative label is drawn from its own seed stream, so a run and
    ``ff-lab analyze`` on its checkpoint write the same bytes."""
    rng = Rng(derive_seed(cfg.seed, _STREAM_ANALYSIS))
    wrong = bundle.slots.wrong_labels(bundle.y_train, rng)
    report = goodness_report(G, bundle.y_train, wrong, thetas(cfg, net.widths, cfg["epochs"] - 1))
    write_goodness_csv(os.path.join(out_dir, "goodness_hist.csv"), report)
    return report


def _run_baseline(cfg, bundle, out_dir):
    """Matched-architecture backprop baseline on the label-neutral inputs,
    built here for both whole splits and freed when it returns."""
    X_tr = bundle.slots.neutral(bundle.X_train)
    X_te = bundle.slots.neutral(bundle.X_test)
    rng = Rng(derive_seed(cfg.seed, _STREAM_BASELINE))
    net = BPNetwork(
        bundle.input_dim,
        cfg["arch"],
        bundle.num_classes,
        cfg["activation"],
        cfg["baseline.lr"],
        rng,
    )
    epochs = cfg["baseline.epochs"] or cfg["epochs"]
    rows = []
    final = ()
    for epoch in range(epochs):
        t0 = time.perf_counter()
        try:
            em = bp_train_epoch(net, X_tr, bundle.y_train, cfg["batch_size"], rng)
        except DivergenceError as e:
            e.epoch = epoch
            raise
        tr = _error_rate(bp_predict_batch(net, X_tr), bundle.y_train)
        te = _error_rate(bp_predict_batch(net, X_te), bundle.y_test)
        rows.append([epoch, _fmt(em.mean_loss), _fmt(tr), _fmt(te),
                     f"{time.perf_counter() - t0:.3f}"])
        final = (tr, te)
    with open(os.path.join(out_dir, "bp_metrics.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "mean_loss", "train_err", "test_err", "seconds"])
        w.writerows(rows)
    ckpt = os.path.join(out_dir, "checkpoint.bpn1")
    save_network(ckpt, net)
    write_weight_stats_csv(os.path.join(out_dir, "bp_weight_stats.csv"), weight_stats(net))
    return ckpt, final


def _write_report(cfg, out_dir, result, included):
    lines = [
        f"dataset: {cfg['dataset']}",
        f"arch: {cfg['arch']}",
        f"threshold: k = {','.join(map(str, cfg['threshold.k']))}, ramp "
        f"{cfg['threshold.k_start']} -> {cfg['threshold.k_end']} over "
        f"{cfg['threshold.ramp_epochs']} epochs",
        f"inference mode for metrics.csv: {cfg['inference.mode']}",
        f"layers scored at inference (0-based): {list(included)}",
        f"final head error: train {result.final_err['head'][0]:.4f}, "
        f"test {result.final_err['head'][1]:.4f}",
        f"final sweep error: train {result.final_err['sweep'][0]:.4f}, "
        f"test {result.final_err['sweep'][1]:.4f}",
        f"best head test error: {result.best_err['head'][0]:.4f} "
        f"(epoch {result.best_err['head'][1]})",
        f"best sweep test error: {result.best_err['sweep'][0]:.4f} "
        f"(epoch {result.best_err['sweep'][1]})",
    ]
    if result.bp_final_err:
        lines.append(
            f"baseline (lr={cfg['baseline.lr']}) final error: "
            f"train {result.bp_final_err[0]:.4f}, test {result.bp_final_err[1]:.4f}"
        )
    text = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, "final_report.txt"), "w", encoding="utf-8") as f:
        f.write(text)
    print(text, end="")


def run_sweep(cfg, key, raw_values):
    """One run per value of ``key``; returns rows for the summary table.

    Every value is checked, as ``parse_config`` checks ``threshold.k``,
    before the first run starts. The dataset bundle is built once, before
    the first run, and shared by every run: ``build_bundle`` reads no
    threshold key, so each run writes what a run of its own config alone
    writes.
    """
    if key not in ("threshold.k", "k"):
        raise UsageError(f"sweep supports threshold.k, got {key!r}")
    root = cfg["output_dir"]
    runs = []
    for raw in raw_values:
        sub = dict(cfg.values)
        sub["threshold.k"] = raw
        sub["output_dir"] = os.path.join(root, f"k_{raw}")
        runs.append((raw, parse_config(None, sub)))
    os.makedirs(root, exist_ok=True)
    bundle = build_bundle(cfg)
    rows = []
    for raw, sub_cfg in runs:
        result = run_experiment(sub_cfg, bundle)
        mode = cfg["inference.mode"]
        rows.append(
            [
                raw,
                _fmt(result.final_err[mode][1]),
                _fmt(result.best_err[mode][0]),
                result.best_err[mode][1],
            ]
        )
    with open(os.path.join(root, "sweep_summary.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["k", "final_test_err", "best_test_err", "best_epoch"])
        w.writerows(rows)
    return rows
