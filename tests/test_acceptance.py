"""Criterion-level gates, one test per criterion, one summary line each.

Criteria needing MNIST/IMDb files skip with instructions when the data
directories are absent (see conftest). Everything else runs everywhere.
"""

import csv
import os
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from fflab.activations import ACTIVATIONS
from fflab.analysis import export_heatmap, label_pixel_spike, weight_stats
from fflab.bp_baseline import BPNetwork, bp_predict_batch, bp_train_epoch, softmax
from fflab.checkpoint import load_network, network_bytes, save_network
from fflab.config import parse_config
from fflab.experiment import build_bundle, run_experiment
from fflab.ffnet import FFLayer, FFNetwork, LabelSlots, train_epoch
from fflab.inference import (
    ClassifierHead,
    default_included_layers,
    features_batch,
    predict_head_batch,
    predict_sweep_batch,
    sweep_scores_batch,
)
from fflab.mnist_data import LABEL_SLOTS, parse_idx_images, parse_idx_labels
from fflab.rng import Rng, derive_seed
from fflab.synthetic import label_slots

from conftest import IMDB_DIR, MNIST_DIR, requires_imdb, requires_mnist
from oracles import (
    bp_loss, central_diff_grad, frozen_head, loop_layer_loss, read_pgm, rel_err,
    sgns_pair_grads,
)


# ---------------------------------------------------------------------------
# criterion 1: every closed-form gradient matches central finite differences


@pytest.mark.acceptance("C1 gradient oracle suite (rel err < 1e-4, < 1 min)")
def test_c1_gradient_oracles():
    t0 = time.perf_counter()
    h = 1e-5

    # layer gradients: all 5 activations x both polarities x 20 random configs
    for act_name in sorted(ACTIVATIONS):
        act = ACTIVATIONS[act_name]
        for polarity in (1.0, -1.0):
            checked = 0
            attempt = 0
            case_id = act.tag * 211 + (3 if polarity > 0 else 7)
            while checked < 20:
                attempt += 1
                rng = Rng(derive_seed(case_id, attempt))
                layer = FFLayer(6, 4, act_name, 0.01, rng)
                x = rng.uniform_array(6) * 4.0 - 2.0
                theta = 0.2 + rng.uniform() * 4.0
                Xhat, Z, A = layer.forward_batch(x[None, :])
                if np.min(np.abs(Z)) < 5e-3:
                    continue  # keep clear of relu-family kinks
                # stay in the healthy-gradient regime: a saturated loss
                # pushes true gradients below the finite-difference
                # cancellation noise floor
                from fflab.activations import stable_sigmoid
                from fflab.ffnet import goodness

                gate = stable_sigmoid(float(polarity) * (theta - goodness(A[0])))
                if not 0.1 < gate < 0.9:
                    continue
                checked += 1
                signs = np.array([float(polarity)])
                dW, db, _, _ = layer.grads_batch(Xhat, Z, A, signs, theta)
                W0, b0 = layer.W.copy(), layer.b.copy()
                sign = float(polarity)
                fd_W = central_diff_grad(
                    lambda W: loop_layer_loss(W, b0, x, act.fn, sign, theta), W0, h
                )
                fd_b = central_diff_grad(
                    lambda b: loop_layer_loss(W0, b, x, act.fn, sign, theta), b0, h
                )
                assert rel_err(dW, fd_W) < 1e-4, (act_name, polarity)
                assert rel_err(db, fd_b) < 1e-4, (act_name, polarity)

    # classifier-head gradients
    rng = Rng(901)
    net = FFNetwork(12, [8, 8], "relu", 0.01, rng)
    Xn = rng.uniform_array(16 * 12).reshape(16, 12)
    yb = np.array([int(rng.randint(3)) for _ in range(16)])
    W0 = (rng.uniform_array(3 * 16).reshape(3, 16) - 0.5) * 0.4
    b0 = rng.uniform_array(3) - 0.5
    # the first three columns are label slots, zeroed as the head sees them
    F = features_batch(net, Xn, LabelSlots(3, 0, True), (0, 1))

    def head_ce(W, b):
        P = softmax(F @ W.T + b)
        return float(-np.mean(np.log(P[np.arange(16), yb] + 1e-300)))

    P = softmax(F @ W0.T + b0)
    dlogits = P.copy()
    dlogits[np.arange(16), yb] -= 1.0
    dlogits /= 16
    assert rel_err(dlogits.T @ F, central_diff_grad(lambda W: head_ce(W, b0), W0.copy(), h)) < 1e-4
    assert rel_err(dlogits.sum(0), central_diff_grad(lambda b: head_ce(W0, b), b0.copy(), h)) < 1e-4

    # skip-gram pair gradients
    vc = rng.uniform_array(10) - 0.5
    vo = rng.uniform_array(10) - 0.5
    vn = rng.uniform_array(40).reshape(4, 10) - 0.5
    d_c, d_o, d_n, _ = sgns_pair_grads(vc, vo, vn)
    assert rel_err(d_c, central_diff_grad(lambda v: sgns_pair_grads(v, vo, vn)[3], vc.copy(), h)) < 1e-4
    assert rel_err(d_o, central_diff_grad(lambda v: sgns_pair_grads(vc, v, vn)[3], vo.copy(), h)) < 1e-4
    assert rel_err(d_n, central_diff_grad(lambda v: sgns_pair_grads(vc, vo, v)[3], vn.copy(), h)) < 1e-4

    # backprop baseline gradients on a 6-4-3 toy
    bp = BPNetwork(6, [4], 3, "tanh", 1e-3, Rng(902))
    Xb = Rng(903).uniform_array(10 * 6).reshape(10, 6) * 2 - 1
    yb = np.array([int(Rng(904 + i).randint(3)) for i in range(10)])
    stages = bp.forward_batch(Xb)
    P = softmax(stages[-1][1])
    dlogits = P.copy()
    dlogits[np.arange(10), yb] -= 1.0
    dlogits /= 10
    analytic = {
        "out_W": (bp.layers[-1].W, dlogits.T @ stages[-2][1]),
        "out_b": (bp.layers[-1].b, dlogits.sum(0)),
    }
    delta = (dlogits @ bp.layers[-1].W) * bp.layers[0].act.deriv(stages[0][0])
    analytic["h_W"] = (bp.layers[0].W, delta.T @ Xb)
    analytic["h_b"] = (bp.layers[0].b, delta.sum(0))
    for name, (param, grad) in analytic.items():
        saved = param.copy()

        def loss_at(value, param=param):
            param[...] = value
            return bp_loss(bp, Xb, yb)

        fd = central_diff_grad(loss_at, saved.copy(), h)
        param[...] = saved
        assert rel_err(grad, fd) < 1e-4, name

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: scale invariance


@pytest.mark.acceptance("C2 scale-invariance suite (1e-12)")
def test_c2_scale_invariance():
    for act_name in sorted(ACTIVATIONS):
        rng = Rng(905)
        layer = FFLayer(10, 7, act_name, 0.01, rng)
        x = rng.uniform_array(10) + 0.05
        _, z_ref, a_ref = layer.forward_batch(x[None, :])
        for c in (1e-3, 1.0, 1e3):
            _, z, a = layer.forward_batch(c * x[None, :])
            np.testing.assert_allclose(z, z_ref, atol=1e-12, rtol=0)
            np.testing.assert_allclose(a, a_ref, atol=1e-12, rtol=0)

    # label-sweep argmax invariant under positive rescaling of goodness
    rng = Rng(906)
    net = FFNetwork(6 + 4, [12, 12], "relu", 0.01, rng)
    X_raw = rng.uniform_array(40 * 4).reshape(40, 4)
    scores = sweep_scores_batch(net, X_raw, 6, label_slots(6))
    base = scores.argmax(axis=1)
    for lam in (1e-6, 0.5, 3.0, 1e9):
        np.testing.assert_array_equal((lam * scores).argmax(axis=1), base)


# ---------------------------------------------------------------------------
# desk-scale MNIST helpers (criteria 3, 4, 6)

DESK_ARCH = [500, 500]
DESK_EPOCHS = 15
DESK_BATCH = 128
DESK_LR = 0.01
DESK_SEEDS = (20260801, 20260802, 20260803)

_mnist_bundle_cache = {}
_ff_run_cache = {}
_bp_run_cache = {}


def mnist_bundle():
    if "b" not in _mnist_bundle_cache:
        cfg = parse_config(
            None,
            {"seed": "1", "dataset": "mnist", "data.mnist_dir": MNIST_DIR},
        )
        _mnist_bundle_cache["b"] = build_bundle(cfg)
    return _mnist_bundle_cache["b"]


def desk_ff_run(ks, seed):
    """Train the desk-scale configuration once per (per-layer k, seed)."""
    key = (ks, seed)
    if key in _ff_run_cache:
        return _ff_run_cache[key]
    bundle = mnist_bundle()
    net = FFNetwork(bundle.input_dim, DESK_ARCH, "relu", DESK_LR, Rng(derive_seed(seed, 0)))
    rng = Rng(derive_seed(seed, 1))
    thetas = [k * w for k, w in zip(ks, DESK_ARCH)]
    for _ in range(DESK_EPOCHS):
        train_epoch(
            net, bundle.X_train, bundle.y_train, bundle.slots, thetas, DESK_BATCH, rng
        )
    head = frozen_head(
        net,
        bundle.X_train,
        bundle.slots,
        bundle.y_train,
        bundle.num_classes,
        rng=Rng(derive_seed(seed, 2)),
    )
    err = float(
        np.mean(
            predict_head_batch(net, head, bundle.X_test, bundle.slots)
            != bundle.y_test
        )
    )
    _ff_run_cache[key] = (net, err)
    return _ff_run_cache[key]


def desk_bp_run(seed):
    if seed in _bp_run_cache:
        return _bp_run_cache[seed]
    bundle = mnist_bundle()
    net = BPNetwork(
        bundle.input_dim, DESK_ARCH, bundle.num_classes, "relu", 1e-3,
        Rng(derive_seed(seed, 3)),
    )
    X = bundle.slots.neutral(bundle.X_train)
    rng = Rng(derive_seed(seed, 4))
    for _ in range(DESK_EPOCHS):
        bp_train_epoch(net, X, bundle.y_train, DESK_BATCH, rng)
    err = float(
        np.mean(
            bp_predict_batch(net, bundle.slots.neutral(bundle.X_test)) != bundle.y_test
        )
    )
    _bp_run_cache[seed] = (net, err)
    return _bp_run_cache[seed]


@pytest.mark.acceptance("C3 desk-scale MNIST head error <= 8%")
@pytest.mark.mnist
@pytest.mark.slow
@requires_mnist
def test_c3_desk_mnist():
    """[500,500], k=0.5, 15 epochs, 10k-image subset, full 10k test set.

    The full-data recipe (1.3-1.6% band) runs behind ``ff-lab train
    --dataset mnist --full`` and is documented in the README; this desk
    gate is the automated bound.
    """
    t0 = time.perf_counter()
    _, err = desk_ff_run((0.5, 0.5), DESK_SEEDS[0])
    elapsed = time.perf_counter() - t0
    assert err <= 0.08, f"desk head error {err:.4f}"
    assert elapsed < 600.0, f"desk run took {elapsed:.0f}s"


@pytest.mark.acceptance("C4 increasing per-layer thresholds beat decreasing")
@pytest.mark.mnist
@pytest.mark.slow
@requires_mnist
def test_c4_threshold_ordering():
    """Direction only: pyramidal-increasing < pyramidal-decreasing, and
    k=0.5 <= the k=1 baseline, mean over three seeds at the desk budget."""
    per_layer_k = {
        "pyr_inc": (0.3, 0.5),
        "pyr_dec": (0.5, 0.3),
        "k0.5": (0.5, 0.5),
        "k1": (1.0, 1.0),
    }
    means = {}
    for name, ks in per_layer_k.items():
        errs = [desk_ff_run(ks, s)[1] for s in DESK_SEEDS]
        means[name] = float(np.mean(errs))
    assert means["pyr_inc"] < means["pyr_dec"], means
    assert means["k0.5"] <= means["k1"], means


@pytest.mark.acceptance("C5 bounded activation fails at theta = 2x width")
@pytest.mark.slow
def test_c5_bounded_activation_failure():
    """sigmoid cannot push goodness past width < theta, so it never
    separates; relu under the identical budget trains through. Pinned
    config from the pre-test oracle run: [100,100], k=2, 80 epochs."""
    cfg = parse_config(None, {"seed": "7", "dataset": "synthetic"})
    bundle = build_bundle(cfg)
    chance = 1.0 / bundle.num_classes
    accs = {}
    for act in ("relu", "sigmoid"):
        net = FFNetwork(bundle.input_dim, [100, 100], act, 0.01, Rng(1))
        rng = Rng(2)
        for _ in range(80):
            train_epoch(
                net, bundle.X_train, bundle.y_train, bundle.slots, [2.0 * 100] * 2, 128, rng
            )
        pred = predict_sweep_batch(
            net, bundle.X_test, bundle.num_classes, bundle.slots
        )
        accs[act] = float(np.mean(pred == bundle.y_test))
    assert accs["sigmoid"] <= chance + 0.15, accs
    assert accs["relu"] > 0.95, accs


@pytest.mark.acceptance("C6 weight-range factor >= 3 and label-pixel spike")
@pytest.mark.mnist
@pytest.mark.slow
@requires_mnist
def test_c6_weight_range_and_spike():
    ff_ranges, bp_ranges = [], []
    for seed in DESK_SEEDS:
        ff_net, _ = desk_ff_run((0.5, 0.5), seed)
        bp_net, _ = desk_bp_run(seed)
        ff_s = weight_stats(ff_net)[0]
        bp_s = weight_stats(bp_net)[0]
        ff_ranges.append(ff_s["max"] - ff_s["min"])
        bp_ranges.append(bp_s["max"] - bp_s["min"])
    factor = float(np.mean(ff_ranges) / np.mean(bp_ranges))
    assert factor >= 3.0, (ff_ranges, bp_ranges)

    # first-layer weights spike on the ten label pixels
    ff_net, _ = desk_ff_run((0.5, 0.5), DESK_SEEDS[0])
    spike, rest = label_pixel_spike(ff_net.layers[0].W, LABEL_SLOTS)
    assert spike > rest, (spike, rest)


@pytest.mark.acceptance("C7 IMDb desk accuracy >= 80%")
@pytest.mark.imdb
@pytest.mark.slow
@requires_imdb
def test_c7_imdb_desk():
    """5k-review subset, d=100 embeddings, [500,500], 6 epochs.

    The full-data gate (>= 84%) runs behind ``--full``."""
    t0 = time.perf_counter()
    cfg = parse_config(
        None,
        {
            "seed": "20260804",
            "dataset": "imdb",
            "data.imdb_dir": IMDB_DIR,
            "arch": "500,500",
            "epochs": "6",
            "threshold.k": "0.5",
        },
    )
    bundle = build_bundle(cfg)
    net = FFNetwork(bundle.input_dim, [500, 500], "relu", 0.01, Rng(derive_seed(cfg["seed"], 0)))
    rng = Rng(derive_seed(cfg["seed"], 1))
    for _ in range(6):
        train_epoch(
            net, bundle.X_train, bundle.y_train, bundle.slots, [0.5 * 500] * 2, 128, rng
        )
    head = frozen_head(
        net,
        bundle.X_train,
        bundle.slots,
        bundle.y_train,
        bundle.num_classes,
        rng=Rng(derive_seed(cfg["seed"], 2)),
    )
    acc = float(
        np.mean(
            predict_head_batch(net, head, bundle.X_test, bundle.slots)
            == bundle.y_test
        )
    )
    elapsed = time.perf_counter() - t0
    assert acc >= 0.80, f"IMDb desk accuracy {acc:.4f}"
    assert elapsed < 900.0, f"IMDb desk run took {elapsed:.0f}s"


@pytest.mark.acceptance("C8 determinism: same config+seed, same bytes")
def test_c8_determinism(tmp_path):
    """Checkpoints and every metrics artifact byte-identical across
    reruns; the wall-clock seconds column of metrics.csv is masked (a
    physically non-deterministic field; see README)."""
    overrides = {
        "seed": "11",
        "dataset": "synthetic",
        "arch": "16,16",
        "epochs": "2",
        "batch_size": "32",
        "threshold.k": "0.3",
        "synthetic.train_per_class": "30",
        "synthetic.test_per_class": "10",
        "head.epochs": "2",
        "baseline.enabled": "true",
        "baseline.epochs": "1",
    }
    import shutil

    out = tmp_path / "run"
    cfg = parse_config(None, dict(overrides, output_dir=str(out)))
    r1 = run_experiment(cfg)
    held = tmp_path / "first"
    shutil.copytree(out, held)
    r1_out = str(held)
    cfg = parse_config(None, dict(overrides, output_dir=str(out)))
    r2 = run_experiment(cfg)

    class _Run:
        pass

    first = _Run()
    first.out_dir = r1_out
    first.checkpoint = os.path.join(r1_out, "checkpoint.ffn1")
    first.bp_checkpoint = os.path.join(r1_out, "checkpoint.bpn1")
    r1 = first

    def rows_no_seconds(path):
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        i = rows[0].index("seconds")
        return [r[:i] + r[i + 1 :] for r in rows]
    assert rows_no_seconds(os.path.join(r1.out_dir, "metrics.csv")) == rows_no_seconds(
        os.path.join(r2.out_dir, "metrics.csv")
    )
    assert rows_no_seconds(os.path.join(r1.out_dir, "bp_metrics.csv")) == rows_no_seconds(
        os.path.join(r2.out_dir, "bp_metrics.csv")
    )
    for name in ("eval_modes.csv", "goodness_hist.csv", "weight_stats.csv",
                 "bp_weight_stats.csv", "config_echo.txt"):
        a = Path(r1.out_dir, name).read_bytes()
        b = Path(r2.out_dir, name).read_bytes()
        assert a == b, name
    assert Path(r1.checkpoint).read_bytes() == Path(r2.checkpoint).read_bytes()
    assert Path(r1.bp_checkpoint).read_bytes() == Path(r2.bp_checkpoint).read_bytes()


@pytest.mark.acceptance("C9 format round-trips bit-exact")
def test_c9_format_roundtrips(tmp_path):
    # IDX: hand-built fixture parses to exactly payload/255
    img = bytes((i * 13 + 5) % 256 for i in range(784))
    idx = struct.pack(">IIII", 0x00000803, 1, 28, 28) + img
    X = parse_idx_images(idx)
    np.testing.assert_array_equal(
        X[0], np.frombuffer(img, dtype=np.uint8).astype(np.float64) / 255.0
    )
    labels = struct.pack(">II", 0x00000801, 3) + bytes([3, 1, 4])
    np.testing.assert_array_equal(parse_idx_labels(labels), [3, 1, 4])

    # FFN1 with trailing head section: save -> load -> save, byte equal
    rng = Rng(907)
    net = FFNetwork(14, [9, 5], "leaky_relu", 0.01, rng)
    head = ClassifierHead(
        W=rng.uniform_array(3 * 5).reshape(3, 5),
        b=rng.uniform_array(3),
        included_layers=(1,),
    )
    p1 = tmp_path / "net.ffn1"
    save_network(p1, net, head)
    loaded_net, loaded_head = load_network(p1)
    assert network_bytes(loaded_net, loaded_head) == p1.read_bytes()

    # PGM heatmap: byte-exact decode, affine inversion within one step
    W = Rng(908).uniform_array(24 * 10).reshape(24, 10) * 8 - 4
    p2 = tmp_path / "w.pgm"
    export_heatmap(W, p2)
    img2 = read_pgm(p2)
    lo, hi = W.min(), W.max()
    expected = np.clip(np.rint((W - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)
    np.testing.assert_array_equal(img2, expected)
    recovered = img2.astype(np.float64) / 255.0 * (hi - lo) + lo
    assert np.max(np.abs(recovered - W)) <= (hi - lo) / 255.0
