"""Full-pipeline runs on generated fixture datasets.

These exercise the exact mnist/imdb code paths (IDX files on disk, the
aclImdb directory layout, caching, checkpoints, reports) on miniature
data built in tmp dirs, so they run everywhere. The real-data desk-scale
bounds live in test_acceptance and stay gated on the actual datasets.
"""

import gzip
import os
import shutil
import struct

import numpy as np
import pytest

from fflab.analysis import label_pixel_spike, weight_stats
from fflab.checkpoint import load_network
from fflab.cli import main
from fflab.config import parse_config
from fflab.experiment import build_bundle, run_experiment
from fflab.inference import predict_head_batch
from fflab.ffnet import FFNetwork
from fflab.rng import Rng
from fflab import mnist_data, text_data

from conftest import MNIST_DIR, requires_mnist
from oracles import frozen_head


def write_idx_dir(root, bright=12, noise=10.0, n_train=600, n_test=200, seed=42):
    """Sparse synthetic class patterns in real IDX containers (one gzipped)."""
    rng = Rng(seed)
    means = np.zeros((10, 784))
    for c in range(10):
        idx = [10 + int(rng.randint(774)) for _ in range(bright)]
        means[c, idx] = 255.0

    def mk(n):
        labels = np.array([int(rng.randint(10)) for _ in range(n)])
        X = np.clip(
            means[labels] + rng.normal_array(n * 784).reshape(n, 784) * noise, 0, 255
        ).astype(np.uint8)
        return X, labels

    os.makedirs(root, exist_ok=True)
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        imgs, labels = mk(n)
        img_payload = struct.pack(">IIII", 0x00000803, n, 28, 28) + imgs.tobytes()
        lbl_payload = struct.pack(">II", 0x00000801, n) + bytes(int(v) for v in labels)
        with open(os.path.join(root, f"{prefix}-images-idx3-ubyte"), "wb") as f:
            f.write(img_payload)
        with gzip.open(os.path.join(root, f"{prefix}-labels-idx1-ubyte.gz"), "wb") as f:
            f.write(lbl_payload)


def write_imdb_tree(root, n_per=30, seed=9):
    """Miniature aclImdb layout with sentiment-clique vocabulary."""
    rng = Rng(seed)
    good = ["wonderful", "brilliant", "superb", "delightful", "masterpiece", "excellent"]
    bad = ["awful", "dreadful", "tedious", "horrible", "disaster", "boring"]
    filler = ["film", "story", "actor", "scene", "plot", "director", "camera", "script"]
    for split in ("train", "test"):
        for name, words in (("pos", good), ("neg", bad)):
            d = os.path.join(root, split, name)
            os.makedirs(d)
            for i in range(n_per):
                toks = []
                for _ in range(30):
                    pick = words if rng.uniform() < 0.5 else filler
                    toks.append(pick[int(rng.randint(len(pick)))])
                with open(os.path.join(d, f"{i:04d}_{int(rng.randint(10))}.txt"), "w") as f:
                    f.write("<br />" + " ".join(toks) + "!")


MNIST_FIXTURE_CFG = {
    "seed": "3",
    "dataset": "mnist",
    "arch": "64,64",
    "epochs": "15",
    "threshold.k": "0.1",
    "head.epochs": "30",
    "head.lr": "0.01",
    "baseline.enabled": "true",
    "baseline.epochs": "10",
}


@pytest.fixture(scope="module")
def mnist_fixture_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    write_idx_dir(root)
    cfg = parse_config(
        None,
        dict(
            MNIST_FIXTURE_CFG,
            **{"data.mnist_dir": str(root), "output_dir": str(root / "run")},
        ),
    )
    return cfg, run_experiment(cfg)


@pytest.fixture(scope="module")
def imdb_fixture_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("imdb")
    write_imdb_tree(root)
    cfg = parse_config(
        None,
        {
            "seed": "4",
            "dataset": "imdb",
            "data.imdb_dir": str(root),
            "arch": "16,16",
            "epochs": "8",
            "threshold.k": "0.1",
            "head.epochs": "30",
            "head.lr": "0.01",
            "sgns.dim": "16",
            "sgns.window": "3",
            "sgns.min_count": "1",
            "sgns.epochs": "3",
            "data.embedding_cache": str(root / "emb.txt"),
            "output_dir": str(root / "run"),
        },
    )
    return cfg, run_experiment(cfg)


class TestMnistPipeline:
    @pytest.fixture
    def run(self, mnist_fixture_run):
        return mnist_fixture_run

    def test_learns_the_fixture_task(self, run):
        _, result = run
        assert result.final_err["head"][1] <= 0.1

    def test_weight_range_direction(self, run):
        """Local-goodness training spreads first-layer weights wider than
        backprop at a matched budget (the full-scale bound is the gated
        acceptance criterion)."""
        _, result = run
        ff, _ = load_network(result.checkpoint)
        bp, _ = load_network(result.bp_checkpoint)
        ff_s, bp_s = weight_stats(ff)[0], weight_stats(bp)[0]
        assert (ff_s["max"] - ff_s["min"]) > 2.0 * (bp_s["max"] - bp_s["min"])

    def test_label_pixel_spike_direction(self, run):
        _, result = run
        ff, _ = load_network(result.checkpoint)
        spike, rest = label_pixel_spike(ff.layers[0].W, mnist_data.LABEL_SLOTS)
        assert spike > 2.0 * rest

    def test_eval_cli_on_checkpoint(self, run, capsys):
        cfg, result = run
        args = ["eval", "--checkpoint", result.checkpoint, "--mode", "head"]
        for k, v in cfg.items():
            if v is None or isinstance(v, list):
                continue
            args += ["--set", f"{k}={v}"]
        args += ["--arch", "64,64"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "head test error" in out

    def test_loading_is_deterministic(self, run):
        cfg, _ = run
        b1 = build_bundle(cfg)
        b2 = build_bundle(cfg)
        np.testing.assert_array_equal(b1.X_train, b2.X_train)
        np.testing.assert_array_equal(b1.y_test, b2.y_test)


class TestImdbPipeline:
    @pytest.fixture
    def run(self, imdb_fixture_run):
        return imdb_fixture_run

    def test_learns_the_sentiment_cliques(self, run):
        _, result = run
        assert result.final_err["head"][1] <= 0.1

    def test_embedding_cache_written_and_reused(self, run, tmp_path):
        cfg, result = run
        cache = cfg["data.embedding_cache"]
        assert os.path.exists(cache) and os.path.exists(cache + ".meta.json")
        rerun_cfg = parse_config(
            None,
            {k: str(v) if not isinstance(v, list) else ",".join(map(str, v))
             for k, v in cfg.items() if v is not None}
            | {"output_dir": str(tmp_path / "rerun")},
        )
        result2 = run_experiment(rerun_cfg)
        with open(result.checkpoint, "rb") as f1, open(result2.checkpoint, "rb") as f2:
            assert f1.read() == f2.read()

    def test_corrupt_embedding_cache_exits_two(self, run, tmp_path, capsys):
        """A cache whose fingerprint matches but whose rows are cut short is
        a located data error, not a traceback."""
        cfg, _ = run
        cache = tmp_path / "emb.txt"
        with open(cfg["data.embedding_cache"], encoding="utf-8") as f:
            lines = f.readlines()
        cache.write_text("".join(lines[:3]), encoding="utf-8")
        shutil.copy(cfg["data.embedding_cache"] + ".meta.json", str(cache) + ".meta.json")
        args = ["train"]
        for k, v in cfg.items():
            if v is None or isinstance(v, list):
                continue
            args += ["--set", f"{k}={v}"]
        args += ["--set", f"data.embedding_cache={cache}",
                 "--set", f"output_dir={tmp_path / 'run'}", "--arch", "16,16"]
        assert main(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("data error: embedding cache") and "line 4:" in err[0]

    def test_input_dim_is_embedding_plus_onehot(self, run):
        cfg, _ = run
        bundle = build_bundle(cfg)
        assert bundle.input_dim == 16 + 2
        assert bundle.X_train.shape[1] == 16

    def test_both_routes_emit_valid_sentiment_labels(self, run):
        from fflab.inference import predict_sweep_batch

        cfg, result = run
        bundle = build_bundle(cfg)
        net, head = load_network(result.checkpoint)
        head_pred = predict_head_batch(net, head, bundle.X_test, bundle.slots)
        sweep_pred = predict_sweep_batch(
            net, bundle.X_test, 2, bundle.slots, head.included_layers
        )
        assert set(np.unique(head_pred)) <= {0, 1}
        assert set(np.unique(sweep_pred)) <= {0, 1}

    def test_uncached_run_does_not_hash_the_corpus(self, run, tmp_path, monkeypatch):
        """The corpus fingerprint only keys the embedding cache."""
        cfg, _ = run

        def refuse(corpus, params):
            raise AssertionError("corpus hashed without an embedding cache")

        monkeypatch.setattr(text_data, "corpus_fingerprint", refuse)
        uncached = parse_config(
            None,
            {k: str(v) if not isinstance(v, list) else ",".join(map(str, v))
             for k, v in cfg.items() if v is not None}
            | {"data.embedding_cache": "", "epochs": "1", "output_dir": str(tmp_path / "run")},
        )
        result = run_experiment(uncached)
        assert os.path.exists(result.checkpoint)


def test_embedding_cache_fingerprint_is_pinned(tmp_path, monkeypatch):
    """A cache written under the default ``sgns.*`` config of a fixed corpus
    carries this fingerprint; a later version must still hit it."""
    root = tmp_path / "imdb"
    write_imdb_tree(root, n_per=4)
    cache = str(tmp_path / "emb.txt")
    cfg = parse_config(None, {"seed": "1", "dataset": "imdb", "data.imdb_dir": str(root),
                              "data.embedding_cache": cache})
    texts, _ = text_data.load_imdb_split(str(root), "train", limit=cfg["data.train_subset"])
    corpus = [text_data.preprocess(t) for t in texts]
    vocab = text_data.build_vocab(corpus, min_count=cfg["sgns.min_count"])
    table = np.arange(len(vocab) * cfg["sgns.dim"], dtype=np.float64).reshape(len(vocab), -1)
    text_data.save_embeddings(
        cache, vocab, table, "0807cf7d2b76f0dd2f973cb45111b001eabf673626476bdf6ed49192ccc474de"
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the embedding cache missed")

    monkeypatch.setattr(text_data, "train_sgns", refuse)
    bundle = build_bundle(cfg)
    np.testing.assert_array_equal(
        bundle.X_train, np.stack([text_data.vectorize_review(t, vocab, table) for t in corpus])
    )


def test_sgns_divergence_exit_three_before_the_cache(tmp_path, capsys):
    """Diverging SGNS embeddings end in exit 3 and one stderr line naming
    SGNS and its epoch, before the embedding cache is written."""
    root = tmp_path / "imdb"
    write_imdb_tree(root, n_per=4)
    cache = tmp_path / "emb.txt"
    code = main(
        ["train", "--dataset", "imdb", "--seed", "1", "--arch", "16,16", "--epochs", "1",
         "--set", f"data.imdb_dir={root}", "--set", "sgns.dim=16", "--set", "sgns.min_count=1",
         "--set", "sgns.lr=1e300", "--set", f"data.embedding_cache={cache}",
         "--output", str(tmp_path / "run")]
    )
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "training diverged: epoch 0: SGNS embeddings left the finite range"
    ]
    assert not os.path.exists(cache) and not os.path.exists(f"{cache}.meta.json")


def test_negative_test_subset_exits_one_before_output(tmp_path, capsys):
    """A negative cap would cut reviews off the test split; it is refused
    at parse time, before anything is written."""
    root = tmp_path / "imdb"
    write_imdb_tree(root, n_per=4)
    out = tmp_path / "run"
    code = main(
        ["train", "--dataset", "imdb", "--seed", "1", "--set", f"data.imdb_dir={root}",
         "--set", "data.test_subset=-3", "--output", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: data.test_subset must be >= 0, got -3"
    ]
    assert not os.path.exists(out)


@pytest.mark.parametrize("name, content", [
    ("train-images-idx3-ubyte.gz", b"\x1f\x8b\x08\x00garbage"),
    ("train-images-idx3-ubyte.gz", b"\x1f\x8b\x07\x00garbage"),
    ("train-images-idx3-ubyte", b"xxxxxxxxxxxxxxxxxxxx"),
], ids=["gzip-truncated", "gzip-bad-header", "raw-bad-magic"])
def test_corrupt_idx_file_exit_two_naming_it(tmp_path, capsys, name, content):
    root = tmp_path / "mnist"
    write_idx_dir(str(root), n_train=20, n_test=10)
    os.remove(root / "train-images-idx3-ubyte")
    (root / name).write_bytes(content)
    code = main(
        ["train", "--dataset", "mnist", "--seed", "1", "--set", f"data.mnist_dir={root}",
         "--output", str(tmp_path / "run")]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {root / name}: ")


@pytest.mark.parametrize("limit, negatives, positives", [
    (1, 1, 0), (3, 2, 1), (5, 3, 2), (9, 4, 4),
])
def test_imdb_subset_loads_exactly_the_limit(tmp_path, limit, negatives, positives):
    """An odd limit puts the extra review on the negative side; a limit
    beyond the split loads all of it."""
    root = tmp_path / "imdb"
    write_imdb_tree(root, n_per=4)
    texts, labels = text_data.load_imdb_split(str(root), "test", limit=limit)
    assert len(texts) == negatives + positives
    assert list(labels) == [0] * negatives + [1] * positives


@pytest.mark.mnist
@requires_mnist
def test_untrained_net_head_floor_on_real_mnist():
    """A head over a frozen random net already clears 60% on a 10-class
    MNIST subset: random features keep substantial linear separability."""
    cfg = parse_config(
        None,
        {"seed": "1", "dataset": "mnist", "data.mnist_dir": MNIST_DIR,
         "data.train_subset": "2000", "data.test_subset": "2000"},
    )
    bundle = build_bundle(cfg)
    net = FFNetwork(bundle.input_dim, [500, 500], "relu", 0.01, Rng(123))
    head = frozen_head(
        net,
        bundle.X_train,
        bundle.slots,
        bundle.y_train,
        bundle.num_classes,
        epochs=20,
        lr=1e-2,
        rng=Rng(124),
    )
    acc = float(
        np.mean(
            predict_head_batch(net, head, bundle.X_test, bundle.slots)
            == bundle.y_test
        )
    )
    assert acc > 0.6
