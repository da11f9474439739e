"""The benchmark's workloads: generated inputs plus an ``ff-lab train`` config.

Each workload names the generator sizes and the config overrides it
passes to ``parse_config``; the seed, the data directory and the output
directory are filled in per run. ``tiny`` shrinks a workload for the
smoke tests without changing which code paths it takes.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str            # "mnist" (IDX files) or "imdb" (aclImdb tree)
    data: dict              # generator sizes
    config: dict            # parse_config overrides
    tiny: dict = field(default_factory=dict)  # data and config overrides for smoke tests


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mnist-wide",
            why="full-recipe 4x2000 net on MNIST-shaped IDX files: train_epoch is the "
            "largest phase (~40-50% of run_s, Adam ~30%), the label sweep next (~30%); "
            "a 109 MB checkpoint is written",
            dataset="mnist",
            data={"n_train": 512, "n_test": 128},
            config={
                "arch": "2000,2000,2000,2000",
                "threshold.k": "0.005",
                "lr": "0.01",
                "batch_size": "128",
                "epochs": "1",
                "baseline.enabled": "false",
            },
            tiny={"data": {"n_train": 64, "n_test": 32}, "config": {"arch": "48,48,48,48"}},
        ),
        Workload(
            name="mnist-desk",
            why="README desk recipe, 784->[500,500] on a 10k-row train subset with "
            "the BP baseline: eval (label sweep ~1/3 of run_s, head ~1/10) outweighs "
            "training (~1/4)",
            dataset="mnist",
            data={"n_train": 12000, "n_test": 1000},
            config={
                "arch": "500,500",
                "threshold.k": "0.5",
                "epochs": "1",
                "data.train_subset": "-1",  # the desk default: first 10k rows
                "baseline.enabled": "true",
            },
            tiny={"data": {"n_train": 128, "n_test": 32}, "config": {"arch": "32,32"}},
        ),
        Workload(
            name="imdb-text",
            why="generated aclImdb tree with one SGNS epoch: Python-bound set-up is "
            "~70% of run_s (SGNS ~50%, preprocess and stemming ~15%); the FF net is small",
            dataset="imdb",
            data={"n_train": 2400, "n_test": 2400, "length": 10},
            config={
                "arch": "256,256",
                "threshold.k": "0.5",
                "epochs": "5",
                "sgns.epochs": "1",
                "sgns.window": "2",
                "sgns.min_count": "3",
                "baseline.enabled": "false",
            },
            tiny={"data": {"n_train": 40, "n_test": 20, "length": 20}, "config": {"arch": "16,16"}},
        ),
    )
}


def run_config(workload, seed, data_dir, out_dir, tiny=False):
    """The full ``parse_config`` override dict for one run."""
    cfg = {
        "seed": str(seed),
        "dataset": workload.dataset,
        "output_dir": out_dir,
        "data.train_subset": "0",
        "data.test_subset": "0",
    }
    cfg["data.mnist_dir" if workload.dataset == "mnist" else "data.imdb_dir"] = data_dir
    cfg.update(workload.config)
    if tiny:
        cfg.update(workload.tiny.get("config", {}))
    return cfg


def data_sizes(workload, tiny=False):
    sizes = dict(workload.data)
    if tiny:
        sizes.update(workload.tiny.get("data", {}))
    return sizes
