"""Every metric the benchmark reports: name, unit, which way is better.

``BENCHMARK.json`` at the repository root lists END_TO_END and PER_LAYER;
the smoke tests check that the two agree. End-to-end metrics carry the bound
(a share of the parent's median) by which they may worsen.
"""

# (name, unit, better, bound)
END_TO_END = (
    ("run_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("epoch_s", "s", "lower", 0.24),
    ("finish_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("head_test_err", "fraction", "lower", 0.1),
    ("sweep_test_err", "fraction", "lower", 0.1),
)

# Printed with the end-to-end metrics but kept out of BENCHMARK.json: it
# is 0 whenever the program is correct. The result line carries it as
# ``failed`` / ``attempted``.
FAILED_FRAC = ("failed_frac", "fraction")

MAX_FF_LAYERS = 4  # per-layer breakdowns are reported for L0..L3

# (name, unit, better). Measured on every workload in BENCHMARK.json, so
# these are the traced result line's metrics.
PER_LAYER = (
    ("ffnet.train_epoch_s", "s", "lower"),
    *(
        (f"ffnet.{kind}_s.L{i}", "s", "lower")
        for kind in ("forward", "grads", "update")
        for i in range(2)
    ),
    ("ffnet.finite_check_s", "s", "lower"),
    ("ffnet.step_ms.p50", "ms", "lower"),
    ("ffnet.step_ms.p90", "ms", "lower"),
    ("ffnet.batches", "count", "lower"),
    ("ffnet.train_other_s", "s", "lower"),
    ("numerics.adam_s", "s", "lower"),
    ("numerics.adam_calls", "count", "lower"),
    ("numerics.adam_mb_computed", "MB", "lower"),
    ("numerics.row_directions_s", "s", "lower"),
    ("inference.head_fit_s", "s", "lower"),
    ("inference.features_s", "s", "lower"),
    ("inference.head_predict_s", "s", "lower"),
    ("inference.sweep_s", "s", "lower"),
    ("inference.sweep_rows", "count", "lower"),
    ("inference.sweep_live_mb_computed", "MB", "lower"),
    ("analysis.goodness_report_s", "s", "lower"),
    ("analysis.weight_stats_s", "s", "lower"),
    ("analysis.heatmap_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.mb", "MB", "lower"),
    ("rng.shuffle_s", "s", "lower"),
    ("experiment.self_s", "s", "lower"),
    *(
        (f"{layer}.self_s", "s", "lower")
        for layer in ("ffnet", "numerics", "inference", "analysis", "checkpoint", "rng")
    ),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "fraction", "higher"),
)

# Measured only where the layer runs: FF layers 2-3 (mnist-wide), the BP
# baseline (mnist-desk), the MNIST pipeline (mnist-*) and the text pipeline
# (imdb-text). Printed and written to --out but kept out of BENCHMARK.json,
# which refuses a time that reads the same (here 0) on every run of a
# workload.
PER_LAYER_EXTRA = (
    *(
        (f"ffnet.{kind}_s.L{i}", "s", "lower")
        for kind in ("forward", "grads", "update")
        for i in range(2, MAX_FF_LAYERS)
    ),
    ("mnist_data.load_s", "s", "lower"),
    ("mnist_data.stream_s", "s", "lower"),
    ("mnist_data.embed_s", "s", "lower"),
    ("bp_baseline.train_epoch_s", "s", "lower"),
    ("bp_baseline.predict_s", "s", "lower"),
    ("text_data.load_s", "s", "lower"),
    ("text_data.preprocess_s", "s", "lower"),
    ("porter.stem_calls", "count", "lower"),
    ("porter.stem_distinct_ratio", "ratio", "higher"),
    ("text_data.vocab_s", "s", "lower"),
    ("text_data.sgns_s", "s", "lower"),
    ("kernels.sgns_pairs", "count", "lower"),
    ("kernels.sgns_pairs_per_s", "1/s", "higher"),
    ("text_data.vectorize_s", "s", "lower"),
    ("text_data.stream_s", "s", "lower"),
    *(
        (f"{layer}.self_s", "s", "lower")
        for layer in ("mnist_data", "bp_baseline", "text_data", "porter", "kernels")
    ),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + PER_LAYER_EXTRA}
UNITS[FAILED_FRAC[0]] = FAILED_FRAC[1]
