"""``ff-lab``: train / sweep / analyze / eval.

Exit codes:

- 0 success
- 1 configuration or usage error (and any other package error)
- 2 data error: missing, unreadable or malformed files, or data whose
  width does not fit the network
- 3 training diverged: the weights of a layer, of the softmax head or of
  the SGNS embeddings left the finite range
- 4 out of memory: the line names the phase and the innermost package function
"""

import argparse
import os
import sys
import traceback

import numpy as np

from .analysis import write_weight_artifacts
from .checkpoint import load_network
from .config import SCHEMA, parse_config
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    DivergenceError,
    FFLabError,
    FormatError,
    UsageError,
)
from .ffnet import FFNetwork
from .inference import (
    default_included_layers,
    predict_head_batch,
    predict_sweep_batch,
    sweep_scores_batch,
)


# shortcut flag -> the config key it sets; --set reaches every key
_FLAGS = {"--dataset": "dataset", "--arch": "arch", "--activation": "activation",
          "--lr": "lr", "--epochs": "epochs", "--batch-size": "batch_size",
          "--seed": "seed", "--output": "output_dir"}


def _add_common(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    for flag, key in _FLAGS.items():
        rule = SCHEMA[key][2]
        choices = f": {' | '.join(rule)}" if isinstance(rule, tuple) else ""
        p.add_argument(flag, dest=key, help=f"sets {key}{choices}")
    p.add_argument("--full", action="store_true",
                   help="lift the desk-scale training subset caps (data.train_subset=0)")


def _overrides(args):
    out = {}
    for kv in args.set:
        if "=" not in kv:
            raise ConfigError(f"--set expects KEY=VALUE, got {kv!r}")
        k, _, v = kv.partition("=")
        out[k.strip()] = v.strip()
    for key in _FLAGS.values():
        v = getattr(args, key, None)
        if v is not None:
            out[key] = v
    if getattr(args, "full", False):
        out["data.train_subset"] = "0"
    return out


def _cmd_train(args):
    from .experiment import run_experiment

    run_experiment(parse_config(args.config, _overrides(args)))
    return 0


def _cmd_sweep(args):
    from .experiment import SWEEP_SUMMARY_HEADER, run_sweep

    cfg = parse_config(args.config, _overrides(args))
    key, _, values = args.sweep.partition("=")
    if not values:
        raise ConfigError("--sweep expects k=v1,v2,... (e.g. k=0.1,0.5,1)")
    rows = run_sweep(cfg, key.strip(), [v.strip() for v in values.split(",") if v.strip()])
    print(",".join(SWEEP_SUMMARY_HEADER))
    for row in rows:
        print(",".join(str(x) for x in row))
    return 0


def _cmd_analyze(args):
    net, _ = load_network(args.checkpoint)
    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    stats = write_weight_artifacts(out_dir, net, range(len(net.layers)))
    for i, s in enumerate(stats):
        print(f"layer {i}: min {s['min']:.4f} max {s['max']:.4f} "
              f"mean {s['mean']:.6f} var {s['var']:.6f}")

    if args.config and isinstance(net, FFNetwork):
        from .experiment import build_bundle, write_goodness_report

        cfg = parse_config(args.config, _overrides(args))
        bundle = build_bundle(cfg)
        # the run's last train-split sweep, whose goodness the report reads
        G = sweep_scores_batch(net, bundle.X_train, bundle.num_classes, bundle.slots)
        report = write_goodness_report(cfg, bundle, net, G, out_dir)
        for li in range(len(net.layers)):
            print(f"layer {li}: pos>theta {report.frac_pos_above[li]:.3f}, "
                  f"neg<theta {report.frac_neg_below[li]:.3f}")
    return 0


def _cmd_eval(args):
    from .experiment import build_bundle

    cfg = parse_config(args.config, _overrides(args))
    net, head = load_network(args.checkpoint)
    if not isinstance(net, FFNetwork):
        raise UsageError("eval expects an FFN1 checkpoint")
    bundle = build_bundle(cfg)
    if args.mode == "head":
        if head is None:
            raise UsageError("checkpoint has no trained head section")
        pred = predict_head_batch(net, head, bundle.X_test, bundle.slots)
    else:
        if head is None:
            skip_first = cfg["inference.skip_first_layer"]
            included = default_included_layers(len(net.layers), skip_first)
        else:
            included = head.included_layers
        G = sweep_scores_batch(net, bundle.X_test, bundle.num_classes, bundle.slots)
        pred = predict_sweep_batch(included, G)
    err = float(np.mean(pred != bundle.y_test))
    print(f"{args.mode} test error: {err:.4f}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise UsageError (exit 1, one line); subparsers inherit it."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def main(argv=None):
    parser = _Parser(prog="ff-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment")
    _add_common(p_train)

    p_sweep = sub.add_parser("sweep", help="run one experiment per threshold factor")
    _add_common(p_sweep)
    p_sweep.add_argument("--sweep", required=True, metavar="k=V1,V2,...",
                         help="threshold factors to sweep")

    p_an = sub.add_parser("analyze", help="weight stats and heatmaps for a checkpoint")
    p_an.add_argument("--checkpoint", required=True)
    p_an.add_argument("--out", help="artifact directory (default: next to the checkpoint)")
    _add_common(p_an)

    p_ev = sub.add_parser("eval", help="evaluate a checkpoint on the configured test set")
    p_ev.add_argument("--checkpoint", required=True)
    p_ev.add_argument("--mode", choices=["head", "sweep"], default="head")
    _add_common(p_ev)

    handlers = {
        "train": _cmd_train,
        "sweep": _cmd_sweep,
        "analyze": _cmd_analyze,
        "eval": _cmd_eval,
    }
    try:
        args = parser.parse_args(argv)
        return handlers[args.command](args)
    except (ConfigError, UsageError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (DataError, FormatError, DimensionError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 3
    except FFLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        fns = [f"{os.path.basename(f.filename)[:-3]}.{f.name}" for f in traceback.extract_tb(
            e.__traceback__) if os.path.dirname(f.filename) == os.path.dirname(__file__)]
        phase = next((fn for fn in fns if not fn.startswith(("cli.", "experiment."))), fns[-1])
        print(f"out of memory in {phase}" + (phase != fns[-1]) * f", at {fns[-1]}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
