#!/usr/bin/env python3
"""The fflab benchmark: each workload end to end through ``run_experiment``.

    python3 bench/run.py --workload mnist-desk --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --out BENCH.json
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 1

From ``--seed`` it generates the workload's inputs under ``.bench_work/``
in the checkout and checks them through the program's own loaders. It
then runs ``run_experiment`` in a fresh process per run, one at a time,
until ``--seconds`` have passed (at least twice), checks every run (see
``child.py``), and reports medians over the runs that passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes
untraced runs for half of ``--seconds`` (at least one), then one traced
run, and prints the traced run's per-layer metrics with a per-module
self-time table. The last line of standard output is the result as one
JSON object. Work files are removed when the benchmark ends.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import gen  # noqa: E402
from metrics import END_TO_END, FAILED_FRAC, PER_LAYER, UNITS  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, data_sizes, run_config  # noqa: E402

BLAS_THREADS = 2
MIN_RUNS = 2
DEADLINE_S = 170.0  # a single-workload invocation ends well within 180 s


def nproc():
    return len(os.sched_getaffinity(0))


def _first_line(path, prefix):
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git(*args):
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed, threads):
    """Machine and software facts; compare results only within one machine."""
    import numpy

    from fflab import backend

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = _git("rev-parse", "HEAD") if os.path.isdir(os.path.join(ROOT, ".git")) else None
    dirty = bool(_git("status", "--porcelain", "--", "src")) if commit else None
    return {
        "nproc": nproc(),
        "cpu": _first_line("/proc/cpuinfo", "model name"),
        "ram": _first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "FFLAB_NUMBA": os.environ.get("FFLAB_NUMBA", "(unset)"),
        "HAVE_NUMBA": backend.HAVE_NUMBA,
        "commit": commit or "unknown (not a git checkout)",
        "src_dirty": dirty,
        "seed": seed,
    }


def generate_inputs(workload, seed, data_dir, tiny):
    """Write the workload's inputs and check them through the program's loaders."""
    sizes = data_sizes(workload, tiny)
    n_tr, n_te = sizes["n_train"], sizes["n_test"]
    if workload.dataset == "mnist":
        from fflab.mnist_data import load_mnist

        gen.write_idx_dir(data_dir, seed, n_tr, n_te)
        X_tr, y_tr, X_te, y_te = load_mnist(data_dir)
        shapes = (X_tr.shape, y_tr.shape, X_te.shape, y_te.shape)
        want = ((n_tr, gen.PIXELS), (n_tr,), (n_te, gen.PIXELS), (n_te,))
        labels = set(y_tr.tolist()) | set(y_te.tolist())
        if shapes != want or not labels <= set(range(gen.CLASSES)):
            raise RuntimeError(f"generated IDX files load as {shapes}, want {want}")
    else:
        from fflab.text_data import load_imdb_split

        gen.write_imdb_tree(data_dir, seed, n_tr, n_te, sizes["length"])
        for split, n in (("train", n_tr), ("test", n_te)):
            texts, labels = load_imdb_split(data_dir, split)
            if len(texts) != n // 2 * 2 or int(labels.sum()) != n // 2:
                raise RuntimeError(
                    f"generated {split} split loads as {len(texts)} reviews, "
                    f"{int(labels.sum())} positive; want {n // 2 * 2}, {n // 2}"
                )


def run_child(work, cfg, trace, threads, timeout, untraced_run_s=0.0):
    """One run_experiment call in a fresh process; returns its result dict."""
    spec = os.path.join(work, "spec.json")
    result = os.path.join(work, "result.json")
    with open(spec, "w", encoding="utf-8") as f:
        json.dump(
            {"root": ROOT, "config": cfg, "trace": trace, "untraced_run_s": untraced_run_s}, f
        )
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), spec, result],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
        with open(result, encoding="utf-8") as f:
            res = json.load(f)
        if proc.returncode != 0 and not res["errors"]:
            res["errors"].append(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    except subprocess.TimeoutExpired:
        res = {"errors": [f"run did not finish within {timeout:.0f} s"]}
    except (OSError, ValueError) as e:
        res = {"errors": [f"no result from the run: {e}"]}
    finally:
        shutil.rmtree(cfg["output_dir"], ignore_errors=True)
        for path in (spec, result):
            if os.path.exists(path):
                os.remove(path)
    return res


def run_workload(workload, seed, seconds, trace, tiny, threads, t_begin):
    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        data_dir = os.path.join(work, "data")
        t = time.perf_counter()
        generate_inputs(workload, seed, data_dir, tiny)
        gen_s = time.perf_counter() - t
        cfg = run_config(workload, seed, data_dir, os.path.join(work, "out"), tiny)

        runs = []
        start = time.perf_counter()
        budget = seconds / 2 if trace else seconds
        need = 1 if trace else MIN_RUNS
        while len(runs) < need or time.perf_counter() - start < budget:
            left = DEADLINE_S - (time.perf_counter() - t_begin)
            runs.append(run_child(work, cfg, False, threads, max(left, 30.0)))
        if trace:
            ok_s = [r["run_s"] for r in runs if not r["errors"]]
            left = DEADLINE_S - (time.perf_counter() - t_begin)
            runs.append(
                run_child(work, cfg, True, threads, max(left, 30.0),
                          statistics.median(ok_s) if ok_s else 0.0)
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    # C8 under load: every run of one workload and seed gives the same bytes
    ref = next((r["digest"] for r in runs if not r["errors"]), None)
    for i, r in enumerate(runs):
        if not r["errors"] and r["digest"] != ref:
            r["errors"].append(f"run {i}: artifacts differ from the first passing run")
    ok = [r for r in runs if not r["errors"]]
    return {"gen_s": gen_s, "runs": runs, "ok": ok, "attempted": len(runs), "failed": len(runs) - len(ok)}


def end_to_end(res):
    ok = res["ok"]
    if not ok:
        return {}
    m = {
        key: statistics.median(r[key] for r in ok)
        for key in ("run_s", "setup_s", "finish_s", "peak_rss_mb")
    }
    m["epoch_s"] = statistics.median(statistics.median(r["epoch_s"]) for r in ok)
    m["head_test_err"] = ok[0]["head_test_err"]
    m["sweep_test_err"] = ok[0]["sweep_test_err"]
    return {name: m[name] for name, *_ in END_TO_END}


def per_layer(res):
    traced = [r for r in res["ok"] if "layers" in r]
    return traced[0]["layers"] if traced else {}


def self_time_table(name, layers):
    run_s = layers["trace.run_s"]
    lines = [f"### {name}", "", "| layer | self s | share of run_s |", "|---|---:|---:|"]
    for layer in LAYERS:
        s = layers[f"{layer}.self_s"]
        lines.append(f"| {layer} | {s:.4f} | {s / run_s:.1%} |")
    lines += [
        "",
        f"traced run_s {run_s:.3f} s, coverage {layers['trace.coverage']:.1%} "
        f"(share of run_s outside experiment.self_s), "
        f"trace.overhead_s {layers['trace.overhead_s']:+.3f} s",
        "",
    ]
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--out", help="also write the full result, with provenance, as JSON")
    args = p.parse_args(argv)
    t_begin = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "fflab", "experiment.py")):
        print(f"error: no fflab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    threads = min(BLAS_THREADS, nproc())
    prov = provenance(args.seed, threads)
    print("provenance: " + json.dumps(prov), flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    full = {"provenance": prov, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    metrics = {}
    attempted = failed = 0
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                           args.tiny, threads, t_begin)
        attempted += res["attempted"]
        failed += res["failed"]
        for i, r in enumerate(res["runs"]):
            for err in r["errors"]:
                print(f"{name} run {i} FAILED: {err}", file=sys.stderr)
        values = per_layer(res) if args.trace else end_to_end(res)
        if not args.trace:
            values[FAILED_FRAC[0]] = res["failed"] / res["attempted"]
        print(f"{name}: {res['attempted']} runs, {res['failed']} failed, "
              f"inputs generated in {res['gen_s']:.2f} s")
        for key, v in values.items():
            print(f"  {name:11s} {key:34s} {v:14.6f} {UNITS[key]}")
        if args.trace and values:
            print(self_time_table(name, values))
        prefix = "" if len(names) == 1 else f"{name}/"
        declared = PER_LAYER if args.trace else END_TO_END
        for key, *_ in declared:
            if key in values:
                metrics[prefix + key] = {"value": values[key], "unit": UNITS[key]}
        full["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "gen_s": res["gen_s"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": values,
            "runs": [{k: v for k, v in r.items() if k != "layers"} for r in res["runs"]],
        }

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(full, f, indent=1)
    complete = len(metrics) == len(names) * len(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
