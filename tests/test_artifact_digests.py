"""Every run-directory file of five fixed runs keeps the bytes recorded in
``fixtures/artifact_digests.json``.

The runs are the ``tiny`` forms of the three benchmark workloads (inputs
from ``bench/gen.py`` and configs from ``bench/workloads.py``, both read
only, at seed 3), the README quick-start, and one synthetic
784->[500] run, whose layer of 6 split blocks takes the two-core passes.
Each file is hashed as :func:`conftest.masked_artifacts` reads it: CSVs
without their ``seconds`` column, other files with the output and data
directories masked.

A run's bits depend on the code and on numpy's version, its BLAS build
and OpenBLAS's thread count, so the table is keyed by those three. Under
a key the table does not hold, the test skips and names the key.

A change that keeps behaviour passes unchanged. A change that moves
bytes on purpose regenerates the table with

    PYTHONPATH=src python tests/test_artifact_digests.py

which re-runs the five runs under ``OPENBLAS_NUM_THREADS=k`` for each
thread count k the table holds for this numpy and BLAS build (the
current count if it holds none), prints each run's moved files, and
the change names them.
"""

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fflab.config import parse_config
from fflab.experiment import run_experiment

from conftest import masked_artifacts

TABLE = Path(__file__).parent / "fixtures" / "artifact_digests.json"
REGENERATE = "PYTHONPATH=src python tests/test_artifact_digests.py"
BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from workloads import WORKLOADS, data_sizes, run_config  # noqa: E402

BENCH_SEED = 3

# name -> parse_config overrides of the runs that need no generated inputs
SYNTHETIC = {
    # README "Running experiments", first recipe
    "quick-start": {"seed": "7", "dataset": "synthetic", "epochs": "5", "arch": "64,64",
                    "threshold.k": "0.5"},
    # 1990 train rows: the last batch embeds 12 rows, so the gradient's 2/n is
    # not a power of two and rounds
    "synthetic-500": {"seed": "7", "dataset": "synthetic", "synthetic.dim": "774",
                      "synthetic.train_per_class": "199", "arch": "500", "epochs": "1",
                      "threshold.k": "0.5"},
}
RUNS = [f"{name}-tiny" for name in WORKLOADS] + list(SYNTHETIC)


def _openblas_threads():
    """OpenBLAS's thread count, or None where its library is not found."""
    try:
        with open("/proc/self/maps") as f:
            paths = {ln[ln.index("/"):-1] for ln in f if "openblas" in ln and "/" in ln}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def table_key():
    """numpy's version, its BLAS build and OpenBLAS's thread count."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    build = " ".join(
        str(blas.get(k, "")) for k in ("name", "version", "openblas configuration")
    ).split()
    return (f"numpy {np.__version__} | {' '.join(build) or 'unknown BLAS'} | "
            f"{_openblas_threads()} OpenBLAS threads")


def run_digests(name, tmp):
    """sha256 of each masked file of run ``name``, made under ``tmp``."""
    out = tmp / "out"
    if name in SYNTHETIC:
        dirs = ()
        overrides = dict(SYNTHETIC[name], output_dir=str(out))
    else:
        workload = WORKLOADS[name[: -len("-tiny")]]
        data = tmp / "data"
        sizes = data_sizes(workload, tiny=True)
        if workload.dataset == "mnist":
            gen.write_idx_dir(str(data), BENCH_SEED, sizes["n_train"], sizes["n_test"])
        else:
            gen.write_imdb_tree(str(data), BENCH_SEED, sizes["n_train"], sizes["n_test"],
                                sizes["length"])
        dirs = (data,)
        overrides = run_config(workload, BENCH_SEED, str(data), str(out), tiny=True)
    run_experiment(parse_config(None, overrides))
    digests = {}
    for file, art in masked_artifacts(out, *dirs).items():
        if isinstance(art, list):  # CSV rows
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerows(art)
            art = text.getvalue().encode()
        digests[file] = hashlib.sha256(art).hexdigest()
    return digests


def _moved(want, got):
    """Files whose digest differs between two digest dicts of one run."""
    return sorted(f for f in set(want) | set(got) if want.get(f) != got.get(f))


@pytest.mark.parametrize("name", RUNS)
def test_run_keeps_its_recorded_bytes(name, tmp_path):
    key = table_key()
    table = json.loads(TABLE.read_text())
    if key not in table:
        pytest.skip(f"no digests recorded for {key!r}; to record them: {REGENERATE}")
    want = table[key][name]
    moved = _moved(want, run_digests(name, tmp_path))
    assert not moved, f"{name}: these files changed bytes: {moved}"


def _entry():
    """(table key, every run's digests) under this process's thread count."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for name in RUNS:
            os.makedirs(os.path.join(tmp, name))
            with contextlib.redirect_stdout(io.StringIO()):  # run_experiment prints its report
                runs[name] = run_digests(name, Path(tmp) / name)
    return table_key(), runs


if __name__ == "__main__":
    if sys.argv[1:] == ["--entry"]:  # one thread count's entry, as JSON on stdout
        print(json.dumps(_entry()))
        sys.exit()
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    build, current = table_key().rsplit(" | ", 1)
    counts = {key.rsplit(" | ", 1)[1] for key in table
              if key.rsplit(" | ", 1)[0] == build} or {current}
    for count in sorted(counts):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count.split()[0])
        done = subprocess.run([sys.executable, __file__, "--entry"], env=env,
                              stdout=subprocess.PIPE, text=True, check=True)
        key, runs = json.loads(done.stdout)
        old = table.get(key, {})
        table[key] = runs
        print(f"{key}:")
        for name, got in runs.items():
            print(f"  {name}: {', '.join(_moved(old.get(name, {}), got)) or 'no file moved'}")
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{TABLE}: {len(RUNS)} runs under {len(counts)} key(s)")
