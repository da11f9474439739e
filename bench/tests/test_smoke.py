"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/tests

Each workload runs end to end in a shrunken form, traced and untraced,
and must emit every metric ``BENCHMARK.json`` declares, with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_benchmark_json_matches_the_declarations():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [list(m.values()) for m in spec["end_to_end"]] == [list(m) for m in END_TO_END]
    assert [list(m.values()) for m in spec["per_layer"]] == [list(m) for m in PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == {name for name, *_ in declared}
    for name, unit, *_ in declared:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
    for line in proc.stdout.splitlines()[:-1]:
        assert "FAILED" not in line
    assert not os.path.exists(os.path.join(ROOT, ".bench_work"))


def test_generators_repeat_per_seed(tmp_path):
    a = gen.mnist_arrays(3, 20, 10)
    b = gen.mnist_arrays(3, 20, 10)
    c = gen.mnist_arrays(4, 20, 10)
    assert all((x == y).all() for x, y in zip(a, b))
    assert not (a[0] == c[0]).all()
    for name in ("one", "two"):
        gen.write_imdb_tree(str(tmp_path / name), 3, 6, 4, length=12)
    for split in ("train", "test"):
        for label in ("pos", "neg"):
            d1, d2 = (tmp_path / n / split / label for n in ("one", "two"))
            assert sorted(os.listdir(d1)) == sorted(os.listdir(d2))
            for f in os.listdir(d1):
                assert (d1 / f).read_bytes() == (d2 / f).read_bytes()


def test_reviews_carry_tags_stop_words_and_suffixes():
    import numpy as np

    w = gen.ReviewWriter(np.random.default_rng(0))
    text = " ".join(w.review(i % 2, 60) for i in range(20))
    assert "<br />" in text and "<i>" in text
    words = text.lower().split()
    assert sum(x in gen._STOP for x in words) > len(words) / 5
    assert any(x.endswith(("ing", "ness", "ational")) for x in words)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "mnist-wide", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
