"""Shared fixtures and artifact readers, plus the acceptance-summary terminal hook."""

import csv
import os

import pytest

from fflab import numerics

MNIST_DIR = os.environ.get("FFLAB_MNIST_DIR", os.path.join("data", "mnist"))
IMDB_DIR = os.environ.get("FFLAB_IMDB_DIR", os.path.join("data", "aclImdb"))


def mnist_available():
    return any(
        os.path.exists(os.path.join(MNIST_DIR, name + ext))
        for name in ("train-images-idx3-ubyte", "train-images.idx3-ubyte")
        for ext in ("", ".gz")
    )


def imdb_available():
    return os.path.isdir(os.path.join(IMDB_DIR, "train", "pos"))


requires_mnist = pytest.mark.skipif(
    not mnist_available(),
    reason=f"MNIST IDX files not found under {MNIST_DIR!r} "
    "(set FFLAB_MNIST_DIR to the directory holding the four files)",
)
requires_imdb = pytest.mark.skipif(
    not imdb_available(),
    reason=f"aclImdb directory not found at {IMDB_DIR!r} "
    "(set FFLAB_IMDB_DIR to the extracted dataset root)",
)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def drop_seconds(rows):
    header, *body = rows
    i = header.index("seconds")
    return [header[:i] + header[i + 1 :]] + [r[:i] + r[i + 1 :] for r in body]


def masked_artifacts(out, *dirs):
    """Every artifact in ``out``: CSVs as rows without their ``seconds``
    column, other files as bytes with ``out`` and each of ``dirs`` (say,
    the data directory a config names) masked."""
    masks = [(str(out).encode(), b"<out>")]
    masks += [(str(d).encode(), f"<dir{i}>".encode()) for i, d in enumerate(dirs)]
    arts = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            rows = read_rows(path)
            arts[path.name] = drop_seconds(rows) if "seconds" in rows[0] else rows
        else:
            data = path.read_bytes()
            for text, mask in masks:
                data = data.replace(text, mask)
            arts[path.name] = data
    return arts


@pytest.fixture
def split_workers(monkeypatch):
    """Call with n to run every later split pass (``numerics._split``: Adam
    steps, bulk draws, weight passes) on n threads, each count with a pool
    of its own. The count follows OpenBLAS's thread count and is
    no knob, so it is set through the module's private attribute; the pools
    made here are shut down before the next count and at the end."""
    used = []

    def use(n):
        if used and numerics._pool is not None:
            numerics._pool.shutdown()
        used.append(n)
        monkeypatch.setattr(numerics, "_SPLIT_WORKERS", n)
        monkeypatch.setattr(numerics, "_pool", None)

    yield use
    if used and numerics._pool is not None:
        numerics._pool.shutdown()


_acceptance_results = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker:
        label = marker.args[0] if marker.args else item.name
        _acceptance_results.append((label, report.outcome, report.longreprtext))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for label, outcome, _ in sorted(_acceptance_results):
        word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
            outcome, outcome.upper()
        )
        terminalreporter.write_line(f"[{word}] {label}")
