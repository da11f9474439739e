"""Row normalization and the Adam recursion against independent oracles."""

import io
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflab import numerics
from fflab.errors import DimensionError, DivergenceError
from fflab.ffnet import goodness
from fflab.numerics import AdamState, adam_step, row_directions
from fflab.rng import Rng

from oracles import loop_direction, scalar_adam


def one_row(x, eps=1e-8):
    """row_directions of a single vector, as a 1-row matrix and back."""
    return row_directions(np.asarray(x)[None, :], eps=eps)[0]


class TestL2Normalize:
    """row_directions on a single row: exact, zero-safe and scale-free."""

    def test_three_four_five(self):
        np.testing.assert_allclose(
            one_row(np.array([3.0, 4.0]), eps=0.0), [0.6, 0.8]
        )

    def test_zero_vector(self):
        np.testing.assert_array_equal(
            one_row(np.zeros(2), eps=1e-8), np.zeros(2)
        )

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_scale_invariance_eps_zero(self, c):
        x = np.array([3.0, 4.0])
        np.testing.assert_allclose(
            one_row(c * x, eps=0.0), one_row(x, eps=0.0), atol=1e-12
        )

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8),
        st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance_property(self, vals, c):
        x = np.array(vals)
        if np.linalg.norm(x) < 1e-6:
            return
        np.testing.assert_allclose(
            one_row(c * x, eps=0.0), one_row(x, eps=0.0), atol=1e-12
        )

    def test_direction_zero_safe(self):
        np.testing.assert_array_equal(one_row(np.zeros(3)), np.zeros(3))

    def test_row_directions_matches_direction(self):
        rng = Rng(3)
        X = rng.uniform_array(12).reshape(3, 4)
        rows = row_directions(X)
        for i in range(3):
            np.testing.assert_allclose(rows[i], loop_direction(X[i]), rtol=1e-15)

    def test_given_sums_of_squares_change_no_bit(self):
        """``sq=goodness(X)``, as the layers pass it on, is the same
        reduction: the same bits, all-zero rows (the eps floor) and rows
        below the floor included."""
        X = Rng(4).uniform_array(40 * 9).reshape(40, 9) - 0.5
        X[::7] = 0.0
        X[3] *= 1e-12
        X[5] *= 1e6
        np.testing.assert_array_equal(row_directions(X, sq=goodness(X)), row_directions(X))
        assert not row_directions(X, sq=goodness(X))[0].any()


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        rng = Rng(2)
        p = rng.uniform_array(6).reshape(2, 3)
        before = p.copy()
        st_ = AdamState.for_param(p.shape, lr=0.01)
        for _ in range(3):
            adam_step(st_, p, np.zeros_like(p))
        np.testing.assert_array_equal(p, before)

    def test_first_step_bias_correction(self):
        p = np.array([1.0])
        st_ = AdamState.for_param((1,), lr=0.01)
        adam_step(st_, p, np.array([1.0]))
        assert p[0] == pytest.approx(0.9900000001, abs=1e-12)

    def test_five_steps_constant_gradient_frozen_oracle(self):
        """Value frozen from the independent scalar recursion in oracles.py."""
        p = np.array([0.0])
        st_ = AdamState.for_param((1,), lr=0.01)
        for _ in range(5):
            adam_step(st_, p, np.array([2.0]))
        expected = -0.049999999749999864
        assert scalar_adam(0.0, [2.0] * 5) == pytest.approx(expected, abs=1e-18)
        assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_scalar_recursion_random_grads(self):
        rng = Rng(21)
        grads = list(rng.uniform_array(20) * 4 - 2)
        p = np.array([0.5])
        st_ = AdamState.for_param((1,), lr=0.003)
        for g in grads:
            adam_step(st_, p, np.array([g]))
        assert p[0] == pytest.approx(scalar_adam(0.5, grads, lr=0.003), rel=1e-12)

    def test_shape_mismatch(self):
        st_ = AdamState.for_param((2, 2), lr=0.01)
        with pytest.raises(DimensionError):
            adam_step(st_, np.zeros((2, 2)), np.zeros((2, 3)))

    def test_t_increments(self):
        st_ = AdamState.for_param((1,), lr=0.01)
        p = np.zeros(1)
        adam_step(st_, p, np.ones(1))
        adam_step(st_, p, np.ones(1))
        assert st_.t == 2
        assert np.all(st_.v >= 0)


def _textbook_adam(state, params, grads):
    """The out-of-place expression adam_step must match bit for bit."""
    state.t += 1
    b1, b2 = numerics.ADAM_BETA1, numerics.ADAM_BETA2
    state.m *= b1
    state.m += (1.0 - b1) * grads
    state.v *= b2
    state.v += (1.0 - b2) * (grads * grads)
    m_hat = state.m / (1.0 - b1 ** state.t)
    v_hat = state.v / (1.0 - b2 ** state.t)
    params -= state.lr * m_hat / (np.sqrt(v_hat) + numerics.ADAM_EPS)


# Adam's worker counts under test: inline only, an even and an uneven split
ADAM_WORKERS = (1, 2, 3)


class TestAdamInPlace:
    """The blocked, in-place step equals the textbook expression bit for bit
    on every worker count in ADAM_WORKERS, looped inside each case."""

    @pytest.mark.parametrize("block", [numerics._SPLIT_BLOCK, 40])
    @pytest.mark.parametrize("shape", [(37, 11), (53,)])
    def test_bit_identical_to_textbook_expression(self, monkeypatch, split_workers, block, shape):
        """Block 40 splits (37, 11) into 13 3-row blocks, the last of one
        row, which 2 and 3 workers share unevenly, and (53,) into 2 blocks."""
        monkeypatch.setattr(numerics, "_SPLIT_BLOCK", block)
        for workers in ADAM_WORKERS:
            split_workers(workers)
            r = np.random.default_rng(5)
            p = r.standard_normal(shape)
            p_ref = p.copy()
            st_ = AdamState.for_param(shape, lr=0.003)
            st_ref = AdamState.for_param(shape, lr=0.003)
            for _ in range(60):
                g = r.standard_normal(shape) * r.choice([1e-6, 1.0, 1e3])
                assert adam_step(st_, p, g) is p
                _textbook_adam(st_ref, p_ref, g)
                assert np.array_equal(p, p_ref), workers
            assert np.array_equal(st_.m, st_ref.m) and np.array_equal(st_.v, st_ref.v)
            assert st_.t == st_ref.t == 60

    def test_non_contiguous_params_updated_in_place(self, monkeypatch, split_workers):
        monkeypatch.setattr(numerics, "_SPLIT_BLOCK", 16)
        for workers in ADAM_WORKERS:
            split_workers(workers)
            r = np.random.default_rng(6)
            base = r.standard_normal((9, 7))
            p = base.T  # a strided view of 7 one-row blocks; the update must land in ``base``
            p_ref = p.copy()
            st_ = AdamState.for_param(p.shape, lr=0.01)
            st_ref = AdamState.for_param(p.shape, lr=0.01)
            for _ in range(60):
                g = r.standard_normal(p.shape)
                adam_step(st_, p, g)
                _textbook_adam(st_ref, p_ref, g)
            assert np.array_equal(base.T, p_ref), workers

    def test_zero_dim_param(self, split_workers):
        for workers in ADAM_WORKERS:
            split_workers(workers)
            p, p_ref = np.array(0.5), np.array(0.5)
            st_ = AdamState.for_param((), lr=0.01)
            st_ref = AdamState.for_param((), lr=0.01)
            for g in np.random.default_rng(7).standard_normal(60):
                adam_step(st_, p, np.array(g))
                _textbook_adam(st_ref, p_ref, np.array(g))
            assert p == p_ref, workers


class TestSplitPasses:
    """The weight-sized passes other than Adam's go through the same split:
    on 1, 2 and 3 workers, and 40-element blocks (3 rows of 11), each keeps
    the bits of its whole-array numpy form."""

    @pytest.fixture(autouse=True)
    def small_split_blocks(self, monkeypatch):
        monkeypatch.setattr(numerics, "_SPLIT_BLOCK", 40)

    def test_float32_cast_equals_astype(self, split_workers):
        W = np.random.default_rng(12).standard_normal((37, 11)) * 1e3
        for workers in (1, 2, 3):
            split_workers(workers)
            got = numerics._cast(W, np.float32)
            assert got.dtype == np.float32 and got.flags.c_contiguous
            assert np.array_equal(got.view(np.uint32), W.astype(np.float32).view(np.uint32))
            assert numerics._cast(W, np.float64) is W

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 20, 36])
    def test_finite_check_sees_every_share(self, split_workers, bad, row):
        """Row 0 is the caller's share, rows 20 and 36 the pool's."""
        W = np.ones((37, 11))
        W[row, 5] = bad
        for workers in (1, 2, 3):
            split_workers(workers)
            numerics.require_finite("ok", np.ones((37, 11)))
            with pytest.raises(DivergenceError, match="diverged here"):
                numerics.require_finite("diverged here", np.ones(3), W, layer=0)

    def test_min_max_equal_numpys(self, split_workers):
        W = np.random.default_rng(14).standard_normal((37, 11))
        for workers in (1, 2, 3):
            split_workers(workers)
            assert numerics._min_max(W) == (W.min(), W.max())
            assert numerics._min_max(np.array(2.5)) == (2.5, 2.5)


class TestAdamThreads:
    """How a step of two or more blocks is shared, and what crosses threads."""

    def test_shares_are_contiguous_runs_of_whole_blocks(self, monkeypatch, split_workers):
        """13 blocks of 3 rows on 3 workers: the caller takes the first
        share of 4 blocks, the pool the other two, of 4 and 5 blocks."""
        monkeypatch.setattr(numerics, "_SPLIT_BLOCK", 40)
        split_workers(3)
        shares = []
        adam_rows = numerics._adam_rows

        def recorded(lo, hi, *args):
            shares.append((lo, hi, threading.get_ident()))
            adam_rows(lo, hi, *args)

        monkeypatch.setattr(numerics, "_adam_rows", recorded)
        adam_step(AdamState.for_param((37, 11), 0.01), np.zeros((37, 11)), np.ones((37, 11)))
        assert sorted(share[:2] for share in shares) == [(0, 12), (12, 24), (24, 37)]
        caller = threading.get_ident()
        assert [share[:2] for share in shares if share[2] == caller] == [(0, 12)]

    @pytest.mark.parametrize("workers, shape", [(1, (16, 4096)), (2, (32, 4096))])
    def test_work_arrays_are_kept_across_calls(self, split_workers, workers, shape):
        """After a warm-up step, a step allocates less than one row block:
        every thread keeps its work array (a fresh one per call costs
        about 220 page faults). (16, 4096) is one block, run inline;
        (32, 4096) is two, one per thread."""
        split_workers(workers)
        r = np.random.default_rng(8)
        p, g = r.standard_normal(shape), r.standard_normal(shape)
        st_ = AdamState.for_param(shape, lr=0.01)
        adam_step(st_, p, g)
        tracemalloc.start()
        try:
            adam_step(st_, p, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < numerics._SPLIT_BLOCK * 8

    def test_worker_exception_reaches_the_caller(self, monkeypatch, split_workers):
        """An error in a pooled share is raised by adam_step once every share
        has finished, and the next step runs and keeps the bits."""
        monkeypatch.setattr(numerics, "_SPLIT_BLOCK", 40)
        split_workers(2)
        adam_rows = numerics._adam_rows

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("share failed")
            adam_rows(*args)

        monkeypatch.setattr(numerics, "_adam_rows", failing)
        with pytest.raises(ValueError, match="share failed"):
            adam_step(AdamState.for_param((37, 11), 0.01), np.zeros((37, 11)), np.ones((37, 11)))
        monkeypatch.setattr(numerics, "_adam_rows", adam_rows)
        p, p_ref = np.zeros((37, 11)), np.zeros((37, 11))
        st_, st_ref = AdamState.for_param(p.shape, 0.01), AdamState.for_param(p.shape, 0.01)
        for g in np.random.default_rng(9).standard_normal((5, 37, 11)):
            adam_step(st_, p, g)
            _textbook_adam(st_ref, p_ref, g)
        assert np.array_equal(p, p_ref)

    def test_shares_run_under_the_callers_error_state(self, monkeypatch, split_workers):
        """numpy's error state is per thread: an overflow the caller ignores
        is ignored in the pool too, and one it raises is raised there too.
        Only rows 12 on, the pool's shares, overflow (lr * m_hat)."""
        monkeypatch.setattr(numerics, "_SPLIT_BLOCK", 40)
        split_workers(2)
        g = np.ones((37, 11))
        g[12:] = 1e10
        p = np.zeros((37, 11))
        with warnings.catch_warnings(record=True) as caught, np.errstate(over="ignore"):
            warnings.simplefilter("always")
            adam_step(AdamState.for_param(p.shape, 1e300), p, g)
        assert caught == []
        assert np.all(np.isfinite(p[:12])) and np.all(np.isneginf(p[12:]))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            adam_step(AdamState.for_param(p.shape, 1e300), np.zeros((37, 11)), g)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="OpenBLAS caps its thread count at the CPU count")
    def test_small_nets_never_start_the_pool(self):
        """In a fresh process, an imdb-text-sized net (102->[256,256], every
        weight at most one split block) is drawn, trained for an epoch on
        2400 rows of 2 labels, read by both routes and the weight analysis
        without a pool and with OpenBLAS's spin left as it was; one
        784->[2000] net (24 blocks) then makes the pool at its first draw."""
        script = (
            "import ctypes, os, numpy as np\n"
            "from fflab import numerics\n"
            "from fflab.analysis import export_heatmap, weight_stats\n"
            "from fflab.ffnet import FFNetwork, LabelSlots, train_epoch\n"
            "from fflab.inference import features_batch, predict_sweep_batch, sweep_scores_batch\n"
            "from fflab.rng import Rng\n"
            "path = next(ln.split(maxsplit=5)[5].strip() for ln in open('/proc/self/maps')\n"
            "            if 'libscipy_openblas64_' in ln)\n"
            "spin = ctypes.CDLL(path).openblas_thread_timeout\n"
            "slots = LabelSlots(2, start=100, overwrite=False)\n"
            "X = np.random.default_rng(0).random((2400, 100))\n"
            "y = np.arange(2400) % 2\n"
            "net = FFNetwork(102, [256, 256], 'relu', 0.01, Rng(1))\n"
            "train_epoch(net, X, y, slots, [128.0, 128.0], 128, Rng(2))\n"
            "features_batch(net, X, slots, (1,))\n"
            "predict_sweep_batch((1,), sweep_scores_batch(net, X, 2, slots))\n"
            "weight_stats(net)\n"
            "export_heatmap(net.layers[0].W, os.devnull)\n"
            "print(numerics._SPLIT_WORKERS, numerics._pool is None, spin())\n"
            "FFNetwork(784, [2000], 'relu', 0.01, Rng(3))\n"
            "print(numerics._SPLIT_WORKERS, numerics._pool is None, spin())\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        env["OPENBLAS_NUM_THREADS"] = "2"
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(numerics.__file__))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["None", "True", "0", "2", "False", "4"]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="OpenBLAS caps its thread count at the CPU count")
    @pytest.mark.parametrize("blas_threads, timeout", [("1", None), ("2", None), ("2", "7")])
    def test_worker_count_follows_the_blas_thread_count(self, blas_threads, timeout):
        """In a fresh process, the first step of two blocks reads OpenBLAS's
        thread count. One thread: no pool, and OpenBLAS keeps its threads.
        Two: two workers; OpenBLAS restarted with the shortest spin (4) and
        ``OPENBLAS_THREAD_TIMEOUT`` left unset, or, where the variable is
        set, OpenBLAS and the variable as they were."""
        script = (
            "import ctypes, os, numpy as np\n"
            "from fflab import numerics\n"
            "assert numerics._SPLIT_WORKERS is None and numerics._pool is None\n"
            "p = np.zeros((300, 300))\n"
            "numerics.adam_step(numerics.AdamState.for_param(p.shape, 0.01), p, np.ones_like(p))\n"
            "path = next(ln.split(maxsplit=5)[5].strip() for ln in open('/proc/self/maps')\n"
            "            if 'libscipy_openblas64_' in ln)\n"
            "spin = ctypes.CDLL(path).openblas_thread_timeout()\n"
            "print(numerics._SPLIT_WORKERS, numerics._pool is not None, spin,\n"
            "      os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        env["OPENBLAS_NUM_THREADS"] = blas_threads
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(numerics.__file__))
        if timeout is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = timeout
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        spin = timeout or (0 if blas_threads == "1" else 4)
        expected = f"{blas_threads} {blas_threads == '2'} {spin} {timeout}"
        assert done.stdout.split() == expected.split()

    @pytest.mark.parametrize("maps", [None, "7f00-7f01 r--p 0 00:00 0 /usr/lib/libc.so.6\n"],
                             ids=["unreadable", "no-openblas"])
    def test_step_runs_on_the_caller_without_openblas(self, monkeypatch, split_workers, maps):
        """Where /proc/self/maps cannot be read (None) or maps no OpenBLAS,
        the first split step settles on one worker: no pool, no restart of
        OpenBLAS (``OPENBLAS_THREAD_TIMEOUT`` stays unset), the textbook bits.
        ``open`` is shadowed in the module alone, so no real library is touched."""
        monkeypatch.setattr(numerics, "_SPLIT_BLOCK", 16)
        split_workers(None)
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
        opened = []

        def fake_open(path, *args, **kwargs):
            opened.append(path)
            if maps is None:
                raise OSError("no maps")
            return io.StringIO(maps)

        monkeypatch.setattr(numerics, "open", fake_open, raising=False)
        r = np.random.default_rng(11)
        p = r.standard_normal((9, 7))  # five 2-row blocks
        p_ref = p.copy()
        st_, st_ref = AdamState.for_param(p.shape, 0.01), AdamState.for_param(p.shape, 0.01)
        for g in r.standard_normal((5, 9, 7)):
            adam_step(st_, p, g)
            _textbook_adam(st_ref, p_ref, g)
        assert opened == ["/proc/self/maps"]  # looked up once, at the first step
        assert numerics._SPLIT_WORKERS == 1 and numerics._pool is None
        assert "OPENBLAS_THREAD_TIMEOUT" not in os.environ
        assert np.array_equal(p, p_ref)

    def test_forked_child_makes_a_pool_of_its_own(self):
        """A forked child has none of its parent's pool threads: it drops
        the pool and its split steps keep the bits."""
        script = (
            "import os, numpy as np\n"
            "from fflab import numerics\n"
            "numerics._SPLIT_WORKERS, numerics._SPLIT_BLOCK = 2, 40\n"
            "def run():\n"
            "    p, st = np.zeros((37, 11)), numerics.AdamState.for_param((37, 11), 0.01)\n"
            "    for g in np.random.default_rng(10).standard_normal((5, 37, 11)):\n"
            "        numerics.adam_step(st, p, g)\n"
            "    return p\n"
            "parent = run()\n"
            "assert numerics._pool is not None\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    fresh = numerics._pool is None\n"
            "    os._exit(0 if fresh and np.array_equal(run(), parent) else 1)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(numerics.__file__)))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"]
