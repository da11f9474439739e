"""IDX parsing against hand-built fixtures, label embedding, epoch batches."""

import gzip
import os
import struct

import numpy as np
import pytest

from fflab.errors import FormatError, UsageError
from fflab.mnist_data import LABEL_SLOTS, load_mnist, parse_idx_images, parse_idx_labels
from fflab.rng import Rng

from oracles import epoch_batches
from test_pipelines import write_idx_dir


def build_image_idx(images_u8):
    """Byte-by-byte IDX image container for the given uint8 images."""
    n = len(images_u8)
    header = struct.pack(">IIII", 0x00000803, n, 28, 28)
    return header + b"".join(bytes(img) for img in images_u8)


def build_label_idx(labels):
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)


class TestParseImages:
    def test_single_image_fixture(self):
        """Parsed values equal fixture bytes / 255, position by position."""
        img = bytes((i * 7) % 256 for i in range(784))
        X = parse_idx_images(build_image_idx([img]))
        assert X.shape == (1, 784)
        np.testing.assert_allclose(X[0], np.frombuffer(img, dtype=np.uint8) / 255.0)

    def test_bad_magic(self):
        data = struct.pack(">IIII", 0x00000802, 1, 28, 28) + bytes(784)
        with pytest.raises(FormatError, match="magic") as exc:
            parse_idx_images(data)
        assert exc.value.offset == 0

    def test_truncated_payload_reports_offset(self):
        data = build_image_idx([bytes(784)])[:-1]
        with pytest.raises(FormatError, match="payload") as exc:
            parse_idx_images(data)
        assert exc.value.offset == 16 + 783

    def test_wrong_dims(self):
        data = struct.pack(">IIII", 0x00000803, 1, 27, 28) + bytes(27 * 28)
        with pytest.raises(FormatError, match="28x28"):
            parse_idx_images(data)

    def test_gzip_variant(self):
        img = bytes(range(256)) + bytes(784 - 256)
        raw = build_image_idx([img])
        np.testing.assert_array_equal(
            parse_idx_images(gzip.compress(raw)), parse_idx_images(raw)
        )


class TestParseLabels:
    def test_roundtrip(self):
        labels = [3, 1, 4, 1, 5, 9]
        np.testing.assert_array_equal(
            parse_idx_labels(build_label_idx(labels)), labels
        )

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            parse_idx_labels(struct.pack(">II", 0x00000803, 0))

    def test_count_mismatch(self):
        data = struct.pack(">II", 0x00000801, 5) + bytes([1, 2, 3])
        with pytest.raises(FormatError, match="payload"):
            parse_idx_labels(data)

    def test_out_of_range_label(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_idx_labels(build_label_idx([10]))


class TestEmbedLabel:
    def test_sets_exactly_one_slot(self):
        pixels = Rng(1).uniform_array(784)
        out = LABEL_SLOTS.embed(pixels[None], 3)[0]
        assert out[3] == 1.0
        for i in range(10):
            if i != 3:
                assert out[i] == 0.0

    def test_argmax_roundtrip(self):
        pixels = Rng(2).uniform_array(784)
        assert int(np.argmax(LABEL_SLOTS.embed(pixels[None], 7)[0, :10])) == 7

    def test_pixels_beyond_ten_untouched(self):
        pixels = Rng(3).uniform_array(784)
        out = LABEL_SLOTS.embed(pixels[None], 0)[0]
        np.testing.assert_array_equal(out[10:], pixels[10:])

    def test_idempotent(self):
        pixels = Rng(4).uniform_array(784)
        once = LABEL_SLOTS.embed(pixels[None], 5)
        np.testing.assert_array_equal(once, LABEL_SLOTS.embed(once, 5))

    def test_label_out_of_range(self):
        with pytest.raises(UsageError):
            LABEL_SLOTS.embed(np.zeros((1, 784)), 10)

    def test_batch_matches_single(self):
        X = Rng(5).uniform_array(3 * 784).reshape(3, 784)
        batch = LABEL_SLOTS.embed(X, 6)
        for i in range(3):
            single = LABEL_SLOTS.embed(X[i][None], 6)[0]
            np.testing.assert_array_equal(batch[i], single)

    def test_neutral_zeroes_slots_only(self):
        X = Rng(6).uniform_array(784).reshape(1, 784)
        out = LABEL_SLOTS.neutral(X)
        assert np.all(out[0, :10] == 0.0)
        np.testing.assert_array_equal(out[0, 10:], X[0, 10:])


class TestMakeNegative:
    def test_never_true_label(self):
        y = np.zeros(500, dtype=int)
        wrong = LABEL_SLOTS.wrong_labels(y, Rng(7))
        X = LABEL_SLOTS.embed(np.zeros((500, 784)), wrong)
        assert np.all(np.argmax(X[:, :10], axis=1) != 0)

    def test_polarity_and_bookkeeping(self):
        """One row gives one batch: the row with its true label (+1), then
        the same row with a wrong label (-1)."""
        X = Rng(8).uniform_array(784).reshape(1, 784)
        [(feats, signs)] = epoch_batches(X, np.array([4]), LABEL_SLOTS, 128, Rng(8))
        np.testing.assert_array_equal(signs, [1.0, -1.0])
        assert np.argmax(feats[0, :10]) == 4 and np.argmax(feats[1, :10]) != 4
        np.testing.assert_array_equal(feats[:, 10:], np.repeat(X[:, 10:], 2, axis=0))

    def test_wrong_labels_near_uniform(self):
        """Over 9000 draws each wrong label appears 1000 +- 100 times."""
        y = np.full(9000, 3)
        counts = np.bincount(LABEL_SLOTS.wrong_labels(y, Rng(9)), minlength=10)
        assert counts[3] == 0
        others = np.delete(counts, 3)
        assert np.all(np.abs(others - 1000) <= 100)


class TestParserTotality:
    """Any byte string either parses or raises a located FormatError."""

    def test_random_bytes_never_crash(self):
        rng = Rng(99)
        for trial in range(200):
            n = int(rng.randint(64))
            blob = bytes(int(rng.randint(256)) for _ in range(n))
            for parser in (parse_idx_images, parse_idx_labels):
                try:
                    parser(blob)
                except FormatError as e:
                    assert e.offset is not None
                except Exception as e:  # pragma: no cover
                    raise AssertionError(f"non-FormatError {type(e).__name__}") from e

    def test_header_prefixes_of_valid_file(self):
        img = bytes(784)
        good = build_image_idx([img])
        for cut in (0, 3, 4, 8, 15, 16, 400):
            try:
                parse_idx_images(good[:cut])
            except FormatError:
                pass


class TestLoadLimits:
    """load_mnist converts only the kept rows but checks each whole file."""

    @pytest.mark.parametrize(
        "train_limit, test_limit", [(0, 0), (7, 3), (1, 0), (20, 10), (25, 99)]
    )
    def test_limited_load_is_the_first_rows_of_a_full_load(
        self, tmp_path, train_limit, test_limit
    ):
        write_idx_dir(str(tmp_path), n_train=20, n_test=10)
        full = load_mnist(str(tmp_path))
        kept = load_mnist(str(tmp_path), train_limit, test_limit)
        limits = (train_limit, train_limit, test_limit, test_limit)
        for got, whole, limit in zip(kept, full, limits):
            want = whole[:limit] if limit else whole
            assert got.dtype == whole.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.base is None  # no view keeps the whole split alive

    def test_payload_truncated_after_the_kept_rows_is_located(self, tmp_path):
        write_idx_dir(str(tmp_path), n_train=20, n_test=10)
        path = os.path.join(str(tmp_path), "train-images-idx3-ubyte")
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[: 16 + 15 * 784 + 100])
        with pytest.raises(FormatError, match="payload") as exc:
            load_mnist(str(tmp_path), train_limit=2)
        assert str(exc.value).startswith(f"{path}: ")
        assert exc.value.offset == 16 + 15 * 784 + 100

    def test_label_out_of_range_after_the_kept_rows_is_located(self, tmp_path):
        write_idx_dir(str(tmp_path), n_train=20, n_test=10)
        path = os.path.join(str(tmp_path), "train-labels-idx1-ubyte.gz")
        with gzip.open(path, "rb") as f:
            data = bytearray(f.read())
        data[8 + 17] = 10
        with gzip.open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(FormatError, match="out of range") as exc:
            load_mnist(str(tmp_path), train_limit=2)
        assert str(exc.value).startswith(f"{path}: ")


class TestTrainingStream:
    def _small_set(self, n=100):
        rng = Rng(10)
        X = rng.uniform_array(n * 784).reshape(n, 784)
        y = np.array([rng.randint(10) for _ in range(n)])
        return X, y

    def test_counts_and_balance(self):
        X, y = self._small_set()
        batches = epoch_batches(X, y, LABEL_SLOTS, 32, Rng(11))
        signs = np.concatenate([s for _, s in batches])
        assert len(signs) == 200
        assert np.sum(signs > 0) == 100
        assert np.sum(signs < 0) == 100

    def test_deterministic_order(self):
        X, y = self._small_set()
        b1 = epoch_batches(X, y, LABEL_SLOTS, 32, Rng(12))
        b2 = epoch_batches(X, y, LABEL_SLOTS, 32, Rng(12))
        assert len(b1) == len(b2) == 7
        for (X1, s1), (X2, s2) in zip(b1, b2):
            np.testing.assert_array_equal(X1, X2)
            np.testing.assert_array_equal(s1, s2)

    def test_positive_samples_carry_true_label(self):
        """Every embedded row is a raw row; positives carry its true label,
        negatives any other."""
        X, y = self._small_set()
        seen = 0
        for feats, signs in epoch_batches(X, y, LABEL_SLOTS, 32, Rng(13)):
            for f, s in zip(feats, signs):
                [row] = np.flatnonzero(np.all(X[:, 10:] == f[10:], axis=1))
                assert (np.argmax(f[:10]) == y[row]) == (s > 0)
                seen += 1
        assert seen == 200

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            epoch_batches(np.empty((0, 784)), np.empty(0), LABEL_SLOTS, 32, Rng(1))
