"""Mutation fuzzing of every parser of outside input.

Each parser gets a valid input with a few bytes overwritten, inserted or
deleted, then maybe cut short. Whatever it is given, it either parses
or raises an :class:`FFLabError` subclass; the CLI turns those into a
documented exit code and a one-line message, so any other exception is
a traceback. The runs are derandomized, so the examples are the same on
every run.
"""

import gzip
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflab.bp_baseline import BPNetwork
from fflab.checkpoint import load_network, network_bytes
from fflab.config import parse_config
from fflab.errors import FFLabError
from fflab.ffnet import FFNetwork
from fflab.inference import ClassifierHead
from fflab.mnist_data import parse_idx_images, parse_idx_labels
from fflab.rng import Rng
from fflab.text_data import load_cached_embeddings, load_embeddings

FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _edit(valid, edits, cut):
    data = bytearray(valid)
    for kind, at, byte in edits:
        at = min(at, len(data))
        if kind == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if kind == "set":
                data[at] = byte
            else:
                del data[at]
    return bytes(data if cut is None else data[:cut])


def mutated(valid):
    """``valid`` with up to four bytes overwritten, inserted or deleted,
    then maybe truncated."""
    edit = st.tuples(
        st.sampled_from(["set", "insert", "delete"]),
        st.integers(0, len(valid)),
        st.integers(0, 255),
    )
    cut = st.none() | st.integers(0, len(valid))
    return st.builds(_edit, st.just(valid), st.lists(edit, max_size=4), cut)


def only_package_errors(parse, *args):
    try:
        parse(*args)
    except FFLabError:
        pass


def _ffn1_with_head():
    rng = Rng(5)
    net = FFNetwork(4, [3, 2], "relu", 0.01, rng)
    head = ClassifierHead(rng.uniform_array(4).reshape(2, 2), rng.uniform_array(2), (1,))
    return network_bytes(net, head)


CHECKPOINTS = {
    "ffn1-head": _ffn1_with_head(),
    "bpn1": network_bytes(BPNetwork(4, [3], 2, "relu", 0.01, Rng(6))),
}
IMAGES = struct.pack(">IIII", 0x00000803, 2, 28, 28) + bytes(range(256)) * 6 + bytes(32)
LABELS = struct.pack(">II", 0x00000801, 5) + bytes([3, 1, 4, 1, 5])
CONFIG = (
    b"# a run\nseed = 3\ndataset = synthetic\narch = 16,16\n"
    b"threshold.k = [0.3, 0.5]\n"
    b"lr = 0.01  # Adam\ninference.skip_first_layer = true\n"
)
EMBEDDINGS = b"3 2\nfoo 0.1 0.2\nbar -0.5 1e-3\nbaz 2.0 3.0\n"
SIDECAR = json.dumps({"fingerprint": "fp"}).encode("utf-8")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", sorted(CHECKPOINTS))
def test_load_network(scratch, kind):
    path = scratch / f"{kind}.bin"

    @FUZZ
    @given(mutated(CHECKPOINTS[kind]))
    def check(data):
        path.write_bytes(data)
        only_package_errors(load_network, str(path))

    check()


@pytest.mark.parametrize("parse, valid", [
    (parse_idx_images, IMAGES), (parse_idx_labels, LABELS),
], ids=["images", "labels"])
@pytest.mark.parametrize("pack", [bytes, gzip.compress], ids=["raw", "gzip"])
def test_parse_idx(parse, valid, pack):
    @FUZZ
    @given(mutated(pack(valid)))
    def check(data):
        only_package_errors(parse, data)

    check()


def test_parse_config(scratch):
    path = scratch / "run.cfg"

    @FUZZ
    @given(mutated(CONFIG))
    def check(data):
        path.write_bytes(data)
        only_package_errors(parse_config, str(path))

    check()


def test_load_embeddings(scratch):
    path = scratch / "emb.txt"

    @FUZZ
    @given(mutated(EMBEDDINGS))
    def check(data):
        path.write_bytes(data)
        only_package_errors(load_embeddings, str(path))

    check()


def test_load_cached_embeddings_sidecar(scratch):
    path = scratch / "cached.txt"
    path.write_bytes(EMBEDDINGS)

    @FUZZ
    @given(mutated(SIDECAR))
    def check(data):
        (scratch / "cached.txt.meta.json").write_bytes(data)
        only_package_errors(load_cached_embeddings, str(path), "fp")

    check()
