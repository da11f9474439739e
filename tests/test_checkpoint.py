"""Checkpoint container round-trips must be bit-exact."""

import numpy as np
import pytest

from fflab.bp_baseline import BPNetwork
from fflab.checkpoint import load_network, network_bytes, save_network
from fflab.errors import FormatError, UsageError
from fflab.ffnet import FFNetwork
from fflab.inference import train_head
from fflab.rng import Rng
from fflab.synthetic import label_slots, two_blob_toy


@pytest.fixture
def ff_net():
    return FFNetwork(10, [8, 6], "gelu", 0.01, Rng(5))


def test_ff_roundtrip_bit_exact(tmp_path, ff_net):
    path = tmp_path / "net.ffn1"
    save_network(path, ff_net)
    loaded, head = load_network(path)
    assert head is None
    assert network_bytes(loaded) == network_bytes(ff_net)
    for a, b in zip(ff_net.layers, loaded.layers):
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.b, b.b)
        assert a.act.name == b.act.name


def test_ff_roundtrip_with_head(tmp_path, ff_net):
    X, y, _ = two_blob_toy()
    Xn = label_slots(2).neutral(X)
    net = FFNetwork(Xn.shape[1], [8, 6], "relu", 0.01, Rng(6))
    head = train_head(net, Xn, y, 2, epochs=1, rng=Rng(7))
    path = tmp_path / "net.ffn1"
    save_network(path, net, head)
    loaded, head2 = load_network(path)
    assert head2 is not None
    np.testing.assert_array_equal(head.W, head2.W)
    np.testing.assert_array_equal(head.b, head2.b)
    assert head.included_layers == head2.included_layers
    assert network_bytes(net, head) == network_bytes(loaded, head2)


def test_double_save_identical_bytes(tmp_path, ff_net):
    p1, p2 = tmp_path / "a.ffn1", tmp_path / "b.ffn1"
    save_network(p1, ff_net)
    save_network(p2, ff_net)
    assert p1.read_bytes() == p2.read_bytes()


def test_bp_roundtrip_bit_exact(tmp_path):
    bp = BPNetwork(12, [7, 5], 3, "relu", 1e-3, Rng(8))
    path = tmp_path / "net.bpn1"
    save_network(path, bp)
    loaded, _ = load_network(path)
    assert isinstance(loaded, BPNetwork)
    assert network_bytes(loaded) == network_bytes(bp)
    assert loaded.out_layer.act is None
    assert loaded.num_classes == 3


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_network(path)


def test_truncated_payload_rejected(tmp_path, ff_net):
    path = tmp_path / "net.ffn1"
    save_network(path, ff_net)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(FormatError, match="truncated"):
        load_network(path)


def test_trailing_garbage_rejected(tmp_path, ff_net):
    path = tmp_path / "net.ffn1"
    save_network(path, ff_net)
    path.write_bytes(path.read_bytes() + b"\x01\x02")
    with pytest.raises(FormatError):
        load_network(path)


def test_every_truncation_point_is_a_format_error(tmp_path, ff_net):
    """Cutting the container at any byte boundary must fail cleanly."""
    path = tmp_path / "net.ffn1"
    save_network(path, ff_net)
    data = path.read_bytes()
    probe = tmp_path / "cut.ffn1"
    for cut in range(0, len(data), 97):
        if cut == len(data):
            continue
        probe.write_bytes(data[:cut])
        with pytest.raises(FormatError):
            load_network(probe)


def test_nonstandard_leaky_slope_refused(tmp_path):
    from fflab.activations import leaky_relu
    from fflab.ffnet import FFLayer

    layer = FFLayer(4, 3, leaky_relu(0.3), 0.01, Rng(9))
    net = FFNetwork.from_layer_list(4, [layer])
    with pytest.raises(UsageError, match="canonical"):
        save_network(tmp_path / "x.ffn1", net)
