"""Checkpoint container round-trips must be bit-exact, and malformed
containers must be refused at load with the offending byte offset."""

import struct

import numpy as np
import pytest

from fflab.bp_baseline import BPNetwork
from fflab.checkpoint import load_network, network_bytes, save_network
from fflab.cli import main
from fflab.errors import FormatError, UsageError
from fflab.ffnet import FFNetwork
from fflab.rng import Rng
from fflab.synthetic import label_slots

from oracles import frozen_head, leaky_relu, two_blob_toy


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
    slots = label_slots(2)
    net = FFNetwork(slots.width(X.shape[1]), [8, 6], "relu", 0.01, Rng(6))
    head = frozen_head(net, X, slots, y, 2, epochs=1, rng=Rng(7))
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
    assert loaded.layers[-1].act is None
    assert loaded.layers[-1].out_dim == 3


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
    from fflab.ffnet import FFLayer

    layer = FFLayer(4, 3, leaky_relu(0.3), 0.01, Rng(9))
    net = FFNetwork.from_layer_list([layer])
    with pytest.raises(UsageError, match="canonical"):
        save_network(tmp_path / "x.ffn1", net)


def _layout_bytes(magic, layers, head=None):
    """The documented container layout, built with per-array ``tobytes``."""
    out = magic + struct.pack("<I", len(layers))
    for W, b, tag in layers:
        out += struct.pack("<IIB", W.shape[1], W.shape[0], tag) + W.tobytes() + b.tobytes()
    if head is not None:
        inc = head.included_layers
        out += b"HEAD" + struct.pack("<III", head.num_classes, head.concat_width, len(inc))
        out += struct.pack(f"<{len(inc)}I", *inc) + head.W.tobytes() + head.b.tobytes()
    return out


def test_saved_ffn1_with_head_is_the_documented_layout(tmp_path):
    X, y, _ = two_blob_toy()
    slots = label_slots(2)
    net = FFNetwork(slots.width(X.shape[1]), [8, 6], "gelu", 0.01, Rng(10))
    head = frozen_head(net, X, slots, y, 2, epochs=1, rng=Rng(11), included_layers=(0, 1))
    path = tmp_path / "net.ffn1"
    save_network(path, net, head)
    want = _layout_bytes(b"FFN1", [(x.W, x.b, x.act.tag) for x in net.layers], head)
    assert path.read_bytes() == want == network_bytes(net, head)


def test_saved_bpn1_is_the_documented_layout(tmp_path):
    bp = BPNetwork(12, [7, 5], 3, "tanh", 1e-3, Rng(12))
    path = tmp_path / "net.bpn1"
    save_network(path, bp)
    layers = [(x.W, x.b, x.act.tag) for x in bp.layers[:-1]]
    layers.append((bp.layers[-1].W, bp.layers[-1].b, 255))
    assert path.read_bytes() == _layout_bytes(b"BPN1", layers) == network_bytes(bp)


def test_refused_net_leaves_the_existing_file_intact(tmp_path, ff_net):
    """The activation tags are resolved before the file is opened."""
    from fflab.ffnet import FFLayer

    path = tmp_path / "net.ffn1"
    save_network(path, ff_net)
    before = path.read_bytes()
    odd = FFLayer(6, 3, leaky_relu(0.3), 0.01, Rng(13))
    net = FFNetwork.from_layer_list(ff_net.layers + [odd])
    with pytest.raises(UsageError, match="canonical"):
        save_network(path, net)
    assert path.read_bytes() == before


# Hand-built FFN1 files: a 4 -> 3 -> 2 relu net with a head over layer 1,
# and one defect per case. Each case names the byte offset the error
# must report.


def _u32(*values):
    return struct.pack(f"<{len(values)}I", *values)


def _layer(in_dim, out_dim, tag=0, values=None):
    if values is None:
        values = np.full(out_dim * in_dim + out_dim, 0.1)
    return _u32(in_dim, out_dim) + bytes([tag]) + np.asarray(values, "<f8").tobytes()


def _head(concat_width, included, num_classes=2):
    return (
        b"HEAD"
        + _u32(num_classes, concat_width, len(included), *included)
        + np.zeros(num_classes * concat_width + num_classes, "<f8").tobytes()
    )


_TOP = b"FFN1" + _u32(2)
_L0 = _layer(4, 3)
_L1 = _layer(3, 2)
_NAN_AT = 4  # flat index of the NaN in layer 1's weights
_L1_NAN = _layer(3, 2, values=np.where(np.arange(8) == _NAN_AT, np.nan, 0.1))

MALFORMED = {
    "no layers": (b"FFN1" + _u32(0), 4),
    "unknown activation tag": (_TOP + _layer(4, 3, tag=9) + _L1, len(_TOP) + 8),
    "broken width chain": (_TOP + _L0 + _layer(5, 2), len(_TOP + _L0)),
    "non-finite weight": (_TOP + _L0 + _L1_NAN, len(_TOP + _L0) + 9 + 8 * _NAN_AT),
    "head reads a missing layer": (
        _TOP + _L0 + _L1 + _head(2, [1, 2]),
        len(_TOP + _L0 + _L1) + 4 + 12 + 4,
    ),
    "head width mismatch": (_TOP + _L0 + _L1 + _head(3, [1]), len(_TOP + _L0 + _L1) + 8),
    "zero-width layer": (_TOP + _layer(4, 0) + _layer(0, 2), len(_TOP) + 4),
    "head with no classes": (
        _TOP + _L0 + _L1 + _head(2, [1], num_classes=0),
        len(_TOP + _L0 + _L1) + 4,
    ),
    "head reads no layers": (_TOP + _L0 + _L1 + _head(0, []), len(_TOP + _L0 + _L1) + 12),
}


def test_hand_built_file_loads(tmp_path):
    """The cases below differ from this valid file by one defect each."""
    path = tmp_path / "ok.ffn1"
    path.write_bytes(_TOP + _L0 + _L1 + _head(2, [1]))
    net, head = load_network(path)
    assert net.widths == [3, 2] and head.included_layers == (1,)
    assert network_bytes(net, head) == path.read_bytes()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_rejected_at_load(tmp_path, case):
    data, offset = MALFORMED[case]
    path = tmp_path / "bad.ffn1"
    path.write_bytes(data)
    with pytest.raises(FormatError) as info:
        load_network(path)
    assert info.value.offset == offset


@pytest.mark.parametrize("command", ["analyze", "eval"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_exits_2(tmp_path, capsys, case, command):
    data, offset = MALFORMED[case]
    path = tmp_path / "bad.ffn1"
    path.write_bytes(data)
    args = [command, "--checkpoint", str(path), "--set", "seed=1"]
    if command == "analyze":
        args += ["--out", str(tmp_path / "analysis")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert f"(at byte {offset})" in err


def test_bp_output_layer_must_be_linear(tmp_path):
    bp = BPNetwork(12, [7, 5], 3, "relu", 1e-3, Rng(8))
    data = bytearray(network_bytes(bp))
    # the output layer's tag follows its two width fields
    tag_at = 8 + sum(9 + 8 * (l.out_dim * l.in_dim + l.out_dim) for l in bp.layers[:-1]) + 8
    assert data[tag_at] == 255
    data[tag_at] = 0
    path = tmp_path / "bad.bpn1"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="linear") as info:
        load_network(path)
    assert info.value.offset == tag_at
