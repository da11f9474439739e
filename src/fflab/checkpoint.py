"""Versioned binary checkpoints.

Layout (all integers little-endian):

    magic           4 bytes, b"FFN1" or b"BPN1"
    layer_count     u32
    per layer:
        in_width    u32
        out_width   u32
        act_tag     u8      (255 = linear, only the BPN1 output layer)
        W           out*in float64, row-major
        b           out float64
    optional trailing head section:
        tag             b"HEAD"
        num_classes     u32
        concat_width    u32
        n_included      u32
        included        n_included u32
        W               num_classes*concat_width float64
        b               num_classes float64

Round-trips are bit-exact. Optimizer state is not persisted: loaded
networks get fresh Adam moments, and heads carry no optimizer state.
"""

import io
import struct

import numpy as np

from .activations import ACTIVATIONS, activation_by_tag
from .bp_baseline import BPNetwork
from .errors import FormatError, UsageError
from .ffnet import FFLayer, FFNetwork
from .inference import ClassifierHead
from .numerics import DenseLayer

FF_MAGIC = b"FFN1"
BP_MAGIC = b"BPN1"
HEAD_TAG = b"HEAD"
LINEAR_TAG = 255


def _canonical_tag(act):
    """The activation's byte tag; ``LINEAR_TAG`` for a linear layer."""
    if act is None:
        return LINEAR_TAG
    if act.name not in ACTIVATIONS:
        raise UsageError(
            f"checkpoints carry only the canonical activation kinds; "
            f"got {act.name!r}"
        )
    return act.tag


def _f8(a):
    """Little-endian float64 view of ``a``; no copy for a native C-contiguous array."""
    return np.ascontiguousarray(a, dtype="<f8")


def _layer_plan(net):
    """(magic, [(W, b, tag) per layer]) with every activation tag resolved,
    so a net that cannot be written is refused before any byte is."""
    if isinstance(net, FFNetwork):
        magic = FF_MAGIC
    elif isinstance(net, BPNetwork):
        magic = BP_MAGIC
    else:
        raise UsageError(f"cannot checkpoint a {type(net).__name__}")
    return magic, [(layer.W, layer.b, _canonical_tag(layer.act)) for layer in net.layers]


def _write(f, plan, head):
    """Write a resolved plan (and optional head) to a binary file object,
    each array straight from its buffer."""
    magic, layers = plan
    f.write(magic)
    f.write(struct.pack("<I", len(layers)))
    for W, b, tag in layers:
        out_dim, in_dim = W.shape
        f.write(struct.pack("<IIB", in_dim, out_dim, tag))
        f.write(_f8(W))
        f.write(_f8(b))
    if head is not None:
        inc = head.included_layers
        f.write(HEAD_TAG)
        f.write(struct.pack("<III", head.num_classes, head.concat_width, len(inc)))
        f.write(struct.pack(f"<{len(inc)}I", *inc))
        f.write(_f8(head.W))
        f.write(_f8(head.b))


def network_bytes(net, head=None):
    """Serialized form of a network (plus optional head) as bytes."""
    buf = io.BytesIO()
    _write(buf, _layer_plan(net), head)
    return buf.getvalue()


def save_network(path, net, head=None):
    """Write the checkpoint; a net that cannot be written leaves ``path`` as it was."""
    plan = _layer_plan(net)
    with open(path, "wb") as f:
        _write(f, plan, head)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise FormatError(
                f"truncated checkpoint: wanted {n} bytes for {what}, "
                f"have {len(self.data) - self.pos}",
                offset=self.pos,
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u8(self, what):
        return self.take(1, what)[0]

    def f64_array(self, count, what):
        """``count`` float64 values, all finite."""
        at = self.pos
        a = np.frombuffer(self.take(8 * count, what), dtype="<f8").astype(np.float64)
        # min/max propagate NaN and expose +-inf without a boolean mask
        if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
            i = int(np.flatnonzero(~np.isfinite(a))[0])
            raise FormatError(f"non-finite value {a[i]} in {what}", offset=at + 8 * i)
        return a


def _read_activation(r, li, linear):
    """The layer's activation; ``None`` for the linear BPN1 output layer."""
    at = r.pos
    tag = r.u8(f"layer {li} activation tag")
    if linear:
        if tag != LINEAR_TAG:
            raise FormatError(
                f"BPN1 output layer must be linear (tag {LINEAR_TAG}), got {tag}",
                offset=at,
            )
        return None
    try:
        return activation_by_tag(tag)
    except UsageError:
        raise FormatError(f"layer {li}: unknown activation tag {tag}", offset=at) from None


def _read_layers(r, magic):
    """(in_dim, out_dim, activation, W, b) per layer; widths must chain."""
    at = r.pos
    count = r.u32("layer count")
    least = 1 if magic == FF_MAGIC else 2
    if count < least:
        raise FormatError(
            f"{magic.decode()} checkpoint needs at least {least} layers, has {count}",
            offset=at,
        )
    out = []
    for li in range(count):
        at = r.pos
        in_dim = r.u32(f"layer {li} in_width")
        out_dim = r.u32(f"layer {li} out_width")
        if in_dim == 0 or out_dim == 0:
            raise FormatError(
                f"layer {li} has zero width", offset=at if in_dim == 0 else at + 4
            )
        if out and in_dim != out[-1][1]:
            raise FormatError(
                f"layer {li} in_width {in_dim} does not match layer {li - 1} "
                f"out_width {out[-1][1]}",
                offset=at,
            )
        act = _read_activation(r, li, linear=magic == BP_MAGIC and li == count - 1)
        W = r.f64_array(out_dim * in_dim, f"layer {li} weights").reshape(out_dim, in_dim)
        b = r.f64_array(out_dim, f"layer {li} bias")
        out.append((in_dim, out_dim, act, W, b))
    return out


def _read_head(r, widths):
    """The head section: at least one class, read from at least one existing
    layer, each once, at the included layers' total width."""
    at = r.pos
    num_classes = r.u32("head num_classes")
    if num_classes == 0:
        raise FormatError("head has no classes", offset=at)
    width_at = r.pos
    concat_width = r.u32("head concat_width")
    at = r.pos
    n_inc = r.u32("head n_included")
    if n_inc == 0:
        raise FormatError("head reads no layers", offset=at)
    inc_at = r.pos
    included = tuple(
        struct.unpack(f"<{n_inc}I", r.take(4 * n_inc, "head included layers"))
    )
    for k, li in enumerate(included):
        if li >= len(widths):
            raise FormatError(
                f"head includes layer {li}, but the network has {len(widths)} layers",
                offset=inc_at + 4 * k,
            )
        if li in included[:k]:
            raise FormatError(f"head includes layer {li} twice", offset=inc_at + 4 * k)
    expected = sum(widths[li] for li in included)
    if concat_width != expected:
        raise FormatError(
            f"head concat_width {concat_width} does not match the included "
            f"layers' total width {expected}",
            offset=width_at,
        )
    W = r.f64_array(num_classes * concat_width, "head weights").reshape(
        num_classes, concat_width
    )
    b = r.f64_array(num_classes, "head bias")
    return ClassifierHead(W=W, b=b, included_layers=included)


def load_network(path, lr=0.01):
    """Returns (net, head_or_None); accepts both container magics. The
    layers get fresh Adam moments at step size ``lr``; the head gets none.

    A file that does not describe a usable network raises
    :class:`FormatError` with the byte offset of the offending field:
    no layers, a zero width, an unknown activation tag, widths that do
    not chain, non-finite weights, or a head with no classes or one
    that does not read one or more existing layers, each once, at their
    total width.
    """
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data)
    magic = r.take(4, "magic")
    if magic not in (FF_MAGIC, BP_MAGIC):
        raise FormatError(f"bad checkpoint magic {magic!r}", offset=0)
    specs = _read_layers(r, magic)

    net_cls, layer_cls = (FFNetwork, FFLayer) if magic == FF_MAGIC else (BPNetwork, DenseLayer)
    net = net_cls.from_layer_list(
        [layer_cls(i, o, act, lr, W=W, b=b) for i, o, act, W, b in specs]
    )

    head = None
    if r.pos < len(data):
        tag = r.take(4, "trailing section tag")
        if tag != HEAD_TAG:
            raise FormatError(f"unknown trailing section {tag!r}", offset=r.pos - 4)
        head = _read_head(r, [spec[1] for spec in specs])
    if r.pos != len(data):
        raise FormatError(
            f"{len(data) - r.pos} unexpected trailing bytes", offset=r.pos
        )
    return net, head
