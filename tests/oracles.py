"""Independent reference computations the tests check the package against.

Everything here is deliberately written the dumb way — plain loops,
scalar recursions — and stays independent of the code paths it judges.
The head's own minibatch loop and the baseline's two-pass backward step
are kept as the trainers that ``fit_head`` and ``bp_train_epoch`` must
match bit for bit. The last section holds helpers that only the tests use: closed-form
gradients, the head fit on a frozen net, the batches an epoch trains
on, a PGM reader, a shape check, the baseline's loss, a leaky relu of
any slope, a two-sample KS test and the two-blob toy task.
"""

import numpy as np

from fflab.activations import DEFAULT_LEAKY_SLOPE, LEAKY_RELU, Activation, _make_leaky, softmax
from fflab.errors import UsageError
from fflab.ffnet import FFNetwork, train_epoch
from fflab.inference import default_included_layers, features_batch, fit_head
from fflab.kernels import negative_targets, pairs_per_sentence
from fflab.numerics import AdamState, adam_step
from fflab.rng import GOLDEN, MASK64, _INV53, Rng, derive_seed, mix64
from fflab.synthetic import make_blobs


def central_diff_grad(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        old = xf[i]
        xf[i] = old + h
        up = f(x)
        xf[i] = old - h
        down = f(x)
        xf[i] = old
        flat[i] = (up - down) / (2.0 * h)
    return g


def rel_err(a, b):
    """Elementwise worst-case relative error, floored at the tensor scale.

    Entries far below the tensor's own magnitude are compared against
    1e-6 of that magnitude instead of themselves — central differences
    cannot certify below their cancellation noise floor.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    tensor_scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    scale = np.maximum(1e-3 * tensor_scale, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def scalar_adam(p0, grads, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook scalar Adam recursion."""
    p, m, v = float(p0), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p -= lr * mhat / (vhat ** 0.5 + eps)
    return p


def loop_direction(x, eps=1e-8):
    """x divided by max(||x||_2, eps), summing the squares in a loop."""
    norm = 0.0
    for v in x:
        norm += v * v
    norm = norm ** 0.5
    denom = norm if norm > eps else eps
    return np.array([v / denom for v in x])


def loop_layer_forward(W, b, x, act_fn, eps=1e-8):
    """Plain-loop forward pass: normalize, affine, activate."""
    xhat = loop_direction(x, eps)
    z = np.zeros(W.shape[0])
    for i in range(W.shape[0]):
        acc = 0.0
        for j in range(W.shape[1]):
            acc += W[i, j] * xhat[j]
        z[i] = acc + b[i]
    return z, act_fn(z)


def loop_goodness(a):
    total = 0.0
    for v in a:
        total += v * v
    return total


def loop_softplus(u):
    return u if u > 30.0 else float(np.log1p(np.exp(u)))


def loop_sigmoid(u):
    if u >= 0:
        return 1.0 / (1.0 + np.exp(-u))
    e = np.exp(u)
    return e / (1.0 + e)


def loop_layer_loss(W, b, x, act_fn, sign, theta):
    """Per-sample layer loss, the scalar the finite differences probe."""
    _, a = loop_layer_forward(W, b, x, act_fn)
    return loop_softplus(sign * (theta - loop_goodness(a)))


def loop_epoch(layer_params, acts, batches, thetas, lr):
    """Straight-line reference for one training pass.

    layer_params: list of (W, b) arrays (copied inside); acts: list of
    (fn, deriv); batches: list of (features, signs) in training order;
    returns (per-layer mean loss, final (W, b) list). Mirrors the
    batching semantics: forward the whole batch with pre-update weights,
    then update every layer from its own input.
    """
    params = [(W.copy(), b.copy()) for W, b in layer_params]
    adam = [
        {
            "mW": np.zeros_like(W), "vW": np.zeros_like(W),
            "mb": np.zeros_like(b), "vb": np.zeros_like(b), "t": 0,
        }
        for W, b in params
    ]
    depth = len(params)
    loss_sum = np.zeros(depth)
    n = sum(len(batch_signs) for _, batch_signs in batches)

    for batch_inputs, batch_signs in batches:
        m = len(batch_signs)

        # forward every sample through every layer with current weights
        per_layer_xhat = [[] for _ in range(depth)]
        per_layer_z = [[] for _ in range(depth)]
        per_layer_a = [[] for _ in range(depth)]
        for x in batch_inputs:
            cur = x
            for li in range(depth):
                W, b = params[li]
                z, a = loop_layer_forward(W, b, cur, acts[li][0])
                per_layer_xhat[li].append(loop_direction(cur))
                per_layer_z[li].append(z)
                per_layer_a[li].append(a)
                cur = a

        for li in range(depth):
            W, b = params[li]
            dW = np.zeros_like(W)
            db = np.zeros_like(b)
            for s_i in range(m):
                xhat = per_layer_xhat[li][s_i]
                z = per_layer_z[li][s_i]
                a = per_layer_a[li][s_i]
                sign = batch_signs[s_i]
                G = loop_goodness(a)
                loss_sum[li] += loop_softplus(sign * (thetas[li] - G))
                dG = -sign * loop_sigmoid(sign * (thetas[li] - G))
                dz = dG * 2.0 * a * acts[li][1](z)
                dW += np.outer(dz, xhat)
                db += dz
            dW /= m
            db /= m

            st = adam[li]
            st["t"] += 1
            t = st["t"]
            for name, P, Gr in (("W", W, dW), ("b", b, db)):
                mm = st["m" + name]
                vv = st["v" + name]
                mm *= 0.9
                mm += 0.1 * Gr
                vv *= 0.999
                vv += 0.001 * Gr * Gr
                mhat = mm / (1 - 0.9 ** t)
                vhat = vv / (1 - 0.999 ** t)
                P -= lr * mhat / (np.sqrt(vhat) + 1e-8)

    return loss_sum / n, params


def loop_paired_batches(X_raw, y, num_classes, start, overwrite, batch_size, rng):
    """Reference epoch batches, built one row at a time.

    Per row, in row order: one wrong label, drawn as ``randint(C-1)`` and
    skipping the true label. Then a Fisher-Yates pass over the row
    indices, one ``randint`` per step from the last position down. Each
    batch takes the next ``batch_size // 2`` shuffled rows: every row
    with its true label written into the slots (positive), then every
    row again with its wrong label (negative). Slots overwrite raw
    columns start..start+C-1, or are inserted at ``start``. Returns a
    list of (features list, signs list), one per batch.
    """

    def embed(x, label):
        slots = [0.0] * num_classes
        slots[label] = 1.0
        x = [float(v) for v in x]
        rest = x[start + num_classes :] if overwrite else x[start:]
        return np.array(x[:start] + slots + rest)

    n = len(y)
    wrong = []
    for i in range(n):
        true = int(y[i])
        draw = int(rng.randint(num_classes - 1))
        wrong.append(draw if draw < true else draw + 1)
    order = list(range(n))
    for a in range(n - 1, 0, -1):
        b = int(rng.randint(a + 1))
        order[a], order[b] = order[b], order[a]

    batches = []
    m = batch_size // 2
    for lo in range(0, n, m):
        rows = order[lo : lo + m]
        features = [embed(X_raw[i], int(y[i])) for i in rows]
        features += [embed(X_raw[i], wrong[i]) for i in rows]
        batches.append((features, [1.0] * len(rows) + [-1.0] * len(rows)))
    return batches


def forward_stages(net, X):
    """Every layer's (Xhat, Z, A) for a batch, all forwarded before any
    update: the all-layers-first reference for ``train_epoch``'s
    one-layer-at-a-time step."""
    X = np.asarray(X, dtype=np.float64)
    stages = []
    for layer in net.layers:
        stages.append(layer.forward_batch(X))
        X = stages[-1][2]
    return stages


# The label sweep scores in float32; its scores and goodness are held to
# these float64 oracles within 64 float32 eps, relative.
SWEEP_RTOL = 64 * float(np.finfo(np.float32).eps)


def clear_rows(scores, rtol=SWEEP_RTOL):
    """Rows of reference ``scores`` whose top-two margin exceeds ``rtol``
    times their top score: the rows whose argmax a float32 sweep is held
    to."""
    top2 = np.sort(scores, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0] > rtol * np.abs(top2[:, 1])


def loop_sweep(net, X_raw, num_classes, slots, included_layers):
    """Reference sweep scores: each label embedded on its own and the full
    network forwarded per label, summing the included layers' goodness."""
    scores = np.zeros((X_raw.shape[0], num_classes))
    for c in range(num_classes):
        stages = forward_stages(net, slots.embed(X_raw, c))
        for i in included_layers:
            A = stages[i][2]
            scores[:, c] += np.sum(A * A, axis=1)
    return scores


def loop_goodness_report(net, positives, negatives, thetas, bins=50, batch_size=512):
    """Reference goodness report: every embedded positive and negative row
    forwarded through the whole network, in batches.

    Returns per layer (bin edges, positive counts, negative counts,
    fraction of positives above theta, fraction of negatives below it).
    """
    feats = np.concatenate([positives, negatives])
    pos = np.arange(feats.shape[0]) < positives.shape[0]
    G = [[] for _ in net.layers]
    for start in range(0, feats.shape[0], batch_size):
        for li, stage in enumerate(forward_stages(net, feats[start : start + batch_size])):
            G[li].append(np.sum(stage[2] * stage[2], axis=1))
    out = []
    for li, parts in enumerate(G):
        Gl = np.concatenate(parts)
        top = float(Gl.max())
        edges = np.linspace(0.0, top if top > 0 else 1.0, bins + 1)
        out.append((
            edges,
            np.histogram(Gl[pos], bins=edges)[0],
            np.histogram(Gl[~pos], bins=edges)[0],
            float(np.mean(Gl[pos] > thetas[li])),
            float(np.mean(Gl[~pos] < thetas[li])),
        ))
    return out


def loop_sgns_epoch(tokens, offsets, win, wout, cdf, window, neg_k,
                    lr0, lr_min, pairs_done, total_pairs, state):
    """Reference SGNS epoch: one pair at a time, one draw at a time.

    Every target's dot product, sigmoid and rank-1 update runs on its
    own, in pair order, drawing each negative from the scalar splitmix64
    stream; a draw that hits the context word is skipped. Updates win
    and wout in place; returns (rng state, pairs done).
    """
    d = win.shape[1]
    n_sent = offsets.shape[0] - 1
    for s in range(n_sent):
        lo, hi = int(offsets[s]), int(offsets[s + 1])
        for i in range(lo, hi):
            c = int(tokens[i])
            j_lo = max(lo, i - window)
            j_hi = min(hi - 1, i + window)
            for j in range(j_lo, j_hi + 1):
                if j == i:
                    continue
                o = int(tokens[j])
                lr = lr0 * (1.0 - pairs_done / total_pairs)
                if lr < lr_min:
                    lr = lr_min
                pairs_done += 1

                grad_c = np.zeros(d)
                u = float(win[c] @ wout[o])
                uc = max(min(u, 40.0), -40.0)
                f = 1.0 / (1.0 + np.exp(-uc))
                g = (1.0 - f) * lr
                grad_c += g * wout[o]
                wout[o] += g * win[c]

                for _ in range(neg_k):
                    state = (state + GOLDEN) & MASK64
                    udraw = (mix64(state) >> 11) * _INV53
                    # first index with cdf > draw
                    t = int(np.searchsorted(cdf, udraw, side="right"))
                    if t == o:
                        continue
                    u = float(win[c] @ wout[t])
                    uc = max(min(u, 40.0), -40.0)
                    f = 1.0 / (1.0 + np.exp(-uc))
                    g = (0.0 - f) * lr
                    grad_c += g * wout[t]
                    wout[t] += g * win[c]

                win[c] += grad_c
    return state, pairs_done


def _sentence_pairs(n, window):
    """(center, context) positions of an n-token sentence, in visit order:
    by center, then by context position."""
    w = min(window, n - 1)
    steps = np.concatenate([np.arange(-w, 0), np.arange(1, w + 1)])
    ctx = np.arange(n)[:, None] + steps
    inside = (ctx >= 0) & (ctx < n)
    return np.nonzero(inside)[0], ctx[inside]


def sentence_sgns_epoch(tokens, offsets, win, wout, cdf, window, neg_k,
                        lr0, lr_min, pairs_done, total_pairs, state):
    """The SGNS kernel as it was before block preparation: pairs,
    negatives, masks and rates prepared one sentence at a time.

    ``kernels.sgns_epoch`` must match it bit for bit: same tables, rng
    state and pair count.
    """
    rng = Rng(state)
    width = 1 + neg_k
    # target labels for m kept targets: 1 for the context word, 0 after it
    labels = [np.eye(1, m).ravel() for m in range(width + 1)]
    counts = pairs_per_sentence(offsets, window)
    for s in np.flatnonzero(counts):
        n_pairs = int(counts[s])
        sent = tokens[offsets[s] : offsets[s + 1]]
        pos_c, pos_o = _sentence_pairs(sent.shape[0], window)
        targets = np.empty((n_pairs, width), dtype=np.int64)
        targets[:, 0] = sent[pos_o]
        targets[:, 1:] = negative_targets(rng, cdf, n_pairs * neg_k).reshape(n_pairs, neg_k)
        # a draw that hits the context word is skipped
        kept = targets != targets[:, :1]
        kept[:, 0] = True
        # skipped slots get distinct ids below 0, so they never count as repeats
        marked = np.sort(np.where(kept, targets, -1 - np.arange(width)), axis=1)
        repeats = (marked[:, 1:] == marked[:, :-1]).any(axis=1)
        lrs = np.maximum(
            lr0 * (1.0 - (pairs_done + np.arange(n_pairs)) / total_pairs), lr_min
        )
        pairs_done += n_pairs
        per_pair = zip(
            sent[pos_c].tolist(), lrs.tolist(), kept.all(axis=1).tolist(), repeats.tolist()
        )
        for p, (c, lr, all_kept, repeat) in enumerate(per_pair):
            idx = targets[p] if all_kept else targets[p][kept[p]]
            wc = win[c]
            if repeat:
                grad_c = np.zeros(wc.shape[0])
                for q, t in enumerate(idx.tolist()):
                    uc = max(min(float(wc @ wout[t]), 40.0), -40.0)
                    g = ((1.0 if q == 0 else 0.0) - 1.0 / (1.0 + np.exp(-uc))) * lr
                    grad_c += g * wout[t]
                    wout[t] += g * wc
            else:
                rows = wout.take(idx, axis=0)
                u = rows.dot(wc)
                np.minimum(np.maximum(u, -40.0, out=u), 40.0, out=u)
                g = (labels[idx.shape[0]] - 1.0 / (1.0 + np.exp(-u))) * lr
                grad_c = g.dot(rows)
                rows += g[:, None] * wc
                wout[idx] = rows
            wc += grad_c
    return rng.state, pairs_done


def whole_u64_draws(state, n):
    """The next n splitmix64 outputs after ``state`` as one uint64
    expression over all n counters at once, with full-size temporaries."""
    z = np.uint64(state) + np.uint64(GOLDEN) * np.arange(1, n + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def whole_uniform_draws(state, n):
    """:func:`whole_u64_draws` mapped to [0, 1) as ``uniform_array`` maps them."""
    return (whole_u64_draws(state, n) >> np.uint64(11)).astype(np.float64) * _INV53


def unmix64(z):
    """The counter value that :func:`~fflab.rng.mix64` maps to ``z``: each
    xorshift and odd multiply of splitmix64 undone in reverse order."""

    def unshift(x, s):
        y = x
        for _ in range(64 // s):
            y = x ^ (y >> s)
        return y

    z = unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return unshift(z, 30)


def three_pass_fan_in(rng, out_dim, in_dim):
    """Initial weights as ``(u * 2.0 - 1.0) * bound`` in three in-place
    passes over ``uniform_array``: the reference for drawing into W."""
    W = rng.uniform_array(out_dim * in_dim).reshape(out_dim, in_dim)
    W *= 2.0
    W -= 1.0
    W *= 1.0 / np.sqrt(in_dim)
    return W


def box_muller(raw, n):
    """n standard normals from 2*ceil(n/2) uint64 draws: the first half gives
    u1 in (0, 1], the second u2 in [0, 1)."""
    raw = np.asarray(raw, dtype=np.uint64)
    half = (n + 1) // 2
    u1 = ((raw[:half] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53
    u2 = (raw[half:] >> np.uint64(11)).astype(np.float64) * _INV53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


def loop_fit_head(F, labels, num_classes, epochs, batch_size, lr, rng):
    """(W, b) of the softmax head fitted by a plain minibatch loop: zero
    init, softmax cross-entropy under Adam, one row order reshuffled
    each epoch."""
    labels = np.asarray(labels, dtype=np.int64)
    W = np.zeros((num_classes, F.shape[1]))
    b = np.zeros(num_classes)
    adam_W, adam_b = AdamState.for_param(W.shape, lr), AdamState.for_param(b.shape, lr)
    n = F.shape[0]
    order = list(range(n))
    for _ in range(epochs):
        rng.shuffle(order)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            Fb = F[idx]
            yb = labels[idx]
            m = len(idx)
            Z = Fb @ W.T
            Z += b
            dlogits = softmax(Z)
            dlogits[np.arange(m), yb] -= 1.0
            dlogits /= m
            adam_step(adam_W, W, dlogits.T @ Fb)
            adam_step(adam_b, b, dlogits.sum(axis=0))
    return W, b


def two_pass_bp_epoch(net, X, y, batch_size, rng):
    """One backprop epoch in two passes per batch: every layer's delta top
    down, then every layer's Adam steps bottom up; updates ``net`` in
    place."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    order = list(range(n))
    rng.shuffle(order)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        Xb = X[idx]
        yb = y[idx]
        m = len(idx)
        stages = net.forward_batch(Xb)
        delta = softmax(stages[-1][1])
        delta[np.arange(m), yb] -= 1.0
        delta /= m
        deltas = []
        for li in range(len(net.layers) - 1, -1, -1):
            layer = net.layers[li]
            if layer.act is not None:
                delta = delta * layer.act.deriv(stages[li][0])
            deltas.append(delta)
            if li > 0:
                delta = delta @ layer.W
        deltas.reverse()
        for li, layer in enumerate(net.layers):
            a_in = Xb if li == 0 else stages[li - 1][1]
            adam_step(layer.adam_W, layer.W, deltas[li].T @ a_in)
            adam_step(layer.adam_b, layer.b, deltas[li].sum(axis=0))


# ---------------------------------------------------------------------------
# helpers only the tests use


def sgns_pair_grads(v_center, v_context, v_negatives):
    """Closed-form gradients of one pair's loss, for the gradient checks.

    loss = softplus(-u_pos) + sum_i softplus(u_neg_i) with u = v_center
    dot v_target. Returns (d_center, d_context, d_negatives, loss).
    """
    u_pos = float(v_center @ v_context)
    s_pos = 1.0 / (1.0 + np.exp(-max(min(u_pos, 40.0), -40.0)))
    d_center = (s_pos - 1.0) * v_context
    d_context = (s_pos - 1.0) * v_center
    loss = np.log1p(np.exp(-u_pos)) if u_pos > -30 else -u_pos
    d_negatives = np.zeros_like(v_negatives)
    for i in range(v_negatives.shape[0]):
        u = float(v_center @ v_negatives[i])
        s = 1.0 / (1.0 + np.exp(-max(min(u, 40.0), -40.0)))
        d_center = d_center + s * v_negatives[i]
        d_negatives[i] = s * v_center
        loss += np.log1p(np.exp(u)) if u < 30 else u
    return d_center, d_context, d_negatives, loss


def frozen_head(net, X_raw, slots, labels, num_classes, epochs=8, batch_size=128, lr=1e-3,
                *, rng, included_layers=None):
    """The head ``run_experiment`` fits, from features of the frozen ``net``."""
    if included_layers is None:
        included_layers = default_included_layers(len(net.layers))
    included_layers = tuple(sorted(included_layers))
    F = features_batch(net, X_raw, slots, included_layers)
    return fit_head(F, labels, num_classes, included_layers, epochs, batch_size, lr, rng=rng)


def epoch_batches(X_raw, y, slots, batch_size, rng):
    """(embedded rows, signs) of every batch ``train_epoch`` trains on, in
    order, recorded from a one-unit net with learning rate 0."""
    net = FFNetwork(slots.width(X_raw.shape[1]), [1], "relu", 0.0, Rng(0))
    layer = net.layers[0]
    seen = []
    forward, grads = layer.forward_batch, layer.grads_batch

    def record_forward(X):
        seen.append([X.copy(), None])
        return forward(X)

    def record_grads(Xhat, Z, A, signs, theta):
        seen[-1][1] = signs.copy()
        return grads(Xhat, Z, A, signs, theta)

    layer.forward_batch, layer.grads_batch = record_forward, record_grads
    train_epoch(net, X_raw, y, slots, [1.0], batch_size, rng)
    return [tuple(batch) for batch in seen]


def head_loss(net, head, X_raw, slots, labels):
    """Mean cross-entropy of the head; used by the gradient checks."""
    F = features_batch(net, X_raw, slots, head.included_layers)
    P = softmax(F @ head.W.T + head.b)
    n = F.shape[0]
    return float(-np.mean(np.log(P[np.arange(n), labels] + 1e-300)))


def read_pgm(path):
    """Decode a binary P5 PGM back into a uint8 matrix."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise UsageError(f"{path!r} is not a binary PGM")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    cols, rows, maxval = fields
    if maxval != 255:
        raise UsageError(f"expected maxval 255, got {maxval}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=pos, count=rows * cols)
    return pixels.reshape(rows, cols).copy()


def hidden_widths(bp_net):
    """Widths of a baseline's hidden layers, output layer excluded."""
    return [layer.out_dim for layer in bp_net.layers[:-1]]


def check_architecture_parity(bp_net, ff_net):
    """The comparison is meaningless unless hidden widths match; enforce it."""
    if hidden_widths(bp_net) != ff_net.widths:
        raise UsageError(
            f"architecture mismatch: baseline hidden widths {hidden_widths(bp_net)} "
            f"vs {ff_net.widths}"
        )


def bp_loss(net, X, y):
    """Mean softmax cross-entropy; the quantity backprop descends."""
    P = softmax(net.forward_batch(X)[-1][1])
    n = X.shape[0]
    return float(-np.mean(np.log(P[np.arange(n), y] + 1e-300)))


def leaky_relu(slope):
    """A leaky relu with a nonstandard slope (in-memory use only;
    checkpoints carry the canonical five kinds)."""
    if slope == DEFAULT_LEAKY_SLOPE:
        return LEAKY_RELU
    fn, deriv = _make_leaky(slope)
    return Activation(f"leaky_relu[{slope:g}]", 1, fn, deriv)


def ks_2sample(a, b):
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise UsageError("ks_2sample needs non-empty samples")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / n
    cdf_b = np.searchsorted(b, pooled, side="right") / m
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = n * m / (n + m)
    lam = (np.sqrt(n_eff) + 0.12 + 0.11 / np.sqrt(n_eff)) * d
    if lam < 0.1:
        return d, 1.0  # survival probability is 1 to double precision there
    terms = np.arange(1, 101)
    p = 2.0 * np.sum((-1.0) ** (terms - 1) * np.exp(-2.0 * (terms * lam) ** 2))
    return d, float(min(max(p, 0.0), 1.0))


def two_blob_toy(n_per_class=60, dim=8, separation=2.5, seed=7):
    """The small 2-class task the derived-example tests train on."""
    rng = Rng(derive_seed(seed, 2))
    X, y = make_blobs(2, dim, n_per_class, separation, rng)
    return X, y, rng
