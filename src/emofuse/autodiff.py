"""Dense float64 tensors with a reverse-mode differentiation tape.

Every trained component in this package runs on these primitives. Values are
numpy float64 arrays; each operation records a backward rule, and calling
``backward()`` on a scalar result accumulates d(result)/d(leaf) into the
``grad`` of every leaf created with ``requires_grad=True``. ``grad_check``
is the finite-difference oracle the test suite uses against every rule.

The engine holds only the ops some model calls, each taking only what its
callers pass: ``add`` and ``mul`` with broadcasting (also as ``+`` and
``*``), ``layer_norm`` (always of a + residual), ``linear``, the one
matrix product (with an optional bias and relu).
Every op, these and the fused rules below, returns through ``node``: its
result joins the tape only when some input requires a gradient, and is a
constant with no parents otherwise. ``Tensor(...)`` builds only leaves and
constants.

The engine is allocation-heavy: precision and determinism come before
speed. Identical seeds give bit-identical trajectories. Python runs on one
thread, with one exception: a backward rule whose two products (the input
and the weight gradient of ``linear`` or ``textcnn.conv_pool``) each reach
``PAIR_WORK`` multiply-adds runs them at once through ``both``, one on a
worker thread started on first use. Each product is the same numpy call,
one OpenBLAS call, either way, so the bits do not depend on the pairing.
A leaf's gradient is added into its ``grad`` as soon as a
rule returns it, so no second copy of the parameter gradients waits on the
tape. ``linear`` and ``layer_norm`` fold a layer's bias, relu or residual
into one node. A chunk of posts is packed along the rows of one matrix and
laid out by ``Segments``; only rules that see post boundaries take it.
Fused rules live beside the models that use them, each checked by
``grad_check``: in ``text_encoder`` the recurrence of both directions of a
Bi-LSTM layer is one tape node with a hand-written BPTT backward, its gates
from one tanh each (also checked against the per-step reference oracle in
the tests); in ``attention`` the attention core of
every post of a chunk is one node; in ``textcnn`` a channel's convolutions
at every kernel width, one GEMM, with their relu and the per-post max-pool
are one node, and the cross-entropy another; in ``vgae`` the whole
objective, from the reparameterized sample of the caller's noise draw
through the decoder to the cross-entropy and the KL term, is one node that
reuses its work arrays across epochs.

Training packs its parameter list into one contiguous buffer, the arena
(``pack_parameters``), each tensor a view of it. ``AdamState`` keeps the
moments as two flat buffers beside it, and ``adam_step`` updates runs of
whole tensors of up to ``GROUP_FLOATS`` floats with 14 in-place ufunc calls
each, bit for bit the per-tensor update. Gradients stay per tensor, as
``backward`` makes them: adding leaf gradients into views of a second
buffer made a paper-dims training call 7-15% slower.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import math
import os
import struct
import threading

import numpy as np

from .exceptions import CheckpointError, ConfigError, ShapeError, reading


class Tensor:
    """A float64 array plus the bookkeeping for reverse-mode autodiff.

    ``Tensor(data)`` is a constant and ``Tensor(data, requires_grad=True)``
    a leaf; only ``node`` builds an operation result, which routes
    gradients back to the leaves it derives from. Repeated ``backward()``
    calls accumulate into ``grad`` until ``zero_grads`` clears them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Accumulate gradients of this scalar into every tracked leaf."""
        if self.data.shape != ():
            raise ShapeError(f"backward requires a scalar, got shape {self.data.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        # Leaf gradients are added into `grad` as soon as a rule returns
        # them; only non-leaf gradients wait in `grads` for their node's turn.
        grads = {id(self): np.ones((), dtype=np.float64)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if not node._parents:  # a leaf root
                node.grad = g if node.grad is None else node.grad + g
                continue
            outs = node._backward(g)
            for parent, pg in zip(node._parents, outs):
                if pg is None or not parent.requires_grad:
                    continue
                if parent._parents:
                    acc = grads.get(id(parent))
                    grads[id(parent)] = pg if acc is None else acc + pg
                elif parent.grad is not None:
                    parent.grad += pg
                elif pg is g or pg.base is not None or sum(o is pg for o in outs) > 1:
                    # a rule may pass g through, hand out a view, or give one
                    # array to several operands (add does): own a copy
                    parent.grad = pg.copy()
                else:
                    parent.grad = pg

    # operator sugar; scalars and arrays coerce to constant tensors
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)


def as_tensor(x) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through."""
    return x if isinstance(x, Tensor) else Tensor(x)


def node(data, parents, backward) -> Tensor:
    """An op's result `data`, on the tape only if some parent requires a gradient.

    Tracked, it keeps `parents` and `backward`, which maps the result's
    gradient to one gradient (or None) per parent. Otherwise it is a
    constant with no parents. Every op returns through here.
    """
    out = Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            break
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    """Elementwise sum with numpy broadcasting (bias rows broadcast over rows)."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add shapes incompatible: {a.data.shape} + {b.data.shape}") from None
    def bw(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))
    return node(data, (a, b), bw)


def mul(a, b) -> Tensor:
    """Elementwise product with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul shapes incompatible: {a.data.shape} * {b.data.shape}") from None
    def bw(g):
        return (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape))
    return node(data, (a, b), bw)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1, keepdims=True), the same sum and division, without ndarray.mean's Python wrapper."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


LAYER_NORM_EPS = 1e-5


def layer_norm(a, gain, bias, residual) -> Tensor:
    """Row-wise layer normalization of a + residual over the last axis.

    Folding the residual add in keeps its sum off the tape; both summands
    get the same gradient.
    """
    a, gain, bias, residual = as_tensor(a), as_tensor(gain), as_tensor(bias), as_tensor(residual)
    x = a.data + residual.data
    mu = _row_mean(x)
    centered = x - mu
    var = _row_mean(centered * centered)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    normed = centered * inv_std
    data = normed * gain.data + bias.data
    def bw(g):
        d_normed = g * gain.data
        dx = (d_normed - _row_mean(d_normed) - normed * _row_mean(d_normed * normed)) * inv_std
        return (dx, _unbroadcast(g * normed, gain.data.shape), _unbroadcast(g, bias.data.shape), dx)
    return node(data, (a, gain, bias, residual), bw)


# A pair of products of at least this many multiply-adds each runs on two
# threads; below it, handing one to the worker costs more than it saves (on
# a 2-vCPU VM a lone pair read 0.8-1.1x at 2^20 and 1.2-1.5x at 2^22).
PAIR_WORK = 1 << 22
_worker = None  # the one worker thread `both` hands products to, started on first use
_worker_lock = threading.Lock()


def _forget_worker():
    # a forked child has no copy of the parent's worker thread
    global _worker, _worker_lock
    _worker = None
    _worker_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere there is no fork
    os.register_at_fork(after_in_child=_forget_worker)


def both(first, second, work):
    """(first(), second()); on two threads when `work` is at least PAIR_WORK.

    `work` is the multiply-adds of each call. `first` runs on a worker
    thread while `second` runs here. Each is a numpy product, which
    releases the GIL, so its result has the bits it would have alone. If
    `second` raises, `first` is still waited for; an error of `first` is
    raised when nothing else is. `first` must not call `both`.
    """
    if work < PAIR_WORK:
        return first(), second()
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="emofuse-both")
        future = _worker.submit(first)
    try:
        b = second()
    except BaseException:
        future.exception()  # wait; the error raised here supersedes any of first's
        raise
    return future.result(), b


def linear(x, w, b=None, relu=False) -> Tensor:
    """x @ w, plus the bias row b, then relu if asked: one node.

    `x` may be a list of matrices with equal row counts, read as their
    concatenation along columns, each multiplying its own block of w's
    rows; the concatenation and its gradient are never built. One matrix
    is one product with w whole, forward and backward: the bits of numpy's
    `x @ w`, `g @ w.T` and `x.T @ g`. The relu's subgradient at 0 is 0.
    """
    blocks = [as_tensor(t) for t in x] if isinstance(x, (list, tuple)) else [as_tensor(x)]
    w = as_tensor(w)
    if len(blocks) == 1:
        x = blocks[0]
        fits = x.data.ndim == 2 and x.data.shape[1] == w.data.shape[0]
    else:
        starts = [0]  # block i multiplies rows starts[i] to starts[i + 1] - 1 of w
        for t in blocks:
            if t.data.ndim != 2 or t.data.shape[0] != blocks[0].data.shape[0]:
                break
            starts.append(starts[-1] + t.data.shape[1])
        fits = len(starts) == len(blocks) + 1 and starts[-1] == w.data.shape[0]
    if w.data.ndim != 2 or not fits:
        raise ShapeError(f"linear shapes incompatible: {[t.data.shape for t in blocks]} @ {w.data.shape}")
    if len(blocks) == 1:
        data = x.data @ w.data
        def products(g):  # the gradients of x and of w
            return list(both(lambda: g @ w.data.T if x.requires_grad else None,
                             lambda: x.data.T @ g if w.requires_grad else None,
                             g.size * w.data.shape[0] if x.requires_grad and w.requires_grad else 0))
    else:
        data = blocks[0].data @ w.data[:starts[1]]
        for t, lo, hi in zip(blocks[1:], starts[1:], starts[2:]):
            data += t.data @ w.data[lo:hi]
        def products(g):  # the gradient of each block, then of w
            def block_grads():
                return [g @ w.data[lo:hi].T if t.requires_grad else None
                        for t, lo, hi in zip(blocks, starts, starts[1:])]

            def weight_grad():
                if not w.requires_grad:
                    return None
                gw = np.empty_like(w.data)
                for t, lo, hi in zip(blocks, starts, starts[1:]):
                    np.matmul(t.data.T, g, out=gw[lo:hi])
                return gw

            paired = w.requires_grad and any(t.requires_grad for t in blocks)
            out, gw = both(block_grads, weight_grad, g.size * w.data.shape[0] if paired else 0)
            return [*out, gw]
    parents = (*blocks, w)
    if b is not None:
        b = as_tensor(b)
        data += b.data
        parents += (b,)
    if relu:
        np.maximum(data, 0.0, out=data)
    def bw(g):
        if relu:
            g = g * (data > 0.0)
        out = products(g)
        if b is not None:
            out.append(g.sum(axis=0) if b.requires_grad else None)
        return out
    return node(data, parents, bw)


class Segments:
    """Where each post of a chunk sits in a matrix that packs their rows.

    Post i owns rows offsets[i] to offsets[i] + lengths[i] - 1, the posts
    one after another. Rules that see post boundaries take a Segments;
    every other rule runs over the packed rows as one matrix. A one-post
    layout is the identity: nothing is gathered or scattered. The general
    path gives the same bits for one post, but these `count == 1` branches
    (and the one-post branches of `scaled_dot_attention`, `textcnn.conv_pool`'s
    pooling and the model's emoji rows) keep a tiny-dims `predict` 1.3-1.5x faster.
    """

    def __init__(self, lengths):
        lengths = [int(n) for n in lengths]
        if not lengths or min(lengths) < 1:
            raise ShapeError(f"segments need one or more positive lengths, got {lengths}")
        self.lengths = np.array(lengths, dtype=np.intp)
        self.count = len(lengths)
        self.rows = sum(lengths)
        self.width = max(lengths)
        self._blocks = {}

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """First packed row of each post."""
        return np.cumsum(self.lengths) - self.lengths

    @functools.cached_property
    def mask(self) -> np.ndarray:
        """(count, width): slot t of post i holds a row."""
        return np.arange(self.width) < self.lengths[:, None]

    @functools.cached_property
    def _index(self) -> np.ndarray:
        return np.where(self.mask, self.offsets[:, None] + np.arange(self.width), 0)

    def padded(self, x: np.ndarray, zero_pad=False) -> np.ndarray:
        """(rows, ...) -> (count, width, ...) with each post's rows first.

        Pad slots repeat row 0 unless `zero_pad`. One post: x unchanged.
        """
        if self.count == 1:
            return x
        out = x[self._index]
        if zero_pad:
            out[~self.mask] = 0.0
        return out

    def packed(self, xp: np.ndarray) -> np.ndarray:
        """The inverse of `padded`: pad slots dropped."""
        return xp if self.count == 1 else xp[self.mask]

    @functools.cached_property
    def reversed_rows(self):
        """An index that reverses each post's rows; it is its own inverse."""
        if self.count == 1:
            return slice(None, None, -1)
        starts = self.offsets.repeat(self.lengths)
        return 2 * starts + self.lengths.repeat(self.lengths) - 1 - np.arange(self.rows)

    def time_major(self, x: np.ndarray, reverse: bool, zero_pad=False) -> np.ndarray:
        """(rows, ...) -> (width, count, ...): [t, i] is step t of post i.

        Step t is row t of the post, or with `reverse` row length - 1 - t,
        so a backward recurrence starts at every post's own end. Slots past
        a post's end come after all of its own steps, as in `padded`.
        """
        x = x[self.reversed_rows] if reverse else x
        return x[:, None] if self.count == 1 else self.padded(x, zero_pad).swapaxes(0, 1)

    def from_time_major(self, xp: np.ndarray, reverse: bool) -> np.ndarray:
        """The inverse of `time_major`."""
        x = xp[:, 0] if self.count == 1 else self.packed(xp.swapaxes(0, 1))
        return x[self.reversed_rows] if reverse else x

    def blocks(self, min_rows: int):
        """Each post's rows followed by zero rows up to `min_rows`.

        Returns the start of every post's block, the total row count, and
        where each packed row lands (None when no post is padded, so the
        packed matrix is the block matrix).
        """
        if min_rows not in self._blocks:
            if self.count == 1:
                total = max(self.rows, min_rows)
                layout = (np.zeros(1, dtype=np.intp), total,
                          None if total == self.rows else np.arange(self.rows))
            else:
                sizes = np.maximum(self.lengths, min_rows)
                starts = np.cumsum(sizes) - sizes
                total = int(sizes.sum())
                dest = None if total == self.rows else (
                    np.repeat(starts - self.offsets, self.lengths) + np.arange(self.rows))
                layout = (starts, total, dest)
            self._blocks[min_rows] = layout
        return self._blocks[min_rows]


# --- parameters and optimization -------------------------------------------

def glorot(shape, rng) -> np.ndarray:
    """Uniform(-sqrt(6/(fan_in+fan_out)), +...) init for 2-D or 3-D weights."""
    if len(shape) == 2:
        fan_in, fan_out = shape
    elif len(shape) == 3:  # conv kernels (n, k, d)
        fan_out, fan_in = shape[0], shape[1] * shape[2]
    else:
        raise ShapeError(f"glorot init expects 2-D or 3-D shape, got {shape}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def parameter(shape, rng) -> Tensor:
    return Tensor(glorot(shape, rng), requires_grad=True)


def zeros_parameter(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_parameter(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def named_parameters(root, prefix=""):
    """Yield (name, Tensor) for every tensor reachable from a params object.

    Dataclass fields are walked in declaration order and list items by
    index; other fields (sizes such as ``BiLstmParams.hidden``) are skipped.
    A name is the dotted attribute path under `prefix`, e.g.
    ``encoder.layer1.forward.w_x`` or ``cnn.banks.0.kernels``. This one
    order is the optimizer's slot order and the checkpoint's key order.
    """
    if isinstance(root, Tensor):
        yield prefix, root
        return
    if dataclasses.is_dataclass(root):
        children = [(f.name, getattr(root, f.name)) for f in dataclasses.fields(root)]
    elif isinstance(root, list):
        children = [(str(i), item) for i, item in enumerate(root)]
    else:
        return
    for name, child in children:
        yield from named_parameters(child, f"{prefix}.{name}" if prefix else name)


def load_parameters(root, tensors, source, prefix=""):
    """Copy `tensors[name]` into every parameter `named_parameters` yields.

    Raises ConfigError naming `source` and the tensor when a name is missing
    or a shape differs; nothing is copied unless every tensor fits. Values
    are written in place, so packed parameters stay views of their arena.
    """
    pairs = []
    for name, param in named_parameters(root, prefix):
        stored = tensors.get(name)
        if stored is None:
            raise ConfigError(f"{source}: missing tensor {name}")
        if stored.shape != param.data.shape:
            raise ConfigError(f"{source}: tensor {name} has shape {stored.shape}, "
                              f"expected {param.data.shape}")
        pairs.append((param, stored))
    for param, stored in pairs:
        param.data[...] = stored


def zero_grads(params):
    for p in params:
        p.grad = None


# Adam updates the arena in runs of whole tensors of at most this many floats
# (a larger tensor is a run of its own), so its scratch rows are as long as
# the longest run, not the whole arena; 2^16 was faster than 2^11 to 2^14
# on the acceptance-dims classifier.
GROUP_FLOATS = 1 << 16
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # the moment decays and the denominator's floor


def pack_parameters(params) -> np.ndarray:
    """Make the tensors of `params` views into one contiguous float64 buffer, in order.

    Returns the buffer, the parameter arena. Tensors that already are
    consecutive views of one buffer keep it, so packing again copies
    nothing; otherwise every value is copied into a new buffer and its
    tensor rebound to its view. The arena lives as long as its tensors do.
    """
    arena = params[0].data.base if params else None
    if isinstance(arena, np.ndarray) and arena.ndim == 1 and arena.dtype == np.float64:
        address = arena.ctypes.data
        for p in params:
            if (p.data.base is not arena or not p.data.flags.c_contiguous
                    or p.data.ctypes.data != address):
                break
            address += p.data.nbytes
        else:
            if address == arena.ctypes.data + arena.nbytes:
                return arena
    arena = np.empty(sum(p.data.size for p in params))
    offset = 0
    for p in params:
        view = arena[offset:offset + p.data.size].reshape(p.data.shape)
        view[...] = p.data
        p.data = view
        offset += view.size
    return arena


class AdamState:
    """Bias-corrected Adam moments for the parameters of `root`, kept flat.

    `params` is `named_parameters(root)` in its order; a list of tensors is
    a root too. Building the state packs them (`pack_parameters`); the
    moments m and v are flat buffers laid out like the arena. `groups` cuts
    that layout into runs of consecutive tensors, each (lo, hi, first, last):
    arena floats lo to hi - 1, parameters first to last - 1.
    """

    def __init__(self, root, lr):
        self.lr = lr
        self.step_count = 0
        self.params = params = [p for _, p in named_parameters(root)]
        self.data = pack_parameters(params)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.groups = []
        lo = first = offset = 0
        for i, p in enumerate(params):
            if i > first and offset + p.data.size - lo > GROUP_FLOATS:
                self.groups.append((lo, offset, first, i))
                lo, first = offset, i
            offset += p.data.size
        if params:
            self.groups.append((lo, offset, first, len(params)))
        # two temporaries as long as the longest group
        self.work = np.empty((2, max((hi - lo for lo, hi, _, _ in self.groups), default=0)))


def adam_step(state: AdamState):
    """One bias-corrected Adam update of `state.params`.

    Gradients stay per tensor. A group's are gathered into the second
    scratch row, a None gradient as zeros; a one-tensor group reads its
    gradient as it is. Then 14 in-place ufunc calls update the group's
    slice of the arena. They repeat the per-tensor update's expressions in
    the same order, so every float gets the same bits:
    m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g,
    p -= (lr (m / bc1)) / (sqrt(v / bc2) + eps).
    The gathered gradient is last read before its row is first written.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for lo, hi, first, last in state.groups:
        grads = [np.zeros(p.data.size) if p.grad is None else p.grad for p in state.params[first:last]]
        t1, t2 = state.work[:, :hi - lo]
        g = grads[0].reshape(-1) if len(grads) == 1 else np.concatenate(grads, axis=None, out=t2)
        m, v = state.m[lo:hi], state.v[lo:hi]
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=t1)
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=t1)
        t1 *= g
        v += t1
        np.divide(v, bc2, out=t1)
        np.sqrt(t1, out=t1)
        t1 += ADAM_EPS
        np.divide(m, bc1, out=t2)
        np.multiply(state.lr, t2, out=t2)
        t2 /= t1
        state.data[lo:hi] -= t2


# --- verification -----------------------------------------------------------

def grad_check(f, x: Tensor, h=1e-5, skip=None) -> float:
    """Max scaled relative error between backward grads and central differences.

    `f` must map `x` to a deterministic scalar Tensor (fix any sampling noise
    before checking). Coordinates where `skip` is True are excluded; callers
    use this for nondifferentiable points such as relu inputs at exactly 0.
    The per-coordinate error is |analytic - numeric| / max(1, |analytic|,
    |numeric|), so tiny gradients are compared absolutely.
    """
    x.grad = None
    out = f(x)
    if out.data.shape != ():
        raise ShapeError(f"grad_check needs a scalar function, got shape {out.data.shape}")
    out.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    flat = x.data.reshape(-1)
    flat_analytic = analytic.reshape(-1)
    flat_skip = None if skip is None else np.asarray(skip, dtype=bool).reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        if flat_skip is not None and flat_skip[i]:
            continue
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(x).data)
        flat[i] = orig - h
        f_minus = float(f(x).data)
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = flat_analytic[i]
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        if err > worst:
            worst = err
    return worst


# --- named-tensor container --------------------------------------------------

_MAGIC = b"EFTS"
_VERSION = 1


def save_tensors(path, tensors):
    """Write named float64 arrays to a little-endian container with a version header."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(tensors)))
        for name, value in tensors.items():
            arr = np.ascontiguousarray(value, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            if arr.ndim:
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_tensors(path):
    """Read a container written by save_tensors; returns name -> float64 array.

    A file that cannot be read, is not such a container, ends early, or
    holds a nan or inf value raises CheckpointError naming the file (and the
    tensor). No read asks for more bytes than the file has left, so a
    corrupt size field cannot trigger a huge allocation.
    """
    with reading(path, CheckpointError, "tensor container", binary=True) as fh:
        left = os.fstat(fh.fileno()).st_size

        def read(size):
            nonlocal left
            if size > left:
                raise CheckpointError(f"tensor container {path} is truncated")
            left -= size
            return fh.read(size)

        magic = read(4)
        if magic != _MAGIC:
            raise CheckpointError(f"not a tensor container: bad magic {magic!r} in {path}")
        version, count = struct.unpack("<II", read(8))
        if version != _VERSION:
            raise CheckpointError(f"unsupported tensor container version {version} in {path}")
        out = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", read(4))
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError as err:
                raise CheckpointError(f"tensor container {path} has a malformed name: {err}") from None
            (ndim,) = struct.unpack("<I", read(4))
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim)) if ndim else ()
            out[name] = np.frombuffer(read(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
            if not np.isfinite(out[name]).all():
                raise CheckpointError(f"tensor container {path}: tensor {name!r} has a nan or inf value")
        return out
