"""Dense float64 tensors with a reverse-mode differentiation tape.

Every trained component in this package runs on these primitives. Values are
numpy float64 arrays; each operation records a backward rule, and calling
``backward()`` on a scalar result accumulates d(result)/d(leaf) into the
``grad`` of every leaf created with ``requires_grad=True``. ``grad_check``
is the finite-difference oracle the test suite uses against every rule.

The engine is deliberately single-threaded and allocation-heavy: precision
and determinism come before speed. Identical seeds give bit-identical
trajectories. Fused rules live beside the models that use them, each
checked by ``grad_check``: in ``text_encoder`` each LSTM direction is a
single tape node with a hand-written BPTT backward (also checked against
the per-step reference oracle in the tests); in ``vgae`` the decoder, the
reconstruction cross-entropy and the KL term are one node each.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .exceptions import CheckpointError, ShapeError


class Tensor:
    """A float64 array plus the bookkeeping for reverse-mode autodiff.

    Tensors built directly with ``requires_grad=True`` are leaves; operation
    results carry the flag implicitly and route gradients back to the leaves
    they derive from. Repeated ``backward()`` calls accumulate into ``grad``
    until ``zero_grads`` clears them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def is_leaf(self):
        return not self._parents

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
        grads = {id(self): np.ones((), dtype=np.float64)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._parents:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if not parent.requires_grad or pg is None:
                        continue
                    acc = grads.get(id(parent))
                    grads[id(parent)] = pg if acc is None else acc + pg
            elif node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g

    # operator sugar; scalars and arrays coerce to constant tensors
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tslice(self, key)


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def as_tensor(x) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through."""
    return _coerce(x)


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
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add shapes incompatible: {a.data.shape} + {b.data.shape}") from None
    if not (a.requires_grad or b.requires_grad):
        return Tensor(data)
    def bw(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))
    return Tensor(data, True, (a, b), bw)


def mul(a, b) -> Tensor:
    """Elementwise product with broadcasting."""
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul shapes incompatible: {a.data.shape} * {b.data.shape}") from None
    if not (a.requires_grad or b.requires_grad):
        return Tensor(data)
    def bw(g):
        return (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape))
    return Tensor(data, True, (a, b), bw)


def matmul(a, b) -> Tensor:
    """2-D matrix product."""
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data
    if not (a.requires_grad or b.requires_grad):
        return Tensor(data)
    def bw(g):  # no product for a constant operand
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)
    return Tensor(data, True, (a, b), bw)


def relu(a) -> Tensor:
    a = _coerce(a)
    data = np.maximum(a.data, 0.0)
    if not a.requires_grad:
        return Tensor(data)
    mask = a.data > 0.0  # subgradient 0 at the kink
    return Tensor(data, True, (a,), lambda g: (g * mask,))


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|): no overflow.

    The numerator max(e, x >= 0) picks the branch without masked indexing.
    """
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    data = _sigmoid_values(a.data)
    if not a.requires_grad:
        return Tensor(data)
    return Tensor(data, True, (a,), lambda g: (g * data * (1.0 - data),))


def tanh(a) -> Tensor:
    a = _coerce(a)
    data = np.tanh(a.data)
    if not a.requires_grad:
        return Tensor(data)
    return Tensor(data, True, (a,), lambda g: (g * (1.0 - data * data),))


def exp(a) -> Tensor:
    a = _coerce(a)
    data = np.exp(a.data)
    if not a.requires_grad:
        return Tensor(data)
    return Tensor(data, True, (a,), lambda g: (g * data,))


def log(a) -> Tensor:
    a = _coerce(a)
    data = np.log(a.data)
    if not a.requires_grad:
        return Tensor(data)
    return Tensor(data, True, (a,), lambda g: (g / a.data,))


def row_softmax(a) -> Tensor:
    """Softmax along the last axis; rows sum to 1 and stay strictly positive."""
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)
    if not a.requires_grad:
        return Tensor(data)
    def bw(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - dot),)
    return Tensor(data, True, (a,), bw)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if not any(t.requires_grad for t in tensors):
        return Tensor(data)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]
    def bw(g):
        return tuple(np.split(g, offsets, axis=axis))
    return Tensor(data, True, tuple(tensors), bw)


def transpose(a) -> Tensor:
    a = _coerce(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.data.shape}")
    if not a.requires_grad:
        return Tensor(a.data.T)
    return Tensor(a.data.T, True, (a,), lambda g: (g.T,))


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    data = a.data.reshape(shape)
    if not a.requires_grad:
        return Tensor(data)
    orig = a.data.shape
    return Tensor(data, True, (a,), lambda g: (g.reshape(orig),))


def tslice(a, key) -> Tensor:
    """Basic (non-fancy) indexing with gradient scatter into the source."""
    a = _coerce(a)
    data = a.data[key]
    if not a.requires_grad:
        return Tensor(data)
    def bw(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)
    return Tensor(data, True, (a,), bw)


def layer_norm(a, gain, bias, eps=1e-5) -> Tensor:
    """Row-wise layer normalization over the last axis with learned gain/bias."""
    a, gain, bias = _coerce(a), _coerce(gain), _coerce(bias)
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normed = centered * inv_std
    data = normed * gain.data + bias.data
    if not (a.requires_grad or gain.requires_grad or bias.requires_grad):
        return Tensor(data)
    def bw(g):
        d_normed = g * gain.data
        da = (d_normed
              - d_normed.mean(axis=-1, keepdims=True)
              - normed * (d_normed * normed).mean(axis=-1, keepdims=True)) * inv_std
        d_gain = _unbroadcast(g * normed, gain.data.shape)
        d_bias = _unbroadcast(g, bias.data.shape)
        return (da, d_gain, d_bias)
    return Tensor(data, True, (a, gain, bias), bw)


def conv1d_valid(x, kernels, bias=None) -> Tensor:
    """Valid cross-correlation over the time axis.

    x is (L, d) with rows as time steps, kernels is (n, k, d), the optional
    bias is (n,). Output is (L - k + 1, n); requires L >= k.
    """
    x, kernels = _coerce(x), _coerce(kernels)
    if x.data.ndim != 2 or kernels.data.ndim != 3:
        raise ShapeError(f"conv1d_valid expects (L,d) and (n,k,d), got {x.data.shape} and {kernels.data.shape}")
    length, depth = x.data.shape
    n, k, kd = kernels.data.shape
    if kd != depth:
        raise ShapeError(f"conv1d_valid depth mismatch: input {x.data.shape}, kernels {kernels.data.shape}")
    if length < k:
        raise ShapeError(f"conv1d_valid input length {length} shorter than kernel {k}")
    taps = length - k + 1
    windows = np.lib.stride_tricks.sliding_window_view(x.data, (k, depth))[:, 0]  # (taps, k, d)
    cols = windows.reshape(taps, k * depth)
    data = cols @ kernels.data.reshape(n, k * depth).T
    parents = [x, kernels]
    if bias is not None:
        bias = _coerce(bias)
        data = data + bias.data
        parents.append(bias)
    if not any(p.requires_grad for p in parents):
        return Tensor(data)
    def bw(g):
        gx = np.zeros_like(x.data)
        for dt in range(k):
            gx[dt:dt + taps] += g @ kernels.data[:, dt, :]
        gk = (g.T @ cols).reshape(n, k, depth)
        if bias is not None:
            return (gx, gk, g.sum(axis=0))
        return (gx, gk)
    return Tensor(data, True, tuple(parents), bw)


def max_over_time(a, valid=None) -> Tensor:
    """Maximum over the time axis (axis 0), optionally over the first `valid` rows.

    A vector input yields a scalar; an (L, n) input yields one maximum per
    column. Ties route the gradient to the earliest maximal row.
    """
    a = _coerce(a)
    if a.data.ndim not in (1, 2) or a.data.shape[0] == 0:
        raise ShapeError(f"max_over_time expects a nonempty vector or matrix, got shape {a.data.shape}")
    rows = a.data.shape[0] if valid is None else int(valid)
    if rows < 1 or rows > a.data.shape[0]:
        raise ShapeError(f"max_over_time valid={valid} out of range for shape {a.data.shape}")
    window = a.data[:rows]
    idx = window.argmax(axis=0)  # first maximum on ties
    if a.data.ndim == 1:
        data = window[idx]
    else:
        data = window[idx, np.arange(a.data.shape[1])]
    if not a.requires_grad:
        return Tensor(data)
    def bw(g):
        full = np.zeros_like(a.data)
        if a.data.ndim == 1:
            full[idx] = g
        else:
            full[idx, np.arange(a.data.shape[1])] = g
        return (full,)
    return Tensor(data, True, (a,), bw)


def mean(a) -> Tensor:
    a = _coerce(a)
    data = np.asarray(a.data.mean())
    if not a.requires_grad:
        return Tensor(data)
    size = a.data.size
    return Tensor(data, True, (a,), lambda g: (np.full(a.data.shape, float(g) / size),))


def tensor_sum(a) -> Tensor:
    a = _coerce(a)
    data = np.asarray(a.data.sum())
    if not a.requires_grad:
        return Tensor(data)
    return Tensor(data, True, (a,), lambda g: (np.full(a.data.shape, float(g)),))


def gaussian_sample(mu, logvar, rng=None, noise=None) -> Tensor:
    """Reparameterized Gaussian sample z = mu + exp(logvar / 2) * noise.

    `noise` pins the standard-normal draw (gradient checks); otherwise it is
    drawn from `rng`. Gradients flow to mu and logvar, never to the noise.
    """
    mu, logvar = _coerce(mu), _coerce(logvar)
    if mu.data.shape != logvar.data.shape:
        raise ShapeError(f"gaussian_sample shapes differ: {mu.data.shape} vs {logvar.data.shape}")
    if noise is None:
        if rng is None:
            raise ValueError("gaussian_sample needs rng or explicit noise")
        noise = rng.standard_normal(mu.data.shape)
    std = exp(mul(logvar, 0.5))
    return add(mu, mul(std, Tensor(noise)))


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


def zero_grads(params):
    for p in params:
        p.grad = None


@dataclass
class AdamState:
    """First/second moment accumulators for one ordered parameter list."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        state = cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
        return state


def adam_step(params, state: AdamState):
    """One bias-corrected Adam update over `params` (same order as init)."""
    if len(params) != len(state.m):
        raise ShapeError(f"adam_step got {len(params)} params for state of {len(state.m)}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        step = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p.data -= step


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

    A file that is not such a container, or ends early, raises
    CheckpointError naming the file. No read asks for more bytes than the
    file has left, so a corrupt size field cannot trigger a huge allocation.
    """
    with open(path, "rb") as fh:
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
            payload = read(8 * math.prod(shape))
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        return out
