"""Small tape ops that only the tests use.

The per-step LSTM oracle (`reference_direction` in test_text_encoder)
runs on `sigmoid`, `tanh` and `tslice`; the gradient checks reduce an
op's output to a scalar with `mean` or `tensor_sum`. The models need none
of them: their fused nodes do this work in numpy. Each op is checked by
`grad_check` in test_autodiff. `ReferenceAdam` is the per-tensor Adam loop
that `autodiff.adam_step`'s grouped update over the parameter arena must
match bit for bit.
"""

import numpy as np

from emofuse.autodiff import Tensor, as_tensor
from emofuse.vgae import _sigmoid_values


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = _sigmoid_values(a.data)
    if not a.requires_grad:
        return Tensor(data)
    return Tensor(data, True, (a,), lambda g: (g * data * (1.0 - data),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)
    if not a.requires_grad:
        return Tensor(data)
    return Tensor(data, True, (a,), lambda g: (g * (1.0 - data * data),))


def tslice(a, key) -> Tensor:
    """Basic (non-fancy) indexing, a[key], with gradient scatter into the source."""
    a = as_tensor(a)
    data = a.data[key]
    if not a.requires_grad:
        return Tensor(data)

    def bw(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)
    return Tensor(data, True, (a,), bw)


def mean(a) -> Tensor:
    a = as_tensor(a)
    data = np.asarray(a.data.mean())
    if not a.requires_grad:
        return Tensor(data)
    size = a.data.size
    return Tensor(data, True, (a,), lambda g: (np.full(a.data.shape, float(g) / size),))


def tensor_sum(a) -> Tensor:
    a = as_tensor(a)
    data = np.asarray(a.data.sum())
    if not a.requires_grad:
        return Tensor(data)
    return Tensor(data, True, (a,), lambda g: (np.full(a.data.shape, float(g)),))


class ReferenceAdam:
    """Bias-corrected Adam with its moments and update kept per tensor."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self, params):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            step = self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= step
