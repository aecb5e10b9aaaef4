"""Variational graph autoencoder producing the emoji embedding matrix.

A two-layer graph-convolution encoder maps the normalized co-occurrence
graph and node attributes to a Gaussian posterior per node (a shared first
layer feeding separate mean and log-variance heads). The decoder gives the
logits z z^T of every node pair; an edge's probability is their sigmoid.
Training maximizes the ELBO: re-weighted binary cross-entropy against the
binarized edge set plus the KL pull toward the standard normal. The
cross-entropy is computed from the logits with a stable softplus (the form of
TensorFlow's weighted_cross_entropy_with_logits in the reference VGAE), so
a saturated sigmoid never reaches log(0). The whole objective, from the
reparameterized sample through decode to the cross-entropy and the KL term,
is one tape node, `vgae_loss`, whose parents are the posterior's mean and
log-variance. A `VgaeTarget`, built once per training run, holds what
depends only on the graph and the N x N and N x latent arrays the node
overwrites each epoch. The inference embedding for each node is its
posterior mean.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ConfigError, ShapeError, TrainingError
from .graph import CoocGraph, binarize_edges, normalize_adjacency
from .vectors import VectorTable

logger = logging.getLogger("emofuse")


@dataclass
class VgaeParams:
    w_in: Tensor      # attr_dim x hidden, shared first layer
    w_mu: Tensor      # hidden x latent
    w_logvar: Tensor  # hidden x latent

    @classmethod
    def create(cls, attr_dim: int, hidden: int, latent: int, rng) -> "VgaeParams":
        return cls(
            w_in=ad.parameter((attr_dim, hidden), rng),
            w_mu=ad.parameter((hidden, latent), rng),
            w_logvar=ad.parameter((hidden, latent), rng),
        )


@dataclass
class LatentPosterior:
    mu: Tensor      # N x latent
    logvar: Tensor  # N x latent, stores log of the variance


EmojiEmbeddings = VectorTable  # emoji -> posterior mean, one row per graph node


def encode(a_norm, ax, params: VgaeParams) -> LatentPosterior:
    """Shared relu first layer, then linear mean and log-variance heads.

    `ax` is the node attributes propagated once, a_norm @ x. It does not
    depend on the parameters, so training computes it once for all epochs.
    Both heads read the one second propagation a_norm @ hidden.
    """
    propagated = ad.linear(a_norm, ad.linear(ax, params.w_in, relu=True))
    return LatentPosterior(mu=ad.linear(propagated, params.w_mu),
                           logvar=ad.linear(propagated, params.w_logvar))


def decode(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Edge logits S = z @ z.T, written into the N x N `out` and returned.

    The decoder's edge probabilities are sigmoid(S); `vgae_loss` scores the
    edges from the logits. numpy computes z @ z.T as a symmetric rank-k
    update, so S equals its transpose bit for bit.
    """
    if z.ndim != 2:
        raise ShapeError(f"decode expects an N x latent matrix, got shape {z.shape}")
    return np.matmul(z, z.T, out=out)


@dataclass
class VgaeConfig:
    hidden: int = 256
    latent: int = 300
    epochs: int = 50
    lr: float = 0.01

    def validate(self, prefix: str) -> "VgaeConfig":
        """Raise ConfigError naming the first field out of bounds as `prefix` + its name."""
        for name, least in (("hidden", 1), ("latent", 1), ("epochs", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{prefix}{name} must be >= {least}, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"{prefix}lr must be finite and > 0, got {self.lr}")
        return self


class VgaeTarget:
    """One graph's reconstruction target, and the arrays `vgae_loss` overwrites each epoch.

    `a_bin` is the binarized edge set y (edges and self-loops), symmetric.
    Positive entries are up-weighted by pos_weight = (N^2 - E) / E and the
    cross-entropy scaled by N^2 / (2 (N^2 - E)), then averaged over the N^2
    entries, which keeps sparse graphs from collapsing to the all-zeros
    decoder. Everything that depends only on y is computed here once; the
    N x N and N x latent work arrays are allocated once and reused by every
    forward and backward. The N x latent ones, the returned gradients among
    them, are views of one block, so `Tensor.backward` copies a gradient
    into a leaf's `grad` instead of keeping the array. `forwards` counts the
    forwards run on them.
    """

    def __init__(self, a_bin: np.ndarray, latent: int):
        n = a_bin.shape[0]
        if a_bin.shape != (n, n) or not np.array_equal(a_bin, a_bin.T):
            raise ShapeError(f"target must be a symmetric N x N matrix, got shape {a_bin.shape}")
        total = float(n * n)
        positives = float(a_bin.sum())
        if positives == 0:
            raise TrainingError("graph has no positive edges, refusing to train")
        if positives == total:
            raise TrainingError("graph is complete (no negative entries), re-weighting undefined")
        self.pos_weight = (total - positives) / positives
        norm = total / (2.0 * (total - positives))
        self.scale = norm / total
        self.kl_scale = -1.0 / (2.0 * n)
        self.weights = 1.0 + (self.pos_weight - 1.0) * a_bin  # pos_weight on positives, 1 elsewhere
        self.sign = 1.0 - 2.0 * a_bin  # -1 on positives, whose term is softplus(-S)
        self.positive_grad = self.pos_weight * a_bin
        self.logits, self.exp_neg, self.work = np.empty((3, n, n))
        self.nonneg = np.empty((n, n), dtype=bool)
        self.std, self.z, self.var, self.dz, self.d_mu, self.d_logvar = np.empty((6, n, latent))
        self.forwards = 0


def vgae_loss(posterior: LatentPosterior, noise: np.ndarray, target: VgaeTarget) -> Tensor:
    """Negative ELBO of the sample z = mu + exp(logvar / 2) * noise, one tape node.

    `noise` is the caller's standard-normal draw, shaped like mu; gradients
    flow to mu and logvar, never to the noise. The loss is
    scale * sum(weights * softplus(sign * S)) over the logits S = `decode`(z),
    the re-weighted cross-entropy under sigmoid(S), plus the KL term
    -(1 / 2N) * sum(1 + logvar - mu^2 - exp(logvar)). softplus(t) is
    max(t, 0) + log1p(exp(-|t|)), finite for every finite logit; its
    exp(-|S|) is kept for the backward's sigmoid. As S and y are symmetric,
    the gradient dS is too, and dz = (dS + dS^T) z = 2 (dS z) exactly.

    The node's forward and backward write the target's work arrays, so its
    backward raises TrainingError once a later forward on the same target
    has overwritten them.
    """
    mu, logvar = posterior.mu.data, posterior.logvar.data
    t = target
    if mu.shape != t.z.shape or logvar.shape != t.z.shape or np.shape(noise) != t.z.shape:
        raise ShapeError(f"vgae_loss shapes differ: target {t.z.shape}, mu {mu.shape}, "
                         f"logvar {logvar.shape}, noise {np.shape(noise)}")
    # KL sum first: dz is free until the backward, and z holds mu^2 until sampled
    np.exp(logvar, out=t.var)
    np.add(logvar, 1.0, out=t.dz)
    np.subtract(t.dz, np.multiply(mu, mu, out=t.z), out=t.dz)
    kl = t.kl_scale * np.sum(np.subtract(t.dz, t.var, out=t.dz))
    np.exp(np.multiply(logvar, 0.5, out=t.std), out=t.std)
    np.add(mu, np.multiply(t.std, noise, out=t.z), out=t.z)
    s = decode(t.z, t.logits)
    np.maximum(np.multiply(t.sign, s, out=t.work), 0.0, out=t.work)
    np.exp(np.negative(np.abs(s, out=t.exp_neg), out=t.exp_neg), out=t.exp_neg)
    np.greater_equal(s, 0.0, out=t.nonneg)
    np.add(t.work, np.log1p(t.exp_neg, out=s), out=t.work)  # the softplus
    value = t.scale * np.vdot(t.weights, t.work) + kl
    t.forwards += 1
    forward = t.forwards

    def bw(g):
        if t.forwards != forward:
            raise TrainingError("vgae_loss backward after a later forward overwrote its target's arrays")
        # sigmoid(S) = max(e, S >= 0) / (1 + e) with e = exp(-|S|), no overflow;
        # dS = scale * (weights * sigmoid(S) - pos_weight * y)
        np.divide(np.maximum(t.exp_neg, t.nonneg, out=t.work), np.add(t.exp_neg, 1.0, out=s), out=t.work)
        np.subtract(np.multiply(t.weights, t.work, out=t.work), t.positive_grad, out=t.work)
        np.multiply(t.work, g * t.scale, out=t.work)
        dz = np.multiply(np.matmul(t.work, t.z, out=t.dz), 2.0, out=t.dz)
        # each parent's two terms, the sample's and the KL's, summed
        np.add(np.multiply(-2.0 * t.kl_scale * g, mu, out=t.d_mu), dz, out=t.d_mu)
        d_logvar = np.multiply(np.multiply(np.multiply(dz, noise, out=t.d_logvar), t.std, out=t.d_logvar),
                               0.5, out=t.d_logvar)
        np.multiply(t.kl_scale * g, np.subtract(1.0, t.var, out=dz), out=dz)
        return t.d_mu, np.add(d_logvar, dz, out=d_logvar)
    return ad.node(value, (posterior.mu, posterior.logvar), bw)


def _encoder_inputs(graph: CoocGraph) -> tuple[Tensor, Tensor]:
    """The constant encoder inputs: a_norm and the propagated attributes a_norm @ x."""
    a_norm = Tensor(normalize_adjacency(graph.adjacency))
    return a_norm, ad.linear(a_norm, Tensor(graph.attributes))


def train_vgae(graph: CoocGraph, config: VgaeConfig, rng) -> tuple[EmojiEmbeddings, VgaeParams, list[float]]:
    """Full-batch Adam over the ELBO; returns (embeddings, params, loss history).

    Each epoch runs encode, the objective (sampling and decode inside), and
    one optimizer step. The returned embedding matrix is the posterior mean
    under the final parameters, deterministic for a fixed seed. A field of
    `config` out of bounds raises ConfigError; a non-finite loss or
    embedding raises TrainingError.
    """
    config.validate("VgaeConfig.")
    if graph.size == 0:
        raise TrainingError("cannot train on an empty graph")
    a_norm, ax = _encoder_inputs(graph)
    target = VgaeTarget(binarize_edges(graph.adjacency), config.latent)
    params = VgaeParams.create(graph.attributes.shape[1], config.hidden, config.latent, rng)
    opt = ad.AdamState(params, lr=config.lr)
    history: list[float] = []
    for epoch in range(config.epochs):
        ad.zero_grads(opt.params)
        posterior = encode(a_norm, ax, params)
        loss = vgae_loss(posterior, rng.standard_normal(posterior.mu.shape), target)
        value = loss.item()
        if not math.isfinite(value):
            raise TrainingError(f"vgae loss is {value} at epoch {epoch + 1}/{config.epochs}")
        loss.backward()
        ad.adam_step(opt)
        history.append(value)
        logger.info("vgae epoch %d/%d loss %.6f", epoch + 1, config.epochs, history[-1])
    return embed_nodes(graph, params), params, history


def embed_nodes(graph: CoocGraph, params: VgaeParams) -> EmojiEmbeddings:
    """Posterior means for the graph under fixed parameters; a non-finite one raises TrainingError."""
    a_norm, ax = _encoder_inputs(graph)
    mu = encode(a_norm, ax, params).mu.data
    if not np.isfinite(mu).all():
        raise TrainingError("vgae embeddings are not finite")
    return EmojiEmbeddings(ids=list(graph.node_ids), vectors=mu.copy())


def edge_auc(scores: np.ndarray, a_bin: np.ndarray, rng) -> float:
    """ROC AUC of positive edges against an equal count of sampled non-edges.

    Candidates are unordered off-diagonal pairs; self-loops are excluded.
    Ties in score contribute half, and a NaN score neither wins nor ties.
    Binary search in the sorted negatives gives the pairwise counts in
    O(P log P).
    """
    n = a_bin.shape[0]
    iu = np.triu_indices(n, k=1)
    labels = a_bin[iu]
    values = scores[iu]
    pos = values[labels > 0]
    neg_pool = values[labels == 0]
    if pos.size == 0 or neg_pool.size == 0:
        raise TrainingError("AUC undefined: need both positive and negative pairs")
    take = min(pos.size, neg_pool.size)
    neg = np.sort(neg_pool[rng.choice(neg_pool.size, size=take, replace=False)])
    scored = pos[~np.isnan(pos)]
    below = np.searchsorted(neg, scored, side="left")
    greater = below.sum()
    equal = (np.searchsorted(neg, scored, side="right") - below).sum()
    return (greater + 0.5 * equal) / (pos.size * take)
