"""Variational graph autoencoder producing the emoji embedding matrix.

A two-layer graph-convolution encoder maps the normalized co-occurrence
graph and node attributes to a Gaussian posterior per node (a shared first
layer feeding separate mean and log-variance heads). The decoder gives the
logits z z^T of every node pair; an edge's probability is their sigmoid.
Training maximizes the ELBO: re-weighted binary cross-entropy against the
binarized edge set plus the KL pull toward the standard normal. The
cross-entropy is computed from the logits with a stable softplus (the form of
TensorFlow's weighted_cross_entropy_with_logits in the reference VGAE), so
a saturated sigmoid never reaches log(0). The inference embedding for each
node is its posterior mean.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ShapeError, TrainingError
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


def decode(z: Tensor) -> Tensor:
    """Edge logits S = z @ z.T, symmetric; the decoder's edge probabilities are sigmoid(S).

    The sigmoid is left to `vgae_loss`, which scores the edges from the
    logits. One tape node whose backward is (g + g^T) z.
    """
    if z.data.ndim != 2:
        raise ShapeError(f"decode expects an N x latent matrix, got shape {z.data.shape}")
    logits = z.data @ z.data.T
    return ad.node(logits, (z,), lambda g: ((g + g.T) @ z.data,))


def _sigmoid_values(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|): no overflow.

    The numerator max(e, x >= 0) picks the branch without masked indexing.
    """
    return np.maximum(e, x >= 0) / (1.0 + e)


def _bce_from_logits(logits: Tensor, y: np.ndarray, pos_weight: float, scale: float) -> Tensor:
    """scale * sum(pos_weight * y * softplus(-S) + (1 - y) * softplus(S)), one tape node.

    softplus(-S) = -log sigmoid(S) and softplus(S) = -log(1 - sigmoid(S)), so
    this is the re-weighted cross-entropy, finite for every finite logit.
    softplus(t) is np.logaddexp(0, t) written out as max(t, 0) + log1p(exp(-|t|)),
    which is several times faster on an N x N matrix. Its exp(-|S|) is kept
    for the backward's sigmoid.
    """
    s = logits.data
    signed = (1.0 - 2.0 * y) * s  # -S on positives, S elsewhere
    e = np.exp(-np.abs(s))
    softplus = np.maximum(signed, 0.0) + np.log1p(e)
    weights = 1.0 + (pos_weight - 1.0) * y  # pos_weight on positives, 1 elsewhere
    value = scale * np.vdot(weights, softplus)

    def bw(g):
        # dS = scale * ((1 - y) sigmoid(S) - pos_weight * y * sigmoid(-S))
        return ((g * scale) * (weights * _sigmoid_values(s, e) - pos_weight * y),)
    return ad.node(value, (logits,), bw)


def _kl_term(posterior: LatentPosterior, n: int) -> Tensor:
    """-(1 / 2N) * sum(1 + logvar - mu^2 - exp(logvar)), one tape node."""
    mu, logvar = posterior.mu, posterior.logvar
    var = np.exp(logvar.data)
    scale = -1.0 / (2.0 * n)
    value = scale * np.sum(1.0 + logvar.data - mu.data * mu.data - var)
    return ad.node(value, (mu, logvar),
                   lambda g: ((-2.0 * scale * g) * mu.data, (scale * g) * (1.0 - var)))


def vgae_loss(logits: Tensor, a_bin: np.ndarray, posterior: LatentPosterior) -> Tensor:
    """Re-weighted reconstruction cross-entropy plus the per-node KL term.

    Positive entries (edges and self-loops) are up-weighted by
    (N^2 - E) / E and the whole cross-entropy scaled by N^2 / (2 (N^2 - E)),
    which keeps sparse graphs from collapsing to the all-zeros decoder. The
    KL term is -(1 / 2N) * sum(1 + logvar - mu^2 - exp(logvar)).
    `logits` are `decode`'s edge logits S, scored under sigmoid(S).
    """
    n = a_bin.shape[0]
    if logits.data.shape != (n, n):
        raise ShapeError(f"decoder output {logits.data.shape} does not match target {a_bin.shape}")
    total = float(n * n)
    positives = float(a_bin.sum())
    if positives == 0:
        raise TrainingError("graph has no positive edges, refusing to train")
    if positives == total:
        raise TrainingError("graph is complete (no negative entries), re-weighting undefined")
    pos_weight = (total - positives) / positives
    norm = total / (2.0 * (total - positives))
    return _bce_from_logits(logits, a_bin, pos_weight, norm / total) + _kl_term(posterior, n)


@dataclass
class VgaeConfig:
    hidden: int = 256
    latent: int = 300
    epochs: int = 50
    lr: float = 0.01


def _encoder_inputs(graph: CoocGraph) -> tuple[Tensor, Tensor]:
    """The constant encoder inputs: a_norm and the propagated attributes a_norm @ x."""
    a_norm = Tensor(normalize_adjacency(graph.adjacency))
    return a_norm, ad.linear(a_norm, Tensor(graph.attributes))


def train_vgae(graph: CoocGraph, config: VgaeConfig, rng) -> tuple[EmojiEmbeddings, VgaeParams, list[float]]:
    """Full-batch Adam over the ELBO; returns (embeddings, params, loss history).

    Each epoch runs encode, reparameterized sampling, decode, and one
    optimizer step. The returned embedding matrix is the posterior mean
    under the final parameters, deterministic for a fixed seed. A
    non-finite loss or embedding raises TrainingError.
    """
    if graph.size == 0:
        raise TrainingError("cannot train on an empty graph")
    a_norm, ax = _encoder_inputs(graph)
    a_bin = binarize_edges(graph.adjacency)
    params = VgaeParams.create(graph.attributes.shape[1], config.hidden, config.latent, rng)
    opt = ad.AdamState(params, lr=config.lr)
    history: list[float] = []
    for epoch in range(config.epochs):
        ad.zero_grads(opt.params)
        posterior = encode(a_norm, ax, params)
        z = ad.gaussian_sample(posterior.mu, posterior.logvar, rng.standard_normal(posterior.mu.shape))
        loss = vgae_loss(decode(z), a_bin, posterior)
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
    Ties in score contribute half.
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
    neg = neg_pool[rng.choice(neg_pool.size, size=take, replace=False)]
    greater = (pos[:, None] > neg[None, :]).sum()
    equal = (pos[:, None] == neg[None, :]).sum()
    return (greater + 0.5 * equal) / (pos.size * take)
