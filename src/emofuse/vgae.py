"""Variational graph autoencoder producing the emoji embedding matrix.

A two-layer graph-convolution encoder maps the normalized co-occurrence
graph and node attributes to a Gaussian posterior per node (a shared first
layer feeding separate mean and log-variance heads). The decoder scores
every node pair by the sigmoid of the latent inner product. Training
maximizes the ELBO: re-weighted binary cross-entropy against the binarized
edge set plus the KL pull toward the standard normal. The cross-entropy is
computed from the logits z z^T with a stable softplus (the form of
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
from .vectors import read_vector_table, write_vector_table

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

    def as_list(self) -> list[Tensor]:
        return [self.w_in, self.w_mu, self.w_logvar]

    def named(self) -> dict[str, np.ndarray]:
        return {"vgae.w_in": self.w_in.data, "vgae.w_mu": self.w_mu.data,
                "vgae.w_logvar": self.w_logvar.data}


@dataclass
class LatentPosterior:
    mu: Tensor      # N x latent
    logvar: Tensor  # N x latent, stores log of the variance


@dataclass
class EmojiEmbeddings:
    ids: list[str]
    vectors: np.ndarray  # N x latent

    def __post_init__(self):
        self._index = {e: i for i, e in enumerate(self.ids)}

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def get(self, emoji: str) -> np.ndarray | None:
        i = self._index.get(emoji)
        return None if i is None else self.vectors[i]

    def save(self, path):
        write_vector_table(path, self.ids, self.vectors)

    @classmethod
    def load(cls, path) -> "EmojiEmbeddings":
        ids, vectors = read_vector_table(path)
        return cls(ids=ids, vectors=vectors)


def encode(a_norm, ax, params: VgaeParams) -> LatentPosterior:
    """Shared relu first layer, then linear mean and log-variance heads.

    `ax` is the node attributes propagated once, a_norm @ x. It does not
    depend on the parameters, so training computes it once for all epochs.
    Both heads read the one second propagation a_norm @ hidden.
    """
    propagated = ad.matmul(a_norm, ad.relu(ad.matmul(ax, params.w_in)))
    return LatentPosterior(mu=ad.matmul(propagated, params.w_mu),
                           logvar=ad.matmul(propagated, params.w_logvar))


class EdgeProbabilities(Tensor):
    """What `decode` returns: sigmoid(S) for the logits S = z z^T.

    It keeps `logits` and the `latents` z, so `vgae_loss` scores the edges
    from the logits and sends its gradient straight to z.
    """

    __slots__ = ("logits", "latents")


def decode(z) -> EdgeProbabilities:
    """Edge probabilities sigmoid(z @ z.T); symmetric, entries in (0, 1)."""
    z = ad.as_tensor(z)
    if z.data.ndim != 2:
        raise ShapeError(f"decode expects an N x latent matrix, got shape {z.data.shape}")
    logits = z.data @ z.data.T
    probs = ad._sigmoid_values(logits)
    if z.requires_grad:
        def bw(g):
            d_logits = g * probs * (1.0 - probs)
            return ((d_logits + d_logits.T) @ z.data,)
        out = EdgeProbabilities(probs, True, (z,), bw)
    else:
        out = EdgeProbabilities(probs)
    out.logits, out.latents = logits, z
    return out


def _bce_from_logits(edges: EdgeProbabilities, y: np.ndarray, pos_weight: float,
                     scale: float) -> Tensor:
    """scale * sum(pos_weight * y * softplus(-S) + (1 - y) * softplus(S)), one tape node.

    softplus(-S) = -log sigmoid(S) and softplus(S) = -log(1 - sigmoid(S)), so
    this is the re-weighted cross-entropy, finite for every finite logit.
    softplus(t) is np.logaddexp(0, t) written out as max(t, 0) + log1p(exp(-|t|)),
    which is several times faster on an N x N matrix.
    """
    logits = edges.logits
    signed = (1.0 - 2.0 * y) * logits  # -S on positives, S elsewhere
    softplus = np.maximum(signed, 0.0) + np.log1p(np.exp(-np.abs(logits)))
    weights = 1.0 + (pos_weight - 1.0) * y  # pos_weight on positives, 1 elsewhere
    value = scale * np.vdot(weights, softplus)
    z = edges.latents
    if not z.requires_grad:
        return Tensor(value)
    probs = edges.data

    def bw(g):
        # dS = scale * ((1 - y) sigmoid(S) - pos_weight * y * sigmoid(-S)); dz = (dS + dS^T) z
        d_logits = (g * scale) * (weights * probs - pos_weight * y)
        return ((d_logits + d_logits.T) @ z.data,)
    return Tensor(value, True, (z,), bw)


def _kl_term(posterior: LatentPosterior, n: int) -> Tensor:
    """-(1 / 2N) * sum(1 + logvar - mu^2 - exp(logvar)), one tape node."""
    mu, logvar = posterior.mu, posterior.logvar
    var = np.exp(logvar.data)
    scale = -1.0 / (2.0 * n)
    value = scale * np.sum(1.0 + logvar.data - mu.data * mu.data - var)
    if not (mu.requires_grad or logvar.requires_grad):
        return Tensor(value)
    return Tensor(value, True, (mu, logvar),
                  lambda g: ((-2.0 * scale * g) * mu.data, (scale * g) * (1.0 - var)))


def vgae_loss(a_hat, a_bin: np.ndarray, posterior: LatentPosterior) -> Tensor:
    """Re-weighted reconstruction cross-entropy plus the per-node KL term.

    Positive entries (edges and self-loops) are up-weighted by
    (N^2 - E) / E and the whole cross-entropy scaled by N^2 / (2 (N^2 - E)),
    which keeps sparse graphs from collapsing to the all-zeros decoder. The
    KL term is -(1 / 2N) * sum(1 + logvar - mu^2 - exp(logvar)).

    `decode`'s output is scored from its logits; any other probability
    tensor is scored from the probabilities themselves.
    """
    a_hat = ad.as_tensor(a_hat)
    n = a_bin.shape[0]
    if a_hat.data.shape != (n, n):
        raise ShapeError(f"decoder output {a_hat.data.shape} does not match target {a_bin.shape}")
    total = float(n * n)
    positives = float(a_bin.sum())
    if positives == 0:
        raise TrainingError("graph has no positive edges, refusing to train")
    if positives == total:
        raise TrainingError("graph is complete (no negative entries), re-weighting undefined")
    pos_weight = (total - positives) / positives
    norm = total / (2.0 * (total - positives))
    y = a_bin
    if isinstance(a_hat, EdgeProbabilities):
        bce = _bce_from_logits(a_hat, y, pos_weight, norm / total)
    else:
        # masks sit inside the logs so a saturated but correct entry contributes
        # exactly 0 instead of 0 * log(0)
        pos_term = ad.log(ad.mul(a_hat, y) + (1.0 - y))
        neg_term = ad.log(ad.mul(1.0 - a_hat, 1.0 - y) + y)
        bce = ad.mul(ad.mean(ad.mul(pos_term, -pos_weight) - neg_term), norm)
    return bce + _kl_term(posterior, n)


@dataclass
class VgaeConfig:
    hidden: int = 256
    latent: int = 300
    epochs: int = 50
    lr: float = 0.01


def _encoder_inputs(graph: CoocGraph) -> tuple[Tensor, Tensor]:
    """The constant encoder inputs: a_norm and the propagated attributes a_norm @ x."""
    a_norm = Tensor(normalize_adjacency(graph.adjacency))
    return a_norm, ad.matmul(a_norm, Tensor(graph.attributes))


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
    param_list = params.as_list()
    opt = ad.AdamState.for_params(param_list, lr=config.lr)
    history: list[float] = []
    for epoch in range(config.epochs):
        ad.zero_grads(param_list)
        posterior = encode(a_norm, ax, params)
        z = ad.gaussian_sample(posterior.mu, posterior.logvar, rng=rng)
        loss = vgae_loss(decode(z), a_bin, posterior)
        value = loss.item()
        if not math.isfinite(value):
            raise TrainingError(f"vgae loss is {value} at epoch {epoch + 1}/{config.epochs}")
        loss.backward()
        ad.adam_step(param_list, opt)
        history.append(value)
        logger.info("vgae epoch %d/%d loss %.6f", epoch + 1, config.epochs, history[-1])
    final = encode(a_norm, ax, params)
    if not np.isfinite(final.mu.data).all():
        raise TrainingError(f"vgae embeddings are not finite after {config.epochs} epochs")
    embeddings = EmojiEmbeddings(ids=list(graph.node_ids), vectors=final.mu.data.copy())
    return embeddings, params, history


def embed_nodes(graph: CoocGraph, params: VgaeParams) -> EmojiEmbeddings:
    """Posterior means for the graph under fixed parameters."""
    a_norm, ax = _encoder_inputs(graph)
    posterior = encode(a_norm, ax, params)
    return EmojiEmbeddings(ids=list(graph.node_ids), vectors=posterior.mu.data.copy())


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
