"""Directional gradient checks at the sizes that run.

Criterion 1 checks gradients one coordinate at a time, which confines it to
tiny shapes. Here each case perturbs all parameters at once along a few
seeded unit directions v and compares the backward's g·v with the central
difference (f(θ + hv) - f(θ - hv)) / 2h. That costs two forwards per
direction, so the fused nodes are checked on their real layouts: the
classifier at the `RunConfig` defaults for each distinct `ABLATIONS` row, on
one post (the one-post paths) and on one training chunk (the packed
layouts), and the VGAE objective at 256/300 on a graph-paper-sized graph.
"""

import numpy as np
import pytest

from emofuse.attention import ABLATIONS
from emofuse.autodiff import Tensor, named_parameters, zero_grads
from emofuse.config import RunConfig
from emofuse.graph import binarize_edges, normalize_adjacency
from emofuse.model import SentimentModel
from emofuse.pipeline import CHUNK_ROWS
from emofuse.textcnn import cross_entropy_logits
from emofuse.tokenization import tokenize
from emofuse.vectors import VectorTable
from emofuse.vgae import VgaeParams, VgaeTarget, encode, vgae_loss

H = 1e-5
DIRECTIONS = 3
BOUND = 1e-5  # the worst error seen here is 1.0e-6, on the VGAE objective

# One selector per distinct wiring: the five rows of the seven names.
WIRINGS = ["full", "N", "T", "E", "RA1"]
EMOJIS = ["\U0001F600", "\U0001F389", "\U0001F622", "\U0001F494", "\U0001F525", "\U0001F4AF"]


def test_wirings_cover_every_ablation_row():
    assert len({ABLATIONS[name] for name in WIRINGS}) == len(WIRINGS)
    assert {ABLATIONS[name] for name in WIRINGS} == set(ABLATIONS.values())


def directional_error(objective, params, seed) -> float:
    """Worst |g·v - numeric| over seeded unit directions v, relative to |g| / sqrt(D).

    That scale is the root-mean-square of g·v over random unit directions in
    D dimensions, so the error reads the same at any loss scale. The floor
    of 1 that `grad_check` divides by would pass a VGAE dz 0.1% off or a KL
    gradient 10% off: the VGAE's directional derivatives are about 1e-4.
    """
    zero_grads(params)
    objective().backward()
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    typical = np.sqrt(sum(np.vdot(g, g) for g in grads) / sum(g.size for g in grads))
    assert typical > 0.0, "the objective has no gradient to check"
    originals = [p.data.copy() for p in params]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(DIRECTIONS):
        v = [rng.standard_normal(p.data.shape) for p in params]
        norm = np.sqrt(sum(np.vdot(d, d) for d in v))
        v = [d / norm for d in v]
        analytic = sum(np.vdot(g, d) for g, d in zip(grads, v))
        values = []
        for step in (H, -H):
            for p, start, d in zip(params, originals, v):
                p.data[...] = start + step * d
            values.append(objective().item())
        for p, start in zip(params, originals):
            p.data[...] = start
        numeric = (values[0] - values[1]) / (2 * H)
        worst = max(worst, abs(analytic - numeric) / typical)
    return worst


@pytest.fixture(scope="module")
def emoji_table():
    return VectorTable(EMOJIS, np.random.default_rng(5).standard_normal((len(EMOJIS), 300)))


def labeled_posts(word_table):
    """Posts of 0-30 words and 0-4 emojis, one of them emoji-only, so that
    the co-attention units see more emoji rows than text rows."""
    rng = np.random.default_rng(6)
    words = word_table.ids
    posts = ["\U0001F600 \U0001F389 \U0001F622"]
    for n_words, n_emojis in ((3, 0), (8, 1), (12, 2), (20, 4), (30, 1), (5, 3)):
        tokens = [words[i] for i in rng.integers(0, len(words), n_words)]
        for i in rng.integers(0, len(EMOJIS), n_emojis):
            tokens.insert(int(rng.integers(0, len(tokens) + 1)), EMOJIS[i])
        posts.append(" ".join(tokens))
    return [tokenize(p) for p in posts], [k % 2 for k in range(len(posts))]


@pytest.mark.parametrize("layout", ["one-post", "chunk"])
@pytest.mark.parametrize("ablation", WIRINGS)
def test_classifier_directional_gradient(ablation, layout, word_table, emoji_table):
    model = SentimentModel(RunConfig(ablation=ablation), word_table, emoji_table, np.random.default_rng(0))
    if layout == "one-post":
        posts, labels = [tokenize("so happy \U0001F600 \U0001F389 \U0001F622 \U0001F4AF")], [1]
    else:
        posts, labels = labeled_posts(word_table)
        assert sum(len(model.split(seq)[0]) for seq in posts) <= CHUNK_ROWS
    params = [p for _, p in named_parameters(model.params)]
    # Move off the initial values, as one training step would: with the
    # biases at 0, the empty word that an emoji-only post reads runs as an
    # all-zero row to the classifier's relu, on its kink, where the
    # subgradient and the central difference differ.
    rng = np.random.default_rng(1)
    for p in params:
        p.data += rng.normal(0.0, 0.01, p.data.shape)

    def objective():
        return cross_entropy_logits(model.forward_logits(posts), labels)

    err = directional_error(objective, params, seed=7)
    assert err < BOUND, f"{ablation} {layout}: worst directional error {err:.2e}"


def test_vgae_objective_directional_gradient():
    # 324 nodes, as on the graph-paper bench, at the paper's 256/300.
    rng = np.random.default_rng(8)
    n, attr_dim, hidden, latent = 324, 300, 256, 300
    weights = np.triu(rng.uniform(0.5, 2.0, (n, n)) * (rng.random((n, n)) < 0.05), 1)
    adjacency = weights + weights.T
    a_norm = Tensor(normalize_adjacency(adjacency))
    ax = Tensor(a_norm.data @ (rng.standard_normal((n, attr_dim)) * 0.1))
    vparams = VgaeParams.create(attr_dim, hidden, latent, rng)
    noise = rng.standard_normal((n, latent))
    target = VgaeTarget(binarize_edges(adjacency), latent)
    params = [p for _, p in named_parameters(vparams)]

    err = directional_error(lambda: vgae_loss(encode(a_norm, ax, vparams), noise, target), params, seed=9)
    assert err < BOUND, f"vgae objective: worst directional error {err:.2e}"
