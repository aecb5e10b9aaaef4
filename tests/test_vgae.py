import math

import numpy as np
import pytest

from conftest import make_emoji_labeled_posts
from emofuse import autodiff as ad
from emofuse import vgae
from emofuse.autodiff import Tensor, grad_check
from emofuse.exceptions import TrainingError
from emofuse.graph import CoocGraph, binarize_edges, build_cooc_graph, count_cooccurrences, normalize_adjacency
from emofuse.tokenization import tokenize
from emofuse.vgae import (
    LatentPosterior,
    VgaeConfig,
    VgaeParams,
    decode,
    edge_auc,
    embed_nodes,
    encode,
    train_vgae,
    vgae_loss,
)
from tape_ops import tensor_sum


def scalar_loss_oracle(a_hat, a_bin, mu, logvar):
    """Plain-float re-implementation of the training objective on edge probabilities a_hat = sigmoid(S)."""
    n = a_bin.shape[0]
    total = n * n
    positives = sum(a_bin[i][j] for i in range(n) for j in range(n))
    pos_weight = (total - positives) / positives
    norm = total / (2.0 * (total - positives))
    bce = 0.0
    for i in range(n):
        for j in range(n):
            p = a_hat[i][j]
            if a_bin[i][j] == 1.0:
                bce += -pos_weight * math.log(p)
            else:
                bce += -math.log(1.0 - p)
    bce /= total
    kl = 0.0
    for i in range(n):
        for k in range(mu.shape[1]):
            kl += 1.0 + logvar[i][k] - mu[i][k] ** 2 - math.exp(logvar[i][k])
    kl *= -1.0 / (2.0 * n)
    return norm * bce + kl


def softplus_limit(t):
    """softplus(t) = log(1 + e^t) for |t| >= 50: t + e^-t or e^t, exact to double precision."""
    assert abs(t) >= 50.0
    return max(t, 0.0) + math.exp(-abs(t))


def plain_sigmoid(t):
    return 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))


def sigmoid_matrix(logits):
    return np.array([[plain_sigmoid(t) for t in row] for row in logits])


def edge_probabilities(z):
    """The decoder's edge probabilities, sigmoid of `decode`'s logits, in plain math."""
    return sigmoid_matrix(decode(Tensor(z)).data)


def tape_nodes(root):
    """Every tensor reachable from `root` through the recorded parents."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def ring_target(n):
    adjacency = np.zeros((n, n))
    for i in range(n):
        adjacency[i, (i + 1) % n] = adjacency[(i + 1) % n, i] = 1.0
    return binarize_edges(adjacency)


def make_cluster_graph(seed=100, n=20, p_in=0.8, p_out=0.05):
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((n, n))
    half = n // 2
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < half) == (j < half)
            if rng.random() < (p_in if same else p_out):
                w = rng.uniform(0.5, 2.0)
                adjacency[i, j] = adjacency[j, i] = w
    attributes = np.zeros((n, 8))
    attributes[:half, :4] = 1.0
    attributes[half:, 4:] = 1.0
    attributes += rng.normal(0, 0.1, attributes.shape)
    return CoocGraph(node_ids=[f"e{i}" for i in range(n)], pair_counts={},
                     adjacency=adjacency, attributes=attributes)


class TestEncode:
    def test_zero_attributes_give_zero_posterior(self):
        rng = np.random.default_rng(1)
        params = VgaeParams.create(4, 3, 2, rng)
        posterior = encode(Tensor(np.eye(3)), Tensor(np.zeros((3, 4))), params)
        assert not posterior.mu.data.any()
        assert not posterior.logvar.data.any()

    def test_single_node_shapes(self):
        params = VgaeParams.create(4, 3, 2, np.random.default_rng(2))
        posterior = encode(Tensor(np.ones((1, 1))), Tensor(np.ones((1, 4))), params)
        assert posterior.mu.data.shape == (1, 2)
        assert posterior.logvar.data.shape == (1, 2)

    def test_matches_hand_rolled_product(self):
        a_norm = np.array([[0.6, 0.4], [0.4, 0.6]])
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        params = VgaeParams(
            w_in=Tensor(np.array([[1.0, -1.0], [2.0, 0.5]])),
            w_mu=Tensor(np.array([[0.3], [0.7]])),
            w_logvar=Tensor(np.array([[-0.2], [0.1]])),
        )
        posterior = encode(Tensor(a_norm), Tensor(a_norm @ x), params)
        hidden = np.maximum(a_norm @ x @ params.w_in.data, 0.0)
        np.testing.assert_allclose(posterior.mu.data, a_norm @ hidden @ params.w_mu.data, atol=1e-15)
        np.testing.assert_allclose(posterior.logvar.data, a_norm @ hidden @ params.w_logvar.data, atol=1e-15)


class TestDecode:
    def test_zero_latents_give_half(self):
        np.testing.assert_array_equal(edge_probabilities(np.zeros((3, 4))), np.full((3, 3), 0.5))

    def test_orthogonal_rows_give_half_off_diagonal(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert edge_probabilities(z)[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_norm_log3_gives_three_quarters(self):
        # equal rows with squared norm ln 3: sigmoid(ln 3) = 0.75
        row = np.sqrt(math.log(3.0) / 2.0) * np.ones(2)
        assert edge_probabilities(np.stack([row, row]))[0, 1] == pytest.approx(0.75, abs=1e-12)

    def test_symmetric_and_open_interval(self):
        rng = np.random.default_rng(5)
        probs = edge_probabilities(rng.standard_normal((6, 4)))
        np.testing.assert_allclose(probs, probs.T, atol=1e-12)
        assert (probs > 0).all() and (probs < 1).all()

    def test_keeps_logits_and_latents(self):
        # the output is the logits z z^T, one node whose only parent is z
        z = Tensor(np.random.default_rng(6).standard_normal((4, 3)), requires_grad=True)
        out = decode(z)
        assert type(out) is Tensor
        np.testing.assert_array_equal(out.data, z.data @ z.data.T)
        assert out._parents == (z,)

    def test_own_gradient_passes_grad_check(self):
        rng = np.random.default_rng(8)
        z = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        mix = rng.standard_normal((4, 4))
        assert grad_check(lambda t: tensor_sum(ad.mul(decode(t), mix)), z) < 1e-7


def standard_posterior(n, latent):
    return LatentPosterior(mu=Tensor(np.zeros((n, latent))), logvar=Tensor(np.zeros((n, latent))))


class TestVgaeLoss:
    def test_standard_normal_posterior_has_zero_kl(self):
        n = 3
        a_bin = np.eye(n)
        posterior = standard_posterior(n, 2)
        loss = vgae_loss(Tensor(np.zeros((n, n))), a_bin, posterior)
        oracle = scalar_loss_oracle(np.full((n, n), 0.5), a_bin, posterior.mu.data, posterior.logvar.data)
        assert loss.item() == pytest.approx(oracle, abs=1e-12)

    def test_matched_saturation_drives_bce_to_zero(self):
        n = 3
        a_bin = binarize_edges(np.array([[0, 1.0, 0], [1.0, 0, 0], [0, 0, 0]]))
        near = np.where(a_bin == 1.0, 40.0, -40.0)
        loss = vgae_loss(Tensor(near), a_bin, standard_posterior(n, 2))
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_three_node_instance_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        n = 3
        a_bin = binarize_edges(np.array([[0, 1.2, 0], [1.2, 0, 0.4], [0, 0.4, 0]]))
        logits = rng.uniform(-2.0, 2.0, (n, n))
        logits = (logits + logits.T) / 2
        mu = rng.standard_normal((n, 2))
        logvar = rng.standard_normal((n, 2)) * 0.3
        loss = vgae_loss(Tensor(logits), a_bin, LatentPosterior(mu=Tensor(mu), logvar=Tensor(logvar)))
        oracle = scalar_loss_oracle(sigmoid_matrix(logits), a_bin, mu, logvar)
        assert loss.item() == pytest.approx(oracle, abs=1e-9)

    def test_no_positive_edges_rejected(self):
        n = 2
        with pytest.raises(TrainingError):
            vgae_loss(Tensor(np.zeros((n, n))), np.zeros((n, n)), standard_posterior(n, 1))

    def test_complete_graph_rejected(self):
        n = 2
        with pytest.raises(TrainingError):
            vgae_loss(Tensor(np.zeros((n, n))), np.ones((n, n)), standard_posterior(n, 1))

    def test_kl_nonnegative_and_zero_only_at_standard_normal(self):
        rng = np.random.default_rng(11)
        n = 4
        a_bin = np.eye(n)
        logits = Tensor(np.zeros((n, n)))
        base = vgae_loss(logits, a_bin, standard_posterior(n, 3))
        for _ in range(25):
            mu = rng.standard_normal((n, 3))
            logvar = rng.standard_normal((n, 3))
            loss = vgae_loss(logits, a_bin, LatentPosterior(mu=Tensor(mu), logvar=Tensor(logvar)))
            assert loss.item() >= base.item() - 1e-12


class TestLossFromLogits:
    def test_matches_probability_path(self):
        # the scalar oracle scores the probabilities sigmoid(S) with plain logs
        rng = np.random.default_rng(12)
        n = 6
        a_bin = ring_target(n)
        z = rng.standard_normal((n, 3))
        mu, logvar = rng.standard_normal((n, 3)), rng.standard_normal((n, 3)) * 0.3
        loss = vgae_loss(decode(Tensor(z)), a_bin, LatentPosterior(mu=Tensor(mu), logvar=Tensor(logvar)))
        oracle = scalar_loss_oracle(edge_probabilities(z), a_bin, mu, logvar)
        assert loss.item() == pytest.approx(oracle, rel=1e-12)

    def test_passes_grad_check_with_both_edge_classes(self):
        rng = np.random.default_rng(13)
        n = 6
        a_bin = ring_target(n)
        assert 0 < a_bin.sum() < n * n
        z = Tensor(rng.standard_normal((n, 3)) * 1.5, requires_grad=True)
        mu = Tensor(rng.standard_normal((n, 3)), requires_grad=True)
        logvar = Tensor(rng.standard_normal((n, 3)) * 0.3, requires_grad=True)
        posterior = LatentPosterior(mu=mu, logvar=logvar)
        for target in (z, mu, logvar):
            err = grad_check(lambda t: vgae_loss(decode(z), a_bin, posterior), target)
            assert err < 1e-7

    def test_loss_does_not_pass_through_probabilities(self):
        rng = np.random.default_rng(14)
        z = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        logits = decode(z)
        posterior = LatentPosterior(mu=z, logvar=Tensor(np.zeros((5, 2))))
        loss = vgae_loss(logits, ring_target(5), posterior)
        bce, _ = loss._parents
        assert bce._parents == (logits,)
        # loss = bce + kl; bce reads the logits, which read z; kl reads z and the constant logvar
        assert len(tape_nodes(loss)) == 6

    def test_saturated_latents_give_analytic_loss_and_gradient(self):
        # the 0-1 edge is a positive scored -800 (sigmoid exactly 0), the 0-2
        # pair a negative scored +55 (sigmoid exactly 1); the rest saturate correctly
        n = 3
        a_bin = binarize_edges(np.array([[0, 1.0, 0], [1.0, 0, 1.0], [0, 1.0, 0]]))
        gram = np.array([[2000.0, -800.0, 55.0], [-800.0, 2000.0, 60.0], [55.0, 60.0, 2000.0]])
        z = Tensor(np.linalg.cholesky(gram), requires_grad=True)
        s = z.data @ z.data.T
        assert (np.abs(s) >= 50).all()
        assert plain_sigmoid(s[0, 1]) == 0.0 and plain_sigmoid(s[0, 2]) == 1.0
        zeros = Tensor(np.zeros((n, 2)))
        loss = vgae_loss(decode(z), a_bin, LatentPosterior(mu=zeros, logvar=zeros))

        total, positives = n * n, a_bin.sum()
        pos_weight = (total - positives) / positives
        scale = 1.0 / (2.0 * (total - positives))  # norm / N^2
        expected = scale * sum(
            pos_weight * softplus_limit(-s[i, j]) if a_bin[i, j] else softplus_limit(s[i, j])
            for i in range(n) for j in range(n))
        assert math.isfinite(loss.item())
        assert loss.item() == pytest.approx(expected, rel=1e-12)

        loss.backward()
        d_logits = np.array([[scale * (pos_weight * (plain_sigmoid(s[i, j]) - 1.0) if a_bin[i, j]
                                       else plain_sigmoid(s[i, j])) for j in range(n)]
                             for i in range(n)])
        assert np.isfinite(z.grad).all()
        np.testing.assert_allclose(z.grad, (d_logits + d_logits.T) @ z.data, rtol=1e-12, atol=1e-12)


class TestVgaeGradients:
    def test_grad_check_on_five_node_graph(self):
        rng = np.random.default_rng(21)
        n = 5
        adjacency = np.zeros((n, n))
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]:
            adjacency[i, j] = adjacency[j, i] = rng.uniform(0.5, 1.5)
        x = rng.standard_normal((n, 4))
        a_norm = Tensor(normalize_adjacency(adjacency))
        a_bin = binarize_edges(adjacency)
        params = VgaeParams.create(4, 3, 2, rng)
        noise = rng.standard_normal((n, 2))

        def loss_for(params_override):
            posterior = encode(a_norm, ad.linear(a_norm, Tensor(x)), params_override)
            z = ad.gaussian_sample(posterior.mu, posterior.logvar, noise=noise)
            return vgae_loss(decode(z), a_bin, posterior)

        for name in ("w_in", "w_mu", "w_logvar"):
            target = getattr(params, name)
            err = grad_check(lambda t: loss_for(params), target)
            assert err < 1e-4, f"{name} grad check failed with {err}"


class TestTrainVgae:
    def test_loss_decreases_on_cluster_graph(self):
        graph = make_cluster_graph()
        _, _, history = train_vgae(graph, VgaeConfig(hidden=16, latent=8, epochs=15, lr=0.01),
                                   np.random.default_rng(0))
        assert history[-1] < history[0]

    def test_zero_epochs_returns_initialized_embeddings(self):
        graph = make_cluster_graph()
        config = VgaeConfig(hidden=16, latent=8, epochs=0, lr=0.01)
        embeddings, params, history = train_vgae(graph, config, np.random.default_rng(3))
        assert history == []
        reference = VgaeParams.create(8, 16, 8, np.random.default_rng(3))
        np.testing.assert_array_equal(params.w_in.data, reference.w_in.data)
        np.testing.assert_array_equal(embeddings.vectors, embed_nodes(graph, reference).vectors)

    def test_same_seed_identical_embeddings(self):
        graph = make_cluster_graph()
        config = VgaeConfig(hidden=16, latent=8, epochs=10, lr=0.01)
        first, _, h1 = train_vgae(graph, config, np.random.default_rng(4))
        second, _, h2 = train_vgae(graph, config, np.random.default_rng(4))
        np.testing.assert_array_equal(first.vectors, second.vectors)
        assert h1 == h2

    def test_empty_graph_rejected(self):
        empty = CoocGraph(node_ids=[], pair_counts={}, adjacency=np.zeros((0, 0)),
                          attributes=np.zeros((0, 4)))
        with pytest.raises(TrainingError):
            train_vgae(empty, VgaeConfig(epochs=1), np.random.default_rng(0))

    def test_embeddings_equal_embed_nodes(self):
        graph = make_cluster_graph()
        embeddings, params, _ = train_vgae(graph, VgaeConfig(hidden=16, latent=8, epochs=5),
                                           np.random.default_rng(5))
        np.testing.assert_array_equal(embeddings.vectors, embed_nodes(graph, params).vectors)

    def test_calls_each_stage_through_the_module_once_per_epoch(self, monkeypatch):
        counts = {}
        for name in ("encode", "decode", "vgae_loss"):
            def counted(*args, _name=name, _original=getattr(vgae, name)):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args)
            monkeypatch.setattr(vgae, name, counted)
        train_vgae(make_cluster_graph(), VgaeConfig(hidden=8, latent=4, epochs=6),
                   np.random.default_rng(0))
        # encode runs once more, for the final posterior
        assert counts == {"encode": 7, "decode": 6, "vgae_loss": 6}

    def test_nonfinite_loss_raises_naming_the_epoch(self, monkeypatch):
        original, calls = vgae.vgae_loss, []

        def poisoned(*args):
            calls.append(None)
            loss = original(*args)
            return ad.mul(loss, math.nan) if len(calls) == 3 else loss
        monkeypatch.setattr(vgae, "vgae_loss", poisoned)
        with pytest.raises(TrainingError, match="epoch 3/10"):
            train_vgae(make_cluster_graph(), VgaeConfig(hidden=8, latent=4, epochs=10),
                       np.random.default_rng(0))

    def test_infinite_attribute_raises_before_embeddings_are_returned(self):
        graph = make_cluster_graph()
        graph.attributes[0, 0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="epoch 1/4"):
            train_vgae(graph, VgaeConfig(hidden=8, latent=4, epochs=4), np.random.default_rng(0))
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="vgae embeddings are not finite"):
            train_vgae(graph, VgaeConfig(hidden=8, latent=4, epochs=0), np.random.default_rng(0))


def test_default_dims_sample_run_is_finite(inventory, word_table):
    """The documented default VgaeConfig (256/300/50) on the sample data stays finite."""
    posts = make_emoji_labeled_posts(400, 0)
    graph = build_cooc_graph(count_cooccurrences(tokenize(p.text) for p in posts), inventory, word_table)
    embeddings, _, history = train_vgae(graph, VgaeConfig(), np.random.default_rng(0))
    assert len(history) == 50
    assert all(math.isfinite(loss) for loss in history)
    assert np.isfinite(embeddings.vectors).all()


class TestEdgeAuc:
    def test_perfect_scores_give_one(self):
        a_bin = binarize_edges(np.array([[0, 1.0], [1.0, 0]]))
        scores = np.array([[0.9, 0.95], [0.95, 0.9]])
        padded = np.zeros((3, 3))
        padded[:2, :2] = scores
        bin3 = np.zeros((3, 3))
        bin3[:2, :2] = a_bin
        np.fill_diagonal(bin3, 1.0)
        assert edge_auc(padded, bin3, np.random.default_rng(0)) == 1.0

    def test_needs_both_classes(self):
        with pytest.raises(TrainingError):
            edge_auc(np.zeros((2, 2)), np.ones((2, 2)), np.random.default_rng(0))
