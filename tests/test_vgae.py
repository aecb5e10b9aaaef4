import dataclasses
import math

import numpy as np
import pytest

from conftest import make_emoji_labeled_posts
from emofuse import autodiff as ad
from emofuse import vgae
from emofuse.autodiff import Tensor, grad_check
from emofuse.exceptions import ConfigError, ShapeError, TrainingError
from emofuse.graph import CoocGraph, binarize_edges, build_cooc_graph, count_cooccurrences, normalize_adjacency
from emofuse.tokenization import tokenize
from emofuse.vgae import (
    LatentPosterior,
    VgaeConfig,
    VgaeParams,
    VgaeTarget,
    decode,
    edge_auc,
    embed_nodes,
    encode,
    train_vgae,
    vgae_loss,
)
from tape_ops import reference_objective


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
    return sigmoid_matrix(decode(z, np.empty((len(z), len(z)))))


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

    def test_writes_the_logits_into_out(self):
        z = np.random.default_rng(6).standard_normal((4, 3))
        out = np.empty((4, 4))
        assert decode(z, out) is out
        np.testing.assert_array_equal(out, z @ z.T)

    @pytest.mark.parametrize("n, latent", [(8, 16), (177, 16), (324, 300)])
    def test_logits_equal_their_transpose_bit_for_bit(self, n, latent):
        # the fused backward's dz = 2 (dS z) rests on this
        z = np.random.default_rng(n).standard_normal((n, latent))
        logits = decode(z, np.empty((n, n)))
        assert np.array_equal(logits, logits.T)


def standard_posterior(n, latent):
    return LatentPosterior(mu=Tensor(np.zeros((n, latent))), logvar=Tensor(np.zeros((n, latent))))


def mean_posterior(mu, logvar=None):
    """A posterior whose sample under zero noise is exactly `mu`."""
    logvar = np.zeros_like(mu) if logvar is None else logvar
    return LatentPosterior(mu=Tensor(mu), logvar=Tensor(logvar))


def loss_at_mean(posterior, a_bin):
    """The objective with zero noise, so that z = mu exactly."""
    shape = posterior.mu.data.shape
    return vgae_loss(posterior, np.zeros(shape), VgaeTarget(a_bin, shape[1]))


def random_target(rng, n, density=0.05):
    adjacency = np.triu(rng.random((n, n)) < density, 1).astype(np.float64)
    return binarize_edges(adjacency + adjacency.T)


class TestVgaeLoss:
    def test_standard_normal_posterior_has_zero_kl(self):
        n = 3
        a_bin = np.eye(n)
        posterior = standard_posterior(n, 2)
        loss = loss_at_mean(posterior, a_bin)
        oracle = scalar_loss_oracle(np.full((n, n), 0.5), a_bin, posterior.mu.data, posterior.logvar.data)
        assert loss.item() == pytest.approx(oracle, abs=1e-12)

    def test_matched_saturation_drives_bce_to_zero(self):
        # rows 0 and 1 score +49 with each other and themselves, row 2 scores -49 with both
        n = 3
        a_bin = binarize_edges(np.array([[0, 1.0, 0], [1.0, 0, 0], [0, 0, 0]]))
        mu = np.array([[7.0, 0.0], [7.0, 0.0], [-7.0, 0.0]])
        loss = loss_at_mean(mean_posterior(mu), a_bin)
        kl = (mu * mu).sum() / (2.0 * n)  # logvar = 0 leaves only the mean's part
        assert loss.item() - kl == pytest.approx(0.0, abs=1e-9)

    def test_three_node_instance_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        n = 3
        a_bin = binarize_edges(np.array([[0, 1.2, 0], [1.2, 0, 0.4], [0, 0.4, 0]]))
        mu = rng.standard_normal((n, 2))
        logvar = rng.standard_normal((n, 2)) * 0.3
        loss = loss_at_mean(mean_posterior(mu, logvar), a_bin)
        oracle = scalar_loss_oracle(sigmoid_matrix(mu @ mu.T), a_bin, mu, logvar)
        assert loss.item() == pytest.approx(oracle, abs=1e-9)

    def test_no_positive_edges_rejected(self):
        with pytest.raises(TrainingError, match="no positive edges"):
            VgaeTarget(np.zeros((2, 2)), 1)

    def test_complete_graph_rejected(self):
        with pytest.raises(TrainingError, match="complete"):
            VgaeTarget(np.ones((2, 2)), 1)

    def test_asymmetric_target_rejected(self):
        with pytest.raises(ShapeError, match="symmetric"):
            VgaeTarget(np.array([[1.0, 1.0], [0.0, 1.0]]), 1)

    def test_kl_nonnegative_and_zero_only_at_standard_normal(self):
        rng = np.random.default_rng(11)
        n = 4
        a_bin = np.eye(n)
        for _ in range(25):
            mu = rng.standard_normal((n, 3))
            logvar = rng.standard_normal((n, 3))
            loss = loss_at_mean(mean_posterior(mu, logvar), a_bin)
            # the oracle at the standard normal is the cross-entropy of the same logits alone
            bce = scalar_loss_oracle(sigmoid_matrix(mu @ mu.T), a_bin, np.zeros((n, 3)), np.zeros((n, 3)))
            assert loss.item() >= bce - 1e-12


class TestLossFromLogits:
    def test_matches_probability_path(self):
        # the scalar oracle scores the probabilities sigmoid(S) with plain logs
        rng = np.random.default_rng(12)
        n = 6
        a_bin = ring_target(n)
        mu, logvar = rng.standard_normal((n, 3)), rng.standard_normal((n, 3)) * 0.3
        loss = loss_at_mean(mean_posterior(mu, logvar), a_bin)
        oracle = scalar_loss_oracle(edge_probabilities(mu), a_bin, mu, logvar)
        assert loss.item() == pytest.approx(oracle, rel=1e-12)

    def test_passes_grad_check_with_both_edge_classes(self):
        rng = np.random.default_rng(13)
        n = 6
        a_bin = ring_target(n)
        assert 0 < a_bin.sum() < n * n
        mu = Tensor(rng.standard_normal((n, 3)) * 1.5, requires_grad=True)
        logvar = Tensor(rng.standard_normal((n, 3)) * 0.3, requires_grad=True)
        noise = rng.standard_normal((n, 3))
        posterior = LatentPosterior(mu=mu, logvar=logvar)
        target = VgaeTarget(a_bin, 3)
        for tensor in (mu, logvar):
            assert grad_check(lambda t: vgae_loss(posterior, noise, target), tensor) < 1e-7

    def test_one_node_whose_parents_are_mu_and_logvar(self):
        # the noise is an array, not a parent, so it never gets a gradient
        rng = np.random.default_rng(14)
        mu = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        logvar = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        loss = vgae_loss(LatentPosterior(mu=mu, logvar=logvar), rng.standard_normal((5, 2)),
                         VgaeTarget(ring_target(5), 2))
        assert loss._parents == (mu, logvar)
        assert all(not p._parents for p in loss._parents)

    def test_saturated_latents_give_analytic_loss_and_gradient(self):
        # the 0-1 edge is a positive scored -800 (sigmoid exactly 0), the 0-2
        # pair a negative scored +55 (sigmoid exactly 1); the rest saturate correctly
        n = 3
        a_bin = binarize_edges(np.array([[0, 1.0, 0], [1.0, 0, 1.0], [0, 1.0, 0]]))
        gram = np.array([[2000.0, -800.0, 55.0], [-800.0, 2000.0, 60.0], [55.0, 60.0, 2000.0]])
        mu = Tensor(np.linalg.cholesky(gram), requires_grad=True)
        s = mu.data @ mu.data.T
        assert (np.abs(s) >= 50).all()
        assert plain_sigmoid(s[0, 1]) == 0.0 and plain_sigmoid(s[0, 2]) == 1.0
        loss = loss_at_mean(LatentPosterior(mu=mu, logvar=Tensor(np.zeros_like(mu.data))), a_bin)

        total, positives = n * n, a_bin.sum()
        pos_weight = (total - positives) / positives
        scale = 1.0 / (2.0 * (total - positives))  # norm / N^2
        kl = (mu.data * mu.data).sum() / (2.0 * n)
        expected = kl + scale * sum(
            pos_weight * softplus_limit(-s[i, j]) if a_bin[i, j] else softplus_limit(s[i, j])
            for i in range(n) for j in range(n))
        assert math.isfinite(loss.item())
        assert loss.item() == pytest.approx(expected, rel=1e-12)

        loss.backward()
        d_logits = np.array([[scale * (pos_weight * (plain_sigmoid(s[i, j]) - 1.0) if a_bin[i, j]
                                       else plain_sigmoid(s[i, j])) for j in range(n)]
                             for i in range(n)])
        assert np.isfinite(mu.grad).all()
        np.testing.assert_allclose(mu.grad, (d_logits + d_logits.T) @ mu.data + mu.data / n,
                                   rtol=1e-12, atol=1e-12)

    def test_sample_stays_finite_at_tiny_variance(self):
        rng = np.random.default_rng(15)
        mu = rng.standard_normal((4, 2))
        target = VgaeTarget(ring_target(4), 2)
        loss = vgae_loss(mean_posterior(mu, np.full((4, 2), -40.0)), rng.standard_normal((4, 2)), target)
        assert math.isfinite(loss.item())
        np.testing.assert_allclose(target.z, mu, atol=1e-8)

    def test_noise_of_another_shape_rejected(self):
        with pytest.raises(ShapeError, match=r"noise \(3, 2\)"):
            vgae_loss(standard_posterior(4, 2), np.zeros((3, 2)), VgaeTarget(ring_target(4), 2))


def leaf_posterior(mu, logvar):
    return LatentPosterior(mu=Tensor(mu.copy(), requires_grad=True),
                           logvar=Tensor(logvar.copy(), requires_grad=True))


def loss_and_grads(objective, mu, logvar, *args):
    posterior = leaf_posterior(mu, logvar)
    loss = objective(posterior, *args)
    loss.backward()
    return loss.item(), posterior.mu.grad, posterior.logvar.grad


class TestFusedObjective:
    """The one-node objective gives the five-node chain's loss and gradients bit for bit."""

    @pytest.mark.parametrize("n, latent", [(8, 16), (177, 16), (324, 300)])
    def test_equals_the_reference_chain_bit_for_bit(self, n, latent):
        rng = np.random.default_rng(1000 + n)
        a_bin = random_target(rng, n)
        mu, logvar = rng.standard_normal((n, latent)) * 0.3, rng.standard_normal((n, latent)) * 0.3
        noise = rng.standard_normal((n, latent))
        fused = loss_and_grads(vgae_loss, mu, logvar, noise, VgaeTarget(a_bin, latent))
        reference = loss_and_grads(reference_objective, mu, logvar, noise, a_bin)
        assert fused[0] == reference[0]
        assert np.array_equal(fused[1], reference[1])
        assert np.array_equal(fused[2], reference[2])

    def test_backward_after_a_later_forward_on_the_target_raises(self):
        rng = np.random.default_rng(31)
        target = VgaeTarget(ring_target(6), 3)
        mu, logvar = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        first = vgae_loss(leaf_posterior(mu, logvar), rng.standard_normal((6, 3)), target)
        second = vgae_loss(leaf_posterior(mu, logvar), rng.standard_normal((6, 3)), target)
        with pytest.raises(TrainingError, match="later forward"):
            first.backward()
        second.backward()

    def test_reused_target_gives_the_gradients_of_fresh_ones(self):
        rng = np.random.default_rng(32)
        n, latent = 9, 4
        a_bin = random_target(rng, n, density=0.3)
        draws = [(rng.standard_normal((n, latent)), rng.standard_normal((n, latent)) * 0.5,
                  rng.standard_normal((n, latent))) for _ in range(2)]
        shared = VgaeTarget(a_bin, latent)
        for mu, logvar, noise in draws:
            posterior = leaf_posterior(mu, logvar)
            loss = vgae_loss(posterior, noise, shared)
            loss.backward()
            fresh = loss_and_grads(vgae_loss, mu, logvar, noise, VgaeTarget(a_bin, latent))
            assert loss.item() == fresh[0]
            assert np.array_equal(posterior.mu.grad, fresh[1])
            assert np.array_equal(posterior.logvar.grad, fresh[2])
            # the returned gradients are the leaves' own, not views of the work arrays
            work = [a for a in vars(shared).values() if isinstance(a, np.ndarray)]
            assert not any(np.shares_memory(g, a) for g in (posterior.mu.grad, posterior.logvar.grad)
                           for a in work)


class TestVgaeGradients:
    def test_grad_check_on_five_node_graph(self):
        rng = np.random.default_rng(21)
        n = 5
        adjacency = np.zeros((n, n))
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]:
            adjacency[i, j] = adjacency[j, i] = rng.uniform(0.5, 1.5)
        x = rng.standard_normal((n, 4))
        a_norm = Tensor(normalize_adjacency(adjacency))
        target = VgaeTarget(binarize_edges(adjacency), 2)
        params = VgaeParams.create(4, 3, 2, rng)
        noise = rng.standard_normal((n, 2))

        def loss_for(params_override):
            posterior = encode(a_norm, ad.linear(a_norm, Tensor(x)), params_override)
            return vgae_loss(posterior, noise, target)

        for name in ("w_in", "w_mu", "w_logvar"):
            target_tensor = getattr(params, name)
            err = grad_check(lambda t: loss_for(params), target_tensor)
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

    @pytest.mark.parametrize("field, value", [("hidden", 0), ("latent", 0), ("epochs", -1), ("lr", 0.0)])
    def test_out_of_bounds_config_raises_naming_the_field(self, field, value):
        config = dataclasses.replace(VgaeConfig(hidden=8, latent=4, epochs=2), **{field: value})
        with pytest.raises(ConfigError, match=rf"VgaeConfig\.{field} must be"):
            train_vgae(make_cluster_graph(), config, np.random.default_rng(0))

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

    @staticmethod
    def pairwise_auc(scores, a_bin, rng):
        # The quadratic all-pairs count `edge_auc` replaced, as an oracle.
        iu = np.triu_indices(a_bin.shape[0], k=1)
        pos = scores[iu][a_bin[iu] > 0]
        neg_pool = scores[iu][a_bin[iu] == 0]
        take = min(pos.size, neg_pool.size)
        neg = neg_pool[rng.choice(neg_pool.size, size=take, replace=False)]
        greater = (pos[:, None] > neg[None, :]).sum()
        equal = (pos[:, None] == neg[None, :]).sum()
        return (greater + 0.5 * equal) / (pos.size * take)

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_pairwise_count_bit_for_bit(self, seed):
        # Scores on a coarse grid tie often, within and across the classes;
        # some seeds also hold NaN scores, which the pairwise count never
        # counts as a win or a tie.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 60))
        scores = np.round(rng.random((n, n)), int(rng.integers(0, 3)))
        if seed % 4 == 0:
            scores[rng.random((n, n)) < 0.05] = np.nan
        a_bin = (rng.random((n, n)) < rng.uniform(0.05, 0.6)).astype(float)
        a_bin[0, 1], a_bin[0, 2] = 1.0, 0.0  # both classes in every draw
        a_bin = np.maximum(np.triu(a_bin, 1), np.triu(a_bin, 1).T)
        got = edge_auc(scores, a_bin, np.random.default_rng(seed))
        want = self.pairwise_auc(scores, a_bin, np.random.default_rng(seed))
        assert got == want
