"""Metric values from a run's results and, for the traced run, its spans.

Names here must match BENCHMARK.json exactly; the command refuses to print
a result otherwise. Units come from BENCHMARK.json.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import self_times, stage_of


def end_to_end(results, setups, peak_rss_mb: float, duration) -> dict[str, float]:
    """End-to-end metrics; `duration(start, end)` gives an interval's length in seconds.

    Pass hostspeed.HostSpeed.scaled for the reported figures, or
    hostspeed.HostSpeed.net for the unscaled ones the environment line records.
    """
    r = results
    predict_ms = [1e3 * duration(*interval) for interval in r.predict]
    return {
        "train_posts_per_s": statistics.median(n / duration(a, b) for a, b, n in r.train_epochs),
        "predict_posts_per_s": len(predict_ms) / (sum(predict_ms) / 1e3),
        "predict_post_ms_p50": float(np.percentile(predict_ms, 50)),
        "predict_post_ms_p90": float(np.percentile(predict_ms, 90)),
        "build_graph_posts_per_s": statistics.median(n / duration(a, b) for a, b, n in r.build),
        "vgae_epochs_per_s": statistics.median(n / duration(a, b) for a, b, n in r.vgae_epochs),
        "cluster_viz_s": statistics.median(duration(a, b) for a, b in r.cluster),
        "setup_s": statistics.median(duration(a, b) for a, b in setups),
        "peak_rss_mb": peak_rss_mb,
    }


class _Spans:
    """Span durations and self times grouped by (name, enclosing stage)."""

    def __init__(self, spans):
        self.spans = spans
        self.selfs = self_times(spans)
        self.stages = stage_of(spans)

    def pick(self, name, stage=None):
        return [i for i, s in enumerate(self.spans)
                if s.name == name and (stage is None or self.stages[i] == "stage." + stage)]

    def durations(self, name, stage=None) -> list[float]:
        return [self.spans[i].end - self.spans[i].start for i in self.pick(name, stage)]

    def mean_ms(self, name, stage=None) -> float:
        values = self.durations(name, stage)
        return 1e3 * sum(values) / len(values)

    def total(self, name, stage=None) -> float:
        return sum(self.durations(name, stage))

    def mean_count(self, name) -> float:
        counts = [self.spans[i].count for i in self.pick(name)]
        return sum(counts) / len(counts)

    def tensors(self, name) -> int:
        return sum(self.spans[i].tensors for i in self.pick(name))

    def self_inside(self, stage) -> float:
        """Self time of every span under `stage`, the stage span itself excluded."""
        return sum(t for i, t in enumerate(self.selfs)
                   if self.stages[i] == "stage." + stage and self.spans[i].name != "stage." + stage)


def per_layer(traced, untraced, spans, emojis_inserted: int) -> dict[str, float]:
    """Per-module metrics of the traced pass; `untraced` is the same work with tracing off."""
    s = _Spans(spans)
    train_calls = len(traced.train_s)
    train_wall = s.total("stage.train_classifier")
    build_calls = len(s.pick("stage.build_graph"))
    return {
        "tokenization.tokenize_ms": s.mean_ms("tokenization.tokenize", "build_graph"),
        "tokenization.tokens": traced.tokens / traced.build[-1][2],
        "tokenization.emoji_recall": traced.emoji_tokens / emojis_inserted,
        "senses.load_ms": s.mean_ms("senses.load"),
        "senses.tfidf_ms": s.mean_ms("senses.tfidf"),
        "senses.node_attribute_ms": 1e3 * s.total("senses.node_attribute") / build_calls,
        "graph.count_ms": s.mean_ms("graph.count"),
        "graph.build_adjacency_ms": s.mean_ms("graph.build_adjacency"),
        "graph.nodes": traced.graph_nodes,
        "graph.pairs": traced.graph_pairs,
        "vectors.read_ms": s.mean_ms("vectors.read"),
        "vgae.encode_ms": s.mean_ms("vgae.encode"),
        "vgae.decode_ms": s.mean_ms("vgae.decode"),
        "vgae.loss_ms": s.mean_ms("vgae.loss"),
        "vgae.backward_ms": s.mean_ms("autodiff.backward", "train_vgae"),
        "vgae.adam_ms": s.mean_ms("autodiff.adam_step", "train_vgae"),
        "vgae.nonfinite_epochs": statistics.mean(traced.nonfinite_epochs),
        "text_encoder.encode_ms_per_post": s.mean_ms("text_encoder.encode"),
        "text_encoder.words_per_post": s.mean_count("text_encoder.encode"),
        "attention.fuse_ms_per_post": s.mean_ms("attention.fuse"),
        "attention.emojis_per_post": s.mean_count("attention.fuse"),
        "textcnn.classify_ms_per_post": s.mean_ms("textcnn.classify"),
        "textcnn.loss_ms_per_post": s.mean_ms("textcnn.loss"),
        "model.forward_ms_per_post": 1e3 * statistics.mean(
            s.selfs[i] for i in s.pick("model.forward")),
        "autodiff.backward_ms_per_post": s.mean_ms("autodiff.backward", "train_classifier"),
        "autodiff.backward_share": s.total("autodiff.backward", "train_classifier") / train_wall,
        "autodiff.adam_ms_per_step": s.mean_ms("autodiff.adam_step", "train_classifier"),
        "autodiff.zero_grads_ms": s.mean_ms("autodiff.zero_grads", "train_classifier"),
        "autodiff.tensors_per_post.train":
            s.tensors("stage.train_classifier") / sum(traced.train_post_epochs),
        "autodiff.tensors_per_post.predict": s.tensors("stage.predict") / len(traced.predict),
        "pipeline.train_call_s": train_wall / train_calls,
        "pipeline.evaluate_s": statistics.mean(traced.evaluate_s),
        "pipeline.batches": len(s.pick("autodiff.adam_step", "train_classifier")) / train_calls,
        "pipeline.train_traced_share": s.self_inside("train_classifier") / train_wall,
        "pipeline.eval_accuracy": traced.eval_accuracy,
        "clustering.cosine_ms": s.mean_ms("clustering.cosine"),
        "clustering.linkage_ms": s.mean_ms("clustering.linkage"),
        "error_rate": (traced.failed + untraced.failed) / (traced.attempted + untraced.attempted),
        "trace.overhead_s": statistics.mean(traced.iteration_s) - statistics.mean(untraced.iteration_s),
        "trace.spans": len(spans),
    }
