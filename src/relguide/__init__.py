"""Relevance-guided CNN training toolkit.

A small dependency-light stack for explanation-guided image classification:
a reverse-mode autodiff engine, layer-wise relevance propagation as nodes
of its graph (so relevance is differentiable and can steer training),
a mask-attention loss, second-order similarity explanations, deep-kNN
retrieval over hidden activations, and a synthetic lesion task with a
spurious distractor for controlled experiments.
"""

__version__ = "0.1.0"

from .engine import Tensor, backward
from .network import (
    ActivationTrace,
    LayerSpec,
    Model,
    build_model,
    embed,
    forward_with_trace,
    load_weights,
    save_weights,
)
from .lrp import LRPRuleConfig, RelevanceMap, render_heatmap
from .bilrp import JointRelevance, similarity, top_connections
from .atlas import AtlasIndex, build_index, credibility, query_knn
from .data import GeneratorConfig, LabeledSample, augment, generate, load_dataset, save_dataset
from .training import (
    LossConfig,
    MetricsRecord,
    TrainConfig,
    evaluate,
    guided_loss,
    lesion_relevance_score,
    train,
)

__all__ = [
    "Tensor",
    "backward",
    "ActivationTrace",
    "LayerSpec",
    "Model",
    "build_model",
    "forward_with_trace",
    "load_weights",
    "save_weights",
    "LRPRuleConfig",
    "RelevanceMap",
    "render_heatmap",
    "JointRelevance",
    "embed",
    "similarity",
    "top_connections",
    "AtlasIndex",
    "build_index",
    "credibility",
    "query_knn",
    "GeneratorConfig",
    "LabeledSample",
    "augment",
    "generate",
    "load_dataset",
    "save_dataset",
    "LossConfig",
    "MetricsRecord",
    "TrainConfig",
    "evaluate",
    "guided_loss",
    "lesion_relevance_score",
    "train",
]
