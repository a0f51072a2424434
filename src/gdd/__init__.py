"""Aspect-based sentiment classification from parts small enough to test.

A local encoder masks the sentence with a learned Gaussian receptive field
and runs covariance self-attention; a global encoder reshapes the dependency
parse into an aspect-word interactive graph and runs dual-level graph
attention over it. Everything is numpy, double precision, and gradient-
checked against finite differences.
"""

from .data import Example, generate_synthetic, load_dataset
from .dep_graph import Awig, DepTree, build_awig, parse_conllu
from .embeddings import TagVocab, Vocab
from .metrics import Metrics, evaluate, metrics_from_predictions
from .model import Model, ModelConfig, ModelParams, Prediction
from .numeric import Rng
from .training import adam_step, gradcheck_model, train

__version__ = "0.1.0"

__all__ = [
    "Awig",
    "DepTree",
    "Example",
    "Metrics",
    "Model",
    "ModelConfig",
    "ModelParams",
    "Prediction",
    "Rng",
    "TagVocab",
    "Vocab",
    "adam_step",
    "build_awig",
    "evaluate",
    "generate_synthetic",
    "gradcheck_model",
    "load_dataset",
    "metrics_from_predictions",
    "parse_conllu",
    "train",
]
