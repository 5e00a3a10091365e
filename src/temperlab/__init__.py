"""Desk-scale sequence-to-sequence lab for studying temperature-scaled
softmax training: a float64 autodiff core, a small transformer, greedy and
beam decoding, BLEU with significance testing, and experiment commands."""

import os
import sys
import warnings

# Desk-scale tensors are far too small for BLAS thread pools; oversubscribed
# threads slow the training step several-fold, and the thread count changes
# parameter bits. The variables act only when numpy has not been imported yet
# (and are inherited by worker processes); once it has, numpy's bundled
# OpenBLAS is pinned through its own call.
_unset = [v for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
          if v not in os.environ]
os.environ.update(dict.fromkeys(_unset, "1"))
if _unset and "numpy" in sys.modules:
    from . import blas

    if blas.library() is None:
        warnings.warn(
            f"numpy was imported before temperlab with {', '.join(_unset)} unset, and its BLAS "
            "is not the bundled OpenBLAS that temperlab can pin: it keeps its own thread count, "
            "which changes parameter bits. For bit-identical runs (README, Reproducibility) set "
            "the three variables to 1 or import temperlab before numpy",
            RuntimeWarning,
            stacklevel=2,
        )
    elif "OPENBLAS_NUM_THREADS" in _unset:
        blas.set_threads(1)
del _unset, os, sys, warnings

from .data import (BOS_ID, EOS_ID, PAD_ID, UNK_ID, SyntheticTaskSpec, Vocabulary, build_vocabulary,
                   generate_multilingual_corpus, generate_synthetic_corpus, make_batches)
from .decoding import BeamConfig, Hypothesis, beam_decode, greedy_decode, length_penalty
from .errors import ConfigError, ContractError, DataError, NumericError, ShapeError, TemperlabError
from .metrics import corpus_bleu, output_similarity_bleu, paired_bootstrap
from .model import ModelConfig, TransformerModel, init_parameters, load_checkpoint, save_checkpoint
from .tempering import TemperingConfig
from .tensor import GradientTape, Tensor, backward
from .training import (TrainerConfig, average_checkpoints, evaluate_checkpoint, global_gradient_norm,
                       should_stop, train)

__version__ = "0.1.0"
