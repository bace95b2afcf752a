"""qrerank: kernel-based question reranking for community Question Answering.

The package turns (original question, retrieved question) pairs into
featurized examples — text similarities, REL-linked syntactic macro-trees,
search-rank features, optional embedding and MT-evaluation blocks — combines
them with tree and vector kernels into Gram matrices, trains a binary SVM on
those matrices with an SMO solver, and evaluates the resulting rankings with
MAP / AvgRec / MRR plus paired randomization significance tests.

``import qrerank`` is cheap: it imports no numpy and runs none of the
submodules. Each public name is resolved from its submodule on first use
(PEP 562) and cached, so ``qrerank.RunConfig`` loads only ``config``,
``qrerank.build_examples`` loads the numpy-free featurization modules, and
``qrerank.gram_matrix`` loads ``kernels``, which imports numpy only in the
functions that return or read numpy matrices. Only those, ``svm`` and
``rankeval.randomization_test`` compute with numpy; feature vectors and
kernel rows are plain float64 ``array('d')``. The submodules that a
tracer may wrap are registered in ``sys.modules`` at import, through
``importlib.util.LazyLoader``: ``sys.modules["qrerank.kernels"]`` exists
after ``import qrerank``, and the module runs when one of its attributes is
first read.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> the public names it defines
_NAMES_BY_MODULE = {
    "errors": ("DataError", "NumericalError"),
    "config": ("DEFAULT_PHRASE_LABELS", "RANK_MODES", "KernelConfig",
               "RelConfig", "RunConfig", "TrainConfig"),
    "features": ("SIM_MEASURES", "SIM_NGRAM_ORDERS", "Example",
                 "embedding_pair", "load_embeddings", "load_stopwords",
                 "mte_vector", "ptk_feature", "rank_feature",
                 "similarity_vector", "tokenize"),
    "kernels": ("config_fingerprint", "gram_matrix",
                "kernel_matrix", "load_gram", "load_gram_lower",
                "normalize_kernel", "ptk",
                "save_gram", "stk", "write_gram"),
    "pipeline": ("CorpusRecord", "build_examples", "class_counts",
                 "gold_binary", "load_corpus", "load_examples",
                 "make_groups", "read_examples", "save_examples",
                 "score_examples"),
    "rankeval": ("Candidate", "QueryGroup", "average_precision", "evaluate",
                 "per_query_average_precision", "randomization_test",
                 "read_predictions", "reranked_candidates",
                 "write_predictions"),
    "rellink": ("REL_PREFIX", "rel_link"),
    "svm": ("TrainedModel", "load_model", "save_model", "train_smo"),
    "treebank": ("SyntaxTree", "TreeParseError", "parse_bracketed",
                 "to_bracketed"),
}
# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _NAMES_BY_MODULE.items()
            for name in names}

__all__ = [*_EXPORTS, "__version__"]

# A tracer finds the functions it wraps through sys.modules right after
# ``import qrerank``, so these modules are registered there (and bound here,
# as an import would bind them) before any of them runs.
for _name in ("treebank", "rellink", "features", "kernels", "svm",
              "rankeval", "pipeline"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
