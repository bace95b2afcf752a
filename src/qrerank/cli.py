"""Command-line interface.

Six subcommands cover the experiment pipeline stage by stage::

    qrerank featurize --task B --corpus train.jsonl --out train.examples
    qrerank gram      --examples train.examples --out train.gram
    qrerank train     --gram train.gram --examples train.examples --out model.txt
    qrerank rerank    --model model.txt --train-examples train.examples \
                      --test-examples test.examples --out predictions.tsv
    qrerank evaluate  --predictions predictions.tsv --k 10
    qrerank sigtest   --predictions-a ours.tsv --predictions-b baseline.tsv

Configuration values resolve in three layers: dataclass defaults, then a
flat ``key = value`` config file (``--config``), then explicit command-line
flags.  The keys, their parsers and the flags are all derived from the
fields of :class:`RunConfig`; the fields of its nested configs take dotted
keys (``kernel.lam = 0.4``, ``train.C = 1.0``, ``rel.min_shared_tokens =
2``).  ``train.seed`` and ``rel.stopwords`` have no key, since ``seed`` and
``stopword_path`` set them.  A key's flag is its last dotted part with ``-``
for ``_`` (``kernel.use_tk`` is ``--use-tk``, booleans also take
``--no-use-tk``), except ``--stopwords`` (``stopword_path``),
``--embeddings`` (``embedding_path``), ``--svm-c`` (``train.C``) and
``--smo-eps`` (``train.eps``).

This module imports only ``config`` and ``errors``; each subcommand imports
the modules it calls when it runs.  So ``--help`` and a usage error load no
numpy, and neither do ``evaluate``, whose ``rankeval`` needs none, and
``featurize``, whose ``pipeline`` and ``features`` hold plain float vectors
(unless ``use_ptk_feature`` asks for the tree kernels).  ``gram``, ``train``,
``rerank`` and ``sigtest`` compute with numpy.

Exit codes: 0 success; 1 usage errors; 2 data/file errors; 3 numerical
failures.  When ``--stopwords`` names a relative path that does not exist,
the directory in the ``QRERANK_STOPWORDS_DIR`` environment variable is tried
as a fallback location.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields, is_dataclass, replace
from typing import get_type_hints

from .config import (
    MTE_SIDES,
    RANK_MODES,
    TASKS,
    TK_KINDS,
    VECTOR_KERNELS,
    RunConfig,
)
from .errors import DataError, NumericalError, open_text

logger = logging.getLogger(__name__)

ENV_STOPWORD_DIR = "QRERANK_STOPWORDS_DIR"


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    lowered = text.casefold()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise DataError(f"expected a boolean, got {text!r}")


def _parse_optional_float(text: str):
    return None if text.casefold() == "none" else float(text)


def _parse_labels(text: str) -> frozenset:
    labels = frozenset(part.strip() for part in text.split(",") if part.strip())
    if not labels:
        raise DataError(f"expected a comma-separated label list, got {text!r}")
    return labels


# config-file value parsers, by the type a config field is annotated with
_PARSERS = {
    bool: _parse_bool,
    int: int,
    float: float,
    float | None: _parse_optional_float,
    str: str,
    str | None: str,
    frozenset[str]: _parse_labels,
}

# fields that other keys set: ``seed`` seeds the solver and the words in
# ``stopword_path`` fill ``rel.stopwords``
_SET_ELSEWHERE = {"train.seed", "rel.stopwords"}


def _config_fields(cls, prefix=""):
    """Yield (key, type) for each field of config class ``cls``, in order;
    a field that is itself a config dataclass yields its own type under the
    plain key, before its fields under ``key.``."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        key, hint = prefix + f.name, hints[f.name]
        yield key, hint
        if is_dataclass(hint):
            yield from _config_fields(hint, key + ".")


_FIELDS = dict(_config_fields(RunConfig))
# settable key -> value parser
CONFIG_SCHEMA = {key: _PARSERS[hint] for key, hint in _FIELDS.items()
                 if not is_dataclass(hint) and key not in _SET_ELSEWHERE}
# nested config key -> its class, each after the config that holds it
_NESTED = {key: hint for key, hint in _FIELDS.items() if is_dataclass(hint)}


def parse_config_file(path) -> dict:
    """Read a flat ``key = value`` config file into typed settings."""
    settings: dict = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
                value = value[1:-1]
            if key not in CONFIG_SCHEMA:
                raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in settings:
                raise DataError(f"{path}:{lineno}: duplicate config key {key!r}")
            try:
                settings[key] = CONFIG_SCHEMA[key](value)
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: bad value for {key!r}: "
                                f"{exc}") from exc
    return settings


def resolve_stopword_path(path: str | None) -> str | None:
    """Resolve a stopword file, falling back to the env-var directory."""
    if path is None:
        return None
    if os.path.isabs(path) or os.path.exists(path):
        return path
    env_dir = os.environ.get(ENV_STOPWORD_DIR)
    if env_dir:
        candidate = os.path.join(env_dir, path)
        if os.path.exists(candidate):
            return candidate
    return path


def build_run_config(settings: dict) -> RunConfig:
    """Assemble a RunConfig from flat (possibly dotted) settings."""
    unknown = set(settings) - set(CONFIG_SCHEMA)
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    # keyword arguments per config, by its key; "" is the RunConfig itself
    kwargs: dict[str, dict] = {"": {}, **{key: {} for key in _NESTED}}
    for key, value in settings.items():
        owner, _, name = key.rpartition(".")
        kwargs[owner][name] = value
    if "stopword_path" in settings:
        kwargs[""]["stopword_path"] = resolve_stopword_path(
            settings["stopword_path"])
    try:
        for key in reversed(_NESTED):        # inner configs first
            owner, _, name = key.rpartition(".")
            kwargs[owner][name] = _NESTED[key](**kwargs[key])
        return RunConfig(**kwargs[""])
    except TypeError as exc:
        raise DataError(f"bad configuration: {exc}") from exc


# ---------------------------------------------------------------------------
# flag definitions
# ---------------------------------------------------------------------------

# A key's flag is its last dotted part with "-" for "_", and its metavar that
# part in capitals; these keys deviate or add choices or help.
_FLAG_OPTIONS = {
    "task": {"choices": TASKS},
    "rank_mode": {"choices": RANK_MODES},
    "mte_side": {"choices": MTE_SIDES},
    "stopword_path": {
        "flag": "stopwords", "metavar": "FILE",
        "help": f"stopword list (relative paths also searched in "
                f"${ENV_STOPWORD_DIR})"},
    "embedding_path": {"flag": "embeddings", "metavar": "FILE",
                       "help": "tab-separated id/vector file"},
    "kernel.tk_kind": {"choices": TK_KINDS},
    "kernel.rank_kernel": {"choices": VECTOR_KERNELS},
    "kernel.vec_kernel": {"choices": VECTOR_KERNELS},
    "rel.phrase_labels": {"metavar": "NP,VP,PP"},
    "train.C": {"flag": "svm-c", "metavar": "C"},
    "train.eps": {"flag": "smo-eps"},
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for key, parse in CONFIG_SCHEMA.items():
        options = dict(_FLAG_OPTIONS.get(key, {}))
        flag = options.pop("flag", key.rpartition(".")[2].replace("_", "-"))
        if parse is _parse_bool:
            options["action"] = argparse.BooleanOptionalAction
        else:
            options["type"] = parse
            if "choices" not in options:
                options.setdefault("metavar", flag.replace("-", "_").upper())
        # a flag not given sets nothing, so that one given as "none"
        # (``--gamma none``) overrides the config file
        parser.add_argument(f"--{flag}", dest=key, default=argparse.SUPPRESS,
                            **options)


def config_from_args(args: argparse.Namespace) -> RunConfig:
    settings = parse_config_file(args.config) if args.config else {}
    for key in CONFIG_SCHEMA:
        if hasattr(args, key):
            settings[key] = getattr(args, key)
    return build_run_config(settings)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_featurize(args) -> int:
    from .pipeline import build_examples, load_corpus, save_examples

    cfg = config_from_args(args)
    records = load_corpus(args.corpus, cfg.task)
    examples = build_examples(records, cfg)
    save_examples(args.out, examples)
    print(f"featurized {len(examples)} examples -> {args.out}")
    return 0


def _cmd_gram(args) -> int:
    from .kernels import config_fingerprint, gram_matrix, save_gram
    from .pipeline import load_examples

    cfg = config_from_args(args)
    examples = load_examples(args.examples)
    gram = gram_matrix(examples, cfg.kernel)
    fingerprint = config_fingerprint(cfg.kernel)
    save_gram(args.out, gram, fingerprint)
    print(f"computed {gram.shape[0]}x{gram.shape[1]} gram "
          f"({fingerprint[:12]}...) -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    from .kernels import config_fingerprint, load_gram
    from .pipeline import load_labels
    from .svm import save_model, train_smo

    cfg = config_from_args(args)
    gram, fingerprint = load_gram(args.gram)
    current = config_fingerprint(cfg.kernel)
    if fingerprint != current:
        logger.warning(
            "gram file was computed under a different kernel config "
            "(%s... vs current %s...)", fingerprint[:12], current[:12])
    labels = load_labels(args.examples)
    if len(labels) != gram.shape[0]:
        raise DataError(
            f"{len(labels)} examples for a {gram.shape[0]}x"
            f"{gram.shape[1]} gram matrix")
    model = train_smo(gram, labels, replace(cfg.train, seed=cfg.seed),
                      kernel_fingerprint=fingerprint)
    save_model(args.out, model)
    print(f"trained on {len(labels)} examples, "
          f"{len(model.support_indices)} support vectors -> {args.out}")
    return 0


def _cmd_rerank(args) -> int:
    from .kernels import config_fingerprint
    from .pipeline import load_examples, make_groups, score_examples
    from .rankeval import QueryGroup, reranked_candidates, write_predictions
    from .svm import load_model

    cfg = config_from_args(args)
    model = load_model(args.model,
                       expected_fingerprint=config_fingerprint(cfg.kernel),
                       strict=args.strict)
    train_examples = load_examples(args.train_examples)
    test_examples = load_examples(args.test_examples)
    scores = score_examples(test_examples, model, train_examples, cfg.kernel)
    groups = [QueryGroup(g.query_id, reranked_candidates(g))
              for g in make_groups(test_examples, scores)]
    write_predictions(args.out, groups)
    print(f"reranked {len(groups)} queries -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    from .rankeval import evaluate, read_predictions

    groups = read_predictions(args.predictions)
    metrics = evaluate(groups, k=args.k)
    for name in ("MAP", "AvgRec", "MRR"):
        print(f"{name}: {metrics[name]:.4f}")
    return 0


def _cmd_sigtest(args) -> int:
    from .rankeval import (
        per_query_average_precision,
        randomization_test,
        read_predictions,
    )

    groups_a = read_predictions(args.predictions_a)
    groups_b = read_predictions(args.predictions_b)
    ap_a = per_query_average_precision(groups_a, k=args.k)
    ap_b = per_query_average_precision(groups_b, k=args.k)
    if set(ap_a) != set(ap_b):
        only_a = sorted(set(ap_a) - set(ap_b))[:5]
        only_b = sorted(set(ap_b) - set(ap_a))[:5]
        raise DataError(
            f"prediction files cover different queries "
            f"(only in a: {only_a}, only in b: {only_b})")
    order = sorted(ap_a)
    a = [ap_a[q] for q in order]
    b = [ap_b[q] for q in order]
    p = randomization_test(a, b, resamples=args.resamples, seed=args.seed)
    mean_a = sum(a) / len(a)
    mean_b = sum(b) / len(b)
    print(f"queries: {len(order)}")
    print(f"MAP a: {100.0 * mean_a:.4f}")
    print(f"MAP b: {100.0 * mean_b:.4f}")
    print(f"p_value: {p:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrerank",
        description="Kernel-based question reranking toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="corpus JSONL -> featurized examples")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("gram", help="examples -> Gram matrix file")
    p.add_argument("--examples", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("train", help="Gram + labels -> SVM model file")
    p.add_argument("--gram", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("rerank", help="score test examples, write predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--train-examples", required=True)
    p.add_argument("--test-examples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true",
                   help="fail on kernel fingerprint mismatch")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_rerank)

    p = sub.add_parser("evaluate", help="predictions TSV -> MAP/AvgRec/MRR")
    p.add_argument("--predictions", required=True)
    p.add_argument("--k", type=int, default=None,
                   help="evaluation cutoff (default: group size)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sigtest",
                       help="paired randomization test on two predictions")
    p.add_argument("--predictions-a", required=True)
    p.add_argument("--predictions-b", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--resamples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sigtest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; remap the latter
        return 0 if exc.code == 0 else 1
    # the parser is some 275 kB of objects tied in reference cycles; with no
    # reference left, the cycle collector can free it while the stage runs
    del parser
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
