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
2``).  A key's flag is its last dotted part with ``-`` for ``_``
(``kernel.use_tk`` is ``--use-tk``, booleans also take ``--no-use-tk``),
except ``--stopwords`` (``stopword_path``), ``--embeddings``
(``embedding_path``), ``--svm-c`` (``train.C``) and ``--smo-eps``
(``train.eps``).  No stage but ``sigtest`` takes a seed.

At import this module loads only ``argparse``, ``os``, ``sys`` and
``errors``; each subcommand imports the modules it calls when it runs.  The
config schema (:func:`config_schema`) is derived from ``config`` the first
time one of the stages that take config flags (``featurize``, ``gram``,
``train`` and ``rerank``) builds its parser, and only those four stages
import and configure ``logging``.  So ``qrerank --help``, a missing or
unknown subcommand, ``evaluate`` and ``sigtest`` load neither ``config``
nor ``logging``.  No ``--help``, usage error or subcommand loads numpy:
``pipeline`` and ``features`` hold plain float vectors, ``gram`` computes
each Gram row in one native call (or the Python engine's loop) into an
``array`` and writes it as it comes, ``train`` solves the Gram's triangle
as one ``array('d')``, ``rerank`` sums each score with ``math.fsum``, and
``sigtest`` draws its signs from ``random``.  A run builds the config flags
of its own subcommand only.

Exit codes: 0 success; 1 usage errors; 2 data/file errors; 3 numerical
failures.  When ``--stopwords`` names a relative path that does not exist,
the directory in the ``QRERANK_STOPWORDS_DIR`` environment variable is tried
as a fallback location.
"""

import argparse
import os
import sys

from .errors import DataError, NumericalError, open_text

ENV_STOPWORD_DIR = "QRERANK_STOPWORDS_DIR"
# the subcommands that take the config flags, and the only ones that log
CONFIG_COMMANDS = ("featurize", "gram", "train", "rerank")


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


# config-file value parsers, by the annotation of a config field (a string,
# under ``from __future__ import annotations``)
_PARSERS = {
    "bool": _parse_bool,
    "int": int,
    "float": float,
    "float | None": _parse_optional_float,
    "str": str,
    "str | None": str,
    "frozenset[str]": _parse_labels,
}

_schema = None


def config_schema() -> tuple[dict, dict]:
    """The config keys, derived from the fields of :class:`RunConfig` on
    the first call: (settable key -> value parser, nested config key -> its
    class, each after the config that holds it). A nested config's fields
    take the dotted keys under its own. Only the stages that take config
    flags call this."""
    global _schema
    if _schema is None:
        from dataclasses import fields, is_dataclass

        from .config import RunConfig

        def walk(cls, prefix=""):
            # (key, annotation) per field, or the class a nested config's
            # annotation names in the module of ``cls``; the annotations
            # are read as strings, as ``config._int_fields`` does
            scope = vars(sys.modules[cls.__module__])
            for f in fields(cls):
                key, nested = prefix + f.name, scope.get(f.type)
                if is_dataclass(nested):
                    yield key, nested
                    yield from walk(nested, key + ".")
                else:
                    yield key, f.type

        found = dict(walk(RunConfig))
        _schema = ({key: _PARSERS[hint] for key, hint in found.items()
                    if not is_dataclass(hint)},
                   {key: hint for key, hint in found.items()
                    if is_dataclass(hint)})
    return _schema


def parse_config_file(path) -> dict:
    """Read a flat ``key = value`` config file into typed settings."""
    parsers, _ = config_schema()
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
            if key not in parsers:
                raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in settings:
                raise DataError(f"{path}:{lineno}: duplicate config key {key!r}")
            try:
                settings[key] = parsers[key](value)
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


def build_run_config(settings: dict):
    """Assemble a RunConfig from flat (possibly dotted) settings."""
    from .config import RunConfig

    parsers, nested = config_schema()
    unknown = set(settings) - set(parsers)
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    # keyword arguments per config, by its key; "" is the RunConfig itself
    kwargs: dict[str, dict] = {"": {}, **{key: {} for key in nested}}
    for key, value in settings.items():
        owner, _, name = key.rpartition(".")
        kwargs[owner][name] = value
    if "stopword_path" in settings:
        kwargs[""]["stopword_path"] = resolve_stopword_path(
            settings["stopword_path"])
    try:
        for key in reversed(nested):        # inner configs first
            owner, _, name = key.rpartition(".")
            kwargs[owner][name] = nested[key](**kwargs[key])
        return RunConfig(**kwargs[""])
    except TypeError as exc:
        raise DataError(f"bad configuration: {exc}") from exc


# ---------------------------------------------------------------------------
# flag definitions
# ---------------------------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    from .config import MTE_SIDES, RANK_MODES, TASKS, TK_KINDS, VECTOR_KERNELS

    # A key's flag is its last dotted part with "-" for "_", and its metavar
    # that part in capitals; these keys deviate or add choices or help.
    flag_options = {
        "task": {"choices": TASKS},
        "mte_side": {"choices": MTE_SIDES},
        "stopword_path": {
            "flag": "stopwords", "metavar": "FILE",
            "help": f"stopword list (relative paths also searched in "
                    f"${ENV_STOPWORD_DIR})"},
        "embedding_path": {"flag": "embeddings", "metavar": "FILE",
                           "help": "tab-separated id/vector file"},
        "kernel.tk_kind": {"choices": TK_KINDS},
        "kernel.rank_mode": {"choices": RANK_MODES},
        "kernel.rank_kernel": {"choices": VECTOR_KERNELS},
        "kernel.vec_kernel": {"choices": VECTOR_KERNELS},
        "rel.phrase_labels": {"metavar": "NP,VP,PP"},
        "train.C": {"flag": "svm-c", "metavar": "C"},
        "train.eps": {"flag": "smo-eps"},
    }
    parsers, _ = config_schema()
    parser.add_argument("--config", help="flat key=value config file")
    for key, parse in parsers.items():
        options = dict(flag_options.get(key, {}))
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


def config_from_args(args: argparse.Namespace):
    parsers, _ = config_schema()
    settings = parse_config_file(args.config) if args.config else {}
    for key in parsers:
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
    from .kernels import config_fingerprint, write_gram
    from .pipeline import read_examples

    cfg = config_from_args(args)
    examples = read_examples(args.examples, trees=cfg.kernel.use_tk)
    write_gram(args.out, examples, cfg.kernel)
    n = len(examples)
    print(f"computed {n}x{n} gram "
          f"({config_fingerprint(cfg.kernel)[:12]}...) -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    from .kernels import config_fingerprint, load_gram_lower
    from .pipeline import load_labels
    from .svm import save_model, train_smo

    cfg = config_from_args(args)
    lower, fingerprint = load_gram_lower(args.gram)
    current = config_fingerprint(cfg.kernel)
    if fingerprint != current:
        import logging
        logging.getLogger(__name__).warning(
            "gram file was computed under a different kernel config "
            "(%s... vs current %s...)", fingerprint[:12], current[:12])
    labels = load_labels(args.examples)
    model = train_smo(lower, labels, cfg.train,
                      kernel_fingerprint=fingerprint)
    save_model(args.out, model)
    print(f"trained on {len(labels)} examples, "
          f"{len(model.support_indices)} support vectors -> {args.out}")
    return 0


def _cmd_rerank(args) -> int:
    from .kernels import config_fingerprint
    from .pipeline import make_groups, read_examples, score_examples
    from .rankeval import QueryGroup, reranked_candidates, write_predictions
    from .svm import load_model

    cfg = config_from_args(args)
    model = load_model(args.model,
                       expected_fingerprint=config_fingerprint(cfg.kernel),
                       strict=args.strict)
    train_examples = read_examples(args.train_examples,
                                   trees=cfg.kernel.use_tk)
    test_examples = read_examples(args.test_examples, trees=cfg.kernel.use_tk)
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
        _mean,
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
    print(f"queries: {len(order)}")
    # the MAP evaluate prints: the same APs, summed in file order
    print(f"MAP a: {100.0 * _mean(list(ap_a.values())):.4f}")
    print(f"MAP b: {100.0 * _mean(list(ap_b.values())):.4f}")
    print(f"p_value: {p:.6f}")
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand. The config flags, some thirty per
    subcommand that takes them, are added to ``command`` alone when it is
    given (``main`` passes its first argument, so that a run builds the
    flags of its own subcommand only), else to every such subcommand."""

    def config_flags(p: argparse.ArgumentParser, name: str) -> None:
        if command in (None, name):
            _add_config_flags(p)

    parser = argparse.ArgumentParser(
        prog="qrerank",
        description="Kernel-based question reranking toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="corpus JSONL -> featurized examples")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    config_flags(p, "featurize")
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("gram", help="examples -> Gram matrix file")
    p.add_argument("--examples", required=True)
    p.add_argument("--out", required=True)
    config_flags(p, "gram")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("train", help="Gram + labels -> SVM model file")
    p.add_argument("--gram", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--out", required=True)
    config_flags(p, "train")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("rerank", help="score test examples, write predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--train-examples", required=True)
    p.add_argument("--test-examples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true",
                   help="fail on kernel fingerprint mismatch")
    config_flags(p, "rerank")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else "")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; remap the latter
        return 0 if exc.code == 0 else 1
    # the parser is some 50 kB of objects tied in reference cycles; with no
    # reference left, the cycle collector can free it while the stage runs
    del parser
    if args.command in CONFIG_COMMANDS:
        import logging
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
