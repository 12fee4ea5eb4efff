"""Command-line pipeline: ingest -> fuse -> train -> allocate -> eval ->
zero-shot, with deterministic seeds and file-based handoffs between stages.

Exit codes: 0 success, 2 input error, 3 state/compatibility error,
4 internal invariant violation. IDGEN_LOG controls log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import typing
from dataclasses import replace
from pathlib import Path

from . import corpus, evaluation, synth
from .allocator import AllocatorConfig, IdSpaceExhausted, allocate_all
from .corpus import DataFormatError, EmptyAfterFiltering, HistoryTooShort
from .model import (ModelConfig, SequenceModel, SequenceTooLong, ShapeMismatch,
                    VocabularyMismatch)
from .prompting import (ITEM_PLACEHOLDER, USER_PLACEHOLDER, TemplateError, default_bank,
                        load_templates, save_templates)
from .recommender import DeadEnd, DuplicateId, UnknownId
from .tokenizer import Vocabulary, build_vocab
from .training import CheckpointBundle, StaleRegistry, TrainConfig, alternate_train

log = logging.getLogger(__name__)

EXIT_OK, EXIT_INPUT, EXIT_STATE, EXIT_INTERNAL = 0, 2, 3, 4


# -- config files ---------------------------------------------------------------

_SECTIONS = ("train", "model", "allocator", "vocab")


def _parse_config_file(path: str | Path) -> dict[str, dict]:
    """JSON object with train/model/allocator/vocab sections, or key=value
    lines with dotted keys (train.lr_rec=0.001)."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    else:
        data: dict[str, dict] = {}
        for n, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line or "." not in line.split("=", 1)[0]:
                raise DataFormatError(f"{path}:{n}: expected section.key=value, got {line!r}")
            dotted, raw_value = line.split("=", 1)
            section, key = dotted.strip().split(".", 1)
            try:
                value = json.loads(raw_value.strip())
            except json.JSONDecodeError:
                value = raw_value.strip()
            data.setdefault(section, {})[key] = value
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise DataFormatError(f"{path}: unknown config sections {sorted(unknown)}")
    for section, values in data.items():
        if not isinstance(values, dict):
            raise DataFormatError(f"{path}: config section {section!r} must be an object")
    return {section: dict(data.get(section, {})) for section in _SECTIONS}


def _typed(value, hint):
    """`value` as the field type `hint`, or None when it has another type. A
    float field takes an int; a tuple field takes a list of fitting items."""
    if typing.get_origin(hint) is not tuple:
        return value if type(value) is hint or (hint is float and type(value) is int) else None
    args = typing.get_args(hint)
    if isinstance(value, list) and args[-1] is Ellipsis:
        args = (args[0],) * len(value)
    if not isinstance(value, list) or len(value) != len(args):
        return None
    items = tuple(map(_typed, value, args))
    return None if None in items else items


def _config(build, sections: dict[str, dict], section: str, hints: dict | None = None, **fixed):
    """Call `build` with one config section's values plus `fixed` (which take
    precedence), typed by `hints` (default: `build`'s annotations). An unknown
    key, a wrong-typed value or a value `build` rejects is a DataFormatError
    naming the section."""
    hints = hints or typing.get_type_hints(build)
    kwargs = dict(fixed)
    for key, value in sections[section].items():
        if key not in hints:
            raise DataFormatError(f"config section {section!r}: unknown key {key!r}")
        hint = hints[key]
        typed = _typed(value, hint)
        if typed is None:
            raise DataFormatError(f"config section {section!r}: {key} must be "
                                  f"{hint.__name__ if isinstance(hint, type) else hint}, got {value!r}")
        kwargs.setdefault(key, typed)
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise DataFormatError(f"config section {section!r}: {exc}") from exc


def _build_vocab(sections: dict[str, dict], items: dict, bank) -> Vocabulary:
    return _config(build_vocab, sections, "vocab", {"min_freq": int, "max_size": int},
                   texts=_vocab_corpus(items, bank))


def _load_configs(args) -> dict[str, dict]:
    config = getattr(args, "config", None)
    raw = _parse_config_file(config) if config else {s: {} for s in _SECTIONS}
    if getattr(args, "seed", None) is not None:
        raw["train"]["seed"] = args.seed
        raw["model"].setdefault("seed", args.seed)
    if getattr(args, "no_user_id", False):
        raw["train"]["use_user_id"] = False
    return raw


def _load_bank(args):
    if getattr(args, "templates", None):
        return load_templates(args.templates)
    return default_bank()


def _vocab_corpus(items: dict, bank) -> list[str]:
    texts = [corpus.flatten_metadata(rec) for rec in items.values()]
    for template in bank:
        texts.append(template.text.replace(ITEM_PLACEHOLDER, " ").replace(USER_PLACEHOLDER, " "))
    return texts


# -- subcommands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    out = Path(args.out)
    if args.mode == "single":
        dataset = synth.cyclic_dataset(name=args.name, n_users=args.users,
                                       n_items=args.items, seed=args.seed or 0)
        corpus.save_dataset(dataset, out)
        print(f"wrote synthetic dataset ({args.users} users, {args.items} items) to {out}")
    else:
        domain_a, domain_b = synth.transfer_pair(n_items=args.items, n_users_a=args.users,
                                                 seed=args.seed or 0)
        corpus.save_dataset(domain_a, out / "domain_a")
        corpus.save_dataset(domain_b, out / "domain_b")
        print(f"wrote transfer pair to {out}/domain_a and {out}/domain_b")
    return EXIT_OK


def _drop_short_logs(dataset: corpus.Dataset) -> corpus.Dataset:
    kept = tuple(entry for entry in dataset.logs if len(entry.items) >= 3)
    if len(kept) != len(dataset.logs):
        log.warning("dropping %d logs shorter than 3 interactions", len(dataset.logs) - len(kept))
    if not kept:
        raise EmptyAfterFiltering(f"no usable logs left in {dataset.name!r}")
    return corpus.Dataset(name=dataset.name, items=dataset.items, logs=kept)


def cmd_ingest(args) -> int:
    dataset = corpus.load_dataset(args.data)
    filtered = _drop_short_logs(corpus.filter_k_core(dataset, k=args.k))
    split = corpus.leave_one_out_split(filtered)
    corpus.save_split(split, args.out)
    print(f"ingested {split.name}: {len(split.train)} users, {len(split.items)} items -> {args.out}")
    return EXIT_OK


def _read_manifest(path: str | Path) -> dict:
    """A fusion manifest: an object with a non-empty `sources` list of
    dataset paths and optional int `k`, `user_cap` and `seed`."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{path}: manifest must be a JSON object")
    sources = manifest.get("sources")
    if not (isinstance(sources, list) and sources and all(isinstance(s, str) for s in sources)):
        raise DataFormatError(f"{path}: 'sources' must be a non-empty list of dataset paths")
    for key in ("k", "user_cap", "seed"):
        if key in manifest and type(manifest[key]) is not int:
            raise DataFormatError(f"{path}: {key!r} must be an int, got {manifest[key]!r}")
    return manifest


def cmd_fuse(args) -> int:
    manifest = _read_manifest(args.manifest)
    sources = []
    for entry in manifest["sources"]:
        source = corpus.load_dataset(entry)
        sources.append(corpus.filter_k_core(source, k=manifest.get("k", 5)))
    spec = corpus.FusionSpec(sources=tuple(sources),
                             user_cap=manifest.get("user_cap", 30000),
                             seed=manifest.get("seed", 0))
    fused = corpus.build_fusion(spec)
    corpus.save_dataset(fused, args.out)
    print(f"fused {len(sources)} sources: {len(fused.logs)} users, {len(fused.items)} items -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    split = corpus.load_split(args.data)
    bank = _load_bank(args)
    sections = _load_configs(args)
    vocab = _build_vocab(sections, split.items, bank)
    train_cfg = _config(TrainConfig, sections, "train")
    alloc_cfg = _config(AllocatorConfig, sections, "allocator")
    sections["model"].setdefault("seed", train_cfg.seed)
    model_cfg = _config(ModelConfig, sections, "model", vocab_size=vocab.size)
    rec = SequenceModel.init(model_cfg)
    idgen = SequenceModel.init(replace(model_cfg, seed=model_cfg.seed + 1))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save_tsv(out / "vocab.tsv")
    save_templates(bank, out / "templates.txt")
    bundle = alternate_train(split, vocab, rec, idgen, train_cfg, alloc_cfg, bank, out_dir=out)
    bundle.save(out / "final", vocab=vocab)
    print(f"trained {train_cfg.iterations} iterations -> {out / 'final'}")
    return EXIT_OK


def _load_data_any(path: str | Path) -> tuple[dict, str]:
    """Items plus name from either an ingested split dir or a raw dataset dir."""
    path = Path(path)
    if (path / "train.jsonl").exists():
        split = corpus.load_split(path)
        return split.items, split.name
    dataset = corpus.load_dataset(path)
    return dataset.items, dataset.name


def cmd_allocate(args) -> int:
    sections = _load_configs(args)
    alloc_cfg = _config(AllocatorConfig, sections, "allocator")
    items, _ = _load_data_any(args.data)
    bank = _load_bank(args)
    if args.bundle:
        bundle, vocab = CheckpointBundle.load(args.bundle)
        model = bundle.idgen
    else:
        vocab = _build_vocab(sections, items, bank)
        model = SequenceModel.init(_config(ModelConfig, sections, "model", vocab_size=vocab.size))
    registry = allocate_all(model, corpus.item_texts(items), vocab, alloc_cfg)
    registry.save_tsv(args.out)
    stats = registry.stats(lam_init=alloc_cfg.lam_init)
    print(f"allocated {len(registry.ids)} ids -> {args.out} "
          f"(escalated {100 * stats['fraction_lambda_escalated']:.2f}%, "
          f"extended {100 * stats['fraction_length_extended']:.2f}%, "
          f"fallbacks {int(stats['fallback_count'])})")
    return EXIT_OK


def _report_line(report) -> str:
    parts = [f"{report.dataset} [{report.mode}] users={report.user_count}"]
    for k in sorted(report.hr):
        parts.append(f"HR@{k}={report.hr[k]:.4f} NDCG@{k}={report.ndcg[k]:.4f}")
    return " ".join(parts)


def _beam_width(args) -> int | None:
    """Beam-limited ranking width, or None for exact full-catalog ranking."""
    return args.beam if args.beam and not args.exact else None


def cmd_eval(args) -> int:
    bundle, vocab = CheckpointBundle.load(args.bundle)
    split = corpus.load_split(args.data)
    bank = _load_bank(args)
    alloc_cfg = _config(AllocatorConfig, _load_configs(args), "allocator")
    report = evaluation.evaluate(bundle, split, vocab=vocab, bank=bank,
                                 normalize=not args.unnormalized_eq2,
                                 beam_width=_beam_width(args), alloc_cfg=alloc_cfg)
    evaluation.save_report(report, args.out)
    print(_report_line(report))
    return EXIT_OK


def cmd_zeroshot(args) -> int:
    bundle, vocab = CheckpointBundle.load(args.bundle)
    dataset = _drop_short_logs(corpus.filter_k_core(corpus.load_dataset(args.data), k=args.k))
    bank = _load_bank(args)
    alloc_cfg = _config(AllocatorConfig, _load_configs(args), "allocator")
    report = evaluation.zero_shot_evaluate(bundle, dataset, vocab=vocab, bank=bank,
                                           alloc_cfg=alloc_cfg,
                                           normalize=not args.unnormalized_eq2,
                                           beam_width=_beam_width(args))
    evaluation.save_report(report, args.out)
    print(_report_line(report))
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, config: bool = True) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    if config:
        parser.add_argument("--config", help="config file (JSON or section.key=value lines)")
        parser.add_argument("--templates", help="template bank file (id<TAB>text, 10 lines)")
        parser.add_argument("--no-user-id", action="store_true", help="disable user-ID generation")


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beam", type=int, default=0, help="beam width for beam-limited ranking")
    parser.add_argument("--exact", action="store_true", help="force exact full-catalog ranking")
    parser.add_argument("--unnormalized-eq2", action="store_true",
                        help="mask invalid tokens without renormalizing the step distribution")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="textidrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("single", "transfer"), default="single")
    p.add_argument("--name", default="toy")
    p.add_argument("--users", type=int, default=50)
    p.add_argument("--items", type=int, default=10)
    _add_common(p, config=False)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("ingest", help="k-core filter and leave-one-out split a raw dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("fuse", help="build a fusion corpus from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_fuse)

    p = sub.add_parser("train", help="alternate-train the ID generator and recommender")
    p.add_argument("--data", required=True, help="ingested split directory")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("allocate", help="allocate textual IDs for a catalog")
    p.add_argument("--data", required=True, help="split or raw dataset directory")
    p.add_argument("--out", required=True, help="ids.tsv path")
    p.add_argument("--bundle", help="bundle directory providing the ID generator")
    _add_common(p)
    p.set_defaults(handler=cmd_allocate)

    p = sub.add_parser("eval", help="standard leave-one-out evaluation")
    p.add_argument("--bundle", required=True)
    p.add_argument("--data", required=True, help="ingested split directory")
    p.add_argument("--out", required=True, help="metrics.json path")
    _add_common(p)
    _add_eval_flags(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("zeroshot", help="zero-shot evaluation on an unseen raw dataset")
    p.add_argument("--bundle", required=True)
    p.add_argument("--data", required=True, help="raw dataset directory")
    p.add_argument("--out", required=True, help="metrics.json path")
    p.add_argument("--k", type=int, default=5)
    _add_common(p)
    _add_eval_flags(p)
    p.set_defaults(handler=cmd_zeroshot)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("IDGEN_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (VocabularyMismatch, StaleRegistry) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE
    except (IdSpaceExhausted, ShapeMismatch, SequenceTooLong, DeadEnd, UnknownId,
            DuplicateId, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError, DataFormatError,
            TemplateError, HistoryTooShort, EmptyAfterFiltering, json.JSONDecodeError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("unexpected failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
