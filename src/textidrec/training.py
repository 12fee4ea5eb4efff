"""Alternate training of the ID generator and the base recommender.

`alternate_train` allocates item IDs with the warm-start generator and
snapshots the user profile IDs once. Each iteration then trains the
generator for a few epochs against the frozen recommender through the
differentiable expected-embedding path and re-allocates the IDs, re-snapshots
the user IDs, and trains the recommender under teacher forcing with the ID
snapshot frozen. Both phases run the same epoch loop (`_train_epochs`) and
differ only in the model they update and the per-example loss. Each batch of
`TrainConfig.batch_size` examples is one graph, one backward and one Adam
step on the mean loss. Only one model's parameters change in any phase.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import corpus
from .allocator import (AllocatorConfig, IdRegistry, TextualId, allocate_all, generate_user_id,
                        profile_source)
from .autograd import Tensor, concat, stack_rows
from .model import (AdamState, SequenceModel, apply_update, expected_embedding_rows, load_checkpoint,
                    save_checkpoint)
from .prompting import Prompt, Template, render_prompt, sample_template
from .tokenizer import EOS_ID, PAD_ID, Vocabulary

log = logging.getLogger(__name__)


class StaleRegistry(RuntimeError):
    """The ID registry was not produced by the bundled ID generator."""


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 3
    rec_epochs_per_iter: int = 10
    idgen_epochs_per_iter: int = 1
    lr_rec: float = 1e-3
    lr_idgen: float = 1e-4
    batch_size: int = 1
    use_user_id: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("iterations", "rec_epochs_per_iter", "idgen_epochs_per_iter", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lr_rec <= 0 or self.lr_idgen <= 0:
            raise ValueError("learning rates must be positive")


@dataclass(frozen=True)
class TrainExample:
    user: str
    history: tuple[str, ...]
    target: str


@dataclass
class CheckpointBundle:
    """Everything one evaluation needs: both models with optimizer state, the
    ID registry snapshot, and the vocabulary hash they were trained against."""

    rec: SequenceModel
    rec_opt: AdamState
    idgen: SequenceModel
    idgen_opt: AdamState
    registry: IdRegistry | None
    vocab_hash: str
    iteration: int = 0

    def save(self, directory: str | Path, vocab: Vocabulary) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_checkpoint(self.rec, self.rec_opt, self.vocab_hash, directory / "rec.ckpt")
        save_checkpoint(self.idgen, self.idgen_opt, self.vocab_hash, directory / "idgen.ckpt")
        if self.registry is not None:
            self.registry.save_tsv(directory / "ids.tsv")
        vocab.save_tsv(directory / "vocab.tsv")
        (directory / "bundle.json").write_text(
            json.dumps({"iteration": self.iteration}, sort_keys=True) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, directory: str | Path) -> tuple["CheckpointBundle", Vocabulary]:
        directory = Path(directory)
        vocab_path = directory / "vocab.tsv"
        if not vocab_path.exists():
            raise FileNotFoundError(f"missing input file: {vocab_path}")
        vocab = Vocabulary.load_tsv(vocab_path)
        expected = vocab.content_hash()
        rec, rec_opt, _ = load_checkpoint(directory / "rec.ckpt", expected_vocab_hash=expected)
        idgen, idgen_opt, _ = load_checkpoint(directory / "idgen.ckpt", expected_vocab_hash=expected)
        registry = None
        if (directory / "ids.tsv").exists():
            registry = IdRegistry.load_tsv(directory / "ids.tsv", vocab)
            if registry.generator_hash != idgen.param_hash():
                raise StaleRegistry(f"{directory / 'ids.tsv'} was not produced by the generator "
                                    f"in {directory / 'idgen.ckpt'}")
        meta_path = directory / "bundle.json"
        iteration = _read_bundle_iteration(meta_path) if meta_path.exists() else 0
        bundle = cls(rec=rec, rec_opt=rec_opt, idgen=idgen, idgen_opt=idgen_opt,
                     registry=registry, vocab_hash=expected, iteration=iteration)
        return bundle, vocab


def _read_bundle_iteration(path: Path) -> int:
    """The iteration recorded in `bundle.json`; a malformed record is a
    ValueError naming the file."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: unreadable bundle record: {exc}") from exc
    if not isinstance(record, dict) or type(record.get("iteration")) is not int:
        raise ValueError(f"{path}: bundle record must be an object with an int iteration")
    return record["iteration"]


def build_train_examples(split: corpus.SplitDataset) -> list[TrainExample]:
    """Expand each train log into next-item examples: every position from the
    second onward is a target, with the preceding items as history. Logs too
    short to form a pair are skipped."""
    examples = []
    skipped = 0
    for log_entry in split.train:
        if len(log_entry.items) < 2:
            skipped += 1
            continue
        for t in range(1, len(log_entry.items)):
            examples.append(TrainExample(user=log_entry.user,
                                         history=log_entry.items[:t],
                                         target=log_entry.items[t]))
    if skipped:
        log.info("skipped %d train logs with fewer than 2 items", skipped)
    return examples


def _check_registry(bundle: CheckpointBundle) -> None:
    if bundle.registry is None:
        raise StaleRegistry("bundle has no ID registry; allocate before training")
    if bundle.registry.generator_hash != bundle.idgen.param_hash():
        raise StaleRegistry("ID registry was produced by a different generator state")


def snapshot_user_ids(idgen: SequenceModel, examples: list[TrainExample],
                      item_text: dict[str, str], vocab: Vocabulary,
                      alloc_cfg: AllocatorConfig) -> dict[tuple[str, ...], TextualId]:
    """Profile IDs for every distinct example history, generated with the
    current (frozen) generator. Part of the ID snapshot for the phase."""
    cache: dict[tuple[str, ...], TextualId] = {}
    for ex in examples:
        if ex.history not in cache:
            texts = [item_text[k] for k in ex.history]
            cache[ex.history] = generate_user_id(idgen, texts, vocab, alloc_cfg)
    return cache


def _sampling_bank(bank: tuple[Template, ...], cfg: TrainConfig) -> tuple[Template, ...]:
    """With user IDs disabled, only item-only templates can render."""
    if cfg.use_user_id:
        return bank
    usable = tuple(t for t in bank if not t.has_user_slot)
    if not usable:
        raise ValueError("use_user_id is false but every template has a user slot")
    return usable


def _train_epochs(bundle: CheckpointBundle, split: corpus.SplitDataset, cfg: TrainConfig,
                  vocab: Vocabulary, bank: tuple[Template, ...], alloc_cfg: AllocatorConfig,
                  rng: random.Random, user_ids: dict[tuple[str, ...], TextualId] | None,
                  model: SequenceModel, opt: AdamState, lr: float, epochs: int,
                  example_loss: Callable[..., Tensor], label: str) -> list[float]:
    """The epoch loop of both phases. Each batch of `cfg.batch_size`
    examples is one graph on fresh trainable wrappers `pt` of `model`: per
    example, sample a template, render the prompt against the frozen ID
    snapshot and build `example_loss(pt, prompt, target_tokens, example,
    user_id)`; then one backward through the summed losses and one Adam step
    with the batch's mean gradient. A short last batch is applied at the end
    of its epoch. Records each epoch's mean loss. Only `model`'s parameters
    change."""
    _check_registry(bundle)
    registry = bundle.registry
    examples = build_train_examples(split)
    if cfg.use_user_id and user_ids is None:
        user_ids = snapshot_user_ids(bundle.idgen, examples, dict(corpus.item_texts(split.items)),
                                     vocab, alloc_cfg)
    sampling_bank = _sampling_bank(bank, cfg)
    epoch_losses = []
    for epoch in range(epochs):
        total_nll = 0.0
        for lo in range(0, len(examples), cfg.batch_size):
            batch = examples[lo:lo + cfg.batch_size]
            pt = model.trainable()
            batch_loss = None
            for ex in batch:
                template = sample_template(rng, sampling_bank)
                uid = user_ids[ex.history] if cfg.use_user_id and template.has_user_slot else None
                prompt = render_prompt(template, uid, [registry.ids[k] for k in ex.history],
                                       vocab, max_src_len=bundle.rec.config.max_src_len)
                target = list(registry.ids[ex.target].tokens) + [EOS_ID]
                loss = example_loss(pt, prompt, target, ex, uid)
                total_nll += loss.data.item()
                batch_loss = loss if batch_loss is None else batch_loss + loss
            batch_loss.backward()
            grads = {name: t.grad for name, t in pt.items()}
            if len(batch) > 1:
                grads = {name: g / len(batch) for name, g in grads.items() if g is not None}
            apply_update(model.params, grads, opt, lr)
        epoch_losses.append(total_nll / max(1, len(examples)))
        log.info("%s epoch %d/%d: mean nll %.4f", label, epoch + 1, epochs, epoch_losses[-1])
    return epoch_losses


def train_recommender_phase(bundle: CheckpointBundle, split: corpus.SplitDataset,
                            cfg: TrainConfig, vocab: Vocabulary,
                            bank: tuple[Template, ...], alloc_cfg: AllocatorConfig,
                            rng: random.Random,
                            user_ids: dict[tuple[str, ...], TextualId] | None = None) -> list[float]:
    """Teacher-forced NLL training of the recommender against the frozen ID
    snapshot; the ID generator is untouched. Returns per-epoch mean losses."""
    rec = bundle.rec

    def example_loss(pt, prompt, target, ex, uid):
        return rec.sequence_nll(rec.encode(prompt.tokens, pt), target, pt)

    return _train_epochs(bundle, split, cfg, vocab, bank, alloc_cfg, rng, user_ids,
                         rec, bundle.rec_opt, cfg.lr_rec, cfg.rec_epochs_per_iter,
                         example_loss, "recommender")


def expected_id_rows(idgen: SequenceModel, phi: dict[str, Tensor], src_ids,
                     anchor_tokens, rec_emb: Tensor) -> Tensor:
    """Teacher-force the generator along an ID's snapshot tokens and convert
    each position's logits into an expected embedding under the recommender's
    table: one (len(anchor), d) row per token. Differentiable w.r.t. the
    generator parameters."""
    anchor = list(anchor_tokens)
    state = idgen.encode(src_ids, phi)
    rows = idgen.decoder_all_logits(state, [PAD_ID] + anchor[:-1], phi)
    return expected_embedding_rows(rows, rec_emb)


def splice_embeddings(prompt: Prompt, replacements: dict[int, Tensor | list[Tensor]],
                      tok_emb: Tensor) -> Tensor:
    """Encoder input matrix for the prompt with every span's token embeddings
    replaced by the given rows, a (span length, d) tensor or a list of 1-D
    rows; other positions gather from `tok_emb`."""
    tokens = np.array(prompt.tokens)
    pieces: list[Tensor] = []
    pos = 0
    for si, span in enumerate(prompt.spans):
        rows = replacements[si]
        count = rows.data.shape[0] if isinstance(rows, Tensor) else len(rows)
        if count != span.end - span.start:
            raise ValueError(f"span {si} covers {span.end - span.start} tokens, got {count} rows")
        if span.start > pos:
            pieces.append(tok_emb[tokens[pos:span.start]])
        pieces.append(rows if isinstance(rows, Tensor) else stack_rows(rows))
        pos = span.end
    if pos < len(tokens):
        pieces.append(tok_emb[tokens[pos:]])
    return concat(pieces, axis=0)


def idgen_example_loss(idgen: SequenceModel, rec: SequenceModel, prompt: Prompt,
                       span_sources: list[tuple[list[int], tuple[int, ...]]],
                       target_tokens: list[int],
                       phi: dict[str, Tensor] | None = None) -> Tensor:
    """Recommendation NLL with every prompt span replaced at the embedding
    level by the generator's expected embeddings.

    `span_sources[i]` is the (generator source ids, snapshot anchor tokens)
    pair for prompt.spans[i]. Gradients reach only the generator parameters;
    the recommender's are frozen.
    """
    omega = rec.frozen()
    emb = omega["tok_emb"]
    if phi is None:
        phi = idgen.trainable()
    replacements = {
        si: expected_id_rows(idgen, phi, src, anchor, emb)
        for si, (src, anchor) in enumerate(span_sources)
    }
    spliced = splice_embeddings(prompt, replacements, emb)
    state = rec.encode_embeddings(spliced, omega)
    return rec.sequence_nll(state, target_tokens, omega)


def train_idgen_phase(bundle: CheckpointBundle, split: corpus.SplitDataset,
                      cfg: TrainConfig, vocab: Vocabulary,
                      bank: tuple[Template, ...], alloc_cfg: AllocatorConfig,
                      rng: random.Random,
                      user_ids: dict[tuple[str, ...], TextualId] | None = None) -> list[float]:
    """Train the ID generator against the frozen recommender, then refresh
    the registry with the updated generator. Returns per-epoch mean losses."""
    idgen, rec = bundle.idgen, bundle.rec
    items = corpus.item_texts(split.items)
    item_text = dict(items)
    max_src = idgen.config.max_src_len

    def example_loss(phi, prompt, target, ex, uid):
        """Each span's generator source: the item text for a history span,
        the profile of the whole history for the user span."""
        span_sources = []
        for span in prompt.spans:
            if span.role == "history":
                key = ex.history[span.index]
                span_sources.append((vocab.encode(item_text[key], max_src),
                                     bundle.registry.ids[key].tokens))
            else:
                span_sources.append((profile_source([item_text[k] for k in ex.history], vocab, max_src),
                                     uid.tokens))
        return idgen_example_loss(idgen, rec, prompt, span_sources, target, phi)

    epoch_losses = _train_epochs(bundle, split, cfg, vocab, bank, alloc_cfg, rng, user_ids,
                                 idgen, bundle.idgen_opt, cfg.lr_idgen, cfg.idgen_epochs_per_iter,
                                 example_loss, "id-generator")
    # asynchronous refresh: IDs are re-allocated with the updated generator
    bundle.registry = allocate_all(idgen, items, vocab, alloc_cfg)
    return epoch_losses


def alternate_train(split: corpus.SplitDataset, vocab: Vocabulary,
                    rec: SequenceModel, idgen: SequenceModel,
                    cfg: TrainConfig, alloc_cfg: AllocatorConfig,
                    bank: tuple[Template, ...],
                    out_dir: str | Path | None = None) -> CheckpointBundle:
    """Run the full alternation. The warm-start generator allocates the item
    IDs and, with user IDs on, snapshots the profile IDs once; then each
    iteration runs the generator phase (which re-allocates), re-snapshots the
    user IDs with the updated generator, runs the recommender phase and the
    validation eval. Saves one bundle per iteration when out_dir is set."""
    rng = random.Random(cfg.seed)
    examples = build_train_examples(split)
    items = corpus.item_texts(split.items)
    item_text = dict(items)
    log.info("allocating %d item IDs", len(items))
    bundle = CheckpointBundle(rec=rec, rec_opt=AdamState(), idgen=idgen, idgen_opt=AdamState(),
                              registry=allocate_all(idgen, items, vocab, alloc_cfg),
                              vocab_hash=vocab.content_hash(), iteration=0)
    user_ids = (snapshot_user_ids(idgen, examples, item_text, vocab, alloc_cfg)
                if cfg.use_user_id else None)
    for iteration in range(1, cfg.iterations + 1):
        idgen_losses = train_idgen_phase(bundle, split, cfg, vocab, bank, alloc_cfg, rng,
                                         user_ids=user_ids)
        if cfg.use_user_id:
            user_ids = snapshot_user_ids(idgen, examples, item_text, vocab, alloc_cfg)
        rec_losses = train_recommender_phase(bundle, split, cfg, vocab, bank, alloc_cfg, rng,
                                             user_ids=user_ids)
        bundle.iteration = iteration
        from .evaluation import evaluate  # local import, avoids a module cycle

        valid_report = evaluate(bundle, split, ks=(10,), vocab=vocab, bank=bank, which="valid",
                                alloc_cfg=alloc_cfg)
        log.info("iteration %d: valid HR@10 %.4f", iteration, valid_report.hr[10])
        if out_dir is not None:
            iter_dir = Path(out_dir) / f"iter_{iteration}"
            bundle.save(iter_dir, vocab=vocab)
            metrics = {
                "iteration": iteration,
                "idgen_loss": idgen_losses,
                "rec_loss": rec_losses,
                "valid_hr10": valid_report.hr[10],
            }
            (iter_dir / "metrics.json").write_text(
                json.dumps(metrics, sort_keys=True) + "\n", encoding="utf-8"
            )
    return bundle
