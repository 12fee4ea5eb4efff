"""Leave-one-out evaluation: HR@k and NDCG@k over the full catalog, plus the
zero-shot protocol (frozen models, fresh ID allocation on unseen data).

Ranking is exact by default (every registered item scored under constrained
decoding); beam-limited ranking is available for speed comparisons. When the
evaluation template has a user slot, the profile IDs of the distinct
histories are generated first, as one wave (`generate_user_ids`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import corpus
from .allocator import AllocatorConfig, IdRegistry, allocate_all, generate_user_ids
from .model import VocabularyMismatch
from .prompting import Template, render_prompt
from .recommender import build_trie, constrained_beam_search, rank_all
from .tokenizer import Vocabulary


class TargetMissing(KeyError):
    """A test target has no registered ID."""


@dataclass(frozen=True)
class RankResult:
    user: str
    target: str
    rank: int


@dataclass(frozen=True)
class EvalReport:
    dataset: str
    mode: str
    user_count: int
    hr: dict[int, float]
    ndcg: dict[int, float]
    ranks: tuple[RankResult, ...]


def metric_at_k(rank: int, k: int) -> tuple[int, float]:
    """Single-relevant-item metrics: hit iff rank <= k; discounted gain
    1/log2(rank+1) on a hit, else 0."""
    if rank < 1 or k < 1:
        raise ValueError("rank and k must be >= 1")
    if rank > k:
        return 0, 0.0
    return 1, 1.0 / math.log2(rank + 1)


def aggregate(ranks: list[int], ks: tuple[int, ...]) -> tuple[dict[int, float], dict[int, float]]:
    """Mean HR@k and NDCG@k over per-user ranks."""
    n = max(1, len(ranks))
    hr = {k: sum(metric_at_k(r, k)[0] for r in ranks) / n for k in ks}
    ndcg = {k: sum(metric_at_k(r, k)[1] for r in ranks) / n for k in ks}
    return hr, ndcg


def _eval_template(bank: tuple[Template, ...]) -> Template:
    """Evaluation always renders template 1, removing template variance."""
    for template in bank:
        if template.id == 1:
            return template
    return bank[0]


def _rank_pairs(bundle, registry: IdRegistry, pairs, vocab: Vocabulary,
                bank: tuple[Template, ...], item_text: dict[str, str],
                normalize: bool, beam_width: int | None,
                alloc_cfg: AllocatorConfig) -> list[RankResult]:
    trie = build_trie(registry)
    template = _eval_template(bank)
    catalog_size = len(registry.ids)
    rec = bundle.rec
    user_ids = {}
    if template.has_user_slot:  # one wave over the distinct histories
        histories = list(dict.fromkeys(pair.history for pair in pairs))
        ids, _ = generate_user_ids(bundle.idgen, [[item_text[k] for k in history] for history in histories],
                                   vocab, alloc_cfg)
        user_ids = dict(zip(histories, ids))
    results = []
    for pair in pairs:
        if pair.target not in registry.ids:
            raise TargetMissing(f"target {pair.target!r} has no registered ID")
        uid = user_ids.get(pair.history)
        prompt = render_prompt(template, uid, [registry.ids[k] for k in pair.history],
                               vocab, max_src_len=rec.config.max_src_len)
        if beam_width is not None:
            ranked = constrained_beam_search(rec, prompt, trie, beam_width,
                                             top_n=beam_width, normalize=normalize)
            position = next((i for i, (key, _) in enumerate(ranked) if key == pair.target), None)
            rank = catalog_size if position is None else position + 1
        else:
            ranked = rank_all(rec, prompt, registry, trie, normalize=normalize)
            rank = next(i for i, (key, _) in enumerate(ranked) if key == pair.target) + 1
        results.append(RankResult(user=pair.user, target=pair.target, rank=rank))
    return results


def evaluate(bundle, split: corpus.SplitDataset, ks: tuple[int, ...] = (5, 10), *,
             vocab: Vocabulary, bank: tuple[Template, ...], which: str = "test",
             normalize: bool = True, beam_width: int | None = None,
             alloc_cfg: AllocatorConfig | None = None) -> EvalReport:
    """Rank the held-out target over the full catalog for every user in the
    chosen split ('test' or 'valid') and report mean metrics."""
    if bundle.registry is None:
        raise ValueError("bundle has no ID registry")
    pairs = getattr(split, which)
    item_text = dict(corpus.item_texts(split.items))
    results = _rank_pairs(bundle, bundle.registry, pairs, vocab, bank, item_text,
                          normalize, beam_width, alloc_cfg or AllocatorConfig())
    hr, ndcg = aggregate([r.rank for r in results], ks)
    return EvalReport(dataset=split.name, mode="standard", user_count=len(results),
                      hr=hr, ndcg=ndcg, ranks=tuple(results))


def zero_shot_evaluate(bundle, dataset: corpus.Dataset, ks: tuple[int, ...] = (5, 10), *,
                       vocab: Vocabulary, bank: tuple[Template, ...],
                       alloc_cfg: AllocatorConfig | None = None,
                       normalize: bool = True, beam_width: int | None = None) -> EvalReport:
    """Apply a frozen bundle to an unseen dataset: allocate fresh IDs for the
    unseen items with the bundled generator, build a fresh trie, evaluate.
    No parameters are updated anywhere."""
    if vocab.content_hash() != bundle.vocab_hash:
        raise VocabularyMismatch(
            f"dataset tokenized against vocabulary {vocab.content_hash()[:12]}..., "
            f"bundle expects {bundle.vocab_hash[:12]}..."
        )
    alloc_cfg = alloc_cfg or AllocatorConfig()
    items = corpus.item_texts(dataset.items)
    registry = allocate_all(bundle.idgen, items, vocab, alloc_cfg)
    split = corpus.leave_one_out_split(dataset)
    item_text = dict(items)
    results = _rank_pairs(bundle, registry, split.test, vocab, bank, item_text,
                          normalize, beam_width, alloc_cfg)
    hr, ndcg = aggregate([r.rank for r in results], ks)
    return EvalReport(dataset=dataset.name, mode="zero-shot", user_count=len(results),
                      hr=hr, ndcg=ndcg, ranks=tuple(results))


def save_report(report: EvalReport, path: str | Path) -> None:
    """Write metrics.json: aggregate metrics plus the per-user rank dump so
    metrics can be recomputed offline."""
    payload: dict = {
        "dataset": report.dataset,
        "mode": report.mode,
        "users": report.user_count,
        "ranks": [[r.user, r.target, r.rank] for r in report.ranks],
    }
    for k in sorted(report.hr):
        payload[f"hr@{k}"] = report.hr[k]
        payload[f"ndcg@{k}"] = report.ndcg[k]
    Path(path).write_text(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
