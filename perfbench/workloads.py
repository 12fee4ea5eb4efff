"""The three benchmark workloads: setup, one closed-loop operation, and the
checks each operation's output must pass.

Every input is generated from `textidrec.synth` and the workload seed. Calls
into the package go through module attributes (`training.alternate_train`),
so a tracer installed after import sees them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from textidrec import allocator, corpus, evaluation, model, prompting, recommender, synth, tokenizer, training


def _vocab_for(items: dict, bank) -> tokenizer.Vocabulary:
    """Item texts plus template words, as criterion 8 builds it."""
    texts = [corpus.flatten_metadata(rec) for rec in items.values()]
    texts += [t.text.replace(prompting.ITEM_PLACEHOLDER, " ").replace(prompting.USER_PLACEHOLDER, " ")
              for t in bank]
    return tokenizer.build_vocab(texts)


def _fresh(m: model.SequenceModel) -> model.SequenceModel:
    return model.SequenceModel(m.config, {k: v.copy() for k, v in m.params.items()})


def _registry_problems(registry, n_items: int, capacity: int | None = None) -> list[str]:
    problems = []
    texts = [tid.text for tid in registry.ids.values()]
    if len(registry.ids) != n_items:
        problems.append(f"{len(registry.ids)} IDs for {n_items} items")
    if len(set(texts)) != len(texts):
        problems.append(f"{len(texts) - len(set(texts))} duplicated ID texts")
    if capacity is not None:
        too_long = sum(1 for tid in registry.ids.values() if not 0 < len(tid.tokens) <= capacity)
        if too_long:
            problems.append(f"{too_long} IDs empty or longer than {capacity} tokens")
    return problems


class Workload:
    """One named workload. `setup` builds every input; `op(i)` is the i-th
    operation of the closed loop and returns its output; `check` lists what
    is wrong with that output."""

    name = ""
    min_ops = 1  # operations a timed run performs at least
    trace_ops = 1  # fixed work of a traced run

    def __init__(self, seed: int, tiny: bool = False):
        self.seed, self.tiny = seed, tiny

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> list[str]:
        raise NotImplementedError

    def report(self, latencies: list[float], scale) -> dict[str, tuple[float, str]]:
        """Workload-specific metrics, by name, with their units, from the
        operations' latencies in seconds; `scale(start, end)` turns another
        interval of the run into seconds the same way."""
        return {}

    def digest(self) -> str:
        raise NotImplementedError


class TrainCyclic(Workload):
    """`alternate_train` on criterion 8's cyclic set and model config, then a
    test-split `evaluate`: the only workload that runs backward and Adam."""

    name = "train-cyclic"

    def setup(self) -> None:
        users, n_items = (8, 4) if self.tiny else (50, 10)
        dataset = synth.cyclic_dataset(n_users=users, n_items=n_items, seed=self.seed)
        self.split = corpus.leave_one_out_split(corpus.filter_k_core(dataset, k=5))
        self.bank = prompting.default_bank()
        self.vocab = _vocab_for(self.split.items, self.bank)
        size = dict(d_model=16, layers=1, heads=2, ff_dim=32) if self.tiny else {}
        self.rec = model.SequenceModel.init(model.ModelConfig(vocab_size=self.vocab.size, seed=13, **size))
        self.idgen = model.SequenceModel.init(model.ModelConfig(vocab_size=self.vocab.size, seed=14, **size))
        # one iteration with one epoch per phase runs every phase of the loop
        self.train_cfg = training.TrainConfig(iterations=1, rec_epochs_per_iter=1,
                                              idgen_epochs_per_iter=1, seed=13)
        self.alloc_cfg = allocator.AllocatorConfig(groups=4) if self.tiny else allocator.AllocatorConfig()
        self.out_root = Path(__file__).resolve().parent / "out"
        self.results = []

    def op(self, i: int):
        rec, idgen = _fresh(self.rec), _fresh(self.idgen)
        self.out_root.mkdir(exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix="train-", dir=self.out_root)
        try:
            start = time.perf_counter()
            bundle = training.alternate_train(self.split, self.vocab, rec, idgen, self.train_cfg,
                                              self.alloc_cfg, self.bank, out_dir=out_dir)
            train_interval = (start, time.perf_counter())
            report = evaluation.evaluate(bundle, self.split, ks=(5, 10), vocab=self.vocab, bank=self.bank)
            iter_metrics = json.loads((Path(out_dir) / f"iter_{self.train_cfg.iterations}" / "metrics.json")
                                      .read_text(encoding="utf-8"))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        result = {"registry": bundle.registry, "report": report, "train_interval": train_interval,
                  "losses": iter_metrics["idgen_loss"] + iter_metrics["rec_loss"]}
        self.results.append(result)
        return result

    def check(self, i: int, output) -> list[str]:
        problems = _registry_problems(output["registry"], len(self.split.items))
        if output["registry"].content_hash() != self.results[0]["registry"].content_hash():
            problems.append("registry differs from the first operation's")
        if not output["losses"] or not all(math.isfinite(x) for x in output["losses"]):
            problems.append(f"non-finite or missing losses {output['losses']}")
        n = len(self.split.items)
        report = output["report"]
        if report.user_count != len(self.split.test) or not all(1 <= r.rank <= n for r in report.ranks):
            problems.append("test ranks missing or outside the catalog")
        return problems

    def report(self, latencies, scale):
        last = self.results[-1]["report"]
        return {
            "train_s": (statistics.median(scale(*r["train_interval"]) for r in self.results), "s"),
            "test_hr5": (last.hr[5], "ratio"),
            "test_ndcg10": (last.ndcg[10], "ratio"),
        }

    def digest(self) -> str:
        h = hashlib.sha256()
        for r in self.results[:1]:
            h.update(r["registry"].content_hash().encode())
            h.update(repr([(x.user, x.rank) for x in r["report"].ranks]).encode())
            h.update(repr(r["losses"]).encode())
        return h.hexdigest()


class RankCatalog(Workload):
    """`rank_all` for one user per operation, with frozen weights, on a
    20-item catalog whose registry and trie are built during setup."""

    name = "rank-catalog"
    min_ops = 100  # leaves >= 10 samples beyond p90

    def setup(self) -> None:
        users, n_items = (8, 6) if self.tiny else (50, 20)
        dataset = synth.cyclic_dataset(n_users=users, n_items=n_items, seed=self.seed)
        split = corpus.leave_one_out_split(corpus.filter_k_core(dataset, k=5))
        bank = prompting.default_bank()
        vocab = _vocab_for(split.items, bank)
        size = dict(d_model=16, layers=1, heads=2, ff_dim=32) if self.tiny else {}
        self.rec = model.SequenceModel.init(model.ModelConfig(vocab_size=vocab.size, seed=13, **size))
        idgen = model.SequenceModel.init(model.ModelConfig(vocab_size=vocab.size, seed=14, **size))
        self.registry = allocator.allocate_all(idgen, corpus.item_texts(split.items), vocab,
                                               allocator.AllocatorConfig())
        self.trie = recommender.build_trie(self.registry)
        template = bank[0]  # template 1, the evaluation template: no user slot
        self.prompts = [
            (pair.user, prompting.render_prompt(template, None, [self.registry.ids[k] for k in pair.history],
                                                vocab, max_src_len=self.rec.config.max_src_len))
            for pair in split.test
        ]
        self.trace_ops = len(self.prompts)
        self.first: dict[str, list] = {}

    def op(self, i: int):
        user, prompt = self.prompts[i % len(self.prompts)]
        return user, recommender.rank_all(self.rec, prompt, self.registry, self.trie)

    def check(self, i: int, output) -> list[str]:
        user, ranking = output
        problems = []
        keys = [key for key, _ in ranking]
        if len(keys) != len(self.registry.ids) or set(keys) != set(self.registry.ids):
            problems.append("ranking is not a permutation of the catalog")
        if any((-a[1], a[0]) > (-b[1], b[0]) for a, b in zip(ranking, ranking[1:])):
            problems.append("ranking is not sorted by descending score")
        mass = math.fsum(math.exp(score) for _, score in ranking)
        if abs(mass - 1.0) > 1e-9:
            problems.append(f"constrained mass {mass!r} is not within 1e-9 of 1")
        if self.first.setdefault(user, ranking) != ranking:
            problems.append(f"ranking for {user} changed between passes")
        return problems

    def report(self, latencies, scale):
        ms = sorted(x * 1000 for x in latencies)
        return {
            "rank_user_ms_p50": (statistics.median(ms), "ms"),
            "rank_user_ms_p90": (percentile(ms, 90), "ms"),
            "rank_samples": (len(ms), "count"),
        }

    def digest(self) -> str:
        h = hashlib.sha256()
        for user in sorted(self.first):
            h.update(repr((user, self.first[user])).encode())
        return h.hexdigest()


class AllocDup(Workload):
    """`allocate_all` over 1000 items that share 100 texts, with criterion 1's
    model config: the escalation ladder, logprob cache and ordinal fallback."""

    name = "alloc-dup"

    def setup(self) -> None:
        n_items, n_distinct = (40, 4) if self.tiny else (1000, 100)
        self.items = synth.duplicated_metadata_items(n_items=n_items, n_distinct=n_distinct)
        random.Random(self.seed).shuffle(self.items)
        self.vocab = tokenizer.build_vocab([text for _, text in self.items])
        self.model = model.SequenceModel.init(model.ModelConfig(
            vocab_size=self.vocab.size, d_model=32, layers=1, heads=2, ff_dim=64,
            max_src_len=64, max_tgt_len=24, seed=5))
        self.config = allocator.AllocatorConfig()
        self.registries = []

    def op(self, i: int):
        registry = allocator.allocate_all(self.model, self.items, self.vocab, self.config)
        self.registries.append(registry)
        return registry

    def check(self, i: int, output) -> list[str]:
        problems = _registry_problems(output, len(self.items), self.model.config.max_tgt_len - 1)
        if output.content_hash() != self.registries[0].content_hash():
            problems.append("registry differs from the first operation's")
        return problems

    def report(self, latencies, scale):
        stats = self.registries[-1].stats(lam_init=self.config.lam_init)
        return {
            "alloc_items_per_s": (len(self.items) / statistics.median(latencies), "items/s"),
            "alloc_fallback_frac": (stats["fallback_count"] / len(self.items), "ratio"),
        }

    def digest(self) -> str:
        return self.registries[0].content_hash()


def percentile(sorted_values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a single sample is its own."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


WORKLOADS = {w.name: w for w in (TrainCyclic, RankCatalog, AllocDup)}
