"""Shared test fixtures: tiny vocabularies, tiny models, and scripted models
whose next-token distributions are fixed by hand."""

from __future__ import annotations

import numpy as np
import pytest

from textidrec.autograd import Tensor
from textidrec.model import ModelConfig, PrefixTrie, SequenceModel, log_softmax_rows
from textidrec.tokenizer import PAD_ID, Vocabulary, build_vocab

WORDS = ["alfa", "bravo", "coral", "delta", "echos", "fjord", "golfe", "hotel",
         "india", "julep", "kilos", "limes", "mango", "novas", "oscar", "papas"]


def make_vocab(words: list[str]) -> Vocabulary:
    """Vocabulary holding exactly `words` (each counted twice to clear the
    frequency threshold), in deterministic order."""
    return build_vocab([" ".join(words)] * 2, min_freq=2, max_size=8192)


def tiny_model(vocab_size: int, seed: int = 0, d_model: int = 16, layers: int = 1,
               heads: int = 2, ff_dim: int = 32, max_src_len: int = 64,
               max_tgt_len: int = 12) -> SequenceModel:
    return SequenceModel.init(ModelConfig(
        vocab_size=vocab_size, d_model=d_model, layers=layers, heads=heads,
        ff_dim=ff_dim, max_src_len=max_src_len, max_tgt_len=max_tgt_len, seed=seed,
    ))


def cold_copy(model: SequenceModel) -> SequenceModel:
    """A deep copy of `model` built anew from its parameters, so its head
    slot is empty: its first memo-less `prefix_logits` call decodes every
    pass from the embeddings."""
    return SequenceModel(model.config, {name: array.copy() for name, array in model.params.items()})


def trie_of(prefixes) -> tuple[PrefixTrie, list[int]]:
    """A `PrefixTrie` of `prefixes` and all their ancestors, in
    lexicographic order (parents first, siblings in token order), and the
    node of each prefix."""
    prefixes = [tuple(map(int, p)) for p in prefixes]
    trie, node_of = PrefixTrie(), {}
    for p in sorted({p[:k] for p in prefixes for k in range(len(p) + 1)}):
        node_of[p] = int(trie.add([node_of[p[:-1]] if p else -1], [p[-1] if p else PAD_ID])[0])
    return trie, [node_of[p] for p in prefixes]


def prefix_logits(model, ctx, prefixes) -> np.ndarray:
    """Next-token logits after each of `prefixes`, in order (duplicates and
    prefixes without their ancestors allowed): one `model.prefix_logits`
    call over `trie_of(prefixes)`."""
    trie, nodes = trie_of(prefixes)
    return model.prefix_logits(ctx, trie)[nodes]


class ScriptedState:
    def __init__(self, src):
        self.src = tuple(src)
        self.length = len(self.src)


class ScriptedModel:
    """Model stub with hand-fixed next-token probabilities.

    `table` maps a decoder prefix (tuple of token ids) to {token: prob};
    unlisted prefixes fall back to the uniform distribution. Probabilities
    not summing to one are normalized.
    """

    def __init__(self, vocab_size: int, table: dict[tuple[int, ...], dict[int, float]],
                 max_tgt_len: int = 12):
        self.vocab_size = vocab_size
        self.table = table
        self.config = ModelConfig(vocab_size=vocab_size, d_model=8, layers=1, heads=2,
                                  ff_dim=8, max_src_len=64, max_tgt_len=max_tgt_len)

    def encode(self, src_ids):
        return ScriptedState(src_ids)

    def _probs(self, prefix) -> np.ndarray:
        spec = self.table.get(tuple(int(t) for t in prefix))
        probs = np.full(self.vocab_size, 1e-12)
        if spec is None:
            probs[:] = 1.0
        else:
            for token, p in spec.items():
                probs[token] = p
        return probs / probs.sum()

    def logits(self, state, prefix) -> np.ndarray:
        """Next-token logits after one prefix; stubs override this hook."""
        return np.log(self._probs(prefix))

    def prefix_logits(self, state, trie, rows=None) -> np.ndarray:
        nodes = range(trie.size) if rows is None else rows
        return np.array([self.logits(state, p) for p in trie.prefixes(nodes)]).reshape(-1, self.vocab_size)

    def wave_logits(self, cache, nodes, on_pass) -> None:
        on_pass(np.arange(len(nodes)),
                np.array([self.logits(cache.contexts[c], p)
                          for c, p in zip(cache.context[nodes], cache.prefixes(nodes))]).reshape(-1, self.vocab_size))

    def param_hash(self) -> str:
        return "scripted"


def vanilla_beam_search(model, src_ids, vocab, beam_width: int, max_len: int,
                        min_len: int = 1):
    """Independent reference beam search used as the DBS degeneracy oracle."""
    from textidrec.tokenizer import EOS_ID, PAD_ID, UNK_ID

    state = model.encode(src_ids)
    beams = [((), 0.0)]
    completed = []
    for t in range(max_len):
        if not beams:
            break
        candidates = []
        for seq, score in beams:
            logp = log_softmax_rows(prefix_logits(model, state, [seq]))[0]
            for token in range(len(logp)):
                if token in (PAD_ID, UNK_ID):
                    continue
                if token == EOS_ID and len(seq) < min_len:
                    continue
                candidates.append((score + logp[token], seq, token))
        candidates.sort(key=lambda c: (-c[0], c[1] + (c[2],)))
        beams = []
        for total, seq, token in candidates[:beam_width]:
            if token == EOS_ID:
                completed.append((total, seq))
            else:
                beams.append((seq + (token,), total))
    completed.extend((score, seq) for seq, score in beams)
    completed.sort(key=lambda c: (-c[0], c[1]))
    return completed[0][1]


@pytest.fixture
def decoder_calls(monkeypatch) -> list[int]:
    """Row count of every `SequenceModel.decoder_all_logits` call made while
    the test runs."""
    calls: list[int] = []
    original = SequenceModel.decoder_all_logits

    def counted(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        calls.append(out.data.shape[0])
        return out

    monkeypatch.setattr(SequenceModel, "decoder_all_logits", counted)
    return calls


@pytest.fixture
def autograd_ops(monkeypatch) -> list[int]:
    """One-element counter of the `Tensor._op` calls (graph nodes built or
    not) made while the test runs; reset it by assigning `[0] = 0`."""
    count = [0]
    original = Tensor._op

    def counted(data, parents, backward):
        count[0] += 1
        return original(data, parents, backward)

    monkeypatch.setattr(Tensor, "_op", staticmethod(counted))
    return count


@pytest.fixture
def small_vocab() -> Vocabulary:
    return make_vocab(["red", "blue", "hat", "shoe", "green", "sock", "coat", "vest"])
