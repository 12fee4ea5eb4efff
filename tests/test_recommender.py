import math
import random

import numpy as np
import pytest

from conftest import WORDS, ScriptedModel, make_vocab, tiny_model
from textidrec.allocator import IdRegistry, TextualId
from textidrec.prompting import Prompt
from textidrec.recommender import (DeadEnd, UnknownId, build_trie, constrained_beam_search,
                                   constrained_distribution, rank_all, score_candidate,
                                   valid_next)
from textidrec.tokenizer import EOS_ID, PAD_ID


def registry_from(vocab, texts_by_key: dict[str, str]) -> IdRegistry:
    ids = {k: TextualId(tokens=tuple(vocab.encode(t)), text=t) for k, t in texts_by_key.items()}
    return IdRegistry(ids=ids, rows=())


def empty_prompt():
    return Prompt(tokens=(3,), spans=())


def test_trie_structure():
    vocab = make_vocab(["red", "blue", "hat", "shoe"])
    reg = registry_from(vocab, {"a": "red hat", "b": "red shoe", "c": "blue hat"})
    trie = build_trie(reg)
    red, blue = vocab.token_to_id["red"], vocab.token_to_id["blue"]
    hat, shoe = vocab.token_to_id["hat"], vocab.token_to_id["shoe"]
    assert valid_next(trie, []) == {red, blue}
    assert valid_next(trie, [red]) == {hat, shoe}
    assert valid_next(trie, [vocab.token_to_id["shoe"]]) == set()
    assert trie.size == 3


def test_trie_prefix_ids_coexist():
    vocab = make_vocab(["red", "hat"])
    reg = registry_from(vocab, {"short": "red", "long": "red hat"})
    trie = build_trie(reg)
    red, hat = vocab.token_to_id["red"], vocab.token_to_id["hat"]
    assert valid_next(trie, [red]) == {EOS_ID, hat}
    node = trie.node_at([red, EOS_ID])
    assert node.item_key == "short"


def test_constrained_distribution_uniform_and_single():
    vocab = make_vocab(["red", "blue", "hat"])
    reg = registry_from(vocab, {"a": "red", "b": "blue"})
    trie = build_trie(reg)
    model = ScriptedModel(vocab.size, {})  # uniform logits everywhere
    state = model.encode([3])
    dist = constrained_distribution(model, state, [], trie)
    red, blue = vocab.token_to_id["red"], vocab.token_to_id["blue"]
    assert abs(dist[red] - 0.5) < 1e-12 and abs(dist[blue] - 0.5) < 1e-12
    only = constrained_distribution(model, state, [red], trie)
    assert only == {EOS_ID: 1.0}


def test_constrained_distribution_matches_softmax_oracle():
    vocab = make_vocab(["red", "blue", "hat"])
    reg = registry_from(vocab, {"a": "red", "b": "blue", "c": "hat"})
    trie = build_trie(reg)
    rng = np.random.default_rng(3)
    fixed = rng.normal(size=vocab.size)

    class FixedLogits(ScriptedModel):
        def logits(self, state, prefix):
            return fixed

    model = FixedLogits(vocab.size, {})
    dist = constrained_distribution(model, model.encode([3]), [], trie)
    tokens = sorted(valid_next(trie, []))
    sub = np.exp(fixed[tokens] - fixed[tokens].max())
    expected = sub / sub.sum()
    for tok, p in zip(tokens, expected):
        assert abs(dist[tok] - p) < 1e-12
    # zero outside the mask, exactly
    assert dist.get(vocab.token_to_id.get("shoe", 999), 0.0) == 0.0
    assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_constrained_distribution_dead_end():
    vocab = make_vocab(["red"])
    reg = registry_from(vocab, {"a": "red"})
    trie = build_trie(reg)
    model = ScriptedModel(vocab.size, {})
    with pytest.raises(DeadEnd):
        constrained_distribution(model, model.encode([3]), [999], trie)


def test_unnormalized_mode_keeps_full_softmax_mass():
    vocab = make_vocab(["red", "blue", "hat"])
    reg = registry_from(vocab, {"a": "red", "b": "blue"})
    trie = build_trie(reg)
    model = ScriptedModel(vocab.size, {})  # uniform over vocab
    dist = constrained_distribution(model, model.encode([3]), [], trie, normalize=False)
    # each valid token keeps its unrenormalized probability 1/vocab
    assert all(abs(p - 1.0 / vocab.size) < 1e-12 for p in dist.values())
    assert sum(dist.values()) < 1.0


def test_score_candidate_degenerate_catalog_and_normalization():
    vocab = make_vocab(["red", "hat", "blue"])
    reg = registry_from(vocab, {"only": "red hat"})
    trie = build_trie(reg)
    model = tiny_model(vocab_size=vocab.size, seed=4)
    state = model.encode([3])
    score = score_candidate(model, empty_prompt(), reg.ids["only"], trie, state=state)
    assert abs(score) < 1e-12  # every step forced, probability 1


def test_scores_sum_to_one_and_match_search():
    vocab = make_vocab(WORDS[:10])
    model = tiny_model(vocab_size=vocab.size, seed=9)
    rng = random.Random(5)
    texts = {}
    while len(texts) < 8:
        t = " ".join(rng.choice(WORDS[:10]) for _ in range(rng.randint(1, 3)))
        texts.setdefault(f"k{len(texts)}", t) if t not in texts.values() else None
    reg = registry_from(vocab, texts)
    trie = build_trie(reg)
    prompt = empty_prompt()
    state = model.encode(prompt.tokens)
    total = sum(math.exp(score_candidate(model, prompt, tid, trie, state=state))
                for tid in reg.ids.values())
    assert abs(total - 1.0) < 1e-9
    ranked = rank_all(model, prompt, reg, trie)
    searched = constrained_beam_search(model, prompt, trie, beam_width=len(reg.ids),
                                       top_n=len(reg.ids))
    assert ranked == searched
    by_key = dict(searched)
    for key, tid in reg.ids.items():
        assert by_key[key] == score_candidate(model, prompt, tid, trie, state=state)


def test_score_candidate_unknown_id():
    vocab = make_vocab(["red", "blue"])
    reg = registry_from(vocab, {"a": "red"})
    trie = build_trie(reg)
    model = ScriptedModel(vocab.size, {})
    ghost = TextualId(tokens=tuple(vocab.encode("blue")), text="blue")
    with pytest.raises(UnknownId):
        score_candidate(model, empty_prompt(), ghost, trie)


def test_rank_all_is_total_and_deterministic():
    vocab = make_vocab(["red", "blue", "hat"])
    reg = registry_from(vocab, {"a": "red", "b": "blue", "c": "hat"})
    trie = build_trie(reg)
    model = tiny_model(vocab_size=vocab.size, seed=6)
    prompt = empty_prompt()
    one = rank_all(model, prompt, reg, trie)
    two = rank_all(model, prompt, reg, trie)
    assert one == two
    assert sorted(key for key, _ in one) == ["a", "b", "c"]
    scores = [s for _, s in one]
    assert scores == sorted(scores, reverse=True)


def test_rank_is_invariant_to_monotone_score_transform():
    # ranking depends only on score order; shifting all logits by a constant
    # (a monotone transform of the underlying scores) keeps the order
    vocab = make_vocab(["red", "blue", "hat"])
    reg = registry_from(vocab, {"a": "red", "b": "blue", "c": "hat"})
    trie = build_trie(reg)
    rng = np.random.default_rng(8)
    fixed = rng.normal(size=vocab.size)

    def ranking(shift):
        class FixedLogits(ScriptedModel):
            def logits(self, state, prefix):
                return fixed + shift

        model = FixedLogits(vocab.size, {})
        return [k for k, _ in rank_all(model, empty_prompt(), reg, trie)]

    assert ranking(0.0) == ranking(7.5)


def test_beam_search_tie_break_and_bounds():
    vocab = make_vocab(["red", "blue"])
    reg = registry_from(vocab, {"b_key": "blue", "a_key": "red"})
    trie = build_trie(reg)
    model = ScriptedModel(vocab.size, {})  # both IDs equally likely
    ranked = constrained_beam_search(model, empty_prompt(), trie, beam_width=2, top_n=2)
    assert [k for k, _ in ranked] == ["a_key", "b_key"]  # lexicographic on ties
    with pytest.raises(ValueError):
        constrained_beam_search(model, empty_prompt(), trie, beam_width=1, top_n=2)


def reference_rank(model, state, trie):
    """Per-node walk: one causal decoder pass per inner trie node, the
    constrained distribution renormalized over the node's children."""
    results = []
    stack = [(trie.root, (), 0.0)]
    while stack:
        node, prefix, score = stack.pop()
        logits = model.decoder_all_logits(state, (PAD_ID, *prefix)).data[-1]
        tokens = sorted(node.children)
        sub = logits[tokens]
        lse = sub.max() + math.log(np.exp(sub - sub.max()).sum())
        for token, logit in zip(tokens, sub):
            child = node.children[token]
            if token == EOS_ID:
                results.append((child.item_key, score + logit - lse))
            else:
                stack.append((child, prefix + (token,), score + logit - lse))
    results.sort(key=lambda r: (-r[1], r[0]))
    return results


@pytest.mark.parametrize("layers,heads", [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4)])
def test_rank_all_matches_per_node_reference(layers, heads):
    vocab = make_vocab(WORDS[:10])
    rng = random.Random(layers * 10 + heads)
    model = tiny_model(vocab_size=vocab.size, seed=heads, layers=layers, heads=heads)
    texts = set()
    while len(texts) < 12:
        texts.add(" ".join(rng.choice(WORDS[:10]) for _ in range(rng.randint(1, 4))))
    reg = registry_from(vocab, {f"k{i}": t for i, t in enumerate(sorted(texts))})
    trie = build_trie(reg)
    prompt = Prompt(tokens=(3, 5, 7), spans=())
    state = model.encode(prompt.tokens)
    ranked = rank_all(model, prompt, reg, trie, state=state)
    reference = reference_rank(model, state, trie)
    assert [k for k, _ in ranked] == [k for k, _ in reference]
    assert max(abs(a - b) for (_, a), (_, b) in zip(ranked, reference)) < 1e-12


def test_rank_all_is_one_decoder_pass(decoder_calls):
    vocab = make_vocab(WORDS[:10])
    model = tiny_model(vocab_size=vocab.size, seed=3)
    rng = random.Random(4)
    texts = {" ".join(rng.choice(WORDS[:10]) for _ in range(3)) for _ in range(20)}
    reg = registry_from(vocab, {f"k{i}": t for i, t in enumerate(sorted(texts))})
    trie = build_trie(reg)
    state = model.encode([3, 4])
    decoder_calls.clear()
    rank_all(model, empty_prompt(), reg, trie, state=state)
    assert len(trie.prefixes) > 20
    assert decoder_calls == [len(trie.prefixes)]


def test_constrained_sampling_soundness():
    vocab = make_vocab(WORDS[:8])
    rng = random.Random(17)
    for trial in range(10):
        model = tiny_model(vocab_size=vocab.size, seed=trial, d_model=8, heads=2, ff_dim=8)
        texts = set()
        while len(texts) < 5:
            texts.add(" ".join(rng.choice(WORDS[:8]) for _ in range(rng.randint(1, 3))))
        reg = registry_from(vocab, {f"k{i}": t for i, t in enumerate(sorted(texts))})
        trie = build_trie(reg)
        state = model.encode([3, 4])
        for _ in range(20):
            prefix: list[int] = []
            while True:
                dist = constrained_distribution(model, state, prefix, trie)
                assert abs(sum(dist.values()) - 1.0) < 1e-9
                tokens, probs = zip(*sorted(dist.items()))
                pick = rng.choices(tokens, weights=probs)[0]
                if pick == EOS_ID:
                    break
                prefix.append(pick)
            assert vocab.decode(prefix) in {t.text for t in reg.ids.values()}
