import hashlib
import importlib.util
import math
import random
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import WORDS, ScriptedModel, cold_copy, make_vocab, tiny_model
from textidrec import model as model_module
from textidrec import recommender as recommender_module
from textidrec.allocator import IdRegistry, TextualId
from textidrec.prompting import Prompt
from textidrec.recommender import (DeadEnd, DuplicateId, UnknownId, build_trie, constrained_beam_search,
                                   constrained_distribution, rank_all, score_candidate,
                                   valid_next)
from textidrec.tokenizer import EOS_ID, PAD_ID


def registry_from(vocab, texts_by_key: dict[str, str]) -> IdRegistry:
    ids = {k: TextualId(tokens=tuple(vocab.encode(t)), text=t) for k, t in texts_by_key.items()}
    return IdRegistry(ids=ids, rows=())


def empty_prompt():
    return Prompt(tokens=(3,), spans=())


class TrieNode:
    __slots__ = ("children", "item_key", "row")

    def __init__(self) -> None:
        self.children: dict[int, TrieNode] = {}
        self.item_key: str | None = None
        self.row = -1  # the edge into this node (`CatalogTrie`)


def reference_trie(registry: IdRegistry) -> model_module.PrefixTrie:
    """The catalog trie as `build_trie` built it while it kept a `TrieNode`
    dict tree beside the arrays, and the reference for them: insert every
    ID's tokens followed by EOS, then flatten the tree depth-first into the
    node arrays, the terminals numbered after the inner nodes. `root` is
    the tree, and a node's `row` the edge into it."""
    trie = model_module.PrefixTrie()
    trie.root, trie.keys, trie.ends = TrieNode(), [], []
    for key, tid in registry.ids.items():
        node = trie.root
        for token in tid.tokens + (EOS_ID,):
            node = node.children.setdefault(int(token), TrieNode())
        if node.item_key is not None:
            raise DuplicateId(f"items {node.item_key!r} and {key!r} share ID {tid.text!r}")
        node.item_key = key
    terminals: list[TrieNode] = []
    parents, tokens, depths = [], [], []
    stack: list[tuple[TrieNode, int, int, int]] = [(trie.root, -1, PAD_ID, 0)]  # (node, parent id, token, depth)
    while stack:
        node, up, token, depth = stack.pop()
        if node.item_key is not None:
            terminals.append(node)
            trie.ends.append(up)
            continue
        node.row = len(parents)
        parents.append(up)
        tokens.append(token)
        depths.append(depth)
        stack += [(node.children[t], node.row, t, depth + 1) for t in sorted(node.children, reverse=True)]
    trie.add(parents, tokens, depths)
    for i, node in enumerate(terminals):
        node.row = trie.size + i
        trie.keys.append(node.item_key)
    parent = trie.parent[:trie.size]
    continuations = (np.bincount(parent[1:], minlength=trie.size)
                     + np.bincount(np.asarray(trie.ends, dtype=np.int64), minlength=trie.size))
    fork = continuations >= 2
    fork[0] = True
    trie.forks = np.flatnonzero(fork)
    return trie


def random_catalog(rng: random.Random, tokens: list[int], n_items: int) -> IdRegistry:
    """`n_items` distinct IDs of one to four of `tokens`, drawn so that some
    are prefixes of others, under keys in random order. Every count up to
    `len(tokens) ** 4` can be drawn."""
    ids: dict[tuple[int, ...], None] = {}
    while len(ids) < n_items:
        tid = tuple(rng.choice(tokens) for _ in range(rng.randint(1, 4)))
        ids[tid[:rng.randint(1, len(tid))] if ids and rng.random() < 0.3 else tid] = None
    keys = [f"k{i}" for i in range(n_items)]
    rng.shuffle(keys)
    return IdRegistry(ids={key: TextualId(tokens=tid, text=repr(tid)) for key, tid in zip(keys, ids)}, rows=())


def test_build_trie_equals_the_dict_tree_reference():
    rng = random.Random(21)
    for trial in range(200):
        tokens = rng.sample(range(3, 40), rng.randint(1, 5))
        n_items = min(rng.choice([1, 1, 2, 5, 12, 30]), len(tokens) ** 4) if trial else 0
        registry = random_catalog(rng, tokens, n_items)
        trie, want = build_trie(registry), reference_trie(registry)
        assert trie.size == want.size and (trie.keys, trie.ends) == (want.keys, want.ends)
        for name in ("parent", "token", "depth"):
            assert np.array_equal(getattr(trie, name)[:trie.size], getattr(want, name)[:want.size]), name
        assert np.array_equal(trie.forks, want.forks)
        # the child index reaches every node and terminal by tokens, as the tree does
        stack = [(want.root, ())]
        while stack:
            node, prefix = stack.pop()
            assert trie.node_at(prefix) == node.row
            assert valid_next(trie, prefix) == set(node.children)
            stack += [(child, prefix + (token,)) for token, child in node.children.items()]
        assert trie.node_at((1, 1)) is None and trie.node_at((2,)) is None


def test_root_view_is_the_dict_tree():
    rng = random.Random(22)
    for n_items in (0, 1, 7, 25):
        registry = random_catalog(rng, [5, 6, 7], n_items)
        pairs = [(build_trie(registry).root, reference_trie(registry).root)]
        while pairs:
            view, node = pairs.pop()
            assert sorted(view.children) == sorted(node.children)
            pairs += [(view.children[t], node.children[t]) for t in node.children]


def test_a_duplicate_id_names_both_keys():
    vocab = make_vocab(["red", "blue", "hat"])
    reg = registry_from(vocab, {"a": "red hat", "b": "blue", "c": "red", "d": "red hat", "e": "red hat"})
    with pytest.raises(DuplicateId, match="items 'a' and 'd' share ID 'red hat'"):
        build_trie(reg)
    with pytest.raises(DuplicateId, match="items 'a' and 'd' share ID 'red hat'"):
        reference_trie(reg)


def test_trie_structure():
    vocab = make_vocab(["red", "blue", "hat", "shoe"])
    reg = registry_from(vocab, {"a": "red hat", "b": "red shoe", "c": "blue hat"})
    trie = build_trie(reg)
    red, blue = vocab.token_to_id["red"], vocab.token_to_id["blue"]
    hat, shoe = vocab.token_to_id["hat"], vocab.token_to_id["shoe"]
    assert valid_next(trie, []) == {red, blue}
    assert valid_next(trie, [red]) == {hat, shoe}
    assert valid_next(trie, [vocab.token_to_id["shoe"]]) == set()
    # inner nodes: the empty prefix, red, red hat, red shoe, blue, blue hat
    assert trie.size == 6 and sorted(trie.keys) == ["a", "b", "c"]
    assert trie.prefixes(trie.ends) == [reg.ids[key].tokens for key in trie.keys]
    assert [trie.node_at(p) for p in trie.prefixes(range(trie.size))] == list(range(trie.size))
    up = trie.parent[1:trie.size]
    assert trie.depth[0] == 0 and np.array_equal(trie.depth[1:trie.size], trie.depth[up] + 1)


def test_trie_prefix_ids_coexist():
    vocab = make_vocab(["red", "hat"])
    reg = registry_from(vocab, {"short": "red", "long": "red hat"})
    trie = build_trie(reg)
    red, hat = vocab.token_to_id["red"], vocab.token_to_id["hat"]
    assert valid_next(trie, [red]) == {EOS_ID, hat}
    assert trie.keys[trie.node_at([red, EOS_ID]) - trie.size] == "short"


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


def test_rank_all_refuses_scores_that_are_not_finite():
    vocab = make_vocab(["red", "blue", "hat", "cold"])
    reg = registry_from(vocab, {"a": "red", "b": "blue", "c": "hat"})
    trie = build_trie(reg)
    model = tiny_model(vocab_size=vocab.size, seed=6)
    clean = rank_all(model, empty_prompt(), reg, trie)
    # a NaN in the output embedding of a token no ID uses: only the
    # unnormalized scores sum over it
    model.params["tok_emb"][vocab.encode("cold")[0], 0] = np.nan
    assert rank_all(model, empty_prompt(), reg, trie) == clean
    with pytest.raises(ValueError, match="not finite"):
        rank_all(model, empty_prompt(), reg, trie, normalize=False)
    model.params["dec_ln_g"][0] = np.nan  # every logit
    with pytest.raises(ValueError, match="not finite"):
        rank_all(model, empty_prompt(), reg, trie)


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


def test_beam_search_over_an_empty_catalog_finds_nothing():
    model = tiny_model(vocab_size=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert constrained_beam_search(model, empty_prompt(), build_trie(IdRegistry(ids={}, rows=())), 2, 1) == []


def prefix_order_beam_search(lp, registry, beam_width, top_n):
    """`constrained_beam_search` over the edge log-probabilities `lp` as it
    ran on the `TrieNode` tree (`reference_trie`): beams hold their
    prefixes, and equal scores are ordered by (prefix, token)."""
    beams = [((), 0.0, reference_trie(registry).root)]
    completed = []
    while beams:
        candidates = []
        for prefix, score, node in beams:
            for token, child in node.children.items():
                candidates.append((score + lp[child.row], prefix, token, child))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        beams = []
        for total, prefix, token, child in candidates[:beam_width]:
            if token == EOS_ID:
                completed.append((child.item_key, total))
            else:
                beams.append((prefix + (token,), total, child))
    completed.sort(key=lambda r: (-r[1], r[0]))
    return completed[:top_n]


class RoundedLogits(ScriptedModel):
    """Random logits per prefix, seeded by it, rounded to halves so that
    many candidates tie exactly."""

    def logits(self, state, prefix):
        return np.round(2 * np.random.default_rng([*map(int, prefix), 7]).normal(size=self.vocab_size)) / 2


@pytest.mark.parametrize("normalize", [True, False])
def test_beam_search_by_node_id_breaks_ties_as_prefix_order_does(normalize):
    # nodes are numbered depth-first with children in token order, so among
    # the beams of one step node order is prefix order
    vocab = make_vocab(["red", "blue", "hat", "shoe"])
    red, blue = vocab.token_to_id["red"], vocab.token_to_id["blue"]
    exact_ties = ScriptedModel(vocab.size, {
        (): {red: 0.3, blue: 0.3, EOS_ID: 0.3},
        (red,): {EOS_ID: 0.5, blue: 0.5},
        (blue, red): {EOS_ID: 1.0},
    })
    rng = random.Random(23)
    tokens = [vocab.token_to_id[w] for w in ("red", "blue", "hat", "shoe")]
    compared = 0
    for model in (exact_ties, RoundedLogits(vocab.size, {})):
        for n_items in (1, 2, 6, 15, 40):
            registry = random_catalog(rng, tokens, n_items)
            trie = build_trie(registry)
            lp = recommender_module._edge_logprobs(model, model.encode([3]), trie, normalize)
            for beam_width in sorted({1, 2, 3, n_items // 2 + 1, n_items}):
                got = constrained_beam_search(model, empty_prompt(), trie, beam_width, beam_width, normalize)
                want = prefix_order_beam_search(lp, registry, beam_width, beam_width)
                assert [(key, score.hex()) for key, score in got] == [(key, score.hex()) for key, score in want]
                compared += 1
    assert compared > 30


def reference_rank(model, state, registry):
    """Per-node walk of the reference tree (`reference_trie`): one causal
    decoder pass per inner trie node, the constrained distribution
    renormalized over the node's children."""
    results = []
    stack = [(reference_trie(registry).root, (), 0.0)]
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
    reference = reference_rank(model, state, reg)
    assert [k for k, _ in ranked] == [k for k, _ in reference]
    assert max(abs(a - b) for (_, a), (_, b) in zip(ranked, reference)) < 1e-12


def dense_edge_logprobs(model, state, trie, normalize):
    """The per-edge log-probabilities with every row's log-sum-exp taken over
    the whole row, invalid tokens set to -inf: the reference for the bits of
    `_edge_logprobs`, which exponentiates only the valid entries."""
    logits = model.prefix_logits(state, trie)
    rows = np.concatenate([trie.parent[1:trie.size], trie.ends])
    tokens = np.concatenate([trie.token[1:trie.size], np.full(len(trie.ends), EOS_ID)])
    scope = logits
    if normalize:
        scope = np.full_like(logits, -np.inf)
        scope[rows, tokens] = logits[rows, tokens]
    m = scope.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(scope - m).sum(axis=1, keepdims=True)))[:, 0]
    return [0.0] + (logits[rows, tokens] - lse[rows]).tolist()


@pytest.mark.parametrize("normalize", [True, False])
def test_edge_logprobs_keep_the_dense_bits(normalize):
    vocab = make_vocab(WORDS[:10])
    model = tiny_model(vocab_size=vocab.size, seed=8, layers=2)
    rng = random.Random(9)
    texts = {" ".join(rng.choice(WORDS[:10]) for _ in range(rng.randint(1, 4))) for _ in range(25)}
    trie = build_trie(registry_from(vocab, {f"k{i}": t for i, t in enumerate(sorted(texts))}))
    for source in ([3, 5, 7], []):
        state = model.encode(source)
        got = recommender_module._edge_logprobs(model, state, trie, normalize)
        want = dense_edge_logprobs(model, state, trie, normalize)
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_trie_fork_rows():
    vocab = make_vocab(["red", "blue", "hat", "shoe"])
    red, hat = vocab.token_to_id["red"], vocab.token_to_id["hat"]
    # the root and "red" have two continuations each; "red hat" has EOS and "shoe"
    trie = build_trie(registry_from(vocab, {"a": "red hat", "b": "red shoe", "c": "blue hat shoe",
                                            "d": "red hat shoe"}))
    assert [trie.prefixes([node])[0] for node in trie.forks] == [(), (red,), (red, hat)]
    # an ID that ends where another goes on makes a fork; one item makes none but the root
    trie = build_trie(registry_from(vocab, {"a": "red", "b": "red hat shoe"}))
    assert [trie.prefixes([node])[0] for node in trie.forks] == [(), (red,)]
    assert build_trie(registry_from(vocab, {"a": "red hat shoe"})).forks.tolist() == [0]
    assert build_trie(IdRegistry(ids={}, rows=())).forks.tolist() == [0]


def catalog_of(vocab, rng: random.Random, n_items: int) -> IdRegistry:
    texts = set()
    while len(texts) < n_items:
        texts.add(" ".join(rng.choice(WORDS[:10]) for _ in range(rng.randint(1, 4))))
    return registry_from(vocab, {f"k{i}": t for i, t in enumerate(sorted(texts))})


@pytest.mark.parametrize("layers,n_items,block_rows", [(1, 1, 512), (2, 12, 512), (1, 40, 512), (2, 40, 8)])
def test_renormalized_scorers_give_the_all_rows_bytes(monkeypatch, layers, n_items, block_rows):
    # every scorer reads the fork rows only; with `_edge_logprobs` swapped
    # for the reference that decodes every row, the bytes are the same
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", block_rows)
    vocab = make_vocab(WORDS[:10])
    model = tiny_model(vocab_size=vocab.size, seed=layers + n_items, layers=layers)
    reg = catalog_of(vocab, random.Random(n_items), n_items)
    trie = build_trie(reg)
    assert len(trie.forks) < trie.size

    def outputs() -> str:
        out = []
        for prompt in (Prompt(tokens=(3, 5, 7), spans=()), empty_prompt()):
            state = model.encode(prompt.tokens)
            out.append(rank_all(model, prompt, reg, trie, state=state))
            out.append([score_candidate(model, prompt, tid, trie, state=state) for tid in reg.ids.values()])
            out += [constrained_distribution(model, state, tid.tokens[:k], trie)
                    for tid in reg.ids.values() for k in range(len(tid.tokens) + 1)]
            out.append(constrained_beam_search(model, prompt, trie, 4, 3, state=state))
        return repr(out)  # a float's repr round-trips its bits

    got = outputs()
    monkeypatch.setattr(recommender_module, "_edge_logprobs",
                        lambda m, state, trie, normalize: dense_edge_logprobs(m, state, trie, normalize))
    assert got == outputs()


def test_an_only_continuation_has_log_probability_zero_in_the_all_rows_path():
    vocab = make_vocab(WORDS[:10])
    model = tiny_model(vocab_size=vocab.size, seed=2, layers=2)
    rng = random.Random(3)
    for n_items in (1, 2, 15, 40):
        trie = build_trie(catalog_of(vocab, rng, n_items))
        up = np.concatenate([trie.parent[1:trie.size], trie.ends])  # each edge's node
        continuations = np.bincount(up, minlength=trie.size)
        assert not np.isin(np.flatnonzero(continuations >= 2), trie.forks, invert=True).any()
        only = np.flatnonzero(continuations[up] == 1)
        assert len(only)
        for source in ([3, 5, 7], []):
            lp = dense_edge_logprobs(model, model.encode(source), trie, True)[1:]
            assert {lp[e].hex() for e in only} == {(0.0).hex()}


def test_an_overflowed_logit_on_an_only_continuation_is_not_looked_at_renormalized():
    # renormalized, an edge out of a node with one continuation is 0.0
    # without its logits being decoded; unnormalized, every edge is checked
    vocab = make_vocab(["red", "blue", "hat"])
    reg = registry_from(vocab, {"a": "red hat", "b": "blue"})
    trie = build_trie(reg)
    red, hat = vocab.encode("red")[0], vocab.encode("hat")[0]
    assert trie.node_at((red,)) not in trie.forks

    class Overflowed(ScriptedModel):
        def logits(self, state, prefix):
            out = super().logits(state, prefix)
            if tuple(prefix) == (red,):
                out[hat] = np.inf
            return out

    ranked = rank_all(Overflowed(vocab.size, {}), empty_prompt(), reg, trie)
    assert ranked == rank_all(ScriptedModel(vocab.size, {}), empty_prompt(), reg, trie)
    with pytest.raises(ValueError, match="not finite"), np.errstate(invalid="ignore"):
        rank_all(Overflowed(vocab.size, {}), empty_prompt(), reg, trie, normalize=False)


@pytest.mark.parametrize("name", ["dec_ln_g", "dec0_ff_w1", "enc0_self_wq"])
def test_a_one_item_catalog_still_refuses_nan_parameters(name):
    vocab = make_vocab(["red", "hat", "shoe"])
    reg = registry_from(vocab, {"a": "red hat shoe"})
    trie = build_trie(reg)
    model = tiny_model(vocab_size=vocab.size, seed=4)
    prompt = Prompt(tokens=(3, 4), spans=())
    assert rank_all(model, prompt, reg, trie) == [("a", 0.0)]
    model.params[name].reshape(-1)[0] = np.nan
    for score in (lambda: rank_all(model, prompt, reg, trie),
                  lambda: score_candidate(model, prompt, reg.ids["a"], trie),
                  lambda: constrained_distribution(model, model.encode(prompt.tokens), (), trie),
                  lambda: constrained_beam_search(model, prompt, trie, 2, 1)):
        with pytest.raises(ValueError, match="not finite"):
            score()


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
    assert trie.size > 20 and 1 < len(trie.forks) < trie.size
    assert decoder_calls == [len(trie.forks)]  # renormalized: the fork rows only
    decoder_calls.clear()
    rank_all(model, empty_prompt(), reg, trie, normalize=False, state=state)
    assert decoder_calls == [trie.size]


@pytest.mark.parametrize("layers,block_rows", [(1, 512), (2, 512), (1, 8), (2, 8)])
def test_ranking_runs_ancestor_only_rows_only_to_their_keys_and_values(monkeypatch, layers, block_rows):
    # renormalized ranking returns the root's and the forks' logits; their
    # other ancestors run only the products their descendants read: at the
    # last layer, the self-attention keys and values
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", block_rows)
    vocab = make_vocab(WORDS[:10])
    model = tiny_model(vocab_size=vocab.size, seed=8, layers=layers)
    rng = random.Random(9)
    texts = {" ".join(rng.choice(WORDS[:4]) for _ in range(3)) + " " + rng.choice(WORDS[4:10]) for _ in range(12)}
    texts |= {" ".join([WORDS[9]] * 8 + [end]) for end in WORDS[:2]}  # seven ancestor-only nodes in a row
    reg = registry_from(vocab, {f"k{i}": t for i, t in enumerate(sorted(texts))})
    trie = build_trie(reg)
    continuations = np.bincount(np.concatenate([trie.parent[1:trie.size], trie.ends]), minlength=trie.size)
    wanted = np.union1d([0], np.flatnonzero(continuations >= 2))
    decoded = np.zeros(trie.size, dtype=bool)
    for node in wanted.tolist():
        while node >= 0:
            decoded[node], node = True, int(trie.parent[node])
    assert np.array_equal(trie.forks, wanted) and len(wanted) < decoded.sum() < trie.size
    name_at = {array.ctypes.data: name for name, array in model.params.items()}
    seen: list[tuple[str | None, int]] = []  # (weight, rows) of every product of a trie pass

    def product(a, b):
        seen.append((name_at.get(b.ctypes.data), a.shape[-2]))
        return model_module._rowwise(a, b)

    monkeypatch.setattr(model_module._TriePass, "product", staticmethod(product))
    last = f"dec{layers - 1}"
    keys_and_values = (f"{last}_self_wk", f"{last}_self_wv")

    def rows_of(name: str) -> int:  # every decoded row before the last layer and in its keys and values
        return decoded.sum() if not name.startswith((last, "tok_emb")) or name in keys_and_values else len(wanted)

    for src, hit in (([3, 4], False), ([5], True), ([], True)):
        seen.clear()
        state = model.encode(src)
        ranked = rank_all(model, empty_prompt(), reg, trie, state=state)
        rows = Counter()
        for name, n in seen:
            rows[name] += n
        del rows[None]
        assert rows == {name: rows_of(name) for name in rows}
        assert f"{last}_cross_wq" in rows or not src
        assert rows["tok_emb"] == len(wanted) and len(model._head_slot.head) == decoded.sum()
        if hit and layers == 1:  # of an ancestor-only row only the head was kept, and nothing runs
            assert "dec0_self_wk" not in rows and 0 not in {n for _, n in seen}
        assert ranked == rank_all(cold_copy(model), empty_prompt(), reg, trie, state=state)
    assert block_rows > 8 or any(not len(p.wanted) for p in model._head_slot.passes)


def test_scorers_after_rank_all_equal_their_cold_results():
    # rank_all fills the model's head slot for the trie; the other scorers
    # then read it, and must give what a model without one gives
    vocab = make_vocab(WORDS[:10])
    model = tiny_model(vocab_size=vocab.size, seed=5, layers=2)
    rng = random.Random(6)
    texts = {" ".join(rng.choice(WORDS[:10]) for _ in range(rng.randint(1, 4))) for _ in range(15)}
    reg = registry_from(vocab, {f"k{i}": t for i, t in enumerate(sorted(texts))})
    trie = build_trie(reg)
    tid = reg.ids["k3"]
    prompts = [Prompt(tokens=(3, 5, 7), spans=()), Prompt(tokens=(4, 4), spans=()), empty_prompt()]

    def scores(m, prompt):
        return (score_candidate(m, prompt, tid, trie),
                constrained_distribution(m, m.encode(prompt.tokens), tid.tokens[:1], trie),
                constrained_distribution(m, m.encode(prompt.tokens), (), trie, normalize=False),
                constrained_beam_search(m, prompt, trie, beam_width=4, top_n=3))

    for prompt in prompts:
        rank_all(model, prompt, reg, trie)
        warm = scores(model, prompt)
        assert warm == scores(cold_copy(model), prompt)
        assert rank_all(model, prompt, reg, trie) == rank_all(cold_copy(model), prompt, reg, trie)


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


# Recorded when trie passes became batch-invariant, so that a last-bit
# change in ranking fails here and not only in the benchmark's digests: per
# (generator layers, rows per `prefix_logits` pass), a digest of `rank_all`
# (keys and score bytes) for three prompts, a beam search, every item's
# `score_candidate` and the distributions at the root and one inner node,
# with and without renormalization, on one small catalog. Eight rows per
# pass split its trie into several passes.
PINNED_RANKINGS = {
    (1, 512): "817bfc63ff72908b60f5e4eb45b80365f5243c0885e3e12209c23884ffeb156a",
    (2, 512): "c22f59dde5a49f0921082abea85ef4a98bf37cf840cc88d05ca3de0c28296f4c",
    (1, 8): "817bfc63ff72908b60f5e4eb45b80365f5243c0885e3e12209c23884ffeb156a",
    (2, 8): "c22f59dde5a49f0921082abea85ef4a98bf37cf840cc88d05ca3de0c28296f4c",
}


@pytest.mark.parametrize("layers,block_rows", list(PINNED_RANKINGS))
def test_ranking_keeps_its_pinned_bits(monkeypatch, layers, block_rows):
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", block_rows)
    vocab = make_vocab(WORDS[:10])
    model = tiny_model(vocab_size=vocab.size, seed=7, layers=layers)
    rng = random.Random(11)
    texts = {" ".join(rng.choice(WORDS[:10]) for _ in range(rng.randint(1, 4))) for _ in range(14)}
    reg = registry_from(vocab, {f"k{i}": t for i, t in enumerate(sorted(texts))})
    trie = build_trie(reg)
    inner = reg.ids["k0"].tokens[:1]
    digest = hashlib.sha256()

    def feed(value) -> None:
        digest.update(repr(value).encode())

    for prompt in (Prompt(tokens=(3, 5, 7), spans=()), Prompt(tokens=(4, 4), spans=()), empty_prompt()):
        state = model.encode(prompt.tokens)
        for normalize in (True, False):
            feed([(key, score.hex()) for key, score in rank_all(model, prompt, reg, trie, normalize, state)])
            feed([(key, score.hex()) for key, score in
                  constrained_beam_search(model, prompt, trie, 4, 3, normalize, state)])
            feed([score_candidate(model, prompt, tid, trie, normalize, state).hex() for tid in reg.ids.values()])
            for prefix in ((), inner):
                feed(sorted((token, p.hex()) for token, p in
                            constrained_distribution(model, state, prefix, trie, normalize).items()))
    assert digest.hexdigest() == PINNED_RANKINGS[layers, block_rows]


def test_perfbench_counts_the_catalog_tries_nodes():
    # perfbench's traced mode reports `recommender.trie_inner_nodes` by
    # walking `trie.root` (`inner_nodes` in perfbench/tracing.py)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    vocab = make_vocab(WORDS[:10])
    rng = random.Random(12)
    for n_items in (1, 5, 30):
        texts = set()
        while len(texts) < n_items:
            texts.add(" ".join(rng.choice(WORDS[:10]) for _ in range(rng.randint(1, 5))))
        trie = build_trie(registry_from(vocab, {f"k{i}": t for i, t in enumerate(sorted(texts))}))
        assert tracing.inner_nodes(trie) == trie.size
