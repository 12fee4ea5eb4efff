"""Prefix-trie constrained autoregressive generation of target item IDs and
exhaustive candidate scoring for exact full-catalog ranking.

Every registered ID is stored in the trie followed by EOS, so an ID that is
a prefix of another remains unambiguous. At each decoding step the model's
logits are masked to the trie's valid continuations and renormalized over
that set (renormalization can be disabled for the masked-only variant).

The catalog trie is a `PrefixTrie` (`model.py`) of its inner nodes
(`CatalogTrie`). `prefix_logits` decodes the nodes of a PrefixTrie; one
call (tree-masked decoder passes, the only model call besides `encode`)
gives the step distribution of inner nodes, and from it one
log-probability per edge. Under renormalization a node with a single
continuation gives its edge log-probability exactly 0.0 whatever its
logits, so that call decodes only the trie's fork rows (`CatalogTrie`);
without renormalization it decodes every inner node. Ranking, beam search,
candidate scoring and single-step distributions all read that array, so
their scores agree exactly. The model's head slot is keyed on the trie and
the rows: every user ranked against the same trie and unchanged weights
after the first reuses its layout and decoder head (see `model.py`), and
only the part of the pass that reads the user's prompt runs.
"""

from __future__ import annotations

import math

import numpy as np

from .allocator import IdRegistry, TextualId
from .model import PrefixTrie
from .tokenizer import EOS_ID, PAD_ID


class DuplicateId(ValueError):
    """Two registered items share one ID token sequence."""


class DeadEnd(RuntimeError):
    """Constrained decoding reached a prefix with no valid continuation."""


class UnknownId(KeyError):
    """The candidate ID is not registered in the trie."""


class TrieNode:
    __slots__ = ("children", "item_key", "row")

    def __init__(self) -> None:
        self.children: dict[int, TrieNode] = {}
        self.item_key: str | None = None
        self.row = -1  # the edge into this node (`CatalogTrie`)


class CatalogTrie(PrefixTrie):
    """The catalog's trie, whose nodes (`PrefixTrie`) are its inner nodes:
    every proper prefix of a registered ID followed by EOS, numbered
    depth-first with children in token order, node 0 the empty prefix. Item
    `keys[i]`'s ID ends at node `ends[i]`, whose EOS step completes it.
    `root` is the same trie as `TrieNode`s, for lookup by tokens.

    Edge k < `size` is the step into node k (edge 0, into the root, takes
    none) and edge `size + i` is item i's EOS step. A `TrieNode`'s `row` is
    the edge into it, so an inner node's row is its node id.

    `forks` are the nodes whose steps renormalized ranking decodes, in node
    order: every node with two or more continuations (child tokens, or EOS
    where an ID ends), their ancestors, and always the root, so that
    parameters that make every logit NaN are still seen."""

    def __init__(self) -> None:
        super().__init__()
        self.root = TrieNode()
        self.keys: list[str] = []
        self.ends: list[int] = []
        self.forks = np.empty(0, dtype=np.int64)

    def node_at(self, prefix) -> TrieNode | None:
        node = self.root
        for token in prefix:
            node = node.children.get(int(token))
            if node is None:
                return None
        return node


def build_trie(registry: IdRegistry) -> CatalogTrie:
    """Insert every registered ID's tokens followed by EOS; the node reached
    after EOS is the terminal carrying the item key. Inner nodes are then
    added to the `PrefixTrie` depth-first, in one call, and the terminals
    numbered after them."""
    trie = CatalogTrie()
    for key, tid in registry.ids.items():
        node = trie.root
        for token in tid.tokens + (EOS_ID,):
            node = node.children.setdefault(int(token), TrieNode())
        if node.item_key is not None:
            raise DuplicateId(f"items {node.item_key!r} and {key!r} share ID {tid.text!r}")
        node.item_key = key
    terminals: list[TrieNode] = []
    parents, tokens, depths = [], [], []  # of the inner nodes, in node order
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
    fork = np.zeros(trie.size, dtype=bool)
    fork[0] = True
    up = np.flatnonzero(continuations[1:] >= 2) + 1
    while up.size:  # from the forks up, one level per step, to a marked node (the root is)
        fork[up] = True
        up = parent[up]
        up = up[~fork[up]]
    trie.forks = np.flatnonzero(fork)
    return trie


def valid_next(trie: CatalogTrie, prefix) -> set[int]:
    """Token ids that may follow `prefix`; empty if `prefix` leaves the trie."""
    node = trie.node_at(prefix)
    return set(node.children) if node is not None else set()


def _edge_logprobs(model, state, trie: CatalogTrie, normalize: bool) -> list[float]:
    """Log-probability of every edge of `trie` (`CatalogTrie`), from one
    `prefix_logits` call, renormalized over each node's valid tokens unless
    `normalize` is False. A log-probability of an edge out of a decoded
    node that is not finite is a ValueError: no ranking can order NaN
    scores.

    Renormalized, a node's only continuation has log-probability exactly
    0.0: its logit less its logit plus log(1.0). So the call decodes only
    the fork rows (`CatalogTrie.forks`), and every edge out of another node
    is 0.0, the bits a decoded row gives it when its logit is finite. Such
    an edge's logit is not looked at: an overflowed one ranks as 0.0, while
    the all-rows call would give NaN. The root is always decoded, so
    parameters that make every logit NaN are still refused. Unnormalized,
    the call decodes every node, and every edge is checked."""
    up = np.concatenate([trie.parent[1:trie.size], trie.ends])  # each edge's node
    tokens = np.concatenate([trie.token[1:trie.size], np.full(len(trie.ends), EOS_ID)])
    if normalize:
        row_of = np.full(trie.size, -1)
        row_of[trie.forks] = np.arange(len(trie.forks))
        edges = np.flatnonzero(row_of[up] >= 0)  # out of a decoded node
        rows, tokens = row_of[up[edges]], tokens[edges]
        logits = model.prefix_logits(state, trie, trie.forks)
    else:
        edges, rows = slice(None), up
        logits = model.prefix_logits(state, trie)
    picked = logits[rows, tokens]
    if normalize:
        # the log-sum-exp of each row masked to its valid tokens (the others
        # -inf), exponentiating only those: exp(-inf) is +0.0, so the dense
        # row sums are the same bits; fmax skips a NaN edge without a warning
        # and leaves it to the check below
        m = np.full(len(logits), -np.inf)
        np.fmax.at(m, rows, picked)
        e = np.zeros_like(logits)
        e[rows, tokens] = np.exp(picked - m[rows])
        lse = m + np.log(e.sum(axis=1))
    else:
        m = logits.max(axis=1, keepdims=True)
        lse = (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))[:, 0]
    lp = np.zeros(len(up))
    lp[edges] = picked - lse[rows]
    if not np.isfinite(lp).all():
        raise ValueError("the recommender's edge log-probabilities at its decoded trie nodes are not finite: "
                         "its parameters hold NaN or overflow")
    return [0.0] + lp.tolist()


def constrained_distribution(model, state, prefix, trie: CatalogTrie,
                             normalize: bool = True) -> dict[int, float]:
    """Probability of each valid next token; tokens outside the valid set
    have probability exactly 0 (absent from the map)."""
    node = trie.node_at(prefix)
    if node is None or not node.children:
        raise DeadEnd(f"no valid continuation after prefix {tuple(prefix)!r}")
    lp = _edge_logprobs(model, state, trie, normalize)
    return {token: math.exp(lp[child.row]) for token, child in sorted(node.children.items())}


def score_candidate(model, prompt, tid: TextualId, trie: CatalogTrie,
                    normalize: bool = True, state=None) -> float:
    """Teacher-forced sum of log constrained probabilities along the ID's
    path, including the EOS step."""
    if state is None:
        state = model.encode(prompt.tokens)
    path = tuple(int(t) for t in tid.tokens) + (EOS_ID,)
    terminal = trie.node_at(path)
    if terminal is None or terminal.item_key is None:
        raise UnknownId(f"ID {tid.text!r} is not registered")
    lp = _edge_logprobs(model, state, trie, normalize)
    node = trie.root
    score = 0.0
    for token in path:
        node = node.children[token]
        score += lp[node.row]
    return score


def rank_all(model, prompt, registry: IdRegistry, trie: CatalogTrie,
             normalize: bool = True, state=None) -> list[tuple[str, float]]:
    """Exact full-catalog ranking: every registered item scored, sorted by
    descending log-score with lexicographic item-key tie-break.

    Every edge's log-probability comes from one `prefix_logits` call
    (`_edge_logprobs`: the fork rows when renormalized, every inner node
    otherwise), then path scores accumulate edge by edge, parents first;
    per-step distributions are identical to score_candidate's.
    """
    if not registry.ids:
        raise ValueError("registry is empty")
    if state is None:
        state = model.encode(prompt.tokens)
    lp = _edge_logprobs(model, state, trie, normalize)
    score = lp[:trie.size]  # of each node's prefix
    for k, up in enumerate(trie.parent[1:trie.size].tolist(), 1):
        score[k] = score[up] + lp[k]
    results = [(key, score[end] + step) for key, end, step in zip(trie.keys, trie.ends, lp[trie.size:])]
    results.sort(key=lambda r: (-r[1], r[0]))
    return results


def constrained_beam_search(model, prompt, trie: CatalogTrie, beam_width: int,
                            top_n: int, normalize: bool = True,
                            state=None) -> list[tuple[str, float]]:
    """Beam search where each expansion is restricted to the trie's valid
    continuations; hypotheses complete at EOS terminals. Returns the top_n
    completed items by score, ties broken by item key."""
    if not (beam_width >= top_n >= 1):
        raise ValueError("need beam_width >= top_n >= 1")
    if not trie.keys:  # its root has no valid token to normalize over
        return []
    if state is None:
        state = model.encode(prompt.tokens)
    lp = _edge_logprobs(model, state, trie, normalize)
    beams: list[tuple[tuple[int, ...], float, TrieNode]] = [((), 0.0, trie.root)]
    completed: list[tuple[str, float]] = []
    while beams:
        candidates: list[tuple[float, tuple[int, ...], int, TrieNode]] = []
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
