"""Prefix-trie constrained autoregressive generation of target item IDs and
exhaustive candidate scoring for exact full-catalog ranking.

Every registered ID is stored in the trie followed by EOS, so an ID that is
a prefix of another remains unambiguous. At each decoding step the model's
logits are masked to the trie's valid continuations and renormalized over
that set (renormalization can be disabled for the masked-only variant).

The step distributions of all inner trie nodes come from one table, built by
one `prefix_logits` call (a single tree-masked decoder pass, the only model
call besides `encode`); ranking, beam search, candidate scoring and
single-step distributions all read that table, so their scores agree exactly.
Every user ranked against the same trie and unchanged weights after the
first reuses the trie's layout and decoder head (the model's head slot, see
`model.py`): only the part of the pass that reads the user's prompt runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocator import IdRegistry, TextualId
from .tokenizer import EOS_ID


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
        self.row = -1  # row in the step table; inner nodes only


@dataclass
class PrefixTrie:
    """The trie plus its scoring layout: `prefixes[r]` is the prefix of the
    inner node with row r (depth-first, children in token order), and edge e
    leaves row `edge_rows[e]` on token `edge_tokens[e]`."""

    root: TrieNode
    size: int
    prefixes: tuple[tuple[int, ...], ...]
    edge_rows: np.ndarray
    edge_tokens: np.ndarray

    def node_at(self, prefix) -> TrieNode | None:
        node = self.root
        for token in prefix:
            node = node.children.get(int(token))
            if node is None:
                return None
        return node


def build_trie(registry: IdRegistry) -> PrefixTrie:
    """Insert every registered ID's tokens followed by EOS; the node reached
    after EOS is the terminal carrying the item key. Inner nodes are then
    numbered depth-first for the step table."""
    root = TrieNode()
    count = 0
    for key, tid in registry.ids.items():
        node = root
        for token in tid.tokens + (EOS_ID,):
            node = node.children.setdefault(int(token), TrieNode())
        if node.item_key is not None:
            raise DuplicateId(f"items {node.item_key!r} and {key!r} share ID {tid.text!r}")
        node.item_key = key
        count += 1
    prefixes: list[tuple[int, ...]] = []
    edges: list[tuple[int, int]] = []
    stack: list[tuple[TrieNode, tuple[int, ...]]] = [(root, ())]
    while stack:
        node, prefix = stack.pop()
        if not node.children:
            continue
        node.row = len(prefixes)
        prefixes.append(prefix)
        tokens = sorted(node.children)
        edges += [(node.row, token) for token in tokens]
        stack += [(node.children[token], prefix + (token,)) for token in reversed(tokens)]
    edge_array = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return PrefixTrie(root=root, size=count, prefixes=tuple(prefixes),
                      edge_rows=edge_array[:, 0], edge_tokens=edge_array[:, 1])


def valid_next(trie: PrefixTrie, prefix) -> set[int]:
    """Token ids that may follow `prefix`; empty if `prefix` leaves the trie."""
    node = trie.node_at(prefix)
    return set(node.children) if node is not None else set()


def _step_table(model, state, trie: PrefixTrie, normalize: bool) -> list[dict[int, float]]:
    """Log-probability of each valid child token at every inner trie node,
    indexed by `TrieNode.row`: one `prefix_logits` call over the whole trie."""
    logits = model.prefix_logits(state, trie.prefixes)
    rows, tokens = trie.edge_rows, trie.edge_tokens
    if normalize:
        scope = np.full_like(logits, -np.inf)
        scope[rows, tokens] = logits[rows, tokens]
    else:
        scope = logits
    m = scope.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(scope - m).sum(axis=1, keepdims=True)))[:, 0]
    table: list[dict[int, float]] = [{} for _ in trie.prefixes]
    for row, token, lp in zip(rows.tolist(), tokens.tolist(), (logits[rows, tokens] - lse[rows]).tolist()):
        table[row][token] = lp
    return table


def constrained_distribution(model, state, prefix, trie: PrefixTrie,
                             normalize: bool = True) -> dict[int, float]:
    """Probability of each valid next token; tokens outside the valid set
    have probability exactly 0 (absent from the map)."""
    node = trie.node_at(prefix)
    if node is None or not node.children:
        raise DeadEnd(f"no valid continuation after prefix {tuple(prefix)!r}")
    step = _step_table(model, state, trie, normalize)[node.row]
    return {token: math.exp(lp) for token, lp in step.items()}


def score_candidate(model, prompt, tid: TextualId, trie: PrefixTrie,
                    normalize: bool = True, state=None) -> float:
    """Teacher-forced sum of log constrained probabilities along the ID's
    path, including the EOS step."""
    if state is None:
        state = model.encode(prompt.tokens)
    path = tuple(int(t) for t in tid.tokens) + (EOS_ID,)
    terminal = trie.node_at(path)
    if terminal is None or terminal.item_key is None:
        raise UnknownId(f"ID {tid.text!r} is not registered")
    table = _step_table(model, state, trie, normalize)
    node = trie.root
    score = 0.0
    for token in path:
        score += table[node.row][token]
        node = node.children[token]
    return score


def rank_all(model, prompt, registry: IdRegistry, trie: PrefixTrie,
             normalize: bool = True, state=None) -> list[tuple[str, float]]:
    """Exact full-catalog ranking: every registered item scored, sorted by
    descending log-score with lexicographic item-key tie-break.

    All inner nodes are scored in one tree-masked pass (`_step_table`),
    then path scores accumulate down the trie; per-step distributions are
    identical to score_candidate's.
    """
    if not registry.ids:
        raise ValueError("registry is empty")
    if state is None:
        state = model.encode(prompt.tokens)
    table = _step_table(model, state, trie, normalize)
    results: list[tuple[str, float]] = []
    stack: list[tuple[TrieNode, float]] = [(trie.root, 0.0)]
    while stack:
        node, score = stack.pop()
        for token, lp in table[node.row].items():
            child = node.children[token]
            if token == EOS_ID:
                results.append((child.item_key, score + lp))
            else:
                stack.append((child, score + lp))
    results.sort(key=lambda r: (-r[1], r[0]))
    return results


def constrained_beam_search(model, prompt, trie: PrefixTrie, beam_width: int,
                            top_n: int, normalize: bool = True,
                            state=None) -> list[tuple[str, float]]:
    """Beam search where each expansion is restricted to the trie's valid
    continuations; hypotheses complete at EOS terminals. Returns the top_n
    completed items by score, ties broken by item key."""
    if not (beam_width >= top_n >= 1):
        raise ValueError("need beam_width >= top_n >= 1")
    if state is None:
        state = model.encode(prompt.tokens)
    table = _step_table(model, state, trie, normalize)
    beams: list[tuple[tuple[int, ...], float, TrieNode]] = [((), 0.0, trie.root)]
    completed: list[tuple[str, float]] = []
    while beams:
        candidates: list[tuple[float, tuple[int, ...], int, TrieNode]] = []
        for prefix, score, node in beams:
            for token, lp in table[node.row].items():
                candidates.append((score + lp, prefix, token, node.children[token]))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        beams = []
        for total, prefix, token, child in candidates[:beam_width]:
            if token == EOS_ID:
                completed.append((child.item_key, total))
            else:
                beams.append((prefix + (token,), total, child))
    completed.sort(key=lambda r: (-r[1], r[0]))
    return completed[:top_n]
