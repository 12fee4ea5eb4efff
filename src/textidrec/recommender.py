"""Prefix-trie constrained autoregressive generation of target item IDs and
exhaustive candidate scoring for exact full-catalog ranking.

Every registered ID is stored in the trie followed by EOS, so an ID that is
a prefix of another remains unambiguous. At each decoding step the model's
logits are masked to the trie's valid continuations and renormalized over
that set (renormalization can be disabled for the masked-only variant).

The catalog trie (`CatalogTrie`) is one structure: a `PrefixTrie`
(`model.py`) of its inner nodes, plus its edges and a child index, all
arrays over integer ids. `prefix_logits` decodes the nodes of a PrefixTrie;
one call (trie decoder passes, the only model call besides `encode`)
gives the step distribution of inner nodes, and from it one
log-probability per edge. Under renormalization a node with a single
continuation gives its edge log-probability exactly 0.0 whatever its
logits, so that call asks only for the logits of the trie's fork rows
(`CatalogTrie`); their other ancestors run only as far as the keys and
values the forks read (`model.py`). Without renormalization it decodes
every inner node. The model's trie passes are batch-invariant, so a fork
row has the bits the all-rows call gives it, and the call costs what its
fork rows and their ancestors' keys and values cost, not the trie's other
nodes. Ranking, beam search, candidate scoring and single-step
distributions all read that array (the first three as path scores, summed
parents first, one depth at a time), and walk the trie by id through the
child index, so their scores agree exactly. The model's head slot is
keyed on the trie and the rows: every user ranked against the same trie
and unchanged weights after the first reuses its layout and decoder head
(see `model.py`), and only the part of the pass that reads the user's
prompt runs.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .allocator import IdRegistry, TextualId
from .model import NotFinite, PrefixTrie
from .tokenizer import EOS_ID, PAD_ID


class DuplicateId(ValueError):
    """Two registered items share one ID token sequence."""


class DeadEnd(RuntimeError):
    """Constrained decoding reached a prefix with no valid continuation."""


class UnknownId(KeyError):
    """The candidate ID is not registered in the trie."""


class CatalogTrie(PrefixTrie):
    """The catalog's trie (`build_trie`), whose nodes (`PrefixTrie`) are its
    inner nodes: every proper prefix of a registered ID followed by EOS,
    numbered depth-first with children in token order, node 0 the empty
    prefix. So among prefixes of one length, node order is lexicographic
    order. Item `keys[i]`'s ID ends at node `ends[i]`, whose EOS step
    completes it.

    Edge k < `size` is the step into node k (edge 0, into the root, takes
    none) and edge `size + i` is item i's EOS step, so an edge names the
    node or item it reaches. Edge k leaves node `edge_node[k]` by token
    `edge_token[k]` (edge 0: -1 and PAD). The child index lists the edges
    sorted by (node, token): the edges out of node or edge k are
    `child[first[k]:first[k + 1]]`, none for an item's.

    `forks` are the nodes whose step logits renormalized ranking reads, in
    node order: every node with two or more continuations (child tokens, or
    EOS where an ID ends), and always the root, so that parameters that
    make every logit NaN are still seen. The edges out of
    them are `fork_edges`, in edge order, and `fork_rows` their nodes' rows
    among the forks. `levels` holds the edges by depth, one array per depth
    from 1 down, each in edge order.

    `root` is a nested view built from these arrays when read, for callers
    that walk `children` dicts (perfbench's traced node count); the package
    itself never reads it."""

    def __init__(self, registry: IdRegistry) -> None:
        """Sort the IDs, each followed by EOS, and add the inner nodes each
        adds to the ones before it: in sorted order that is depth-first
        order with children in token order, and items sharing an ID come
        out side by side. Then record the edges, the child index and the
        fork rows."""
        super().__init__()
        self.keys: list[str] = []
        self.ends: list[int] = []
        parents, tokens, depths = [-1], [PAD_ID], [0]  # of the inner nodes, in node order
        path, last = [0], ()  # the nodes along the ID before, and its tokens
        for key, tid in sorted(registry.ids.items(), key=lambda kv: (*kv[1].tokens, EOS_ID)):
            ids = tuple(map(int, tid.tokens))
            shared = next((j for j, (a, b) in enumerate(zip(ids, last)) if a != b), min(len(ids), len(last)))
            del path[shared + 1:]
            for token in ids[shared:]:
                parents.append(path[-1])
                tokens.append(token)
                depths.append(len(path))
                path.append(len(parents) - 1)
            if self.ends and self.ends[-1] == path[-1]:
                raise DuplicateId(f"items {self.keys[-1]!r} and {key!r} share ID {tid.text!r}")
            self.keys.append(key)
            self.ends.append(path[-1])
            last = ids
        self.add(parents, tokens, depths)
        self.edge_node = np.array(parents + self.ends)
        self.edge_token = np.array(tokens + [EOS_ID] * len(self.ends))
        self.child = np.lexsort((self.edge_token[1:], self.edge_node[1:])) + 1
        self.first = np.searchsorted(self.edge_node[self.child], np.arange(len(self.edge_node) + 1))
        fork = np.diff(self.first[:self.size + 1]) >= 2
        fork[0] = True
        self.forks = np.flatnonzero(fork)
        self.fork_edges = np.flatnonzero(fork[self.edge_node[1:]]) + 1
        self.fork_rows = np.searchsorted(self.forks, self.edge_node[self.fork_edges])
        depth = np.append(self.depth[:self.size], self.depth[self.ends] + 1)
        by_depth = np.argsort(depth[1:], kind="stable") + 1
        self.levels = np.split(by_depth, np.flatnonzero(np.diff(depth[by_depth])) + 1)

    def edges_from(self, node: int) -> np.ndarray:
        """The edges out of node (or edge) `node`, in token order."""
        return self.child[self.first[node]:self.first[node + 1]]

    def node_at(self, prefix) -> int | None:
        """The edge that `prefix` ends on (its inner node, or `size + i`
        for item i's ID followed by EOS), or None off the trie."""
        node = 0
        for token in prefix:
            edges = self.edges_from(node)
            edges = edges[self.edge_token[edges] == int(token)]
            if not len(edges):
                return None
            node = int(edges[0])
        return node

    @property
    def root(self) -> SimpleNamespace:
        """The trie as nested namespaces, each with a `children` dict
        from token to namespace, built anew on every read."""
        nodes = [SimpleNamespace(children={}) for _ in self.edge_node]
        for k, (up, token) in enumerate(zip(self.edge_node[1:].tolist(), self.edge_token[1:].tolist()), 1):
            nodes[up].children[token] = nodes[k]
        return nodes[0]


def build_trie(registry: IdRegistry) -> CatalogTrie:
    """The catalog trie of every registered ID (`CatalogTrie`); two items
    sharing an ID are a `DuplicateId`."""
    return CatalogTrie(registry)


def valid_next(trie: CatalogTrie, prefix) -> set[int]:
    """Token ids that may follow `prefix`; empty if `prefix` leaves the trie."""
    node = trie.node_at(prefix)
    return set() if node is None else set(trie.edge_token[trie.edges_from(node)].tolist())


def _edge_logprobs(model, state, trie: CatalogTrie, normalize: bool) -> np.ndarray:
    """Log-probability of every edge of `trie` (`CatalogTrie`), from one
    `prefix_logits` call, renormalized over each node's valid tokens unless
    `normalize` is False. A log-probability of an edge out of a decoded
    node that is not finite is a `NotFinite` error: no ranking can order
    NaN scores.

    Renormalized, a node's only continuation has log-probability exactly
    0.0: its logit less its logit plus log(1.0). So the call asks only for
    the fork rows' logits (`CatalogTrie.forks`); their other ancestors run
    only as far as their keys and values (`SequenceModel.prefix_logits`).
    Every edge out of a node that is not a fork is 0.0, the bits a decoded
    row gives it when its logit is finite. Such an edge's logit is not
    looked at, whether or not the node is an ancestor of a fork: an
    overflowed one ranks as 0.0, while the all-rows call would give NaN.
    The root's logits are always read, so parameters that make every logit
    NaN are still refused. Unnormalized, the call decodes every node, and
    every edge is checked."""
    if normalize:
        edges, rows = trie.fork_edges, trie.fork_rows
        logits = model.prefix_logits(state, trie, trie.forks)
    else:
        edges = slice(1, None)
        rows = trie.edge_node[edges]
        logits = model.prefix_logits(state, trie)
    tokens = trie.edge_token[edges]
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
    lp = np.zeros(len(trie.edge_node))
    lp[edges] = picked - lse[rows]
    if not np.isfinite(lp).all():
        raise NotFinite("the recommender's edge log-probabilities at its decoded trie nodes are not finite: "
                        "its parameters hold NaN or overflow")
    return lp


def constrained_distribution(model, state, prefix, trie: CatalogTrie,
                             normalize: bool = True) -> dict[int, float]:
    """Probability of each valid next token; tokens outside the valid set
    have probability exactly 0 (absent from the map)."""
    node = trie.node_at(prefix)
    edges = [] if node is None else trie.edges_from(node).tolist()
    if not edges:
        raise DeadEnd(f"no valid continuation after prefix {tuple(prefix)!r}")
    lp = _edge_logprobs(model, state, trie, normalize)
    return {int(trie.edge_token[k]): math.exp(lp[k]) for k in edges}


def _path_scores(trie: CatalogTrie, lp) -> list[float]:
    """The score of every edge's path from the root, as Python floats: the
    log-probabilities `lp` of its edges summed parents first, the order in
    which a walk down the path adds them. Each depth is one add over its
    edges, after the depth above."""
    lp = np.asarray(lp)
    score = lp.copy()
    for edges in trie.levels:
        score[edges] = score[trie.edge_node[edges]] + lp[edges]
    return score.tolist()


def score_candidate(model, prompt, tid: TextualId, trie: CatalogTrie,
                    normalize: bool = True, state=None) -> float:
    """Teacher-forced sum of log constrained probabilities along the ID's
    path, including the EOS step."""
    if state is None:
        state = model.encode(prompt.tokens)
    terminal = trie.node_at(tuple(tid.tokens) + (EOS_ID,))
    if terminal is None or terminal < trie.size:
        raise UnknownId(f"ID {tid.text!r} is not registered")
    return _path_scores(trie, _edge_logprobs(model, state, trie, normalize))[terminal]


def rank_all(model, prompt, registry: IdRegistry, trie: CatalogTrie,
             normalize: bool = True, state=None) -> list[tuple[str, float]]:
    """Exact full-catalog ranking: every registered item scored, sorted by
    descending log-score with lexicographic item-key tie-break.

    Every edge's log-probability comes from one `prefix_logits` call
    (`_edge_logprobs`: the fork rows when renormalized, every inner node
    otherwise), then path scores accumulate depth by depth, parents first
    (`_path_scores`); per-step distributions are identical to
    score_candidate's.
    """
    if not registry.ids:
        raise ValueError("registry is empty")
    if state is None:
        state = model.encode(prompt.tokens)
    score = _path_scores(trie, _edge_logprobs(model, state, trie, normalize))
    return sorted(zip(trie.keys, score[trie.size:]), key=lambda r: (-r[1], r[0]))


def constrained_beam_search(model, prompt, trie: CatalogTrie, beam_width: int,
                            top_n: int, normalize: bool = True,
                            state=None) -> list[tuple[str, float]]:
    """Beam search where each expansion is restricted to the trie's valid
    continuations; hypotheses complete at EOS terminals. Returns the top_n
    completed items by score, ties broken by item key.

    Beams are node ids. A beam's score is its path score (`_path_scores`),
    which is the sum the search would add up step by step, and equal
    scores are ordered by (node, token): every beam of a step is one depth,
    where node order is prefix order."""
    if not (beam_width >= top_n >= 1):
        raise ValueError("need beam_width >= top_n >= 1")
    if not trie.keys:  # its root has no valid token to normalize over
        return []
    if state is None:
        state = model.encode(prompt.tokens)
    score = _path_scores(trie, _edge_logprobs(model, state, trie, normalize))
    up, tokens = trie.edge_node.tolist(), trie.edge_token.tolist()
    beams, completed = [0], []
    while beams:
        candidates = sorted((k for node in beams for k in trie.edges_from(node).tolist()),
                            key=lambda k: (-score[k], up[k], tokens[k]))[:beam_width]
        completed += [(trie.keys[k - trie.size], score[k]) for k in candidates if k >= trie.size]
        beams = [k for k in candidates if k < trie.size]
    completed.sort(key=lambda r: (-r[1], r[0]))
    return completed[:top_n]
