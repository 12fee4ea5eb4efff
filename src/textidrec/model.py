"""Small trainable encoder-decoder sequence model with exact reverse-mode
gradients, instantiated both as the ID generator and as the base recommender.

Pre-norm transformer blocks, learned positional embeddings, and an output
projection tied to the token embedding table. All math is float64; the same
forward code runs training (trainable parameter wrappers) and inference
(frozen wrappers, no graph construction). Each attention block (all heads
in one batched matmul), each feed-forward block and each layer norm is one
graph node, so a pass builds few nodes whatever the head count.

The decoder runs over a forest of rows: each row sits at position = depth
and attends only to its ancestors. One core, `decoder_all_logits`, runs
every decoder pass: embeddings, then per layer three pre-norm blocks
(self-attention, cross-attention, feed-forward), then the tied projection.
What depends on how the rows are laid out it asks of a layout object,
defined beside the code that owns it, which states its own contract:
`_Forest` for teacher forcing (`sequence_nll`, `packed_logits`),
`_TriePass` for a block of a prefix trie scored against the context rows
that `encode` returns (`prefix_logits`, ranking), and `_WavePass` for the
new nodes of searches that advance in lockstep, each against its own
context (`wave_logits`). Callers use five model members: `config`,
`encode`, `prefix_logits` (ranking), `wave_logits` (beam search) and
`param_hash`.

A `PrefixTrie` names token prefixes by integer node ids, parents before
their children. `prefix_logits` decodes the nodes of a `PrefixTrie`, in
node order, in passes over blocks of at most `_PREFIX_BLOCK_ROWS` node ids
(`_TriePass`); given `rows`, the nodes whose logits the caller reads, it
decodes only those and their ancestors, and a block without one runs no
pass. A row attends to itself and its ancestors, whose self-attention keys
and values each pass leaves in a store of the call's. So an ancestor that
is not given runs only as far as those keys and values: the layers before
the last in full, then the last layer's layer norm and key and value
products, as an incremental decoder keeps of a prefix only its keys and
values (arXiv:1911.02150). The trie layout is batch-invariant: a row's
logits depend only on its prefix, the context and the parameters, not on
which other rows share its call, its pass or its block. So the call over
some rows gives each the bits of the call over every node.
Every product of rows is a stack of one-row products, self-attention
scores, normalizes and sums only each row's own (row, ancestor) pairs,
root first, and everything else is row-wise; a row's bits thus rest on
numpy running a one-row product, a reduction over a row's last axis and a
`reduceat` run the same way whatever their neighbours, which the tests
check on random configs, tries and row sets. The context enters the decoder
only at layer 0's cross-attention, so what a pass computes before it (its
head: the embeddings and layer 0's self-attention block) is the same for
every context. Each model keeps one head slot, which `prefix_logits` reads
or fills and nothing else touches. The slot holds the trie of the call that
filled it and that call's plan (per pass: the rows it decodes, their token
ids and depths, each row's (row, ancestor) pairs, and which rows it
returns, with their pairs alone) and each decoded row after layer 0's
self-attention block (at one layer, each given row: a hit then runs nothing
for the other rows). The slot is keyed on the trie and the rows: a later
call reuses it when it is keyed the same, by the config,
`_PREFIX_BLOCK_ROWS`, the trie itself (by identity; nodes are only
appended, so its node count says whether it grew), the bytes of `rows`
(None for every node), and when the raw bytes of every `_HEAD_PARAMS` array
equal the bytes the slot keeps of them: its passes then start at layer 0's
cross-attention and give the same bits. Any other call recomputes and,
unless it raises, replaces the slot. At the default config a 143-node
trie's slot is about 0.26 MB, and that of its 10 fork rows (ranking;
`recommender.py`), whose passes decode 23 rows, about 0.18 MB, most of it
the kept head weights.

`wave_logits` decodes nodes of a `DecodeCache`: a `PrefixTrie` whose roots
each carry a context and whose nodes keep their decoder state for the life
of the cache. Searches that advance in lockstep ask for their beams' nodes,
as an int array, once each node's parent is decoded. The cache keeps what
a pass would otherwise project again, as incremental decoders keep the
keys and values of the prefix already decoded (arXiv:1911.02150):
- per (token, depth) pair, in its layer-0 table: the layer-0 self-attention
  input, the layer-normed sum of the pair's token and position embeddings
  (it depends on nothing else), and its keys and values;
- per decoded node: its self-attention keys and values at every layer after
  the first (none for a one-layer model).
A call first computes the table entries it lacks, then decodes its nodes by
depth, in passes of at most `_WAVE_KEY_FLOATS` gathered key floats (rows
times depth + 1 times d_model). A row of a pass (`_WavePass`) attends to
its ancestor chain, whose keys and values come from the cache, and to its
own context, in one batch of the pass's contexts padded to the longest. A
pass thus costs its rows times their depth plus the longest context among
them, whatever else the cache holds. What passes share is laid out once:
per depth level, its rows' ancestor chains and their table entries; per
call, its contexts back to back behind one zero row. A pass takes its
slices of these and finds its contexts as runs of its rows, which are
sorted by context.

Outside the trie layout, whether a product's rows get the same bits
whatever the other rows depends on the BLAS and on the product's shape.
Measured with OpenBLAS 0.3.31 (SkylakeX kernels) and numpy 2.4.6, a 2-D
product of two or more rows whose C-contiguous right operand is a multiple
of 8 wide gives a row the same bits whatever the other rows and however
many (no mismatch in 4 000 random row subsets, up to 520 rows); widths 1 to
3 past a multiple of 8, batched products and a transposed right operand do
not, and a one-row product runs another kernel and rounds otherwise.

The kept keys and values of `wave_logits` have the bits a pass's own
products would give where the 2-D case above holds (at a `d_model` that
is a multiple of 8). Each is projected once in a product of at least two rows
(`_projected` pads a lone row), as every ancestor chain of two or more rows
was; a depth-0 row, whose chain is itself alone, attends through one-row
products of its input.

Which other rows share a wave pass does move a row's bits, in the last
place, through three figures of the pass: whether it has one row (the
feed-forward blocks and the output projection are then one-row products),
whether some context has two or more of its rows (if none, the
cross-attention's query and output products are one-row products), and its
longest context (a shorter context is padded to it, and scores, sums and
products over more keys round otherwise; contexts of one token are
projected by one-row products when no context in the pass is longer).
Passes that agree on all three give a row the same bits. A node keeps the
state of the pass that first decoded it, so a later wave reads the same
state whatever it decodes; but a node's bits, and so a search's, can depend
on which wave decoded it first.

`packed_logits` runs several teacher-forced (source, decoder input) pairs
as one pass: the sources back to back as segments of one `encode`, each
restarting at position 0 and attending only within itself, and the decoder
inputs as a forest of chains whose cross-attention is masked to their own
segment (`_Forest`). The generator phase of training runs every ID span
of an example that way.

There is one parameter layout: `_views` lays a model's parameters out back
to back in one float64 buffer and `AdamState`'s moments in two buffers like
it, so an Adam step is a few in-place numpy passes over whole buffers.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import zipfile
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .autograd import Tensor, concat, gelu, softmax
from .tokenizer import EOS_ID, PAD_ID


class SequenceTooLong(ValueError):
    """Input length exceeds the configured positional table."""


class ShapeMismatch(ValueError):
    """Gradient shapes do not match the parameters they update."""


class VocabularyMismatch(ValueError):
    """A checkpoint was trained against a different vocabulary."""


class NotFinite(ValueError):
    """A model's scores are not finite: its parameters hold NaN or overflow."""


CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    layers: int = 2
    heads: int = 4
    ff_dim: int = 128
    max_src_len: int = 256
    max_tgt_len: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("vocab_size", "d_model", "layers", "heads", "ff_dim", "max_src_len", "max_tgt_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if self.seed < 0:  # numpy's generator rejects it, without naming the input
            raise ValueError("seed must be >= 0")


def _attention_names(prefix: str) -> list[str]:
    return [f"{prefix}_w{x}" for x in ("q", "k", "v", "o")]


def _param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    d, ff = cfg.d_model, cfg.ff_dim
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (cfg.vocab_size, d)),
        ("src_pos", (cfg.max_src_len, d)),
        ("tgt_pos", (cfg.max_tgt_len, d)),
    ]
    for i in range(cfg.layers):
        shapes += [(f"enc{i}_ln1_g", (d,)), (f"enc{i}_ln1_b", (d,))]
        shapes += [(name, (d, d)) for name in _attention_names(f"enc{i}_self")]
        shapes += [(f"enc{i}_ln2_g", (d,)), (f"enc{i}_ln2_b", (d,))]
        shapes += [(f"enc{i}_ff_w1", (d, ff)), (f"enc{i}_ff_b1", (ff,)),
                   (f"enc{i}_ff_w2", (ff, d)), (f"enc{i}_ff_b2", (d,))]
    shapes += [("enc_ln_g", (d,)), ("enc_ln_b", (d,))]
    for i in range(cfg.layers):
        shapes += [(f"dec{i}_ln1_g", (d,)), (f"dec{i}_ln1_b", (d,))]
        shapes += [(name, (d, d)) for name in _attention_names(f"dec{i}_self")]
        shapes += [(f"dec{i}_ln2_g", (d,)), (f"dec{i}_ln2_b", (d,))]
        shapes += [(name, (d, d)) for name in _attention_names(f"dec{i}_cross")]
        shapes += [(f"dec{i}_ln3_g", (d,)), (f"dec{i}_ln3_b", (d,))]
        shapes += [(f"dec{i}_ff_w1", (d, ff)), (f"dec{i}_ff_b1", (ff,)),
                   (f"dec{i}_ff_w2", (ff, d)), (f"dec{i}_ff_b2", (d,))]
    shapes += [("dec_ln_g", (d,)), ("dec_ln_b", (d,))]
    return shapes


def _attention(pt: dict[str, Tensor], prefix: str, q_in: Tensor,
               kv_in: Tensor | tuple[np.ndarray, np.ndarray],
               heads: int, mask: np.ndarray | None = None, mm=operator.matmul) -> Tensor:
    """Multi-head attention as one graph node, all heads in one batched
    matmul over (heads, rows, dh) views of the projections. Inputs may carry
    leading batch axes, (..., rows, d) and (..., keys, d): each batch entry
    attends only to its own keys, and `mask` broadcasts onto the
    (..., heads, rows, keys) scores. `kv_in` may instead be the (keys,
    values) pair it projects to, two C-contiguous (..., keys, d) arrays,
    whose products are then skipped (inference only: a gradient cannot
    reach them, so no input or weight may require one). `mm` runs every product of the query rows: a layout's
    `product` (`_TriePass`), or matmul.

    Forward and backward run the numpy expressions, array layouts and
    requires_grad skips of the op chain it stands for (projections, scaled
    per-head scores plus mask, softmax, weighted values, output
    projection), so values and gradients are that chain's bits; the softmax
    runs in place on the one scores array. The inputs get their
    contributions in the chain's order: Q, then K, then V."""
    wq, wk, wv, wo = (pt[name] for name in _attention_names(prefix))
    *lead, rows, _ = q_in.data.shape
    width = wq.data.shape[1]
    if isinstance(kv_in, tuple):
        if q_in.requires_grad or any(w.requires_grad for w in (wq, wk, wv, wo)):
            raise ValueError("projected keys and values carry no gradient")
        k_proj, v_proj = kv_in
        kv_in = q_in  # a stand-in parent: nothing here requires a gradient
    else:
        k_proj, v_proj = kv_in.data @ wk.data, kv_in.data @ wv.data
    keys, dh = k_proj.shape[-2], width // heads
    scale = 1.0 / math.sqrt(dh)
    q = mm(q_in.data, wq.data).reshape(*lead, rows, heads, dh).swapaxes(-2, -3)
    k_t = k_proj.swapaxes(-1, -2).reshape(*lead, heads, dh, keys)
    v = v_proj.reshape(*lead, keys, heads, dh).swapaxes(-2, -3)
    probs = mm(q, k_t)  # then `autograd.softmax` of `scores * scale + mask`, in place
    probs *= scale
    if mask is not None:
        probs += mask
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    joined = mm(probs, v).swapaxes(-2, -3).reshape(*lead, rows, width)

    def bw(g):
        need_q = q_in.requires_grad or wq.requires_grad
        need_k = kv_in.requires_grad or wk.requires_grad
        need_v = kv_in.requires_grad or wv.requires_grad
        if wo.requires_grad:
            wo._accum(joined.swapaxes(-1, -2) @ g)
        if not (need_q or need_k or need_v):
            return
        g_heads = (g @ wo.data.swapaxes(-1, -2)).reshape(*lead, rows, heads, dh).swapaxes(-2, -3)
        if need_q or need_k:
            g_probs = g_heads @ v.swapaxes(-1, -2)  # through `autograd.softmax`'s VJP
            g_scores = (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True)) * probs * scale
        if need_q:
            g_q = (g_scores @ k_t.swapaxes(-1, -2)).swapaxes(-2, -3).reshape(*lead, rows, width)
            if q_in.requires_grad:
                q_in._accum(g_q @ wq.data.swapaxes(-1, -2))
            if wq.requires_grad:
                wq._accum(q_in.data.swapaxes(-1, -2) @ g_q)
        if need_k:
            g_k = (q.swapaxes(-1, -2) @ g_scores).reshape(*lead, width, keys).swapaxes(-1, -2)
            if kv_in.requires_grad:
                kv_in._accum(g_k @ wk.data.swapaxes(-1, -2))
            if wk.requires_grad:
                wk._accum(kv_in.data.swapaxes(-1, -2) @ g_k)
        if need_v:
            g_v = (probs.swapaxes(-1, -2) @ g_heads).swapaxes(-2, -3).reshape(*lead, keys, width)
            if kv_in.requires_grad:
                kv_in._accum(g_v @ wv.data.swapaxes(-1, -2))
            if wv.requires_grad:
                wv._accum(kv_in.data.swapaxes(-1, -2) @ g_v)
    return Tensor._op(mm(joined, wo.data), (q_in, kv_in, wq, wk, wv, wo), bw)


def _feed_forward(pt: dict[str, Tensor], prefix: str, x: Tensor, mm=operator.matmul) -> Tensor:
    """`gelu(x @ w1 + b1) @ w2 + b2` as one graph node that runs the numpy
    expressions of that op chain, forward and backward; `mm` runs both
    products of the rows, as in `_attention`."""
    w1, b1, w2, b2 = (pt[f"{prefix}_{name}"] for name in ("w1", "b1", "w2", "b2"))
    pre = mm(x.data, w1.data)
    pre += b1.data
    hidden, gelu_vjp = gelu(pre)

    def bw(g):
        if b2.requires_grad:
            b2._accum(g)
        if w2.requires_grad:
            w2._accum(hidden.swapaxes(-1, -2) @ g)
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        g_pre = gelu_vjp(g @ w2.data.swapaxes(-1, -2))
        if b1.requires_grad:
            b1._accum(g_pre)
        if x.requires_grad:
            x._accum(g_pre @ w1.data.swapaxes(-1, -2))
        if w1.requires_grad:
            w1._accum(x.data.swapaxes(-1, -2) @ g_pre)
    out = mm(hidden, w2.data)
    out += b2.data
    return Tensor._op(out, (x, w1, b1, w2, b2), bw)


# Rows per decoder pass in `prefix_logits`: bounds the (rows x rows)
# attention matrices while large tries still take few passes.
_PREFIX_BLOCK_ROWS = 512

# Gathered self-attention key floats per decoder pass in `wave_logits`:
# rows times (depth + 1) times d_model. A layer's keys and values then take
# at most 1.5 MiB at any depth: at d_model 32, 128 rows at the deepest
# position of the default max_tgt_len (24), and many more at shallow depths.
# With `_WAVE_LOGITS` it bounds the arrays a pass gathers and returns, which
# set the peak memory of a wave.
_WAVE_KEY_FLOATS = 128 * 24 * 32

# Logits per decoder pass in `wave_logits`, rows times vocabulary size: at
# the default maximum vocabulary (8192) a pass keeps 128 rows at any depth.
_WAVE_LOGITS = 128 * 8192

# The parameters a decoder pass reads before layer 0's cross-attention.
_HEAD_PARAMS = ("tok_emb", "tgt_pos", "dec0_ln1_g", "dec0_ln1_b", *_attention_names("dec0_self"))


@dataclass
class _HeadSlot:
    """The user-independent head of one `prefix_logits` call (see the module
    doc). `key` is (config, `_PREFIX_BLOCK_ROWS`, trie, its size, the bytes
    of the given nodes or None for all); `weights` the bytes of each
    `_HEAD_PARAMS` array as the filling call read it; `passes` the call's
    plan (`_trie_passes`); `order` the place of each given node among the
    wanted ones, in node order (None for all); `head` every node it decodes
    after layer 0's self-attention block, (nodes, d_model) (at one layer,
    only the wanted nodes' rows are set)."""

    key: tuple
    weights: list[bytes]
    passes: list[_TriePass]
    order: np.ndarray | None
    head: np.ndarray


def _rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b` over leading batch axes as one product per row of `a`: the
    BLAS runs each on the row alone, so its bits do not depend on the other
    rows or on how many there are."""
    return (a[..., :, None, :] @ b[..., None, :, :])[..., 0, :]


class _TriePass(NamedTuple):
    """The layout of one `prefix_logits` pass (`_trie_passes`): the nodes
    that a call decodes in one block of at most `_PREFIX_BLOCK_ROWS` trie
    nodes. `kept` is their slice of the call's decoded nodes, `ids` and
    `depth` their tokens and depths. `pairs` lists each row's
    self-attention keys as (key, row, starts): back to back, its ancestors
    root first, then itself, as places among the decoded nodes (`key`),
    the row of each, and where each row's run begins. `wanted` are the
    rows whose logits the call returns, as places among the pass's rows,
    `answers` their slice of those the call returns, and `wanted_pairs`
    their runs alone, laid out as `pairs`.

    Only the last layer tells the rows apart. Every row runs the layers
    before it in full, and there its layer norm and key and value products,
    which its descendants read; the rest of the last layer (queries,
    self-attention, cross-attention, feed-forward), the final layer norm
    and the projection run over the wanted rows alone. The other rows are
    ancestors of wanted ones, which need only their keys and values.

    A row's logits are the same bits whatever other rows share its call
    (batch invariance): every product of rows is a stack of one-row
    products (`_rowwise`), self-attention scores, normalizes and sums only
    the row's own (row, key) pairs, in root-first order, and the rest is
    row-wise (layer norms, cross-attention softmax rows, GELU, residual
    sums). So dropping rows at the last layer leaves the others' bits.

    Each call binds the pass to its state (`_replace`). `kv`, (layers, 2,
    decoded nodes, d_model), receives each row's self-attention keys and
    values at layer i in `kv[i]`, at the row's place, where its
    descendants in this and later passes read them. `head` receives the
    rows after layer 0's self-attention block (at one layer, the wanted
    rows only), which depend on the rows and `_HEAD_PARAMS` but not on the
    context; with `hit` the pass starts from it instead, skipping what
    comes before."""

    kept: slice
    ids: np.ndarray
    depth: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray]
    wanted: np.ndarray
    answers: slice
    wanted_pairs: tuple[np.ndarray, np.ndarray, np.ndarray]
    kv: np.ndarray | None = None
    head: np.ndarray | None = None
    hit: bool = False

    product = staticmethod(_rowwise)

    def embedded(self, pt: dict[str, Tensor], ids: np.ndarray) -> Tensor:
        if not self.hit:
            return _embedded(pt, ids, self.depth)
        head = self.head[self.kept]
        return Tensor(head if len(self.kv) > 1 else head[self.wanted])  # one layer: the wanted rows' only

    def self_block(self, i: int, x: Tensor, pt: dict[str, Tensor], heads: int) -> Tensor:
        if self.hit and i == 0:
            return x  # the head
        last = i == len(self.kv) - 1
        h = x.layer_norm(pt[f"dec{i}_ln1_g"], pt[f"dec{i}_ln1_b"]).data
        wq, wk, wv, wo = (pt[name].data for name in _attention_names(f"dec{i}_self"))
        self.kv[i, 0, self.kept] = self.product(h, wk)
        self.kv[i, 1, self.kept] = self.product(h, wv)
        key, row, starts = self.pairs
        if last:  # no later layer reads a row's state: the wanted rows go on alone
            x, h = Tensor(x.data[self.wanted]), h[self.wanted]
            key, row, starts = self.wanted_pairs
        rows, d = h.shape
        dh = d // heads
        q = self.product(h, wq).reshape(rows, heads, dh)[row]
        k, v = self.kv[i][:, key].reshape(2, -1, heads, dh)
        scores = np.multiply(q, k).sum(axis=-1)  # (pairs, heads), each a dot product of its own
        scores *= 1.0 / math.sqrt(dh)
        scores -= np.maximum.reduceat(scores, starts)[row]
        np.exp(scores, out=scores)
        scores /= np.add.reduceat(scores, starts)[row]
        joined = np.add.reduceat(scores[..., None] * v, starts).reshape(rows, d)
        x = x + Tensor(self.product(joined, wo))
        if i == 0:
            self.head[self.kept][self.wanted if last else slice(None)] = x.data
        return x

    def cross(self, i: int, h: Tensor, ctx: Tensor, pt: dict[str, Tensor], heads: int) -> Tensor:
        return _attention(pt, f"dec{i}_cross", h, ctx, heads, mm=self.product)

    def logits(self, x: Tensor, pt: dict[str, Tensor]) -> Tensor:
        return Tensor(self.product(x.data, pt["tok_emb"].data.T))


def _trie_passes(trie: PrefixTrie, wanted: np.ndarray) -> list[_TriePass]:
    """The passes of a `prefix_logits` call that returns the logits of the
    nodes `wanted` of `trie` (sorted, distinct): it decodes them and their
    ancestors, cut into blocks of at most `_PREFIX_BLOCK_ROWS` node ids,
    one pass per block that holds a decoded node, in node order."""
    depth = trie.depth[:trie.size]
    is_wanted = np.zeros(trie.size, dtype=bool)
    is_wanted[wanted] = True
    decoded = is_wanted.copy()
    up = trie.parent[wanted]
    while up.size:  # from the wanted nodes up, one level per step, to a decoded node or past a root
        up = up[up >= 0]
        up = up[~decoded[up]]
        decoded[up] = True
        up = trie.parent[up]
    kept = np.flatnonzero(decoded)
    place = np.empty(trie.size, dtype=np.int64)  # of each decoded node among the decoded
    place[kept] = np.arange(len(kept))
    passes, answered = [], 0
    for at in np.split(np.arange(len(kept)), np.flatnonzero(np.diff(kept // _PREFIX_BLOCK_ROWS)) + 1):
        if not at.size:
            continue
        nodes = kept[at]
        run = depth[nodes] + 1
        starts = np.cumsum(run) - run
        pair_key = np.empty(run.sum(), dtype=np.int64)
        base, up = starts, nodes
        while up.size:  # an ancestor at depth j is key j of its descendant's run
            pair_key[base + depth[up]] = place[up]
            climbing = trie.parent[up] >= 0
            base, up = base[climbing], trie.parent[up[climbing]]
        row = np.repeat(np.arange(len(nodes)), run)
        given = is_wanted[nodes]
        pairs = wanted_pairs = (pair_key, row, starts)
        if not given.all():  # the wanted rows' runs alone
            run = run[given]
            wanted_pairs = (pair_key[given[row]], np.repeat(np.arange(len(run)), run), np.cumsum(run) - run)
        rows = np.flatnonzero(given)
        passes.append(_TriePass(slice(at[0], at[-1] + 1), trie.token[nodes], depth[nodes], pairs, rows,
                                slice(answered, answered + len(rows)), wanted_pairs))
        answered += len(rows)
    return passes


def _projected(rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """`rows @ weight` as a product of at least two rows, a lone row padded
    with a copy of itself. In such a product, where `weight` is a multiple
    of 8 wide, the BLAS gives a row the same bits whatever the other rows
    are and however many; a one-row product runs another kernel and rounds
    otherwise (module doc)."""
    if len(rows) == 1:
        return (np.concatenate([rows, rows]) @ weight)[:1]
    return rows @ weight


class _WavePass:
    """The layout of one `wave_logits` pass: rows of a `DecodeCache`, all at
    one depth k, whose parents are decoded. `table` (the layer-0 table) and
    `store` (the node store) are the call's arrays, which may hold what the
    call adds. The pass takes its rows' slices of what the call lays out
    once per depth level: `chain`, each row's ancestor chain, root first and
    itself last, as node ids; `at`, the chain's layer-0 table entries;
    `first`, whether the call decodes the row's node first; and `context`,
    its context, in ascending order. `flat` holds the call's contexts back
    to back behind one zero row, context c's `length[c]` rows from
    `start[c]`.

    Self-attention: a row is a batch of one query over its chain, with no
    mask and no other row of the pass. Layer 0 takes the rows' inputs and
    every chain's keys and values from the table, in place of its layer norm
    and projections. A later layer reads the ancestors' keys and values from
    the store and projects each row's own from its input (`_projected`),
    which the store keeps for the rows that `first` marks. A row at depth 0
    attends through one-row products of its input, as a one-key chain
    always did.

    Cross-attention is grouped by context, each group a run of the rows:
    `batch`, the pass's `ctx`, holds its contexts as one (contexts, keys,
    d_model) batch padded with zero rows to the longest, gathered in one
    step from `flat`; `mask` hides the padding (None without any).
    `queries` lays the rows out as (contexts, slots) queries padded to the
    most rows any context has, and `slot_of` is each row's slot in that
    layout, flattened. So a row reads only its own context, and a row of an
    empty context none (`sees`, None when every row sees one). Nothing here
    builds a graph node but the blocks' own."""

    product = staticmethod(operator.matmul)

    def __init__(self, table: np.ndarray, store: np.ndarray, chain: np.ndarray, at: np.ndarray,
                 first: np.ndarray, context: np.ndarray, flat: np.ndarray, start: np.ndarray,
                 length: np.ndarray):
        self.table, self.store, self.chain, self.at, self.first = table, store, chain, at, first
        self.depth = np.full(len(chain), chain.shape[1] - 1)
        runs = np.flatnonzero(np.diff(context, prepend=-1))
        counts = np.diff(runs, append=len(context))
        groups = context[runs]
        lengths = length[groups]
        keys, slots = lengths.max(), counts.max()
        used = np.arange(slots) < counts[:, None]
        self.queries = np.where(used, runs[:, None] + np.arange(slots), 0)
        self.slot_of = np.flatnonzero(used)
        inside = np.arange(keys) < lengths[:, None]
        self.batch = Tensor(flat[np.where(inside, start[groups][:, None] + np.arange(keys), 0)])
        self.mask = None if inside.all() else np.where(inside, 0.0, -1e30)[:, None, None, :]
        sees = np.repeat(lengths > 0, counts)[:, None]
        self.sees = None if sees.all() else sees

    def embedded(self, pt: dict[str, Tensor], ids: np.ndarray) -> Tensor:
        return _embedded(pt, ids, self.depth)

    def self_block(self, i: int, x: Tensor, pt: dict[str, Tensor], heads: int) -> Tensor:
        rows, k, d = len(self.chain), self.chain.shape[1] - 1, x.data.shape[-1]
        if i == 0:
            h = self.table[self.at[:, -1], 0]
            keys, values = self.table[self.at, 1], self.table[self.at, 2]
        else:
            h = x.layer_norm(pt[f"dec{i}_ln1_g"], pt[f"dec{i}_ln1_b"]).data
            keys, values = pair = np.empty((2, rows, k + 1, d))
            for j, name in enumerate(("wk", "wv")):
                pair[j, :, :k] = self.store[self.chain[:, :k], i - 1, j]
                pair[j, :, k] = _projected(h, pt[f"dec{i}_self_{name}"].data)
                self.store[self.chain[self.first, k], i - 1, j] = pair[j, self.first, k]
        q = Tensor(h.reshape(rows, 1, d))
        out = _attention(pt, f"dec{i}_self", q, q if k == 0 else (keys, values), heads)
        return x + Tensor(out.data.reshape(rows, d))

    def cross(self, i: int, h: Tensor, ctx: Tensor, pt: dict[str, Tensor], heads: int) -> Tensor:
        out = _attention(pt, f"dec{i}_cross", Tensor(h.data[self.queries]), ctx, heads, self.mask)
        out = out.data.reshape(-1, h.data.shape[-1])[self.slot_of]
        return Tensor(out if self.sees is None else out * self.sees)

    def logits(self, x: Tensor, pt: dict[str, Tensor]) -> Tensor:
        return x @ pt["tok_emb"].T


def _grown(array: np.ndarray, room: int, used: int) -> np.ndarray:
    """A new array of `room` rows that starts with the first `used` rows of
    `array` (the rest is left unset, so untouched pages take no memory)."""
    out = np.empty((room,) + array.shape[1:], dtype=array.dtype)
    out[:used] = array[:used]
    return out


class PrefixTrie:
    """Token prefixes named by integer node ids. Node k is its parent node
    `parent[k]` extended by `token[k]`, at `depth[k]`; a root (parent -1,
    token PAD, depth 0) is an empty prefix. Each text or history that a
    search decodes from gets a root of its own, so a node names one prefix
    of one text. Nodes are only appended; the first `size` are in use, and
    every array named in `_NODE_ARRAYS` holds one entry per node."""

    _NODE_ARRAYS = ("parent", "token", "depth")

    def __init__(self):
        self.size = 0
        self.parent = np.empty(0, dtype=np.int64)
        self.token = np.empty(0, dtype=np.int64)
        self.depth = np.empty(0, dtype=np.int64)

    def reserve(self, size: int) -> None:
        """Room for `size` nodes: the node arrays grow by doubling, so a
        caller that will add many nodes can reserve them up front."""
        if size > len(self.parent):
            room = max(size, 2 * len(self.parent))
            for name in self._NODE_ARRAYS:
                setattr(self, name, _grown(getattr(self, name), room, self.size))

    def add(self, parents, tokens, depths=None) -> np.ndarray:
        """A new node per (parent, token), parent -1 (token PAD) for a root;
        returns their ids. A parent added by the same call needs `depths`,
        each node's depth, from the caller."""
        parents = np.asarray(parents, dtype=np.int64)
        ids = np.arange(self.size, self.size + len(parents))
        self.reserve(self.size + len(ids))
        self.parent[ids] = parents
        self.token[ids] = tokens
        self.depth[ids] = np.where(parents >= 0, self.depth[parents] + 1, 0) if depths is None else depths
        self.size += len(ids)
        return ids

    def prefixes(self, nodes) -> list[tuple[int, ...]]:
        """The token prefix of each node."""
        nodes = np.asarray(nodes, dtype=np.int64)
        depth = self.depth[nodes]
        tokens = np.zeros((len(nodes), depth.max(initial=0)), dtype=np.int64)
        up = nodes.copy()
        for d in range(tokens.shape[1] - 1, -1, -1):
            deep = depth > d
            tokens[deep, d] = self.token[up[deep]]
            up[deep] = self.parent[up[deep]]
        return [tuple(row[:n]) for row, n in zip(tokens.tolist(), depth.tolist())]


class DecodeCache(PrefixTrie):
    """A prefix trie whose nodes keep their decoder state
    (`SequenceModel.wave_logits`). Each root decodes against the context it
    was made with (`new_root`), and so does every node under it:
    `context[k]` indexes `contexts`.

    The state, kept as the products that a pass would otherwise compute
    (module doc):
    - the layer-0 table, one entry per (token, depth) pair seen, which
      `entry_of` maps to its entry: `layer0[e]` holds the pair's layer-0
      self-attention input (the layer-normed sum of its token and position
      embeddings), then its keys and values, as (3, d_model);
    - per decoded node: its entry (`entry[k]`, -1 until decoded), and its
      self-attention keys and values at every layer after the first,
      `kv[k]` as (layers - 1, 2, d_model), which its descendants attend to;
      a one-layer model's cache keeps no float per node.

    The state is valid for unchanged parameters and lasts as long as the
    cache: only `wave_logits` fills it, and a call that raises leaves it as
    it was. `passes` counts the decoder passes run."""

    _NODE_ARRAYS = PrefixTrie._NODE_ARRAYS + ("context", "entry", "kv")

    def __init__(self):
        super().__init__()
        self.contexts: list[Tensor] = []
        self.context = np.empty(0, dtype=np.int64)
        self.entry = np.empty(0, dtype=np.int64)
        self.kv = np.empty((0, 0, 2, 0))  # (nodes, layers - 1, 2, d_model) from the first call on
        self.entry_of: dict[tuple[int, int], int] = {}  # (token, depth) -> its entry
        self.layer0: np.ndarray | None = None  # (entries, 3, d_model), past len(entry_of) unused
        self.passes = 0

    def add(self, parents, tokens) -> np.ndarray:
        ids = super().add(parents, tokens)
        up = self.parent[ids]
        self.context[ids] = np.where(up >= 0, self.context[up], -1)
        self.entry[ids] = -1
        return ids

    def new_root(self, context: Tensor) -> int:
        """A root whose nodes decode against `context` (from `encode`)."""
        root = int(self.add([-1], [PAD_ID])[0])
        self.context[root] = len(self.contexts)
        self.contexts.append(context)
        return root


def _embedded(pt: dict[str, Tensor], ids: np.ndarray, depth: np.ndarray) -> Tensor:
    """The token plus position embeddings of decoder rows."""
    return pt["tok_emb"][ids] + pt["tgt_pos"][depth]


def _segments(lengths) -> tuple[np.ndarray, np.ndarray]:
    """Each row's position within its segment (from 0) and its segment's
    index, for segments of the given lengths laid back to back."""
    lengths = np.asarray(lengths, dtype=np.int64)
    seg = np.repeat(np.arange(len(lengths)), lengths)
    return np.arange(seg.size) - np.repeat(np.cumsum(lengths) - lengths, lengths), seg


def _same_segment(q_seg: np.ndarray, k_seg: np.ndarray) -> np.ndarray:
    """The additive mask that lets each query row see only the key rows of
    its own segment."""
    return np.where(q_seg[:, None] == k_seg, 0.0, -1e30)


def _chain_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The depth of each of `n` rows of one chain (row i's parent is row
    i - 1) and the additive causal self-attention mask that lets a row see
    only itself and the rows before it."""
    return np.arange(n), np.where(np.tri(n, dtype=bool), 0.0, -1e30)


class _Forest:
    """The layout of teacher-forced rows (`sequence_nll`, `packed_logits`),
    and the default one: row i sits at position `depth[i]` and attends to
    what the additive (rows, rows) self-attention `mask` allows; a chain's
    (`_chain_layout`) is causal decoding. `ctx_mask`, if given, is an
    additive (rows, context rows) mask on the cross-attention, and a row it
    lets see no context row gets no cross-attention (`sees`, None when every
    row sees one). Every block is a graph node, so gradients flow."""

    product = staticmethod(operator.matmul)

    def __init__(self, depth: np.ndarray, mask: np.ndarray, ctx_mask: np.ndarray | None = None):
        self.depth, self.mask, self.ctx_mask = depth, mask, ctx_mask
        sees = None if ctx_mask is None else (ctx_mask == 0.0).any(axis=1, keepdims=True)
        self.sees = None if sees is None or sees.all() else sees

    def embedded(self, pt: dict[str, Tensor], ids: np.ndarray) -> Tensor:
        return _embedded(pt, ids, self.depth)

    def self_block(self, i: int, x: Tensor, pt: dict[str, Tensor], heads: int) -> Tensor:
        h = x.layer_norm(pt[f"dec{i}_ln1_g"], pt[f"dec{i}_ln1_b"])
        return x + _attention(pt, f"dec{i}_self", h, h, heads, self.mask)

    def cross(self, i: int, h: Tensor, ctx: Tensor, pt: dict[str, Tensor], heads: int) -> Tensor:
        out = _attention(pt, f"dec{i}_cross", h, ctx, heads, self.ctx_mask)
        return out if self.sees is None else out * self.sees

    def logits(self, x: Tensor, pt: dict[str, Tensor]) -> Tensor:
        return x @ pt["tok_emb"].T


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _views(flat: np.ndarray, shapes) -> dict[str, np.ndarray]:
    """Views of `flat` with the given (name, shape) pairs, back to back in
    order: the one layout of a model's parameters and of Adam's moments."""
    views, lo = {}, 0
    for name, shape in shapes:
        hi = lo + math.prod(shape)
        views[name] = flat[lo:hi].reshape(shape)
        lo = hi
    return views


def _buffer_of(arrays: dict[str, np.ndarray]) -> np.ndarray | None:
    """The flat float64 buffer whose `_views` `arrays` are, found by address
    (3x faster than building the views to compare); None when they are not."""
    views = list(arrays.values())
    flat = views[0].base if views else None
    if not (isinstance(flat, np.ndarray) and flat.ndim == 1 and flat.dtype == np.float64
            and flat.flags.c_contiguous):
        return None
    at = flat.ctypes.data
    for view in views:
        if view.base is not flat or view.ctypes.data != at or not view.flags.c_contiguous:
            return None
        at += view.nbytes
    return flat if at == flat.ctypes.data + flat.nbytes else None


def _pack(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """`arrays` as `_views` of one float64 buffer: kept when they already are,
    else copied into a new buffer."""
    if _buffer_of(arrays) is not None:
        return dict(arrays)
    packed = _views(np.empty(sum(np.size(a) for a in arrays.values())),
                    [(name, np.shape(a)) for name, a in arrays.items()])
    for name, array in arrays.items():
        packed[name][...] = array
    return packed


class SequenceModel:
    """Encoder-decoder over a shared vocabulary. `params` maps each name to
    a view of one flat buffer (see `_views`); other arrays are copied into
    one (`_pack`)."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = _pack(params)
        self._frozen: dict[str, Tensor] | None = None
        self._head_slot: _HeadSlot | None = None  # see the module doc

    @classmethod
    def init(cls, config: ModelConfig) -> "SequenceModel":
        """Deterministic init from the config seed: every parameter uniform
        in (-1/sqrt(d_model), 1/sqrt(d_model))."""
        rng = np.random.default_rng(config.seed)
        bound = 1.0 / math.sqrt(config.d_model)
        shapes = _param_shapes(config)
        # one draw gives the same stream as one draw per parameter, in order
        flat = rng.uniform(-bound, bound, size=sum(math.prod(shape) for _, shape in shapes))
        model = cls(config, {})  # the views below need no packing check
        model.params = _views(flat, shapes)
        return model

    def param_hash(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.params):
            digest.update(name.encode("utf-8"))
            digest.update(np.ascontiguousarray(self.params[name]).tobytes())
        return digest.hexdigest()

    def frozen(self) -> dict[str, Tensor]:
        """Cached no-grad wrappers; they view the live arrays, so in-place
        optimizer updates stay visible."""
        if self._frozen is None:
            self._frozen = {name: Tensor(arr) for name, arr in self.params.items()}
        return self._frozen

    def trainable(self) -> dict[str, Tensor]:
        return {name: Tensor(arr, requires_grad=True) for name, arr in self.params.items()}

    # -- forward -------------------------------------------------------------

    def encode(self, src_ids, params: dict[str, Tensor] | None = None,
               segments=None) -> Tensor:
        """Token plus positional embeddings through the encoder: one context
        row per position. `segments` as in `encode_embeddings`."""
        pt = params if params is not None else self.frozen()
        ids = np.array([int(t) for t in src_ids], dtype=np.int64)
        return self.encode_embeddings(pt["tok_emb"][ids], pt, segments)

    def encode_embeddings(self, src_embs, params: dict[str, Tensor] | None = None,
                          segments=None) -> Tensor:
        """Same as `encode` but the token-embedding lookup is bypassed;
        positional embeddings are still added.

        `segments`, if given, are the lengths of several sources packed back
        to back in the rows (`packed_logits`): each segment restarts at
        position 0, attends only to its own rows and is held to
        `max_src_len` on its own."""
        pt = params if params is not None else self.frozen()
        cfg = self.config
        x = src_embs if isinstance(src_embs, Tensor) else Tensor(np.asarray(src_embs, dtype=np.float64))
        length = x.data.shape[0]
        if x.data.ndim != 2 or x.data.shape[1] != cfg.d_model:
            raise ShapeMismatch(f"expected (*, {cfg.d_model}) embeddings, got {x.data.shape}")
        longest = length if segments is None else max(segments, default=0)
        if longest > cfg.max_src_len:
            raise SequenceTooLong(f"source length {longest} > max_src_len {cfg.max_src_len}")
        if length == 0:
            return Tensor(np.zeros((0, cfg.d_model)))
        if segments is None:
            x, mask = x + pt["src_pos"][:length], None
        else:
            pos, seg = _segments(segments)
            x, mask = x + pt["src_pos"][pos], _same_segment(seg, seg)
        for i in range(cfg.layers):
            h = x.layer_norm(pt[f"enc{i}_ln1_g"], pt[f"enc{i}_ln1_b"])
            x = x + _attention(pt, f"enc{i}_self", h, h, cfg.heads, mask=mask)
            h = x.layer_norm(pt[f"enc{i}_ln2_g"], pt[f"enc{i}_ln2_b"])
            x = x + _feed_forward(pt, f"enc{i}_ff", h)
        return x.layer_norm(pt["enc_ln_g"], pt["enc_ln_b"])

    def decoder_all_logits(self, ctx: Tensor, ids, params: dict[str, Tensor] | None = None,
                           layout: _Forest | _TriePass | _WavePass | None = None) -> Tensor:
        """Next-token logits at each decoder row, one per token id of `ids`
        (an int array or a list of ints), against the context rows `ctx`
        (from `encode`).

        The rows are laid out by `layout`, by default `_Forest` over one
        chain: causal decoding of a shifted target, the start symbol (PAD)
        followed by the previous gold tokens. The loop is the model's:
        embeddings, then per layer three pre-norm blocks (self-attention,
        cross-attention, feed-forward), then the projection tied to the token
        embeddings. It asks the layout for each row's position (`depth`), the
        embeddings, each layer's self-attention block, the cross-attention of
        the normed rows, the products of the rows (`product`) and the
        projection; each layout (`_Forest`, `_TriePass`, `_WavePass`) states
        its contract. When `ctx` has no rows, no row gets cross-attention.
        """
        pt = params if params is not None else self.frozen()
        cfg = self.config
        ids = np.asarray(ids, dtype=np.int64)
        layout = _Forest(*_chain_layout(len(ids))) if layout is None else layout
        deepest = layout.depth.max(initial=-1)
        if deepest >= cfg.max_tgt_len:
            raise SequenceTooLong(f"target length {deepest + 1} > max_tgt_len {cfg.max_tgt_len}")
        x = layout.embedded(pt, ids)
        for i in range(cfg.layers):
            x = layout.self_block(i, x, pt, cfg.heads)
            if ctx.data.shape[-2] > 0:
                h = x.layer_norm(pt[f"dec{i}_ln2_g"], pt[f"dec{i}_ln2_b"])
                x = x + layout.cross(i, h, ctx, pt, cfg.heads)
            h = x.layer_norm(pt[f"dec{i}_ln3_g"], pt[f"dec{i}_ln3_b"])
            x = x + _feed_forward(pt, f"dec{i}_ff", h, layout.product)
        return layout.logits(x.layer_norm(pt["dec_ln_g"], pt["dec_ln_b"]), pt)

    def prefix_logits(self, ctx: Tensor, trie: PrefixTrie, rows=None) -> np.ndarray:
        """Next-token logits after every node of `trie`, one row per node, in
        node order (inference path, frozen parameters); or, given `rows`,
        node ids in any order and with or without their ancestors, after
        those nodes only: what the call without `rows` gives them, bit for
        bit, one row per id in the given order.

        A call decodes the given nodes and their ancestors in node order
        (parents come first), in passes over blocks of at most
        `_PREFIX_BLOCK_ROWS` node ids (`_trie_passes`), and a block without
        one runs no pass. A row attends to itself and its ancestors, whose
        keys and values the passes keep for the call. An ancestor that is
        not given runs only as far as those keys and values (`_TriePass`).
        A row's bits do not depend on the other rows of the call. The call
        reuses or refills the model's head slot (module doc), so nodes may
        be appended to `trie` between calls but not changed.
        """
        cfg = self.config
        pt = self.frozen()
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim != 1:
                raise ValueError("rows must be a 1-D array of the trie's node ids")
        slot = self._head_slot
        key = (cfg, _PREFIX_BLOCK_ROWS, trie, trie.size, None if rows is None else rows.tobytes())
        # weights compare as bytes, not values (0.0 != -0.0)
        hit = (slot is not None and slot.key == key
               and all(pt[name].data.tobytes() == kept for name, kept in zip(_HEAD_PARAMS, slot.weights)))
        if not hit:
            wanted, order = np.arange(trie.size), None
            if rows is not None:
                if ((rows < 0) | (rows >= trie.size)).any():
                    raise ValueError("rows must be a 1-D array of the trie's node ids")
                wanted = np.unique(rows)
                order = np.searchsorted(wanted, rows)
            passes = _trie_passes(trie, wanted)
            slot = _HeadSlot(key, [pt[name].data.tobytes() for name in _HEAD_PARAMS], passes, order,
                             np.empty((passes[-1].kept.stop if passes else 0, cfg.d_model)))
        # each decoded node's self-attention keys and values, in node order
        kv = np.empty((cfg.layers, 2, len(slot.head), cfg.d_model))
        logits = np.empty((slot.passes[-1].answers.stop if slot.passes else 0, cfg.vocab_size))
        for p in slot.passes:
            if hit and cfg.layers == 1 and not len(p.wanted):
                continue  # a one-layer hit runs nothing for rows it does not return
            layout = p._replace(kv=kv, head=slot.head, hit=hit)
            logits[p.answers] = self.decoder_all_logits(ctx, p.ids, layout=layout).data
        if not hit:
            self._head_slot = slot
        return logits if slot.order is None else logits[slot.order]

    def wave_logits(self, cache: DecodeCache, nodes, on_pass) -> None:
        """Next-token logits after each of `nodes`, a 1-D int array of node
        ids of `cache` (inference path, frozen parameters), each against its
        root's context. Every node's parent must be decoded already: anything
        else is a ValueError, raised before any pass.

        The call first fills what its passes read and the cache lacks: a
        layer-0 table entry for each (token, depth) pair new to the cache.
        It then decodes the nodes by depth, in passes of at most
        `_WAVE_KEY_FLOATS` gathered key floats (rows times depth + 1 times
        d_model) and `_WAVE_LOGITS` logits, grouped by context, each row
        reading only its own ancestors' keys and values and its own context
        (module doc); rows of one depth and context keep the given order.
        The head slot is neither read nor written.

        Each pass's logits go to `on_pass(indices, logits)` as the pass
        returns, `indices` the positions in `nodes` its rows answer, one
        logits row each: the (n, V) array of a whole call is never built.
        The cache takes the new state only once every pass has run.
        """
        cfg, pt = self.config, self.frozen()
        d, layers = cfg.d_model, cfg.layers
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1 or ((nodes < 0) | (nodes >= cache.size)).any():
            raise ValueError("nodes must be a 1-D array of the cache's node ids")
        if not len(nodes):
            return
        up = cache.parent[nodes]
        orphan = (up >= 0) & (cache.entry[up] < 0)
        if orphan.any():
            raise ValueError(f"node {nodes[orphan][0]} has a parent that is not decoded")
        depth, ids, context = cache.depth[nodes], cache.token[nodes], cache.context[nodes]
        if depth.max() >= cfg.max_tgt_len:
            raise SequenceTooLong(f"target length {depth.max() + 1} > max_tgt_len {cfg.max_tgt_len}")
        order = np.lexsort((context, depth))  # by depth, then context, then given order
        # each node's table entry; a (token, depth) pair new to the cache gets the next one
        pairs, pair_of = np.unique(depth * cfg.vocab_size + ids, return_inverse=True)
        known, fresh = len(cache.entry_of), {}
        slots = np.empty(len(pairs), dtype=np.int64)
        for u, key in enumerate(pairs.tolist()):
            pair = (key % cfg.vocab_size, key // cfg.vocab_size)
            slot = cache.entry_of.get(pair)
            if slot is None:
                slot = fresh[pair] = known + len(fresh)
            slots[u] = slot
        entry = slots[pair_of]
        # what the call adds stays unseen until it returns: table entries past
        # those the cache holds, the keys and values of undecoded nodes; a
        # table that is too small and the node store at the first call are
        # new arrays
        table, kv = cache.layer0, cache.kv
        if fresh:
            if table is None or known + len(fresh) > len(table):
                table = _grown(np.empty((0, 3, d)) if table is None else table,
                               max(known + len(fresh), 2 * known), known)
            tokens, depths = np.array(list(fresh), dtype=np.int64).T
            h = _embedded(pt, tokens, depths).layer_norm(pt["dec0_ln1_g"], pt["dec0_ln1_b"]).data
            table[known:known + len(fresh)] = np.stack(
                [h, _projected(h, pt["dec0_self_wk"].data), _projected(h, pt["dec0_self_wv"].data)], axis=1)
        if kv.shape[1:] != (layers - 1, 2, d):
            kv = np.empty((len(cache.parent), layers - 1, 2, d))
        # the call's contexts back to back behind one zero row, context c's rows from start[c]
        used = np.unique(context)
        rows = [cache.contexts[c].data for c in used.tolist()]
        length = np.zeros(len(cache.contexts), dtype=np.int64)
        length[used] = [len(r) for r in rows]
        start = np.cumsum(length) - length + 1
        flat = np.concatenate([np.zeros((1, d)), *rows])
        first = cache.entry[nodes] < 0
        passes = 0
        for level in np.split(order, np.flatnonzero(np.diff(depth[order])) + 1):
            k = depth[level[0]]
            chain = np.empty((len(level), k + 1), dtype=np.int64)
            chain[:, k] = nodes[level]
            for j in range(k - 1, -1, -1):
                chain[:, j] = cache.parent[chain[:, j + 1]]
            at = cache.entry[chain]
            at[:, k] = entry[level]
            step = max(1, min(_WAVE_KEY_FLOATS // ((k + 1) * d), _WAVE_LOGITS // cfg.vocab_size))
            for lo in range(0, len(level), step):
                sel = level[lo:lo + step]
                layout = _WavePass(table, kv, chain[lo:lo + step], at[lo:lo + step], first[sel], context[sel], flat,
                                   start, length)
                on_pass(sel, self.decoder_all_logits(layout.batch, ids[sel], layout=layout).data)
                passes += 1
        cache.layer0, cache.kv = table, kv
        cache.entry[nodes] = entry
        cache.entry_of.update(fresh)
        cache.passes += passes

    def sequence_nll(self, ctx: Tensor, target_ids,
                     params: dict[str, Tensor] | None = None) -> Tensor:
        """Teacher-forced negative log-likelihood summed over the target.

        The target must end with EOS; every position is conditioned on the
        gold previous tokens.
        """
        target = [int(t) for t in target_ids]
        if not target or target[-1] != EOS_ID:
            raise ValueError("target must be non-empty and end with EOS")
        rows = self.decoder_all_logits(ctx, [PAD_ID] + target[:-1], params=params)
        logp = rows.log_softmax(axis=-1)
        picked = logp[(np.arange(len(target)), np.array(target))]
        return -picked.sum()

    def packed_logits(self, pairs, params: dict[str, Tensor] | None = None) -> Tensor:
        """Next-token logits at every decoder row of several (source ids,
        decoder input ids) pairs, stacked in pair order: for each pair what
        `decoder_all_logits(encode(source), decoder input)` gives it alone,
        up to summation order (bit for bit for a pack of one pair).

        The pairs are packed in order, at most `_PREFIX_BLOCK_ROWS` source
        rows to a pack (a longer source fills a pack alone). A pack is one
        `encode` of its sources back to back, one segment per pair, and one
        `decoder_all_logits` of its decoder inputs back to back, laid out as
        a forest of one chain per pair whose cross-attention is masked to
        the pair's own segment; so each length limit holds per pair."""
        pt = params if params is not None else self.frozen()
        packs: list[list[tuple]] = []
        size = 0
        for src, dec in pairs:
            if not packs or size + len(src) > _PREFIX_BLOCK_ROWS:
                packs.append([])
                size = 0
            packs[-1].append((src, dec))
            size += len(src)
        logits = []
        for pack in packs:
            src_lengths = [len(src) for src, _ in pack]
            depth, seg = _segments([len(dec) for _, dec in pack])
            mask = np.where((seg[:, None] == seg) & np.tri(len(seg), dtype=bool), 0.0, -1e30)
            ctx = self.encode([t for src, _ in pack for t in src], pt, segments=src_lengths)
            layout = _Forest(depth, mask, _same_segment(seg, _segments(src_lengths)[1]))
            logits.append(self.decoder_all_logits(ctx, [t for _, dec in pack for t in dec], pt, layout))
        return logits[0] if len(logits) == 1 else concat(logits)


def expected_embedding(logits: Tensor, emb: Tensor) -> Tensor:
    """softmax(logits) . emb: the probability-weighted average embedding row,
    differentiable w.r.t. the logits."""
    probs = logits.reshape(1, -1).softmax(axis=-1)
    return (probs @ emb).reshape(-1)


def expected_embedding_rows(logits: Tensor, emb: Tensor) -> Tensor:
    """`expected_embedding` of every row of (L, V) logits, stacked to (L, d),
    as one graph node.

    Its values and gradients equal `stack_rows` over per-row
    `expected_embedding` bit for bit: the softmax and its gradient run along
    each row's last axis, and every product of rows is a stack of one-row
    products (`_rowwise`); one (L, V) @ (V, d) product would not be, as BLAS
    sums it in another order. `emb`'s gradient sums one product per row, in
    row order (training passes a frozen table, so it never runs there)."""
    table = emb.data
    probs, vjp = softmax(np.ascontiguousarray(logits.data))

    def bw(g, a=logits, b=emb):
        g = np.ascontiguousarray(g)
        if b.requires_grad:
            for i in range(len(g)):
                b._accum(probs[i:i + 1].swapaxes(-1, -2) @ g[i:i + 1])
        if a.requires_grad:
            a._accum(vjp(_rowwise(g, table.swapaxes(-1, -2))))
    return Tensor._op(_rowwise(probs, table), (logits, emb), bw)


# -- optimizer -----------------------------------------------------------------

# Elements per in-place Adam pass: bounds the scratch arrays while a
# default-size model still takes only a few passes per step.
_ADAM_CHUNK = 32768


class AdamState:
    """First/second moment accumulators plus the shared step counter.

    From the first step on, `m` and `v` are `_views` of two buffers laid out
    like the parameter buffer they follow (see `apply_update`); moments
    loaded from a checkpoint are copied into that layout then."""

    def __init__(self) -> None:
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0
        # the layout of the last params: their views (matched by identity), the
        # parameter, m, v and (2, chunk) scratch buffers, and per chunk of at
        # most `_ADAM_CHUNK` elements which gradient slice fills which part
        self._params: tuple[np.ndarray, ...] = ()
        self._buffers: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._chunks: list[tuple[int, int, list[tuple[str, int, int, int]]]] = []

    def _lay_out(self, params: dict[str, np.ndarray]) -> None:
        flat = _buffer_of(params)
        if flat is None:
            raise ValueError("apply_update needs parameters that are the views of one "
                             "float64 buffer, as SequenceModel.params are")
        shapes = [(name, param.shape) for name, param in params.items()]
        m_flat, v_flat = np.zeros(flat.size), np.zeros(flat.size)
        m, v = _views(m_flat, shapes), _views(v_flat, shapes)
        for views, held in ((m, self.m), (v, self.v)):
            for name in views.keys() & held.keys():
                views[name][...] = held[name]
        ends = [0, *accumulate(param.size for param in params.values())]
        spans = list(zip(params, ends, ends[1:]))
        chunks = []
        for c_lo in range(0, flat.size, _ADAM_CHUNK):
            c_hi = min(c_lo + _ADAM_CHUNK, flat.size)
            pieces = [(name, max(lo, c_lo) - lo, min(hi, c_hi) - lo, max(lo, c_lo) - c_lo)
                      for name, lo, hi in spans if lo < c_hi and hi > c_lo]
            chunks.append((c_lo, c_hi, pieces))
        self.m, self.v, self._params, self._chunks = m, v, tuple(params.values()), chunks
        self._buffers = (flat, m_flat, v_flat, np.empty((2, min(_ADAM_CHUNK, flat.size))))


def apply_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray | None],
                 state: AdamState, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One in-place Adam step; absent gradients count as zero. `params` must
    be the `_views` of one buffer (a ValueError, state untouched, otherwise).

    Each chunk of the buffer copies its gradients into scratch and runs the
    textbook expressions in place, in the order a per-parameter update
    would (`m = beta1*m + (1-beta1)*g`, `v = beta2*v + (1-beta2)*g*g`,
    `p -= lr*m_hat / (sqrt(v_hat) + eps)`), so the result is the same bits
    without a full-size temporary."""
    for name, param in params.items():
        grad = grads.get(name)
        if grad is not None and grad.shape != param.shape:
            raise ShapeMismatch(f"gradient for {name!r} has shape {grad.shape}, expected {param.shape}")
    if len(params) != len(state._params) or any(a is not b for a, b in zip(params.values(), state._params)):
        state._lay_out(params)
    state.step += 1
    c1, c2 = 1 - beta1 ** state.step, 1 - beta2 ** state.step
    flat, m_flat, v_flat, scratch = state._buffers
    for lo, hi, pieces in state._chunks:
        g, a = scratch[0, :hi - lo], scratch[1, :hi - lo]
        for name, start, stop, at in pieces:
            grad = grads.get(name)
            if grad is None:
                g[at:at + stop - start] = 0.0
            else:
                g[at:at + stop - start] = grad.reshape(-1)[start:stop]
        p, m, v = flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
        np.multiply(m, beta1, out=m)
        np.multiply(g, 1 - beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(g, 1 - beta2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(m, c1, out=a)      # m_hat
        np.multiply(a, lr, out=a)    # lr * m_hat
        np.divide(v, c2, out=g)      # v_hat
        np.sqrt(g, out=g)
        np.add(g, eps, out=g)
        np.divide(a, g, out=a)
        np.subtract(p, a, out=p)


# -- checkpoints -----------------------------------------------------------------


def save_checkpoint(model: SequenceModel, opt: AdamState, vocab_hash: str, path: str | Path) -> None:
    """Versioned binary container: config, parameters, optimizer state, and
    the hash of the vocabulary the model was trained against."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "vocab_hash": vocab_hash,
        "adam_step": opt.step,
    }
    arrays = {f"p:{k}": v for k, v in model.params.items()}
    arrays.update({f"m:{k}": v for k, v in opt.m.items()})
    arrays.update({f"v:{k}": v for k, v in opt.v.items()})
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)


_META_FIELDS = {"version": int, "vocab_hash": str, "config": dict, "adam_step": int}


def _read_meta(path: str | Path, raw: bytes) -> dict:
    """A checkpoint's meta record with its `config` built into a ModelConfig;
    a malformed record is a ValueError naming the file."""
    try:
        meta = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: unreadable checkpoint meta record: {exc}") from exc
    if not isinstance(meta, dict) or any(type(meta.get(k)) is not t for k, t in _META_FIELDS.items()):
        raise ValueError(f"{path}: checkpoint meta record must be an object with "
                         + ", ".join(f"{k} ({t.__name__})" for k, t in _META_FIELDS.items()))
    if meta["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta['version']} in {path}")
    try:
        if any(type(v) is not int for v in meta["config"].values()):
            raise TypeError("every model config value must be an int")
        meta["config"] = ModelConfig(**meta["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad model config in checkpoint meta record: {exc}") from exc
    return meta


def load_checkpoint(path: str | Path,
                    expected_vocab_hash: str | None = None) -> tuple[SequenceModel, AdamState, str]:
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path} is not a readable checkpoint: {exc}") from exc
    with data:
        if "__meta__" not in data.files:
            raise ValueError(f"{path} is not a checkpoint: it has no __meta__ record")
        meta = _read_meta(path, bytes(data["__meta__"]))
        vocab_hash = meta["vocab_hash"]
        if expected_vocab_hash is not None and vocab_hash != expected_vocab_hash:
            raise VocabularyMismatch(
                f"checkpoint {path} was trained against vocabulary {vocab_hash[:12]}..., "
                f"expected {expected_vocab_hash[:12]}..."
            )
        config = meta["config"]
        shapes = dict(_param_shapes(config))
        params, opt = {}, AdamState()
        opt.step = meta["adam_step"]
        arrays = {"p": params, "m": opt.m, "v": opt.v}
        for key in data.files:
            if key == "__meta__":
                continue
            kind, _, name = key.partition(":")
            if kind not in arrays or name not in shapes:
                raise ValueError(f"{path}: unexpected checkpoint entry {key!r}")
            array = data[key]
            if array.shape != shapes[name]:
                raise ValueError(f"{path}: parameter {key!r} has shape {array.shape}, "
                                 f"expected {shapes[name]}")
            arrays[kind][name] = array.astype(np.float64)
    missing = [name for name in shapes if name not in params]
    if missing:
        raise ValueError(f"{path}: missing parameter 'p:{missing[0]}'")
    return SequenceModel(config, params), opt, vocab_hash
