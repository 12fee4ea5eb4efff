"""Small trainable encoder-decoder sequence model with exact reverse-mode
gradients, instantiated both as the ID generator and as the base recommender.

Pre-norm transformer blocks, learned positional embeddings, and an output
projection tied to the token embedding table. All math is float64; the same
forward code runs training (trainable parameter wrappers) and inference
(frozen wrappers, no graph construction). Each attention block (all heads
in one batched matmul), each feed-forward block and each layer norm is one
graph node, so a pass builds few nodes whatever the head count.

The decoder runs over a tree of rows: each row names its parent, sits at
position = depth and attends only to its ancestors. A chain is causal
decoding (`sequence_nll`); a prefix tree scores many prefixes in one pass
(`prefix_logits`, the only step scorer) against the context rows that
`encode` returns. Callers use four model members: `config`, `encode`,
`prefix_logits` and `param_hash`.

There is one parameter layout: `_views` lays a model's parameters out back
to back in one float64 buffer and `AdamState`'s moments in two buffers like
it, so an Adam step is a few in-place numpy passes over whole buffers.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .autograd import Tensor, gelu, softmax
from .tokenizer import EOS_ID, PAD_ID


class SequenceTooLong(ValueError):
    """Input length exceeds the configured positional table."""


class ShapeMismatch(ValueError):
    """Gradient shapes do not match the parameters they update."""


class VocabularyMismatch(ValueError):
    """A checkpoint was trained against a different vocabulary."""


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
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        for name in ("vocab_size", "d_model", "layers", "heads", "ff_dim", "max_src_len", "max_tgt_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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


def _attention(pt: dict[str, Tensor], prefix: str, q_in: Tensor, kv_in: Tensor,
               heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Multi-head attention as one graph node, all heads in one batched
    matmul over (heads, rows, dh) views of the projections.

    Forward and backward run the numpy expressions, array layouts and
    requires_grad skips of the op chain it stands for (projections, scaled
    per-head scores plus mask, softmax, weighted values, output
    projection), so values and gradients are that chain's bits. The inputs
    get their contributions in the chain's order: Q, then K, then V."""
    wq, wk, wv, wo = (pt[name] for name in _attention_names(prefix))
    rows, width = q_in.data.shape[0], wq.data.shape[1]
    keys, dh = kv_in.data.shape[0], width // heads
    scale = 1.0 / math.sqrt(dh)
    q = (q_in.data @ wq.data).reshape(rows, heads, dh).swapaxes(0, 1)
    k_t = (kv_in.data @ wk.data).T.reshape(heads, dh, keys)
    v = (kv_in.data @ wv.data).reshape(keys, heads, dh).swapaxes(0, 1)
    scores = (q @ k_t) * scale
    if mask is not None:
        scores = scores + mask
    probs, softmax_vjp = softmax(scores)
    joined = (probs @ v).swapaxes(0, 1).reshape(rows, width)

    def bw(g):
        need_q = q_in.requires_grad or wq.requires_grad
        need_k = kv_in.requires_grad or wk.requires_grad
        need_v = kv_in.requires_grad or wv.requires_grad
        if wo.requires_grad:
            wo._accum(joined.swapaxes(-1, -2) @ g)
        if not (need_q or need_k or need_v):
            return
        g_heads = (g @ wo.data.swapaxes(-1, -2)).reshape(rows, heads, dh).swapaxes(0, 1)
        if need_q or need_k:
            g_scores = softmax_vjp(g_heads @ v.swapaxes(-1, -2)) * scale
        if need_q:
            g_q = (g_scores @ k_t.swapaxes(-1, -2)).swapaxes(0, 1).reshape(rows, width)
            if q_in.requires_grad:
                q_in._accum(g_q @ wq.data.swapaxes(-1, -2))
            if wq.requires_grad:
                wq._accum(q_in.data.swapaxes(-1, -2) @ g_q)
        if need_k:
            g_k = (q.swapaxes(-1, -2) @ g_scores).reshape(width, keys).swapaxes(-1, -2)
            if kv_in.requires_grad:
                kv_in._accum(g_k @ wk.data.swapaxes(-1, -2))
            if wk.requires_grad:
                wk._accum(kv_in.data.swapaxes(-1, -2) @ g_k)
        if need_v:
            g_v = (probs.swapaxes(-1, -2) @ g_heads).swapaxes(0, 1).reshape(keys, width)
            if kv_in.requires_grad:
                kv_in._accum(g_v @ wv.data.swapaxes(-1, -2))
            if wv.requires_grad:
                wv._accum(kv_in.data.swapaxes(-1, -2) @ g_v)
    return Tensor._op(joined @ wo.data, (q_in, kv_in, wq, wk, wv, wo), bw)


def _feed_forward(pt: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    """`gelu(x @ w1 + b1) @ w2 + b2` as one graph node that runs the numpy
    expressions of that op chain, forward and backward."""
    w1, b1, w2, b2 = (pt[f"{prefix}_{name}"] for name in ("w1", "b1", "w2", "b2"))
    hidden, gelu_vjp = gelu(x.data @ w1.data + b1.data)

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
    return Tensor._op(hidden @ w2.data + b2.data, (x, w1, b1, w2, b2), bw)


# Rows per decoder pass in `prefix_logits`: bounds the (rows x rows)
# attention matrices while large tries still take few passes.
_PREFIX_BLOCK_ROWS = 512


def _tree_layout(parents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Depth of every row and the additive self-attention mask that lets a
    row see only itself and its ancestors. Parents precede their children;
    a root has a negative parent.

    Every row climbs its ancestor chain one level per numpy pass, so a tree
    takes as many passes as it is deep."""
    n = len(parents)
    late = np.flatnonzero(parents >= np.arange(n))
    if late.size:
        i = late[0]
        raise ValueError(f"row {i} has parent {parents[i]}; parents must precede their children")
    depth = np.zeros(n, dtype=np.int64)
    allowed = np.eye(n, dtype=bool)
    rows = np.flatnonzero(parents >= 0)
    anc = parents[rows]
    while rows.size:
        allowed[rows, anc] = True
        depth[rows] += 1
        anc = parents[anc]
        climbing = anc >= 0
        rows, anc = rows[climbing], anc[climbing]
    return depth, np.where(allowed, 0.0, -1e30)


def _chain_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`_tree_layout` of the chain parents[i] = i-1: the causal mask, built
    directly (the walk is slower on a chain than this)."""
    return np.arange(n), np.where(np.tri(n, dtype=bool), 0.0, -1e30)


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

    def encode(self, src_ids, params: dict[str, Tensor] | None = None) -> Tensor:
        """Token plus positional embeddings through the encoder: one context row per position."""
        pt = params if params is not None else self.frozen()
        ids = np.array([int(t) for t in src_ids], dtype=np.int64)
        return self.encode_embeddings(pt["tok_emb"][ids], pt)

    def encode_embeddings(self, src_embs, params: dict[str, Tensor] | None = None) -> Tensor:
        """Same as `encode` but the token-embedding lookup is bypassed;
        positional embeddings are still added."""
        pt = params if params is not None else self.frozen()
        cfg = self.config
        x = src_embs if isinstance(src_embs, Tensor) else Tensor(np.asarray(src_embs, dtype=np.float64))
        length = x.data.shape[0]
        if x.data.ndim != 2 or x.data.shape[1] != cfg.d_model:
            raise ShapeMismatch(f"expected (*, {cfg.d_model}) embeddings, got {x.data.shape}")
        if length > cfg.max_src_len:
            raise SequenceTooLong(f"source length {length} > max_src_len {cfg.max_src_len}")
        if length == 0:
            return Tensor(np.zeros((0, cfg.d_model)))
        x = x + pt["src_pos"][:length]
        for i in range(cfg.layers):
            h = x.layer_norm(pt[f"enc{i}_ln1_g"], pt[f"enc{i}_ln1_b"])
            x = x + _attention(pt, f"enc{i}_self", h, h, cfg.heads)
            h = x.layer_norm(pt[f"enc{i}_ln2_g"], pt[f"enc{i}_ln2_b"])
            x = x + _feed_forward(pt, f"enc{i}_ff", h)
        return x.layer_norm(pt["enc_ln_g"], pt["enc_ln_b"])

    def decoder_all_logits(self, ctx: Tensor, dec_input_ids,
                           params: dict[str, Tensor] | None = None,
                           parents=None) -> Tensor:
        """Next-token logits at every decoder row.

        Row i holds token `dec_input_ids[i]` at position = its depth, attends
        to the context rows `ctx` (from `encode`) and to itself and its
        ancestors under `parents` (one parent index per row, -1 for a root,
        parents before children). The default chain `parents[i] = i-1` is
        causal decoding of the shifted target: start symbol (PAD) followed by
        the previous gold tokens.
        """
        pt = params if params is not None else self.frozen()
        cfg = self.config
        ids = np.array([int(t) for t in dec_input_ids], dtype=np.int64)
        if parents is None:
            depth, mask = _chain_layout(len(ids))
        else:
            parents = np.asarray(parents, dtype=np.int64)
            if parents.shape != ids.shape:
                raise ValueError(f"{len(parents)} parents for {len(ids)} decoder rows")
            depth, mask = _tree_layout(parents)
        if len(ids) and depth.max() >= cfg.max_tgt_len:
            raise SequenceTooLong(f"target length {depth.max() + 1} > max_tgt_len {cfg.max_tgt_len}")
        x = pt["tok_emb"][ids] + pt["tgt_pos"][depth]
        for i in range(cfg.layers):
            h = x.layer_norm(pt[f"dec{i}_ln1_g"], pt[f"dec{i}_ln1_b"])
            x = x + _attention(pt, f"dec{i}_self", h, h, cfg.heads, mask=mask)
            if ctx.data.shape[0] > 0:
                h = x.layer_norm(pt[f"dec{i}_ln2_g"], pt[f"dec{i}_ln2_b"])
                x = x + _attention(pt, f"dec{i}_cross", h, ctx, cfg.heads)
            h = x.layer_norm(pt[f"dec{i}_ln3_g"], pt[f"dec{i}_ln3_b"])
            x = x + _feed_forward(pt, f"dec{i}_ff", h)
        x = x.layer_norm(pt["dec_ln_g"], pt["dec_ln_b"])
        return x @ pt["tok_emb"].T

    def prefix_logits(self, ctx: Tensor, prefixes) -> np.ndarray:
        """Next-token logits after each prefix, one row per prefix, in order
        (inference path, frozen parameters).

        The prefixes and all their ancestors form one tree that the decoder
        scores with ancestor-only attention, in passes of at most
        `_PREFIX_BLOCK_ROWS` rows (or one full prefix chain, if longer); each
        pass carries the ancestors its prefixes need. Duplicates and prefixes
        given without their ancestors are allowed.
        """
        prefixes = [tuple(int(t) for t in p) for p in prefixes]
        out = np.empty((len(prefixes), self.config.vocab_size))
        rows: dict[tuple[int, ...], int] = {}  # prefix -> row of the current block
        tokens: list[int] = []
        parents: list[int] = []
        wanted: list[tuple[int, int]] = []  # (output index, block row)

        def flush() -> None:
            if wanted:
                logits = self.decoder_all_logits(ctx, tokens, parents=parents).data
                for index, row in wanted:
                    out[index] = logits[row]
            rows.clear()
            tokens.clear()
            parents.clear()
            wanted.clear()

        # lexicographic order walks the tree depth-first, so neighbours share ancestors
        for index in sorted(range(len(prefixes)), key=prefixes.__getitem__):
            p = prefixes[index]
            missing = [k for k in range(len(p) + 1) if p[:k] not in rows]
            if rows and len(rows) + len(missing) > _PREFIX_BLOCK_ROWS:
                flush()
                missing = list(range(len(p) + 1))
            for k in missing:
                rows[p[:k]] = len(tokens)
                tokens.append(p[k - 1] if k else PAD_ID)
                parents.append(rows[p[:k - 1]] if k else -1)
            wanted.append((index, rows[p]))
        flush()
        return out

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


def expected_embedding(logits: Tensor, emb: Tensor) -> Tensor:
    """softmax(logits) . emb: the probability-weighted average embedding row,
    differentiable w.r.t. the logits."""
    probs = logits.reshape(1, -1).softmax(axis=-1)
    return (probs @ emb).reshape(-1)


def expected_embedding_rows(logits: Tensor, emb: Tensor) -> Tensor:
    """`expected_embedding` of every row of (L, V) logits, stacked to (L, d),
    as one graph node.

    Row by row it runs the numpy expressions of the per-row op chain, so its
    values and gradients equal `stack_rows` over per-row `expected_embedding`
    bit for bit; one (L, V) @ (V, d) product would not, as BLAS sums it in
    another order."""
    table = emb.data
    probs = [softmax(row.reshape(1, -1)) for row in logits.data]
    out = np.concatenate([y @ table for y, _ in probs], axis=0)

    def bw(g, a=logits, b=emb):
        g = np.ascontiguousarray(g)
        g_logits = np.empty(a.data.shape)
        for i, (y, vjp) in enumerate(probs):
            g_row = g[i:i + 1]
            if a.requires_grad:
                g_logits[i] = vjp(g_row @ table.swapaxes(-1, -2))
            if b.requires_grad:
                b._accum(y.swapaxes(-1, -2) @ g_row)
        if a.requires_grad:
            a._accum(g_logits)
    return Tensor._op(out, (logits, emb), bw)


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
